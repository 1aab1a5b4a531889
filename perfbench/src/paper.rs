//! The paper phases: the Figure 4(b) flow-level permutation study and
//! two flit-level runs (light fault-free uniform load; load 0.4 under
//! Poisson link churn with retransmission).

use crate::checks::{self, Fig4Sample};
use crate::inputs::Rng;
use crate::trace::Tracer;
use lmpr_core::{Router, RouterKind};
use lmpr_flitsim::{
    FaultPolicy, FlitSim, ResilienceConfig, RetxConfig, SimConfig, SimStats, TrafficMode,
};
use lmpr_flowsim::{average_over_seeds, ml_lower_bound, LinkLoads, PermutationStudy, StudyConfig};
use lmpr_traffic::{random_permutation, TrafficMatrix};
use std::time::Instant;
use xgft::{FaultSchedule, Topology};

pub const LIGHT_LOAD: f64 = 0.1;

/// Flits per message of the simulator's default configuration.
pub fn message_flits() -> f64 {
    let c = SimConfig::default();
    (c.packet_flits as u64 * c.packets_per_message as u64) as f64
}

/// Level of the nearest common ancestor, from the spec's `m` vector.
fn nca_level(m: &[u32], s: u32, d: u32) -> u64 {
    let mut below = 1u64;
    for (l, mi) in m.iter().enumerate() {
        if s as u64 / below == d as u64 / below {
            return l as u64;
        }
        below *= *mi as u64;
    }
    m.len() as u64
}

/// Route one permutation with one scheme and return its maximum link
/// load, after checking that the total load equals the summed path
/// lengths.
fn route(
    topo: &Topology,
    kind: &RouterKind,
    tm: &TrafficMatrix,
    hops: f64,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let loads = tr.span("flowsim.accumulate", || {
        LinkLoads::accumulate(topo, kind, tm)
    });
    checks::check_total_load(loads.total(), hops).map_err(|e| format!("{}: {e}", kind.name()))?;
    Ok(loads.max_load())
}

/// One permutation sample over the whole K ladder.
fn sample(
    topo: &Topology,
    ladder: &[u64],
    seed: u64,
    index: usize,
    tr: &mut Tracer,
) -> Result<(Fig4Sample, u64), String> {
    let n = topo.num_pns();
    let perm_seed = Rng::stream(seed, index as u64).next_u64();
    let tm = tr.span("traffic.permutation", || {
        TrafficMatrix::permutation(&random_permutation(n, perm_seed))
    });
    let m = topo.spec().m();
    let hops: f64 = tm
        .flows()
        .iter()
        .map(|f| 2.0 * nca_level(m, f.src.0, f.dst.0) as f64)
        .sum();
    let ml = tr.span("flowsim.ml_lower_bound", || ml_lower_bound(topo, &tm));
    let mut rows = Vec::with_capacity(ladder.len());
    let mut dmodk_per_k = Vec::with_capacity(ladder.len());
    let mut routed = 0u64;
    for &k in ladder {
        dmodk_per_k.push((k, route(topo, &RouterKind::DModK, &tm, hops, tr)?));
        let shift = route(topo, &RouterKind::ShiftOne(k), &tm, hops, tr)?;
        let disjoint = route(topo, &RouterKind::Disjoint(k), &tm, hops, tr)?;
        let random = route(topo, &RouterKind::RandomK(k, perm_seed), &tm, hops, tr)?;
        rows.push((k, shift, disjoint, random));
        routed += 4 * tm.flows().len() as u64;
    }
    checks::check_dmodk_constant(&dmodk_per_k)?;
    let s = Fig4Sample {
        ml,
        dmodk: dmodk_per_k[0].1,
        rows,
    };
    checks::check_fig4_sample(topo.w_prod(topo.height()), &s)?;
    Ok((s, routed))
}

/// The random heuristic's seeds, as the `fig4` binary averages it.
const RANDOM_SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

/// Check `count` permutations drawn from `seed` one by one, outside any
/// timed region: the per-permutation Lemma-1, total-load and d-mod-k
/// properties (see [`sample`]).
pub fn check_fig4(topo: &Topology, seed: u64, count: usize, tr: &mut Tracer) -> Result<(), String> {
    let ladder = lmpr_bench::k_ladder(topo.w_prod(topo.height()));
    for i in 0..count {
        sample(topo, &ladder, seed, i, tr)?;
    }
    Ok(())
}

/// Figure 4(b) as the `fig4` binary computes it: `PermutationStudy` for
/// d-mod-k, shift-1 and disjoint at every K and UMULTI, and
/// `average_over_seeds` for random, with the stopping rule pinned to
/// `samples` permutations per study (`initial_samples ==
/// max_samples`). One pass is one figure.
pub struct Fig4Pass {
    topo: Topology,
    ladder: Vec<u64>,
    cfg: StudyConfig,
}

/// What one pass computed: d-mod-k's mean, per K `(k, shift-1,
/// disjoint, random)` means, UMULTI's mean, and whether every study met
/// the 99 % interval rule.
pub struct Fig4Means {
    pub dmodk: f64,
    pub rows: Vec<(u64, f64, f64, f64)>,
    pub umulti: f64,
    pub converged: bool,
}

impl Fig4Pass {
    pub fn new(topo: &Topology, seed: u64, samples: usize) -> Self {
        Fig4Pass {
            topo: topo.clone(),
            ladder: lmpr_bench::k_ladder(topo.w_prod(topo.height())),
            cfg: StudyConfig {
                initial_samples: samples,
                max_samples: samples,
                seed,
                ..StudyConfig::default()
            },
        }
    }

    /// Flows one pass routes: every study routes `samples`
    /// permutations of every host.
    pub fn flows(&self) -> u64 {
        let studies = 2 + self.ladder.len() * (2 + RANDOM_SEEDS.len());
        (studies * self.cfg.max_samples) as u64 * u64::from(self.topo.num_pns())
    }

    pub fn run(&self) -> Fig4Means {
        let study = PermutationStudy::new(self.topo.clone(), self.cfg);
        let dmodk = study.run(&RouterKind::DModK);
        let mut converged = dmodk.converged;
        let mut rows = Vec::with_capacity(self.ladder.len());
        for &k in &self.ladder {
            let shift = study.run(&RouterKind::ShiftOne(k));
            let disjoint = study.run(&RouterKind::Disjoint(k));
            let random = average_over_seeds(
                &self.topo,
                RouterKind::RandomK(k, 0),
                &RANDOM_SEEDS,
                self.cfg,
            );
            converged &= shift.converged && disjoint.converged && random.converged;
            rows.push((k, shift.mean, disjoint.mean, random.mean));
        }
        let umulti = study.run(&RouterKind::Umulti);
        Fig4Means {
            dmodk: dmodk.mean,
            rows,
            umulti: umulti.mean,
            converged: converged && umulti.converged,
        }
    }

    /// The properties a figure must have: at K = X every heuristic's
    /// mean is the mean Lemma-1 bound of the same permutations, and so
    /// is UMULTI's (Theorem 1); no mean is below it; disjoint is at or
    /// below shift-1 at every K.
    pub fn check(&self, m: &Fig4Means) -> Result<(), String> {
        let x = self.topo.w_prod(self.topo.height());
        let bound = m
            .rows
            .iter()
            .find(|r| r.0 == x)
            .ok_or("the K ladder misses K = X")?
            .1;
        if (m.umulti - bound).abs() > 1e-9 * bound {
            return Err(format!(
                "UMULTI mean {} is not the Lemma-1 bound {bound}",
                m.umulti
            ));
        }
        checks::check_fig4_sample(
            x,
            &Fig4Sample {
                ml: bound,
                dmodk: m.dmodk,
                rows: m.rows.clone(),
            },
        )?;
        let means: Vec<(u64, f64, f64)> = m.rows.iter().map(|r| (r.0, r.1, r.2)).collect();
        checks::check_disjoint_below_shift(&means)
    }
}

/// Which flit-level run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flit {
    /// Fault-free uniform traffic at offered load 0.1.
    Light,
    /// Uniform traffic at load 0.4 under a Poisson link fail/repair
    /// schedule, with end-to-end retransmission.
    Churn,
}

/// The outcome of one flit-level simulation.
pub struct FlitRun {
    pub cycles: u64,
    /// Building the simulator.
    pub build_s: f64,
    /// Building it and running it to its horizon.
    pub total_s: f64,
    pub stats: SimStats,
    pub hit_ratio: f64,
}

/// Build a simulator of `flit` for `warmup + measure` cycles with
/// `seed`, run it to its horizon and check its ledger.
pub fn flit_run(
    topo: &Topology,
    flit: Flit,
    seed: u64,
    warmup: u64,
    measure: u64,
    tr: &mut Tracer,
) -> Result<FlitRun, String> {
    let cfg = SimConfig {
        warmup_cycles: warmup,
        measure_cycles: measure,
        offered_load: match flit {
            Flit::Light => LIGHT_LOAD,
            Flit::Churn => 0.4,
        },
        seed,
        ..SimConfig::default()
    };
    let t0 = Instant::now();
    let mut sim = tr
        .span("flitsim.build", || match flit {
            Flit::Light => FlitSim::new(topo, RouterKind::Disjoint(4), cfg),
            Flit::Churn => FlitSim::with_schedule(
                topo,
                RouterKind::Disjoint(4),
                cfg,
                TrafficMode::Uniform,
                FaultSchedule::poisson(topo, 1e-5, 1_500.0, cfg.horizon(), seed),
                FaultPolicy::Drop,
                ResilienceConfig {
                    detect_cycles: 50,
                    reconverge_cycles: 150,
                    retx: Some(RetxConfig::default()),
                },
            ),
        })
        .map_err(|e| format!("flit {flit:?}: {e}"))?;
    let build_s = t0.elapsed().as_secs_f64();
    let span = match flit {
        Flit::Light => "flitsim.step_light",
        Flit::Churn => "flitsim.step_churn",
    };
    while sim.now() < cfg.horizon() {
        tr.span(span, || sim.step());
    }
    let total_s = t0.elapsed().as_secs_f64();
    checks::check_ledger(&sim.conservation_ledger())?;
    Ok(FlitRun {
        cycles: cfg.horizon(),
        build_s,
        total_s,
        stats: sim.stats(),
        hit_ratio: sim.selection_stats().hit_rate(),
    })
}
