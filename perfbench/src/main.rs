//! One benchmark command for the routing controller and the paper's
//! simulators on the 1 024-host 16-port 3-tree with `disjoint(4)`.
//!
//! ```text
//! perfbench --workload serve|churn|fig4b|flit-light|flit-churn --seed N
//!           --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! A workload runs its own stage and reports the same four end-to-end
//! metrics as every other workload — `setup_s`, `peak_rss_mb`,
//! `rate_per_s` and `op_ms_p50` — each defined for its own operation
//! (see README.md). Output: the full result document on one line, then
//! the summary line `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 1` the run records spans around the layers' calls,
//! adds short fixed-input runs of the other stages and an in-process
//! replay of the daemon's layers so that every per-layer metric has a
//! value, writes the spans to the work directory and reports the
//! per-layer metrics instead. Exits non-zero on any failed check.

#![forbid(unsafe_code)]

mod checks;
mod ctld;
mod inputs;
mod paper;
mod replay;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Tracer;

const SCHEMA: u32 = 2;
const WORKLOADS: [&str; 5] = ["serve", "churn", "fig4b", "flit-light", "flit-churn"];
/// Inputs of the stages a traced run adds beside its workload's own; they
/// do not depend on `--seed`.
const PROBE_SEED: u64 = 0x9B0B_E5EE_D000_0001;
/// Daemon set-ups per serve or churn run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Query batches per slice of the serving window.
const SERVE_SLICE: usize = 1_000;
/// Permutations per study in one Figure 4(b) pass.
const FIG4_SAMPLES: usize = 8;
/// Permutations checked one by one before the passes.
const FIG4_CHECKED: usize = 4;
/// Warm-up and measured cycles of one flit-level simulation.
const FLIT_CYCLES: (u64, u64) = (300, 700);
/// Figure 4(b) set-ups per timed block; `setup_s` is the median block.
const FIG4_SETUP_BLOCK: usize = 5_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--work" => args.work = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// A metric value with its unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The end-to-end metrics of one stage.
struct E2e {
    setup_s: f64,
    peak_rss_mb: f64,
    rate_per_s: f64,
    op_ms_p50: f64,
}

#[derive(Default)]
struct Run {
    /// The end-to-end metrics of the workload's own stage.
    e2e: Metrics,
    layer: Metrics,
    ops: BTreeMap<&'static str, u64>,
    /// Further result-document fields, as JSON members.
    doc: Vec<String>,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// What the daemon stages measured: serving's and churn's end-to-end
/// metrics, each if it ran, and churn's per-epoch socket reconvergence
/// times.
struct DaemonOut {
    serve: Option<E2e>,
    churn: Option<E2e>,
    reconverge_ms: Vec<f64>,
}

/// Daemon set-ups, the warm-up over every ordered pair, then fault-free
/// serving (if asked) and link churn (if asked), on one daemon.
#[allow(clippy::too_many_arguments)]
fn daemon_stages(
    topo: &xgft::Topology,
    work: &Path,
    setups: usize,
    serve: Option<(u64, f64)>,
    churn: Option<(u64, ctld::Until)>,
    timeline: &[Vec<xgft::FaultChange>],
    tr: &mut Tracer,
    run: &mut Run,
) -> Result<DaemonOut, String> {
    let shape = ctld::Shape::of(topo);
    let n = topo.num_pns();
    let (daemon, mut conn, first) = ctld::Daemon::start(&work.join("daemon0"))?;
    let mut setup_s = vec![first];
    run.ops
        .insert("warm_up_batches", ctld::warm_up(&daemon, &shape, n)?);
    let (mut served_e2e, mut churn_e2e) = (None, None);
    if let Some((seed, secs)) = serve {
        let mut rng = inputs::Rng::stream(seed, 0x5E4E);
        let served = ctld::serve_window(&mut conn, n, &mut rng, secs, tr)?;
        ctld::check_serve(topo, &shape, &served.answers)?;
        let batches = served.batch_ms.len();
        run.ops.insert("query_batches", batches as u64);
        if batches < SERVE_SLICE {
            return Err(format!(
                "{batches} query batches fill no slice of {SERVE_SLICE}"
            ));
        }
        // Per slice of batches, then the median over slices.
        let slice =
            |f: &dyn Fn(&[f64]) -> f64| stats::slice_median(&served.batch_ms, SERVE_SLICE, f);
        served_e2e = Some(E2e {
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            rate_per_s: slice(&|s| (s.len() * ctld::BATCH) as f64 / (s.iter().sum::<f64>() / 1e3)),
            op_ms_p50: slice(&|s| stats::median(s)),
        });
        run.layer.insert(
            "ctld.wire.response_bytes",
            (served.response_bytes(), "bytes"),
        );
    }
    let mut reconverge_ms = Vec::new();
    if let Some((seed, until)) = churn {
        let mut stage = ctld::Churn::start(&daemon, n, timeline, seed, tr)?;
        stage.feed(&mut conn, until, tr)?;
        let c = stage.finish(&mut conn, topo, &shape, tr)?;
        let epochs = c.reconverge_ms.len();
        run.ops.insert("fault_batches", c.fault_batches);
        run.ops
            .insert("churn_reader_batches", c.reader_ms.len() as u64);
        churn_e2e = Some(E2e {
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            rate_per_s: epochs as f64 / c.feed_s,
            op_ms_p50: stats::median(&c.reconverge_ms),
        });
        let reader_batches = c.reader_ms.len() as f64;
        run.layer.insert(
            "ctld.client.fence_retries",
            (c.fence_retries as f64 / reader_batches.max(1.0), "count"),
        );
        run.layer.insert(
            "ctld.client.reader_batches_per_epoch",
            (reader_batches / epochs.max(1) as f64, "count"),
        );
        run.layer.insert(
            "ctld.client.fenced_wait_ms",
            (stats::median(&c.fenced_ms), "ms"),
        );
        run.doc.push(format!(
            "\"churn\": {{\"epochs\": {epochs}, \"fault_batches\": {}, \"feed_s\": {:.3}, \
             \"reader_batches\": {}, \"fenced_reader_batches\": {}, \"fence_retries\": {}, \
             \"reconverge_ms\": [{}], \"reader_ms\": [{}]}}",
            c.fault_batches,
            c.feed_s,
            c.reader_ms.len(),
            c.fenced_ms.len(),
            c.fence_retries,
            ms_list(&c.reconverge_ms),
            ms_list(&c.reader_ms),
        ));
        reconverge_ms = c.reconverge_ms;
    }
    daemon.stop(&mut conn)?;
    // Peak memory of the serving daemon, before the further set-ups,
    // whose genesis may or may not reuse its freed pages.
    let peak = peak_rss_mb();
    for i in 1..setups {
        let (d, mut c, secs) = ctld::Daemon::start(&work.join(format!("daemon{i}")))?;
        d.stop(&mut c)?;
        setup_s.push(secs);
    }
    run.ops.insert("setups", setup_s.len() as u64);
    for e in [&mut served_e2e, &mut churn_e2e].into_iter().flatten() {
        e.setup_s = stats::median(&setup_s);
        e.peak_rss_mb = peak;
    }
    Ok(DaemonOut {
        serve: served_e2e,
        churn: churn_e2e,
        reconverge_ms,
    })
}

/// Figure 4(b): a few permutations checked one by one, then whole
/// passes of the study for `secs` (at least one).
fn fig4b(
    topo: &xgft::Topology,
    seed: u64,
    secs: f64,
    tr: &mut Tracer,
    run: &mut Run,
) -> Result<E2e, String> {
    // A set-up (the topology and the studies' configuration) takes
    // about a microsecond, so each sample times a block of them, one
    // block after each pass so that the samples spread over the run.
    let setup_block = || -> Result<f64, String> {
        let t = std::time::Instant::now();
        for _ in 0..FIG4_SETUP_BLOCK {
            let (_, t2) = lmpr_bench::topology_by_name(ctld::TOPO).ok_or("unknown topology")?;
            std::hint::black_box(paper::Fig4Pass::new(&t2, seed, FIG4_SAMPLES));
        }
        Ok(t.elapsed().as_secs_f64() / FIG4_SETUP_BLOCK as f64)
    };
    paper::check_fig4(topo, seed, FIG4_CHECKED, tr)?;
    run.ops
        .insert("fig4_checked_permutations", FIG4_CHECKED as u64);
    let pass = paper::Fig4Pass::new(topo, seed, FIG4_SAMPLES);
    let (mut pass_s, mut setup_s, mut first) = (Vec::new(), Vec::new(), None);
    let t0 = std::time::Instant::now();
    while pass_s.is_empty() || t0.elapsed().as_secs_f64() < secs {
        let t = std::time::Instant::now();
        let means = tr.span("fig4b.pass", || pass.run());
        pass_s.push(t.elapsed().as_secs_f64());
        setup_s.push(setup_block()?);
        pass.check(&means)?;
        match &first {
            None => first = Some(means),
            Some(f)
                if f.dmodk == means.dmodk && f.rows == means.rows && f.umulti == means.umulti => {}
            Some(_) => return Err("two passes over the same permutations differ".to_owned()),
        }
    }
    run.ops.insert("fig4_passes", pass_s.len() as u64);
    let converged = first.as_ref().is_some_and(|m| m.converged);
    let rows: Vec<String> = first.as_ref().map_or(Vec::new(), |m| {
        m.rows
            .iter()
            .map(|r| format!("[{}, {}, {}, {}]", r.0, r.1, r.2, r.3))
            .collect()
    });
    run.doc.push(format!(
        "\"fig4b\": {{\"samples\": {FIG4_SAMPLES}, \"interval_rule_met\": {converged}, \
         \"k_shift_disjoint_random\": [{}], \"pass_ms\": [{}]}}",
        rows.join(", "),
        ms_list(&pass_s.iter().map(|s| s * 1e3).collect::<Vec<_>>())
    ));
    run.layer
        .insert("flowsim.permutations", (FIG4_SAMPLES as f64, "count"));
    let med = stats::median(&pass_s);
    Ok(E2e {
        setup_s: stats::median(&setup_s),
        peak_rss_mb: peak_rss_mb(),
        rate_per_s: pass.flows() as f64 / med,
        op_ms_p50: med * 1e3,
    })
}

/// Whole flit-level simulations on `nproc` threads, as a sweep runs
/// them: each thread runs simulations with seeds drawn from `seed` one
/// after another until `secs` have passed (at least one).
fn flit(
    topo: &xgft::Topology,
    kind: paper::Flit,
    seed: u64,
    secs: f64,
    tr: &mut Tracer,
    run: &mut Run,
) -> Result<E2e, String> {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let t0 = std::time::Instant::now();
    let results: Vec<Result<(Vec<paper::FlitRun>, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|w| {
                let mut wtr = tr.fork();
                scope.spawn(move || {
                    let mut rng = inputs::Rng::stream(seed, 0xF117 + w);
                    let mut runs = Vec::new();
                    while runs.is_empty() || t0.elapsed().as_secs_f64() < secs {
                        let (warm, measure) = FLIT_CYCLES;
                        runs.push(paper::flit_run(
                            topo,
                            kind,
                            rng.next_u64(),
                            warm,
                            measure,
                            &mut wtr,
                        )?);
                    }
                    Ok((runs, wtr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("flit worker panicked".to_owned()))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut runs = Vec::new();
    for r in results {
        let (mut part, wtr) = r?;
        runs.append(&mut part);
        tr.merge(wtr);
    }
    let (delivered, ratio, ops) = match kind {
        paper::Flit::Light => ("flitsim.flits_delivered_light", None, "flit_light_runs"),
        paper::Flit::Churn => (
            "flitsim.flits_delivered_churn",
            Some("flitsim.selection_hit_ratio_churn"),
            "flit_churn_runs",
        ),
    };
    run.layer
        .insert(delivered, (runs[0].stats.delivered_flits as f64, "count"));
    if let Some(name) = ratio {
        run.layer.insert(name, (runs[0].hit_ratio, "ratio"));
    }
    run.ops.insert(ops, runs.len() as u64);
    if kind == paper::Flit::Light {
        // Over all runs; the tolerance is five standard deviations of
        // the count of messages offered, and at least 2 %.
        let window: u64 = runs
            .iter()
            .map(|r| r.stats.measure_cycles * u64::from(r.stats.num_pns))
            .sum();
        let flits: u64 = runs.iter().map(|r| r.stats.delivered_flits).sum();
        let messages = paper::LIGHT_LOAD * window as f64 / paper::message_flits();
        checks::check_tracks_offered(
            paper::LIGHT_LOAD,
            flits as f64 / window as f64,
            (5.0 / messages.sqrt()).max(0.02),
        )?;
    }
    let build_s: Vec<f64> = runs.iter().map(|r| r.build_s).collect();
    let total_s: Vec<f64> = runs.iter().map(|r| r.total_s).collect();
    let cycles: u64 = runs.iter().map(|r| r.cycles).sum();
    Ok(E2e {
        setup_s: stats::median(&build_s),
        peak_rss_mb: peak_rss_mb(),
        rate_per_s: cycles as f64 / wall_s,
        op_ms_p50: stats::median(&total_s) * 1e3,
    })
}

fn run(args: &Args, work: &Path) -> Result<Run, String> {
    let (_, topo) = lmpr_bench::topology_by_name(ctld::TOPO).ok_or("unknown topology")?;
    let mut tr = Tracer::new(args.trace);
    let mut run = Run::default();
    let own = args.workload.as_str();
    // The workload's own stage takes the seed and the measuring time; a
    // traced run adds every other stage on the probe inputs.
    let stage = |name: &str, probe_secs: f64| {
        if name == own {
            Some((args.seed, args.seconds))
        } else if args.trace {
            Some((PROBE_SEED, probe_secs))
        } else {
            None
        }
    };
    let mut own_e2e = None;
    let mut keep = |name: &str, e: E2e| {
        if name == own {
            own_e2e = Some(e);
        }
    };

    let serve = stage("serve", 2.0);
    let churn = stage("churn", 0.0).map(|(seed, secs)| {
        // Whole rotations of the timeline's link classes, so that every
        // run averages the same mix of epochs.
        let until = if own == "churn" {
            ctld::Until::Seconds(secs, 2 * topo.height())
        } else {
            ctld::Until::Epochs(4)
        };
        (seed, until)
    });
    let churn_seed = churn.map_or(PROBE_SEED, |c| c.0);
    let timeline = inputs::link_timeline(&topo, inputs::CHURN_STEPS, churn_seed);
    let mut socket_reconverge_ms = Vec::new();
    if serve.is_some() || churn.is_some() {
        let setups = if own == "serve" || own == "churn" {
            SETUPS
        } else {
            1
        };
        let out = daemon_stages(
            &topo, work, setups, serve, churn, &timeline, &mut tr, &mut run,
        )?;
        socket_reconverge_ms = out.reconverge_ms;
        if let Some(e) = out.serve {
            keep("serve", e);
        }
        if let Some(e) = out.churn {
            keep("churn", e);
        }
    }
    if let Some((seed, secs)) = stage("fig4b", 0.0) {
        let e = fig4b(&topo, seed, secs, &mut tr, &mut run)?;
        keep("fig4b", e);
    }
    for (name, kind) in [
        ("flit-light", paper::Flit::Light),
        ("flit-churn", paper::Flit::Churn),
    ] {
        if let Some((seed, secs)) = stage(name, 0.0) {
            let e = flit(&topo, kind, seed, secs, &mut tr, &mut run)?;
            keep(name, e);
        }
    }
    let e = own_e2e.ok_or("the workload's stage did not run")?;
    run.e2e.insert("setup_s", (e.setup_s, "s"));
    run.e2e.insert("peak_rss_mb", (e.peak_rss_mb, "MB"));
    run.e2e.insert("rate_per_s", (e.rate_per_s, "1/s"));
    run.e2e.insert("op_ms_p50", (e.op_ms_p50, "ms"));

    if args.trace {
        let counts = replay::replay(
            &topo,
            &work.join("replay"),
            &timeline,
            4,
            churn_seed,
            &mut tr,
        )?;
        // The socket and in-process reconvergences of the same epochs.
        let overhead: Vec<f64> = socket_reconverge_ms
            .iter()
            .zip(&counts.tick_ms)
            .map(|(s, t)| s - t)
            .collect();
        run.layer.insert(
            "ctld.server.reconverge_overhead_ms",
            (stats::median(&overhead), "ms"),
        );
        per_layer(&tr, &counts, &mut run.layer);
        run.doc.push(format!(
            "\"spans\": {}",
            lmpr_bench::json_string(&format!("spans-{}-{}.jsonl", args.workload, args.seed))
        ));
        write_spans(args, &tr)?;
    }
    Ok(run)
}

/// Write the spans and their per-name totals to the work directory.
fn write_spans(args: &Args, tr: &Tracer) -> Result<(), String> {
    let spans = args
        .work
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let totals: Vec<String> = tr
        .summary()
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"median_ns\": {}}}",
                t.count, t.total_ns, t.self_ns, t.median_ns
            )
        })
        .collect();
    std::fs::write(
        spans.with_extension("totals.json"),
        format!("{{{}}}\n", totals.join(",\n ")),
    )
    .and_then(|()| std::fs::write(&spans, tr.to_jsonl()))
    .map_err(|e| format!("writing {}: {e}", spans.display()))
}

/// Per-layer metrics from the span totals and the replay's counts.
fn per_layer(tr: &Tracer, c: &replay::ReplayCounts, out: &mut Metrics) {
    let sum = tr.summary();
    // The median span of each name: robust to a host stall inside one.
    let med = |name: &str, ns_per_unit: f64| {
        sum.get(name)
            .map_or(0.0, |t| t.median_ns as f64 / ns_per_unit)
    };
    let total = |name: &str| sum.get(name).map_or(0.0, |t| t.total_ns as f64);
    let (us, ms, s) = (1e3, 1e6, 1e9);
    let per_epoch = c.epochs.max(1) as f64;
    out.insert(
        "verify.genesis_certify_s",
        (med("verify.genesis_certify", s), "s"),
    );
    out.insert(
        "verify.blast_radius_ms",
        (med("verify.blast_radius", ms), "ms"),
    );
    out.insert("verify.certify_ms", (med("verify.certify", ms), "ms"));
    out.insert(
        "verify.certify_pairs",
        (c.certify_pairs as f64 / per_epoch, "count"),
    );
    out.insert(
        "verify.certify_ns_per_pair",
        (
            total("verify.certify") / c.certify_pairs.max(1) as f64,
            "ns",
        ),
    );
    out.insert(
        "xgft.num_surviving_ns",
        (
            total("xgft.num_surviving") / c.certify_pairs.max(1) as f64,
            "ns",
        ),
    );
    out.insert(
        "core.apply_changes_ms",
        (med("core.apply_changes", ms), "ms"),
    );
    out.insert(
        "core.flushed_entries",
        (c.flushed_entries as f64 / per_epoch, "count"),
    );
    out.insert("core.cache_entries", (c.cache_entries as f64, "count"));
    out.insert(
        "core.select_warm_ns",
        (med("core.select_warm", 1.0) / ctld::BATCH as f64, "ns"),
    );
    out.insert(
        "core.select_cold_ns",
        (med("core.select_cold", 1.0) / ctld::BATCH as f64, "ns"),
    );
    out.insert(
        "core.cache_hit_ratio",
        (c.hits as f64 / (c.hits + c.misses).max(1) as f64, "ratio"),
    );
    out.insert(
        "ctld.controller.start_s",
        (med("ctld.controller.start", s), "s"),
    );
    out.insert(
        "ctld.controller.paths_us",
        (med("ctld.controller.paths", us), "us"),
    );
    out.insert(
        "ctld.controller.tick_ms",
        (med("ctld.controller.tick", ms), "ms"),
    );
    let wire = [
        ("ctld.wire.request_encode_us", "ctld.wire.request_encode"),
        ("ctld.wire.request_decode_us", "ctld.wire.request_decode"),
        ("ctld.wire.response_encode_us", "ctld.wire.response_encode"),
        ("ctld.wire.response_decode_us", "ctld.wire.response_decode"),
    ];
    let mut inside = med("ctld.controller.paths", us);
    for (metric, span) in wire {
        let v = med(span, us);
        inside += v;
        out.insert(metric, (v, "us"));
    }
    out.insert(
        "ctld.server.batch_overhead_us",
        (med("ctld.client.batch", us) - inside, "us"),
    );
    out.insert("ctld.store.commit_ms", (med("ctld.store.commit", ms), "ms"));
    out.insert(
        "ctld.store.checkpoint_bytes",
        (c.checkpoint_bytes as f64, "bytes"),
    );
    out.insert("flitsim.build_ms", (med("flitsim.build", ms), "ms"));
    out.insert(
        "flitsim.step_us_light",
        (med("flitsim.step_light", us), "us"),
    );
    out.insert(
        "flitsim.step_us_churn",
        (med("flitsim.step_churn", us), "us"),
    );
    out.insert(
        "flowsim.accumulate_ms",
        (med("flowsim.accumulate", ms), "ms"),
    );
    out.insert(
        "flowsim.ml_lower_bound_us",
        (med("flowsim.ml_lower_bound", us), "us"),
    );
    out.insert(
        "traffic.permutation_us",
        (med("traffic.permutation", us), "us"),
    );
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                lmpr_bench::json_f64(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"commit\": {}, \"rustc\": {}, \"profile\": \"{profile}\"}}",
        lmpr_bench::json_string(&cpu),
        lmpr_bench::json_string(&env("PERFBENCH_COMMIT")),
        lmpr_bench::json_string(&env("PERFBENCH_RUSTC")),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args.work.join(std::process::id().to_string());
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            std::process::exit(1);
        }
    };
    let attempted: u64 = run.ops.values().sum();
    let ops: Vec<String> = run
        .ops
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let metrics = if args.trace { &run.layer } else { &run.e2e };
    let doc = if run.doc.is_empty() {
        String::new()
    } else {
        format!(", {}", run.doc.join(", "))
    };
    println!(
        "{{\"schema\": {SCHEMA}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"operations\": {{{}}}, \"attempted\": {attempted}, \"failed\": 0, \
         \"end_to_end\": {}, \"per_layer\": {}{doc}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_fingerprint(),
        ops.join(", "),
        json_metrics(&run.e2e),
        json_metrics(&run.layer),
    );
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
        json_metrics(metrics)
    );
}
