//! Output checks. Each check recomputes what it needs from the XGFT
//! parameters or from first principles instead of trusting the code
//! under test, and returns a description of the first violation. The
//! self-tests at the bottom plant one fault per check on small inputs.

use lmpr_flitsim::ConservationLedger;
use std::collections::BTreeSet;
use xgft::{PathId, PnId, Topology};

/// Number of canonical up*/down* paths between `s` and `d`: the product
/// `w_1 … w_l` for the level `l` of their nearest common ancestor,
/// computed from the spec's `m` and `w` vectors.
pub fn path_count(m: &[u32], w: &[u32], s: u32, d: u32) -> u64 {
    let (mut below, mut paths) = (1u64, 1u64);
    for (mi, wi) in m.iter().zip(w) {
        if s as u64 / below == d as u64 / below {
            return paths;
        }
        below *= *mi as u64;
        paths *= *wi as u64;
    }
    paths
}

/// A fault-free answer holds exactly `min(k, X)` distinct path ids,
/// each below `X`.
pub fn check_fault_free_answer(
    m: &[u32],
    w: &[u32],
    k: u64,
    (s, d): (u32, u32),
    ids: &[u64],
) -> Result<(), String> {
    let x = path_count(m, w, s, d);
    let want = k.min(x);
    check_distinct_below(x, (s, d), ids)?;
    if ids.len() as u64 != want {
        return Err(format!(
            "pair {s}->{d}: {} paths, want min({k}, {x}) = {want}",
            ids.len()
        ));
    }
    Ok(())
}

/// Every id is below `X` and no id repeats.
pub fn check_distinct_below(x: u64, (s, d): (u32, u32), ids: &[u64]) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for &p in ids {
        if p >= x {
            return Err(format!("pair {s}->{d}: path id {p} not below X = {x}"));
        }
        if !seen.insert(p) {
            return Err(format!("pair {s}->{d}: path id {p} repeats"));
        }
    }
    Ok(())
}

/// No path of the answer crosses a link in `down`.
pub fn check_avoids_down_links(
    topo: &Topology,
    (s, d): (u32, u32),
    ids: &[u64],
    down: &BTreeSet<u32>,
) -> Result<(), String> {
    for &p in ids {
        let mut dead = None;
        topo.walk_path(PnId(s), PnId(d), PathId(p), |link| {
            if dead.is_none() && down.contains(&link.0) {
                dead = Some(link.0);
            }
        });
        if let Some(l) = dead {
            return Err(format!("pair {s}->{d}: path {p} crosses down link {l}"));
        }
    }
    Ok(())
}

/// The routing-state digest the daemon's `digest` verb reports:
/// FNV-1a over the epoch, then every ordered pair's key, selection
/// length and path ids, in lexicographic pair order. `select` fills the
/// selection of one pair.
pub fn routing_digest(epoch: u64, n: u32, mut select: impl FnMut(u32, u32, &mut Vec<u64>)) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(epoch);
    let mut ids = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            ids.clear();
            select(s, d, &mut ids);
            mix(((s as u64) << 32) | d as u64);
            mix(ids.len() as u64);
            for &p in &ids {
                mix(p);
            }
        }
    }
    h
}

pub fn check_digest(daemon_hex: &str, expected: u64) -> Result<(), String> {
    let got = u64::from_str_radix(daemon_hex, 16)
        .map_err(|_| format!("daemon digest {daemon_hex:?} is not hex"))?;
    if got != expected {
        return Err(format!(
            "daemon digest {got:016x} differs from the recomputed {expected:016x}"
        ));
    }
    Ok(())
}

/// One Figure 4 permutation sample: the maximum link load each scheme
/// reaches at each K, plus what the benchmark computes itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Sample {
    /// The Lemma-1 bound `ML` of the permutation.
    pub ml: f64,
    /// Maximum load of d-mod-k (it uses one path at every K).
    pub dmodk: f64,
    /// Per K on the ladder: `(k, shift-1, disjoint, random)` maxima.
    pub rows: Vec<(u64, f64, f64, f64)>,
}

/// Properties every Figure 4 permutation sample must have:
/// every maximum is at or above `ML`; at `K = X` every heuristic meets
/// `ML` (Theorem 1).
pub fn check_fig4_sample(x: u64, s: &Fig4Sample) -> Result<(), String> {
    const EPS: f64 = 1e-9;
    if s.dmodk < s.ml - EPS {
        return Err(format!("d-mod-k load {} below ML {}", s.dmodk, s.ml));
    }
    for &(k, shift, disjoint, random) in &s.rows {
        for (name, load) in [
            ("shift-1", shift),
            ("disjoint", disjoint),
            ("random", random),
        ] {
            if load < s.ml - EPS {
                return Err(format!("K={k}: {name} load {load} below ML {}", s.ml));
            }
            if k == x && (load - s.ml).abs() > EPS {
                return Err(format!(
                    "K=X={x}: {name} load {load} is not the Lemma-1 bound {}",
                    s.ml
                ));
            }
        }
    }
    Ok(())
}

/// Figure 4's ordering: at every K the disjoint mean is at or below
/// the shift-1 mean. `means` holds `(k, shift-1, disjoint)`.
pub fn check_disjoint_below_shift(means: &[(u64, f64, f64)]) -> Result<(), String> {
    for &(k, shift, disjoint) in means {
        if disjoint > shift + 1e-9 {
            return Err(format!(
                "K={k}: disjoint mean {disjoint} above shift-1 {shift}"
            ));
        }
    }
    Ok(())
}

/// The d-mod-k mean does not change with K: the study measures it once
/// per permutation and every row of the figure reports that value.
pub fn check_dmodk_constant(per_k: &[(u64, f64)]) -> Result<(), String> {
    if let Some(&(_, first)) = per_k.first() {
        for &(k, v) in per_k {
            if v != first {
                return Err(format!("d-mod-k load {v} at K={k} differs from {first}"));
            }
        }
    }
    Ok(())
}

/// Total link load of a unit-demand flow set equals the summed path
/// lengths: a flow of demand 1 split over paths of `2·l` hops loads
/// `2·l` link-units whatever the split.
pub fn check_total_load(total: f64, expected_hops: f64) -> Result<(), String> {
    if (total - expected_hops).abs() > 1e-6 * expected_hops.max(1.0) {
        return Err(format!(
            "total link load {total} differs from the summed path lengths {expected_hops}"
        ));
    }
    Ok(())
}

/// The flit ledger balances (injected = delivered + duplicates + in
/// flight + dropped), transfers balance, and no duplicate reached a
/// sink when retransmission is off.
pub fn check_ledger(l: &ConservationLedger) -> Result<(), String> {
    let accounted = l.delivered + l.duplicate + l.in_network + l.dropped;
    if l.injected != accounted {
        return Err(format!(
            "flit ledger: injected {} != delivered {} + duplicate {} + in flight {} + dropped {}",
            l.injected, l.delivered, l.duplicate, l.in_network, l.dropped
        ));
    }
    if l.retx_enabled {
        let resolved = l.transfers_delivered + l.transfers_dropped + l.transfers_in_flight;
        if l.transfers_created != resolved {
            return Err(format!(
                "transfer ledger: created {} != delivered {} + dropped {} + in flight {}",
                l.transfers_created,
                l.transfers_delivered,
                l.transfers_dropped,
                l.transfers_in_flight
            ));
        }
    } else if l.duplicate > 0 {
        return Err(format!(
            "{} duplicate flits delivered without retransmission",
            l.duplicate
        ));
    }
    Ok(())
}

/// At light load the network keeps up: accepted throughput is within
/// `tol` (relative) of the offered load.
pub fn check_tracks_offered(offered: f64, accepted: f64, tol: f64) -> Result<(), String> {
    if (accepted - offered).abs() > tol * offered {
        return Err(format!(
            "accepted throughput {accepted:.4} does not track offered load {offered}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpr_core::{Router, RouterKind, SelectionEngine};
    use lmpr_ctld::{Controller, CtlConfig};
    use xgft::{DirectedLinkId, FaultChange, FaultSet};

    fn small() -> Topology {
        lmpr_bench::topology_by_name("8port2tree").expect("known").1
    }

    #[test]
    fn path_count_matches_the_topology() {
        let topo = small();
        let (m, w) = (topo.spec().m().to_vec(), topo.spec().w().to_vec());
        for s in 0..topo.num_pns() {
            for d in 0..topo.num_pns() {
                if s != d {
                    assert_eq!(
                        path_count(&m, &w, s, d),
                        topo.num_paths(PnId(s), PnId(d)),
                        "{s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_free_answers_pass_and_planted_faults_fail() {
        let topo = small();
        let (m, w) = (topo.spec().m().to_vec(), topo.spec().w().to_vec());
        let router = RouterKind::Disjoint(4);
        let mut ids = Vec::new();
        router.fill_paths(&topo, PnId(0), PnId(31), &mut ids);
        let ids: Vec<u64> = ids.iter().map(|p| p.0).collect();
        assert!(check_fault_free_answer(&m, &w, 4, (0, 31), &ids).is_ok());
        let mut repeated = ids.clone();
        repeated[1] = repeated[0];
        assert!(check_fault_free_answer(&m, &w, 4, (0, 31), &repeated).is_err());
        let mut short = ids.clone();
        short.pop();
        assert!(check_fault_free_answer(&m, &w, 4, (0, 31), &short).is_err());
        let x = path_count(&m, &w, 0, 31);
        let mut beyond = ids;
        beyond[0] = x;
        assert!(check_fault_free_answer(&m, &w, 4, (0, 31), &beyond).is_err());
    }

    #[test]
    fn a_path_across_a_down_link_is_rejected() {
        let topo = small();
        let (s, d) = (PnId(0), PnId(31));
        let mut crossed = Vec::new();
        topo.walk_path(s, d, PathId(2), |l| crossed.push(l.0));
        let down: BTreeSet<u32> = [crossed[1]].into();
        let err = check_avoids_down_links(&topo, (0, 31), &[0, 1, 2, 3], &down);
        assert!(err.is_err(), "path 2 crosses link {}", crossed[1]);
        // The engine's degraded selection avoids it.
        let mut view = FaultSet::new();
        view.fail_link(DirectedLinkId(crossed[1]));
        let mut engine = SelectionEngine::with_view(RouterKind::Disjoint(4), view);
        let mut sel = Vec::new();
        engine.select(&topo, s, d, &mut sel);
        let sel: Vec<u64> = sel.iter().map(|p| p.0).collect();
        assert!(check_avoids_down_links(&topo, (0, 31), &sel, &down).is_ok());
    }

    #[test]
    fn the_recomputed_digest_matches_the_daemon_and_a_flipped_bit_does_not() {
        let topo = small();
        let dir = std::env::temp_dir().join(format!("perfbench-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let kind = RouterKind::Disjoint(4);
        let (mut ctl, report) =
            Controller::start(CtlConfig::new("8port2tree", kind, &dir)).expect("genesis");
        assert!(report.certified());
        let link = DirectedLinkId(40);
        ctl.ingest(1, &[lmpr_ctld::ChangeSpec::LinkDown(link.0)])
            .expect("ingest");
        let daemon = format!("{:016x}", ctl.digest());
        let mut view = FaultSet::new();
        FaultChange::LinkDown(link).apply(&topo, &mut view);
        let mut engine = SelectionEngine::with_view(kind, view);
        let mut buf = Vec::new();
        let expected = routing_digest(ctl.epoch(), topo.num_pns(), |s, d, out| {
            engine.select(&topo, PnId(s), PnId(d), &mut buf);
            out.extend(buf.iter().map(|p| p.0));
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert!(check_digest(&daemon, expected).is_ok());
        assert!(check_digest(&daemon, expected ^ (1 << 17)).is_err());
    }

    fn sample() -> Fig4Sample {
        Fig4Sample {
            ml: 1.0,
            dmodk: 4.0,
            rows: vec![(2, 3.0, 2.5, 2.75), (4, 1.0, 1.0, 1.0)],
        }
    }

    #[test]
    fn fig4_rows_must_meet_the_lemma1_bound_at_k_equals_x() {
        assert!(check_fig4_sample(4, &sample()).is_ok());
        let mut off = sample();
        off.rows[1].2 = 1.25;
        assert!(check_fig4_sample(4, &off).is_err());
        let mut below = sample();
        below.rows[0].3 = 0.5;
        assert!(check_fig4_sample(4, &below).is_err());
        assert!(check_disjoint_below_shift(&[(2, 3.0, 2.5), (4, 1.0, 1.0)]).is_ok());
        assert!(check_disjoint_below_shift(&[(2, 3.0, 3.5)]).is_err());
        assert!(check_dmodk_constant(&[(1, 4.0), (2, 4.0)]).is_ok());
        assert!(check_dmodk_constant(&[(1, 4.0), (2, 3.0)]).is_err());
        assert!(check_total_load(12.0, 12.0).is_ok());
        assert!(check_total_load(11.0, 12.0).is_err());
    }

    fn ledger() -> ConservationLedger {
        ConservationLedger {
            injected: 100,
            delivered: 80,
            duplicate: 4,
            dropped: 6,
            in_network: 10,
            retx_enabled: true,
            transfers_created: 10,
            transfers_delivered: 7,
            transfers_dropped: 1,
            transfers_in_flight: 2,
        }
    }

    #[test]
    fn an_unbalanced_flit_ledger_is_rejected() {
        assert!(check_ledger(&ledger()).is_ok());
        let mut lost = ledger();
        lost.delivered -= 1;
        assert!(check_ledger(&lost).is_err());
        let mut transfers = ledger();
        transfers.transfers_in_flight += 1;
        assert!(check_ledger(&transfers).is_err());
        let mut dup = ledger();
        dup.retx_enabled = false;
        assert!(check_ledger(&dup).is_err());
        assert!(check_tracks_offered(0.1, 0.099, 0.05).is_ok());
        assert!(check_tracks_offered(0.1, 0.08, 0.05).is_err());
    }
}
