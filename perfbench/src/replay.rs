//! The traced run's in-process replay: the daemon's layers called
//! directly through their public functions, each call a span, on the
//! same topology, scheme and churn timeline as the socket phases. A
//! warm replica engine stands beside the controller so that
//! `apply_changes` is timed on a cache that has served every pair.

use crate::ctld::{BATCH, KIND, TOPO};
use crate::inputs::{self, Rng};
use crate::trace::Tracer;
use lmpr_core::SelectionEngine;
use lmpr_ctld::{ChangeSpec, Checkpoint, Controller, CtlConfig, Request, Response, Store};
use lmpr_verify::{certify_epoch, change_blast_radius, EpochScope};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use xgft::{FaultChange, FaultSet, PnId, Topology};

/// Counts the replay adds to the spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub certify_pairs: u64,
    pub flushed_entries: u64,
    pub epochs: u64,
    pub cache_entries: u64,
    pub hits: u64,
    pub misses: u64,
    pub checkpoint_bytes: u64,
    /// In-process reconvergence time of each committed epoch, in order.
    pub tick_ms: Vec<f64>,
}

fn all_pairs(n: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..n).flat_map(move |s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
}

/// Replay set-up, serving and the first `epochs` commits of `timeline`.
pub fn replay(
    topo: &Topology,
    dir: &Path,
    timeline: &[Vec<FaultChange>],
    epochs: u64,
    seed: u64,
    tr: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let _ = std::fs::remove_dir_all(dir);
    let n = topo.num_pns();
    let label = lmpr_bench::topology_by_name(TOPO)
        .map(|(l, _)| l)
        .ok_or("unknown topology")?;
    let mut counts = ReplayCounts::default();

    let (mut ctl, report) = tr
        .span("ctld.controller.start", || {
            Controller::start(CtlConfig::new(TOPO, KIND, dir.join("ctl")))
        })
        .map_err(|e| format!("controller start: {e}"))?;
    let genesis = tr.span("verify.genesis_certify", || {
        certify_epoch(topo, &label, KIND, &FaultSet::new(), EpochScope::Full)
    });
    if !report.certified() || !genesis.certified() {
        return Err("genesis certificate failed".to_owned());
    }
    let mut store = Store::open(dir.join("store"), 8).map_err(|e| format!("store: {e}"))?;

    // Warm the controller and the replica on every ordered pair.
    let mut replica = SelectionEngine::cached(KIND, FaultSet::new());
    let pairs: Vec<(u32, u32)> = all_pairs(n).collect();
    let mut sel = Vec::new();
    for chunk in pairs.chunks(BATCH) {
        ctl.paths(0, chunk).map_err(|e| format!("paths: {e}"))?;
        for &(s, d) in chunk {
            replica.select(topo, PnId(s), PnId(d), &mut sel);
        }
    }
    counts.cache_entries = replica.cache_len() as u64;

    // Serving: the controller, the wire codec and the engine on warm
    // and cold selections, one 64-pair batch per span.
    let mut rng = Rng::stream(seed, 0x5E7E);
    let mut cold = SelectionEngine::with_view(KIND, FaultSet::new());
    for _ in 0..2_000 {
        let batch = inputs::pair_batch(&mut rng, n, BATCH);
        let req = Request::Paths {
            epoch: 0,
            deadline_ms: None,
            pairs: batch.clone(),
        }
        .to_json();
        let decoded = tr
            .span("ctld.wire.request_decode", || {
                Request::decode(req.as_bytes())
            })
            .map_err(|e| format!("decode: {e}"))?;
        let Request::Paths { pairs, .. } = decoded else {
            return Err("request decoded to another verb".to_owned());
        };
        let paths = tr
            .span("ctld.controller.paths", || ctl.paths(0, &pairs))
            .map_err(|e| format!("paths: {e}"))?;
        let resp = Response::Paths {
            epoch: 0,
            mode: "serving".to_owned(),
            paths,
        };
        black_box(tr.span("ctld.wire.response_encode", || resp.to_json()));
        tr.span("core.select_warm", || {
            for &(s, d) in &batch {
                replica.select(topo, PnId(s), PnId(d), &mut sel);
                black_box(&sel);
            }
        });
        tr.span("core.select_cold", || {
            for &(s, d) in &batch {
                cold.select(topo, PnId(s), PnId(d), &mut sel);
                black_box(&sel);
            }
        });
    }

    // Churn: the controller's reconvergence, then each of its stages
    // called directly on the same batch.
    let mut view = FaultSet::new();
    let before = replica.stats();
    for (i, changes) in timeline.iter().enumerate() {
        if counts.epochs >= epochs {
            break;
        }
        let specs: Vec<ChangeSpec> = changes
            .iter()
            .map(|&c| ChangeSpec::from_change(c))
            .collect();
        let batch_id = i as u64 + 1;
        if changes.is_empty() {
            ctl.ingest(batch_id, &specs)
                .map_err(|e| format!("ingest: {e}"))?;
            continue;
        }
        let t = Instant::now();
        tr.span("ctld.controller.tick", || ctl.ingest(batch_id, &specs))
            .map_err(|e| format!("ingest: {e}"))?;
        counts.tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for &c in changes {
            c.apply(topo, &mut view);
        }
        let radius = tr.span("verify.blast_radius", || change_blast_radius(topo, changes));
        counts.flushed_entries += tr.span("core.apply_changes", || {
            replica.apply_changes(topo, changes)
        });
        let report = tr.span("verify.certify", || {
            certify_epoch(
                topo,
                &label,
                KIND,
                replica.view(),
                EpochScope::Pairs(&radius),
            )
        });
        if !report.certified() {
            return Err(format!("epoch {} did not certify", counts.epochs + 1));
        }
        counts.certify_pairs += radius.len() as u64;
        tr.span("xgft.num_surviving", || {
            let total: u64 = radius
                .iter()
                .map(|&(s, d)| view.num_surviving(topo, s, d))
                .sum();
            black_box(total)
        });
        let cp = Checkpoint::from_view(1, ctl.epoch(), batch_id, batch_id, batch_id, &view);
        counts.checkpoint_bytes = cp.to_bytes().len() as u64;
        tr.span("ctld.store.commit", || store.commit(&cp))
            .map_err(|e| format!("commit: {e}"))?;
        counts.epochs += 1;
        // A reader between commits, on the replica.
        for _ in 0..16 {
            for (s, d) in inputs::pair_batch(&mut rng, n, BATCH) {
                replica.select(topo, PnId(s), PnId(d), &mut sel);
            }
        }
    }
    let after = replica.stats();
    counts.hits = after.hits - before.hits;
    counts.misses = after.misses - before.misses;
    if counts.epochs < epochs {
        return Err(format!("replay committed only {} epochs", counts.epochs));
    }
    drop(ctl);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(counts)
}
