//! Seeded input generation. Every input the workloads feed the program
//! — pair streams, the link fail/repair timeline, simulator seeds — is
//! a pure function of the `--seed` argument.

use xgft::{DirectedLinkId, FaultChange, LinkDir, Topology};

/// SplitMix64: small, fast and fully specified, so the inputs do not
/// depend on any library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream derived from `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// Uniform random ordered pairs `(s, d)` with `s != d`.
pub fn pair_batch(rng: &mut Rng, n: u32, len: usize) -> Vec<(u32, u32)> {
    (0..len)
        .map(|_| {
            let s = rng.below(n);
            let d = (s + 1 + rng.below(n - 1)) % n;
            (s, d)
        })
        .collect()
}

/// Fault batches generated for the churn stage; a run sends as many as
/// fit its measuring time.
pub const CHURN_STEPS: usize = 4_000;
/// A failed link is repaired this many batches after it failed.
pub const HOLD: usize = 3;

/// The link fail/repair timeline, one batch per logical step: batch `i`
/// fails one link and, from batch `HOLD` on, repairs the link batch
/// `i - HOLD` failed, so every batch commits an epoch and each holds
/// one failure, the event that sweeps the selection cache. The failed
/// link's level and direction rotate through every class of the
/// fabric in a fixed order; which link of its class fails is drawn
/// from `seed` among those not down. Link classes are symmetric in an
/// XGFT, so every seed gives epochs of the same shape and cost.
pub fn link_timeline(topo: &Topology, steps: usize, seed: u64) -> Vec<Vec<FaultChange>> {
    // Classes in order of level, up before down.
    let mut classes: std::collections::BTreeMap<(u8, bool), Vec<u32>> = Default::default();
    for id in 0..topo.num_links() {
        let (level, dir) = topo.link_level_dir(DirectedLinkId(id));
        classes
            .entry((level, dir == LinkDir::Down))
            .or_default()
            .push(id);
    }
    let classes: Vec<Vec<u32>> = classes.into_values().collect();
    let mut rng = Rng::stream(seed, 0x11AC);
    let mut failed: Vec<u32> = Vec::with_capacity(steps);
    (0..steps)
        .map(|i| {
            let class = &classes[i % classes.len()];
            let recent = &failed[i.saturating_sub(HOLD)..];
            let link = loop {
                let l = class[rng.below(class.len() as u32) as usize];
                if !recent.contains(&l) {
                    break l;
                }
            };
            failed.push(link);
            let mut batch = vec![FaultChange::LinkDown(DirectedLinkId(link))];
            if i >= HOLD {
                batch.push(FaultChange::LinkUp(DirectedLinkId(failed[i - HOLD])));
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let mut rng = Rng::stream(3, 0);
        for (s, d) in pair_batch(&mut rng, 16, 10_000) {
            assert!(s < 16 && d < 16 && s != d);
        }
    }

    #[test]
    fn timeline_is_seeded_and_every_batch_fails_one_link() {
        let (_, topo) = lmpr_bench::topology_by_name("8port2tree").expect("known topology");
        let a = link_timeline(&topo, 200, 9);
        assert_eq!(a, link_timeline(&topo, 200, 9));
        assert_ne!(a, link_timeline(&topo, 200, 10));
        let mut down = std::collections::BTreeSet::new();
        let mut classes = Vec::new();
        for (i, batch) in a.iter().enumerate() {
            assert_eq!(batch.len(), if i < HOLD { 1 } else { 2 });
            let FaultChange::LinkDown(l) = batch[0] else {
                panic!("batch {i} starts with {:?}", batch[0]);
            };
            assert!(down.insert(l.0), "batch {i} fails a link already down");
            classes.push(topo.link_level_dir(l));
            if let Some(&FaultChange::LinkUp(u)) = batch.get(1) {
                assert!(down.remove(&u.0), "batch {i} repairs a link not down");
            }
            assert!(down.len() <= HOLD);
        }
        // Every class, in the same rotation.
        let period = classes
            .iter()
            .skip(1)
            .position(|c| *c == classes[0])
            .unwrap()
            + 1;
        assert_eq!(period, 2 * topo.height());
        assert!(classes.chunks(period).all(|c| c == &classes[..c.len()]));
    }
}
