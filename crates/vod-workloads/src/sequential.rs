//! Back-to-back viewing workload.
//!
//! The paper's playback-cache definition explicitly covers the case where "a
//! box plays videos one after another" (the cache then holds the end of the
//! previous video and the beginning of the current one). This generator keeps
//! every box permanently busy: as soon as a box becomes free it immediately
//! demands its next video, drawn either round-robin or uniformly at random.
//! It maximizes occupancy (up to `n` simultaneous playbacks) and is the
//! workload used to stress request-scalability.

use crate::demand::{DemandGenerator, OccupancyView, SwarmGrowthLimiter, VideoDemand};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use vod_core::{BoxId, VideoId};

/// How the next video of a box is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextVideoPolicy {
    /// Box `b` watches videos `b, b+1, b+2, …` modulo the catalog size:
    /// deterministic and maximally spread across the catalog.
    RoundRobin,
    /// Uniformly random video each time.
    UniformRandom,
}

/// Continuous-viewing generator.
#[derive(Clone, Debug)]
pub struct SequentialViewing {
    catalog_size: usize,
    policy: NextVideoPolicy,
    /// Next round-robin position per box.
    next_index: Vec<usize>,
    limiter: SwarmGrowthLimiter,
    rng: StdRng,
    /// The round's free boxes, kept across rounds.
    free: Vec<BoxId>,
}

impl SequentialViewing {
    /// Creates a generator for `n` boxes over `catalog_size` videos.
    pub fn new(n: usize, catalog_size: usize, policy: NextVideoPolicy, mu: f64, seed: u64) -> Self {
        assert!(catalog_size > 0, "catalog must be non-empty");
        SequentialViewing {
            catalog_size,
            policy,
            next_index: (0..n).collect(),
            limiter: SwarmGrowthLimiter::new(catalog_size, mu),
            rng: StdRng::seed_from_u64(seed),
            free: Vec::new(),
        }
    }
}

impl DemandGenerator for SequentialViewing {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        self.limiter.advance_to(round);
        let mut demands = Vec::new();
        occupancy.free_boxes_into(&mut self.free);
        for &b in &self.free {
            if b.index() >= self.next_index.len() {
                continue;
            }
            // Try a handful of candidate videos so a saturated swarm does not
            // leave the box idle if another video has headroom.
            for _ in 0..8 {
                let video = match self.policy {
                    NextVideoPolicy::RoundRobin => {
                        let idx = self.next_index[b.index()] % self.catalog_size;
                        self.next_index[b.index()] = idx + 1;
                        VideoId(idx as u32)
                    }
                    NextVideoPolicy::UniformRandom => {
                        VideoId(self.rng.gen_range(0..self.catalog_size) as u32)
                    }
                };
                if self.limiter.admit(video, 1) == 1 {
                    demands.push(VideoDemand::new(b, video, round));
                    break;
                }
            }
        }
        demands
    }

    fn name(&self) -> &'static str {
        "sequential-viewing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::BoxId;

    #[test]
    fn every_free_box_gets_a_demand_when_catalog_is_large() {
        let mut gen = SequentialViewing::new(6, 100, NextVideoPolicy::RoundRobin, 2.0, 1);
        let free = vec![true; 6];
        let d = gen.demands_at(0, &free);
        assert_eq!(d.len(), 6);
        let mut ids: Vec<BoxId> = d.iter().map(|x| x.box_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn round_robin_advances_per_box() {
        let mut gen = SequentialViewing::new(2, 5, NextVideoPolicy::RoundRobin, 4.0, 2);
        let free = vec![true; 2];
        let d0 = gen.demands_at(0, &free);
        let d1 = gen.demands_at(1, &free);
        let v0 = d0.iter().find(|x| x.box_id == BoxId(0)).unwrap().video;
        let v1 = d1.iter().find(|x| x.box_id == BoxId(0)).unwrap().video;
        assert_ne!(v0, v1);
    }

    #[test]
    fn busy_boxes_are_skipped() {
        let mut gen = SequentialViewing::new(4, 10, NextVideoPolicy::UniformRandom, 2.0, 3);
        let free = vec![true, false, true, false];
        let d = gen.demands_at(0, &free);
        assert!(d
            .iter()
            .all(|x| x.box_id == BoxId(0) || x.box_id == BoxId(2)));
    }

    #[test]
    fn growth_bound_can_throttle_a_tiny_catalog() {
        // Single video, µ = 1.5: only 2 boxes may join in round 0.
        let mut gen = SequentialViewing::new(10, 1, NextVideoPolicy::RoundRobin, 1.5, 4);
        let free = vec![true; 10];
        let d = gen.demands_at(0, &free);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn out_of_range_boxes_are_ignored() {
        let mut gen = SequentialViewing::new(2, 10, NextVideoPolicy::RoundRobin, 2.0, 5);
        // Occupancy claims 4 boxes exist but the generator only knows 2.
        let free = vec![true; 4];
        let d = gen.demands_at(0, &free);
        assert!(d.iter().all(|x| x.box_id.index() < 2));
    }
}
