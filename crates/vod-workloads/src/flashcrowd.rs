//! Flash-crowd workload: one video's swarm grows at the maximal rate `µ`.
//!
//! This is the stress pattern Theorem 1's preloading analysis is built
//! around: a popular release attracts viewers whose number multiplies by `µ`
//! every round, so early joiners must carry most of the upload for late
//! joiners. The generator can also run several staggered crowds to model a
//! sequence of releases.

use crate::demand::{DemandGenerator, OccupancyView, SwarmGrowthLimiter, VideoDemand};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vod_core::{BoxId, VideoId};

/// Description of one flash crowd.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrowdSpec {
    /// The video everyone rushes to.
    pub video: VideoId,
    /// Round at which the crowd starts forming.
    pub start_round: u64,
    /// Upper bound on how many boxes eventually join (saturating at the
    /// number of free boxes).
    pub max_viewers: usize,
}

/// Generator producing one or more maximal-growth flash crowds.
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    crowds: Vec<CrowdSpec>,
    joined: Vec<usize>,
    limiter: SwarmGrowthLimiter,
    rng: StdRng,
    /// The round's free boxes, kept across rounds.
    free: Vec<BoxId>,
}

impl FlashCrowd {
    /// A single crowd on `video` starting at round 0 and absorbing up to
    /// `max_viewers` boxes, with growth bound `mu` over a catalog of
    /// `catalog_size` videos.
    pub fn single(
        video: VideoId,
        max_viewers: usize,
        catalog_size: usize,
        mu: f64,
        seed: u64,
    ) -> Self {
        FlashCrowd::staggered(
            vec![CrowdSpec {
                video,
                start_round: 0,
                max_viewers,
            }],
            catalog_size,
            mu,
            seed,
        )
    }

    /// Several crowds with their own start rounds and targets.
    pub fn staggered(crowds: Vec<CrowdSpec>, catalog_size: usize, mu: f64, seed: u64) -> Self {
        let joined = vec![0; crowds.len()];
        FlashCrowd {
            crowds,
            joined,
            limiter: SwarmGrowthLimiter::new(catalog_size, mu),
            rng: StdRng::seed_from_u64(seed),
            free: Vec::new(),
        }
    }

    /// Number of viewers that have joined crowd `i` so far.
    pub fn joined(&self, i: usize) -> usize {
        self.joined[i]
    }
}

impl DemandGenerator for FlashCrowd {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        self.limiter.advance_to(round);
        let mut demands = Vec::new();
        occupancy.free_boxes_into(&mut self.free);
        self.free.shuffle(&mut self.rng);
        let mut free_iter = self.free.iter().copied();

        for (i, crowd) in self.crowds.iter().enumerate() {
            if round < crowd.start_round || self.joined[i] >= crowd.max_viewers {
                continue;
            }
            let remaining_target = crowd.max_viewers - self.joined[i];
            let admissible = self.limiter.headroom(crowd.video).min(remaining_target);
            let mut taken = 0;
            while taken < admissible {
                match free_iter.next() {
                    Some(b) => {
                        demands.push(VideoDemand::new(b, crowd.video, round));
                        taken += 1;
                    }
                    None => break,
                }
            }
            let admitted = self.limiter.admit(crowd.video, taken);
            debug_assert_eq!(admitted, taken);
            self.joined[i] += taken;
        }
        demands
    }

    fn name(&self) -> &'static str {
        "flash-crowd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::SwarmGrowthLimiter;
    use vod_core::BoxId;

    #[test]
    fn single_crowd_grows_geometrically() {
        let mut gen = FlashCrowd::single(VideoId(0), 100, 10, 2.0, 1);
        let free = vec![true; 200];
        let mut joins = Vec::new();
        for round in 0..7 {
            let d = gen.demands_at(round, &free);
            assert!(d.iter().all(|x| x.video == VideoId(0)));
            joins.push(d.len());
        }
        // 2, 2, 4, 8, 16, 32, 36 → total 100.
        assert_eq!(joins.iter().sum::<usize>(), 100);
        assert!(SwarmGrowthLimiter::verify(2.0, &joins).is_ok());
        assert_eq!(joins[0], 2);
        assert!(joins[4] > joins[1]);
    }

    #[test]
    fn crowd_saturates_at_max_viewers() {
        let mut gen = FlashCrowd::single(VideoId(1), 5, 10, 3.0, 2);
        let free = vec![true; 100];
        let mut total = 0;
        for round in 0..10 {
            total += gen.demands_at(round, &free).len();
        }
        assert_eq!(total, 5);
        assert_eq!(gen.joined(0), 5);
    }

    #[test]
    fn crowd_limited_by_free_boxes() {
        let mut gen = FlashCrowd::single(VideoId(0), 100, 10, 4.0, 3);
        // Only 3 boxes free.
        let free = vec![true, true, true, false, false];
        let d = gen.demands_at(0, &free);
        assert!(d.len() <= 3);
        let mut ids: Vec<BoxId> = d.iter().map(|x| x.box_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), d.len());
    }

    #[test]
    fn staggered_crowds_start_at_their_round() {
        let specs = vec![
            CrowdSpec {
                video: VideoId(0),
                start_round: 0,
                max_viewers: 4,
            },
            CrowdSpec {
                video: VideoId(1),
                start_round: 3,
                max_viewers: 4,
            },
        ];
        let mut gen = FlashCrowd::staggered(specs, 10, 2.0, 4);
        let free = vec![true; 50];
        for round in 0..3 {
            let d = gen.demands_at(round, &free);
            assert!(d.iter().all(|x| x.video == VideoId(0)), "round {round}");
        }
        let d3 = gen.demands_at(3, &free);
        assert!(d3.iter().any(|x| x.video == VideoId(1)));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut gen = FlashCrowd::single(VideoId(0), 20, 5, 2.0, seed);
            let free = vec![true; 40];
            let mut all = Vec::new();
            for round in 0..6 {
                all.extend(gen.demands_at(round, &free));
            }
            all
        };
        assert_eq!(run(7), run(7));
    }
}
