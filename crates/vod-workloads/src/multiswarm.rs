//! Multi-swarm churn workload: many concurrently active swarms with a
//! sliding hot set.
//!
//! A round whose requests spread over many videos at once — many
//! medium-sized swarms coupled through shared box capacities — with the
//! set of active swarms itself churning over time (new releases displacing
//! old ones). This generator produces exactly that shape, with four knobs:
//!
//! * `swarms` — how many videos are simultaneously hot;
//! * `arrivals_per_round` — total new viewers spread round-robin across the
//!   hot set each round (each admission still honours the `µ` growth bound);
//! * `rotation_period` — every that-many rounds the hot window slides by one
//!   video, so swarms are born and die continuously (`0` keeps the hot set
//!   static);
//! * `priority_boxes` — boxes admitted ahead of the shuffled remainder
//!   each round. Pointing this at a heterogeneous fleet's *poor* boxes
//!   keeps them watching across the whole hot window, so their relayed
//!   requests spread over many swarms at once — the stress shape for
//!   relay reservations (the benchmark's `relay-faults` workload).
//!
//! All randomness comes from the seed, so the demand sequence is a pure
//! function of `(knobs, seed, occupancy history)`.

use crate::demand::{DemandGenerator, OccupancyView, SwarmGrowthLimiter, VideoDemand};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vod_core::{BoxId, VideoId};

/// Demand generator spreading arrivals over a sliding window of hot swarms.
#[derive(Clone, Debug)]
pub struct MultiSwarmChurn {
    catalog_size: usize,
    swarms: usize,
    arrivals_per_round: usize,
    rotation_period: u64,
    limiter: SwarmGrowthLimiter,
    rng: StdRng,
    /// Boxes admitted first each round (sorted; empty = no priority).
    priority: Vec<BoxId>,
    /// Pooled free-box scratch, reused across rounds.
    free_buf: Vec<BoxId>,
    prio_buf: Vec<BoxId>,
}

impl MultiSwarmChurn {
    /// Creates a generator over a catalog of `catalog_size` videos with
    /// `swarms` simultaneously hot videos, `arrivals_per_round` target
    /// arrivals, growth bound `mu`, and a static hot set.
    ///
    /// # Panics
    /// Panics when the catalog is empty or `swarms` is zero.
    pub fn new(
        catalog_size: usize,
        swarms: usize,
        arrivals_per_round: usize,
        mu: f64,
        seed: u64,
    ) -> Self {
        assert!(catalog_size > 0, "catalog must be non-empty");
        assert!(swarms > 0, "at least one hot swarm");
        MultiSwarmChurn {
            catalog_size,
            swarms: swarms.min(catalog_size),
            arrivals_per_round,
            rotation_period: 0,
            limiter: SwarmGrowthLimiter::new(catalog_size, mu),
            rng: StdRng::seed_from_u64(seed),
            priority: Vec::new(),
            free_buf: Vec::new(),
            prio_buf: Vec::new(),
        }
    }

    /// Slides the hot window by one video every `period` rounds (`0`
    /// disables rotation), churning swarm membership.
    pub fn with_rotation(mut self, period: u64) -> Self {
        self.rotation_period = period;
        self
    }

    /// Admits the given boxes ahead of the shuffled remainder each round
    /// (in ascending box id). With a heterogeneous fleet's poor boxes here,
    /// every hot swarm carries relayed requests — the relay-subsystem
    /// stress shape. An empty list leaves the demand sequence bit-identical
    /// to the un-prioritized generator.
    pub fn with_priority_boxes(mut self, mut boxes: Vec<BoxId>) -> Self {
        boxes.sort();
        boxes.dedup();
        self.priority = boxes;
        self
    }

    /// Number of simultaneously hot swarms.
    pub fn swarms(&self) -> usize {
        self.swarms
    }

    /// First video of the hot window at `round`.
    fn window_start(&self, round: u64) -> usize {
        match round.checked_div(self.rotation_period) {
            None => 0, // rotation disabled
            Some(slides) => (slides % self.catalog_size as u64) as usize,
        }
    }
}

impl DemandGenerator for MultiSwarmChurn {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        let mut out = Vec::new();
        self.demands_into(round, occupancy, &mut out);
        out
    }

    /// Allocation-free override: the free-box scratch and the output buffer
    /// are both reused, so a steady-state round allocates nothing.
    fn demands_into(
        &mut self,
        round: u64,
        occupancy: &dyn OccupancyView,
        out: &mut Vec<VideoDemand>,
    ) {
        out.clear();
        self.limiter.advance_to(round);
        let start = self.window_start(round);
        occupancy.free_boxes_into(&mut self.free_buf);
        self.free_buf.shuffle(&mut self.rng);
        if !self.priority.is_empty() {
            // Stable partition: free priority boxes first (ascending id —
            // they were collected in id order), the shuffled rest after.
            self.prio_buf.clear();
            self.prio_buf.extend(
                self.priority
                    .iter()
                    .copied()
                    .filter(|&b| occupancy.is_free(b)),
            );
            self.free_buf
                .retain(|b| self.priority.binary_search(b).is_err());
            std::mem::swap(&mut self.free_buf, &mut self.prio_buf);
            let rest = std::mem::take(&mut self.prio_buf);
            self.free_buf.extend_from_slice(&rest);
            self.prio_buf = rest;
        }

        let mut slot = 0usize;
        let take = self.arrivals_per_round.min(self.free_buf.len());
        for i in 0..take {
            let b = self.free_buf[i];
            // Round-robin across the hot window, skipping swarms that have
            // exhausted their µ-headroom this round (bounded probe so a
            // fully saturated window terminates).
            let mut admitted = false;
            for probe in 0..self.swarms {
                let video =
                    VideoId(((start + (slot + probe) % self.swarms) % self.catalog_size) as u32);
                if self.limiter.admit(video, 1) == 1 {
                    out.push(VideoDemand::new(b, video, round));
                    slot = (slot + probe + 1) % self.swarms;
                    admitted = true;
                    break;
                }
            }
            if !admitted {
                break; // every hot swarm is at its growth ceiling
            }
        }
    }

    fn name(&self) -> &'static str {
        "multi-swarm-churn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::BoxId;

    fn collect(gen: &mut MultiSwarmChurn, rounds: u64, boxes: usize) -> Vec<Vec<VideoDemand>> {
        let free = vec![true; boxes];
        (0..rounds).map(|r| gen.demands_at(r, &free)).collect()
    }

    #[test]
    fn spreads_arrivals_over_the_hot_window() {
        let mut gen = MultiSwarmChurn::new(20, 4, 8, 4.0, 1);
        let per_round = collect(&mut gen, 6, 64);
        let mut seen: Vec<u32> = per_round.iter().flatten().map(|d| d.video.0).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2, 3], "only hot-window videos demanded");
        // More than one swarm is populated from the very first rounds.
        let first_round_videos: std::collections::BTreeSet<u32> =
            per_round[0].iter().map(|d| d.video.0).collect();
        assert!(first_round_videos.len() > 1);
    }

    #[test]
    fn respects_growth_bound_per_video() {
        let mu = 1.5;
        let mut gen = MultiSwarmChurn::new(10, 3, 100, mu, 2);
        let per_round = collect(&mut gen, 8, 500);
        for video in 0..3u32 {
            let joins: Vec<usize> = per_round
                .iter()
                .map(|ds| ds.iter().filter(|d| d.video.0 == video).count())
                .collect();
            assert!(
                SwarmGrowthLimiter::verify(mu, &joins).is_ok(),
                "video {video}: {joins:?}"
            );
        }
    }

    #[test]
    fn rotation_slides_the_hot_window() {
        let mut gen = MultiSwarmChurn::new(12, 2, 6, 8.0, 3).with_rotation(4);
        let free = vec![true; 64];
        let early: std::collections::BTreeSet<u32> = (0..4u64)
            .flat_map(|r| gen.demands_at(r, &free))
            .map(|d| d.video.0)
            .collect();
        let late: std::collections::BTreeSet<u32> = (8..12u64)
            .flat_map(|r| gen.demands_at(r, &free))
            .map(|d| d.video.0)
            .collect();
        assert!(early.contains(&0));
        assert!(late.contains(&3), "late window {late:?}");
        assert!(!late.contains(&0), "late window {late:?}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut gen = MultiSwarmChurn::new(16, 5, 7, 2.0, seed).with_rotation(3);
            collect(&mut gen, 10, 48)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn priority_boxes_are_admitted_first() {
        // 4 arrival slots, priority on boxes 10–13: they are always the
        // ones admitted, in ascending order, ahead of the shuffled rest.
        let prio: Vec<BoxId> = (10..14).map(BoxId).collect();
        let mut gen = MultiSwarmChurn::new(8, 4, 4, 8.0, 11).with_priority_boxes(prio.clone());
        let free = vec![true; 32];
        for round in 0..6u64 {
            let demands = gen.demands_at(round, &free);
            let admitted: Vec<BoxId> = demands.iter().map(|d| d.box_id).collect();
            assert_eq!(admitted, prio, "round {round}");
        }
        // An empty priority list is bit-identical to the plain generator.
        let run = |gen: &mut MultiSwarmChurn| collect(gen, 8, 24);
        let plain = run(&mut MultiSwarmChurn::new(12, 3, 5, 2.0, 7).with_rotation(2));
        let empty_prio = run(&mut MultiSwarmChurn::new(12, 3, 5, 2.0, 7)
            .with_rotation(2)
            .with_priority_boxes(Vec::new()));
        assert_eq!(plain, empty_prio);
    }

    #[test]
    fn one_demand_per_box_per_round() {
        let mut gen = MultiSwarmChurn::new(8, 4, 20, 4.0, 5);
        let free = vec![true; 16];
        for round in 0..5 {
            let d = gen.demands_at(round, &free);
            let mut ids: Vec<BoxId> = d.iter().map(|x| x.box_id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), d.len(), "round {round}");
        }
    }
}
