//! Adversarial demand generators.
//!
//! The paper's impossibility results are driven by explicit worst-case demand
//! sequences; this module implements the two the text describes:
//!
//! * [`NeverOwnedAttack`] — Section 1.3: every box always requests a video it
//!   stores *no data of*, which defeats any system with `u < 1` as soon as
//!   the catalog exceeds `d_max/ℓ` videos (aggregate demand `n` exceeds
//!   aggregate upload `u·n`).
//! * [`PoorBoxesSameVideo`] — Section 4: all poor boxes pile onto the same
//!   video at maximal swarm growth while the rich boxes are kept busy on
//!   videos they do not possess, exhibiting the `u ≥ 1 + Δ(1)/n` necessary
//!   condition for heterogeneous systems.

use crate::demand::{DemandGenerator, OccupancyView, SwarmGrowthLimiter, VideoDemand};
use vod_core::{BoxId, Catalog, Placement, VideoId};

/// Which catalog videos one box stores data of, answered from the box's own
/// stripe list: marking costs one write per stored stripe, and a video is
/// owned when its mark carries the current box's epoch — so nothing is
/// cleared between boxes and no lookup goes through the holder table.
struct OwnedVideos {
    /// Epoch of the last box that stored a stripe of each video.
    mark: Vec<u64>,
    epoch: u64,
}

impl OwnedVideos {
    fn new(catalog: &Catalog) -> Self {
        let videos = catalog.video_ids().map(|v| v.index() + 1).max();
        OwnedVideos {
            mark: vec![0; videos.unwrap_or(0)],
            epoch: 0,
        }
    }

    /// Makes `box_id` the box that [`OwnedVideos::owns`] answers for.
    fn mark(&mut self, placement: &Placement, box_id: BoxId) {
        self.epoch += 1;
        for stripe in placement.stored_by(box_id) {
            // A placement may hold videos the catalog does not list.
            if let Some(mark) = self.mark.get_mut(stripe.video.index()) {
                *mark = self.epoch;
            }
        }
    }

    fn owns(&self, video: VideoId) -> bool {
        self.mark[video.index()] == self.epoch
    }
}

/// Section 1.3's adversary: each free box demands a video it holds no data
/// of (falling back to the globally least-replicated video if it holds data
/// of everything).
#[derive(Clone, Debug)]
pub struct NeverOwnedAttack {
    /// For each box, the videos it stores no stripe of, precomputed from the
    /// static placement.
    unowned: Vec<Vec<VideoId>>,
    /// Round-robin cursor per box so successive demands rotate through the
    /// box's unowned videos.
    cursor: Vec<usize>,
    limiter: SwarmGrowthLimiter,
    /// The round's free boxes, kept across rounds.
    free: Vec<BoxId>,
}

impl NeverOwnedAttack {
    /// Builds the attack against a specific placement.
    pub fn new(placement: &Placement, catalog: &Catalog, mu: f64) -> Self {
        let n = placement.box_count();
        let mut owned = OwnedVideos::new(catalog);
        let mut unowned = Vec::with_capacity(n);
        for b in 0..n {
            owned.mark(placement, BoxId(b as u32));
            let list: Vec<VideoId> = catalog.video_ids().filter(|&v| !owned.owns(v)).collect();
            unowned.push(list);
        }
        NeverOwnedAttack {
            unowned,
            cursor: vec![0; n],
            limiter: SwarmGrowthLimiter::new(catalog.len(), mu),
            free: Vec::new(),
        }
    }

    /// Number of boxes for which the attack found at least one unowned video.
    pub fn vulnerable_boxes(&self) -> usize {
        self.unowned.iter().filter(|l| !l.is_empty()).count()
    }

    /// True when every box owns data of every video (the attack has no
    /// leverage — the full-replication regime).
    pub fn is_toothless(&self) -> bool {
        self.vulnerable_boxes() == 0
    }
}

impl DemandGenerator for NeverOwnedAttack {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        self.limiter.advance_to(round);
        let mut demands = Vec::new();
        occupancy.free_boxes_into(&mut self.free);
        for &b in &self.free {
            let list = &self.unowned[b.index()];
            if list.is_empty() {
                continue;
            }
            // Rotate through the unowned videos, skipping those whose swarm
            // cannot accept a new viewer this round.
            let len = list.len();
            let start = self.cursor[b.index()];
            for offset in 0..len {
                let video = list[(start + offset) % len];
                if self.limiter.admit(video, 1) == 1 {
                    demands.push(VideoDemand::new(b, video, round));
                    self.cursor[b.index()] = (start + offset + 1) % len;
                    break;
                }
            }
        }
        demands
    }

    fn name(&self) -> &'static str {
        "never-owned-attack"
    }
}

/// Section 4's adversary against heterogeneous systems: the poor boxes all
/// demand one target video (joining as fast as the growth bound allows) while
/// every rich box is sent to a video it does not possess.
#[derive(Clone, Debug)]
pub struct PoorBoxesSameVideo {
    /// Poor boxes, in the order they will join the target swarm.
    poor: Vec<BoxId>,
    /// The video all poor boxes converge on.
    target: VideoId,
    /// For each rich box, a video it holds no data of (if any).
    rich_unowned: Vec<(BoxId, Option<VideoId>)>,
    limiter: SwarmGrowthLimiter,
    next_poor: usize,
}

impl PoorBoxesSameVideo {
    /// Builds the attack: `poor` boxes converge on `target`; rich boxes are
    /// occupied with videos they do not store (looked up in `placement`).
    pub fn new(
        poor: Vec<BoxId>,
        rich: Vec<BoxId>,
        target: VideoId,
        placement: &Placement,
        catalog: &Catalog,
        mu: f64,
    ) -> Self {
        let mut owned = OwnedVideos::new(catalog);
        let rich_unowned = rich
            .into_iter()
            .map(|b| {
                owned.mark(placement, b);
                let video = catalog.video_ids().find(|&v| v != target && !owned.owns(v));
                (b, video)
            })
            .collect();
        PoorBoxesSameVideo {
            poor,
            target,
            rich_unowned,
            limiter: SwarmGrowthLimiter::new(catalog.len(), mu),
            next_poor: 0,
        }
    }

    /// The video targeted by the poor boxes.
    pub fn target(&self) -> VideoId {
        self.target
    }

    /// How many poor boxes have joined the target swarm so far.
    pub fn joined(&self) -> usize {
        self.next_poor
    }
}

impl DemandGenerator for PoorBoxesSameVideo {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        self.limiter.advance_to(round);
        let mut demands = Vec::new();

        // Rich boxes start (once) on a video they do not own.
        if round == 0 {
            for (b, video) in &self.rich_unowned {
                if let Some(v) = video {
                    if occupancy.is_free(*b) && self.limiter.admit(*v, 1) == 1 {
                        demands.push(VideoDemand::new(*b, *v, round));
                    }
                }
            }
        }

        // Poor boxes join the target swarm at the maximal admissible rate.
        while self.next_poor < self.poor.len() {
            let b = self.poor[self.next_poor];
            if !occupancy.is_free(b) {
                self.next_poor += 1;
                continue;
            }
            if self.limiter.admit(self.target, 1) == 0 {
                break; // growth bound exhausted for this round
            }
            demands.push(VideoDemand::new(b, self.target, round));
            self.next_poor += 1;
        }
        demands
    }

    fn name(&self) -> &'static str {
        "poor-boxes-same-video"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vod_core::{
        Allocator, Bandwidth, BoxSet, FullReplicationAllocator, RandomPermutationAllocator,
        StorageSlots,
    };

    fn small_system(m: usize) -> (BoxSet, Catalog, Placement) {
        let boxes =
            BoxSet::homogeneous(8, Bandwidth::from_streams(1.5), StorageSlots::from_slots(8));
        let catalog = Catalog::uniform(m, 60, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let placement = RandomPermutationAllocator::new(1)
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        (boxes, catalog, placement)
    }

    #[test]
    fn never_owned_attack_targets_unowned_videos() {
        let (_, catalog, placement) = small_system(16);
        let mut attack = NeverOwnedAttack::new(&placement, &catalog, 2.0);
        assert!(attack.vulnerable_boxes() > 0);
        let free = vec![true; 8];
        let demands = attack.demands_at(0, &free);
        assert!(!demands.is_empty());
        for d in &demands {
            assert!(
                !placement.stores_any_of(d.box_id, d.video, 4),
                "box {} was sent to a video it owns",
                d.box_id
            );
        }
    }

    #[test]
    fn never_owned_lists_equal_the_per_stripe_definition() {
        for m in [1, 5, 16] {
            let (_, catalog, placement) = small_system(m);
            let attack = NeverOwnedAttack::new(&placement, &catalog, 2.0);
            for b in (0..8).map(BoxId) {
                let by_definition: Vec<VideoId> = catalog
                    .video_ids()
                    .filter(|&v| !placement.stores_any_of(b, v, 4))
                    .collect();
                assert_eq!(attack.unowned[b.index()], by_definition, "m {m} box {b}");
            }
            let rich: Vec<BoxId> = (0..8).map(BoxId).collect();
            let decoys =
                PoorBoxesSameVideo::new(vec![], rich, VideoId(0), &placement, &catalog, 2.0);
            for (b, video) in decoys.rich_unowned {
                let by_definition = catalog
                    .video_ids()
                    .find(|&v| v != VideoId(0) && !placement.stores_any_of(b, v, 4));
                assert_eq!(video, by_definition, "m {m} decoy of {b}");
            }
        }
    }

    #[test]
    fn never_owned_attack_is_toothless_under_full_replication() {
        let boxes =
            BoxSet::homogeneous(4, Bandwidth::from_streams(0.8), StorageSlots::from_slots(8));
        let catalog = Catalog::uniform(8, 60, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let placement = FullReplicationAllocator::new()
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        let mut attack = NeverOwnedAttack::new(&placement, &catalog, 2.0);
        assert!(attack.is_toothless());
        let free = vec![true; 4];
        assert!(attack.demands_at(0, &free).is_empty());
    }

    #[test]
    fn never_owned_attack_respects_occupancy() {
        let (_, catalog, placement) = small_system(16);
        let mut attack = NeverOwnedAttack::new(&placement, &catalog, 2.0);
        let free = vec![false; 8];
        assert!(attack.demands_at(0, &free).is_empty());
    }

    #[test]
    fn never_owned_attack_emits_at_most_one_demand_per_box() {
        let (_, catalog, placement) = small_system(16);
        let mut attack = NeverOwnedAttack::new(&placement, &catalog, 2.0);
        let free = vec![true; 8];
        let demands = attack.demands_at(0, &free);
        let mut boxes: Vec<BoxId> = demands.iter().map(|d| d.box_id).collect();
        boxes.sort();
        boxes.dedup();
        assert_eq!(boxes.len(), demands.len());
    }

    #[test]
    fn poor_boxes_attack_grows_with_mu() {
        let (_, catalog, placement) = small_system(16);
        let poor: Vec<BoxId> = (0..6).map(BoxId).collect();
        let rich: Vec<BoxId> = (6..8).map(BoxId).collect();
        let mut attack = PoorBoxesSameVideo::new(poor, rich, VideoId(0), &placement, &catalog, 2.0);
        let free = vec![true; 8];
        // Round 0: at most ⌈1·2⌉ = 2 poor boxes join (plus the rich decoys).
        let d0 = attack.demands_at(0, &free);
        let poor_joins_0 = d0.iter().filter(|d| d.video == VideoId(0)).count();
        assert_eq!(poor_joins_0, 2);
        // Round 1: swarm is 2, ceiling 4 -> 2 more join.
        let d1 = attack.demands_at(1, &free);
        assert_eq!(d1.iter().filter(|d| d.video == VideoId(0)).count(), 2);
        // Round 2: swarm is 4, ceiling 8 -> the remaining 2 join.
        let d2 = attack.demands_at(2, &free);
        assert_eq!(d2.iter().filter(|d| d.video == VideoId(0)).count(), 2);
        assert_eq!(attack.joined(), 6);
    }

    #[test]
    fn poor_boxes_attack_growth_respects_verifier() {
        let (_, catalog, placement) = small_system(16);
        let poor: Vec<BoxId> = (0..8).map(BoxId).collect();
        let mut attack =
            PoorBoxesSameVideo::new(poor, vec![], VideoId(3), &placement, &catalog, 1.5);
        let free = vec![true; 8];
        let mut joins = Vec::new();
        for round in 0..6 {
            let d = attack.demands_at(round, &free);
            joins.push(d.iter().filter(|x| x.video == VideoId(3)).count());
        }
        assert!(SwarmGrowthLimiter::verify(1.5, &joins).is_ok());
        assert_eq!(joins.iter().sum::<usize>(), 8);
    }
}
