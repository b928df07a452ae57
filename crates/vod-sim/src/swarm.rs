//! Per-video swarm tracking.
//!
//! A *swarm* is the population of boxes currently viewing the same video. The
//! tracker maintains, per video: the membership (with entry rounds), the
//! entry counter used by the preloading strategy ("the p-th box to enter the
//! swarm preloads stripe p mod c, so all stripes of a video are equally
//! preloaded"), and growth statistics used to verify the `µ` bound.

use std::collections::HashMap;
use vod_core::{BoxId, StripeIndex, VideoId};

/// One video's swarm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Swarm {
    /// Members and their entry rounds, in entry order.
    members: Vec<(BoxId, u64)>,
    /// Total number of boxes that ever entered (the preload counter).
    entered_total: u64,
    /// Peak simultaneous size.
    peak_size: usize,
}

impl Swarm {
    /// Current number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Peak simultaneous size observed.
    pub fn peak_size(&self) -> usize {
        self.peak_size
    }

    /// Total number of boxes that ever joined.
    pub fn entered_total(&self) -> u64 {
        self.entered_total
    }

    /// Members and entry rounds, in entry order.
    pub fn members(&self) -> &[(BoxId, u64)] {
        &self.members
    }
}

/// Tracks all swarms of the system.
///
/// A swarm's entry outlives its last member (the preload rotation continues
/// from `entered_total` when the video is watched again), so the map grows
/// with the number of videos ever watched. The global statistics are
/// therefore kept as running aggregates, updated on every join and leave,
/// and never walk the map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwarmTracker {
    swarms: HashMap<VideoId, Swarm>,
    stripes_per_video: u16,
    /// `size_counts[s]` is the number of swarms of current size `s ≥ 1`
    /// (slot 0 is unused).
    size_counts: Vec<usize>,
    /// The largest `s` with `size_counts[s] > 0`, or 0 when nobody views.
    max_size: usize,
    /// Members over all swarms.
    total_viewers: usize,
}

impl SwarmTracker {
    /// Creates a tracker for videos cut into `c` stripes.
    pub fn new(c: u16) -> Self {
        assert!(c > 0, "stripe count must be positive");
        SwarmTracker {
            stripes_per_video: c,
            ..SwarmTracker::default()
        }
    }

    /// Registers that `box_id` enters the swarm of `video` at `round` and
    /// returns the stripe index it must preload (`entry_counter mod c`).
    pub fn join(&mut self, video: VideoId, box_id: BoxId, round: u64) -> StripeIndex {
        let swarm = self.swarms.entry(video).or_default();
        let stripe = (swarm.entered_total % self.stripes_per_video as u64) as StripeIndex;
        swarm.entered_total += 1;
        swarm.members.push((box_id, round));
        let size = swarm.members.len();
        swarm.peak_size = swarm.peak_size.max(size);
        if self.size_counts.len() <= size {
            self.size_counts.resize(size + 1, 0);
        }
        self.size_counts[size] += 1;
        if size > 1 {
            self.size_counts[size - 1] -= 1;
        }
        self.max_size = self.max_size.max(size);
        self.total_viewers += 1;
        stripe
    }

    /// Removes `box_id` from the swarm of `video` (its playback ended).
    pub fn leave(&mut self, video: VideoId, box_id: BoxId) {
        if let Some(swarm) = self.swarms.get_mut(&video) {
            if let Some(pos) = swarm.members.iter().position(|(b, _)| *b == box_id) {
                swarm.members.remove(pos);
                let size = swarm.members.len();
                self.size_counts[size + 1] -= 1;
                if size > 0 {
                    self.size_counts[size] += 1;
                }
                // The shrunk swarm now has `max_size - 1` members, so when
                // it was the last one at the maximum, that is the new one.
                if self.size_counts[self.max_size] == 0 {
                    self.max_size -= 1;
                }
                self.total_viewers -= 1;
            }
        }
    }

    /// The swarm of `video`, if any box ever joined it.
    pub fn swarm(&self, video: VideoId) -> Option<&Swarm> {
        self.swarms.get(&video)
    }

    /// Current size of `video`'s swarm.
    pub fn size(&self, video: VideoId) -> usize {
        self.swarms.get(&video).map(Swarm::size).unwrap_or(0)
    }

    /// Number of videos with a non-empty swarm.
    pub fn active_swarms(&self) -> usize {
        self.size_counts.iter().sum()
    }

    /// Total number of boxes currently viewing something.
    pub fn total_viewers(&self) -> usize {
        self.total_viewers
    }

    /// Largest current swarm size across all videos.
    pub fn max_swarm_size(&self) -> usize {
        self.max_size
    }

    /// Iterator over `(video, swarm)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VideoId, &Swarm)> {
        self.swarms.iter().map(|(&v, s)| (v, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_stripes_rotate_modulo_c() {
        let mut t = SwarmTracker::new(3);
        let v = VideoId(0);
        let stripes: Vec<StripeIndex> = (0..7).map(|i| t.join(v, BoxId(i), i as u64)).collect();
        assert_eq!(stripes, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(t.size(v), 7);
        assert_eq!(t.swarm(v).unwrap().entered_total(), 7);
    }

    #[test]
    fn rotation_continues_across_departures() {
        let mut t = SwarmTracker::new(4);
        let v = VideoId(1);
        assert_eq!(t.join(v, BoxId(0), 0), 0);
        assert_eq!(t.join(v, BoxId(1), 0), 1);
        t.leave(v, BoxId(0));
        // Counter keeps going: the next joiner preloads stripe 2, not 0.
        assert_eq!(t.join(v, BoxId(2), 5), 2);
        assert_eq!(t.size(v), 2);
    }

    #[test]
    fn peak_size_tracks_maximum() {
        let mut t = SwarmTracker::new(2);
        let v = VideoId(0);
        t.join(v, BoxId(0), 0);
        t.join(v, BoxId(1), 0);
        t.join(v, BoxId(2), 1);
        t.leave(v, BoxId(0));
        t.leave(v, BoxId(1));
        assert_eq!(t.size(v), 1);
        assert_eq!(t.swarm(v).unwrap().peak_size(), 3);
    }

    #[test]
    fn global_statistics() {
        let mut t = SwarmTracker::new(2);
        t.join(VideoId(0), BoxId(0), 0);
        t.join(VideoId(0), BoxId(1), 0);
        t.join(VideoId(1), BoxId(2), 0);
        assert_eq!(t.active_swarms(), 2);
        assert_eq!(t.total_viewers(), 3);
        assert_eq!(t.max_swarm_size(), 2);
        t.leave(VideoId(1), BoxId(2));
        assert_eq!(t.active_swarms(), 1);
    }

    /// The running aggregates equal a walk over every swarm after each of a
    /// long seeded sequence of joins and leaves (including leaves of boxes
    /// that are not members, and swarms that empty and refill).
    #[test]
    fn aggregates_match_a_full_walk() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5A);
        let mut t = SwarmTracker::new(4);
        let mut watching: Vec<Option<VideoId>> = vec![None; 40];
        for step in 0..4000u64 {
            let b = rng.gen_range(0..watching.len());
            match watching[b].take() {
                Some(video) => t.leave(video, BoxId(b as u32)),
                None if rng.gen_bool(0.1) => {
                    t.leave(VideoId(rng.gen_range(0..6u32)), BoxId(b as u32))
                }
                None => {
                    // A skewed choice, so one swarm grows large.
                    let video = VideoId(rng.gen_range(0..6u32).min(rng.gen_range(0..6u32)));
                    t.join(video, BoxId(b as u32), step);
                    watching[b] = Some(video);
                }
            }
            let sizes = || t.iter().map(|(_, s)| s.size());
            assert_eq!(
                t.max_swarm_size(),
                sizes().max().unwrap_or(0),
                "step {step}"
            );
            assert_eq!(t.total_viewers(), sizes().sum::<usize>(), "step {step}");
            assert_eq!(t.active_swarms(), sizes().filter(|&s| s > 0).count());
        }
        assert!(t.max_swarm_size() > 3, "the walk never built a large swarm");
    }

    #[test]
    fn leaving_an_unknown_swarm_is_a_noop() {
        let mut t = SwarmTracker::new(2);
        t.leave(VideoId(9), BoxId(0));
        assert_eq!(t.size(VideoId(9)), 0);
    }

    #[test]
    fn members_keep_entry_rounds() {
        let mut t = SwarmTracker::new(2);
        let v = VideoId(0);
        t.join(v, BoxId(4), 10);
        t.join(v, BoxId(5), 12);
        let members = t.swarm(v).unwrap().members();
        assert_eq!(members, &[(BoxId(4), 10), (BoxId(5), 12)]);
    }
}
