//! Video demands and the demand-generator interface.
//!
//! A *demand* is a user asking their box to play a video at a given round.
//! The paper's admissibility constraints are: at most one video per box at a
//! time, and the per-video swarm growth is bounded by `µ` per round. The
//! generators in this crate produce demand streams under those constraints;
//! the simulator (`vod-sim`) turns demands into stripe requests according to
//! the preloading strategy.

use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::{BoxId, VideoId};

/// One user demand: `box_id` starts watching `video` during round `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VideoDemand {
    /// The box on which the video is to be played.
    pub box_id: BoxId,
    /// The demanded video.
    pub video: VideoId,
    /// Arrival round of the demand.
    pub round: u64,
}

impl JsonCodec for VideoDemand {
    fn to_json(&self) -> Json {
        obj(vec![
            ("box_id", self.box_id.to_json()),
            ("video", self.video.to_json()),
            ("round", self.round.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(VideoDemand {
            box_id: BoxId::from_json(json.field("box_id")?)?,
            video: VideoId::from_json(json.field("video")?)?,
            round: u64::from_json(json.field("round")?)?,
        })
    }
}

impl VideoDemand {
    /// Creates a demand.
    pub const fn new(box_id: BoxId, video: VideoId, round: u64) -> Self {
        VideoDemand {
            box_id,
            video,
            round,
        }
    }
}

/// Read-only view of which boxes are currently free (not playing a video),
/// supplied by the simulator to the demand generators each round so that they
/// respect the "at most one video per box" constraint.
pub trait OccupancyView {
    /// True when `box_id` is free to start a new video this round.
    fn is_free(&self, box_id: BoxId) -> bool;
    /// Total number of boxes in the system.
    fn box_count(&self) -> usize;

    /// Identifiers of all currently free boxes, in increasing order.
    fn free_boxes(&self) -> Vec<BoxId> {
        let mut out = Vec::new();
        self.free_boxes_into(&mut out);
        out
    }

    /// Buffer-reusing variant of [`OccupancyView::free_boxes`]: writes the
    /// free boxes into `out` (cleared first), in increasing order. Generators
    /// call this form with a buffer they keep across rounds; views with a
    /// faster scan than one `is_free` call per box override it.
    fn free_boxes_into(&self, out: &mut Vec<BoxId>) {
        out.clear();
        out.extend(
            (0..self.box_count() as u32)
                .map(BoxId)
                .filter(|&b| self.is_free(b)),
        );
    }
}

/// A plain boolean-vector occupancy view (`true` = free).
impl OccupancyView for Vec<bool> {
    fn is_free(&self, box_id: BoxId) -> bool {
        self.get(box_id.index()).copied().unwrap_or(false)
    }
    fn box_count(&self) -> usize {
        self.len()
    }
}

/// A borrowed boolean-slice occupancy view (`true` = free).
impl OccupancyView for &[bool] {
    fn is_free(&self, box_id: BoxId) -> bool {
        self.get(box_id.index()).copied().unwrap_or(false)
    }
    fn box_count(&self) -> usize {
        self.len()
    }
}

/// A source of video demands, driven round by round.
pub trait DemandGenerator {
    /// Demands arriving during round `round`, restricted to boxes reported
    /// free by `occupancy`. Implementations must not emit two demands for the
    /// same box in the same round.
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand>;

    /// Buffer-reusing variant of [`DemandGenerator::demands_at`]: writes the
    /// round's demands into `out` (cleared first). The default delegates to
    /// `demands_at`; generators with a cheap internal path may override it
    /// to avoid the per-round allocation. The simulator calls this form with
    /// a pooled buffer.
    fn demands_into(
        &mut self,
        round: u64,
        occupancy: &dyn OccupancyView,
        out: &mut Vec<VideoDemand>,
    ) {
        out.clear();
        out.extend(self.demands_at(round, occupancy));
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Tracks per-video swarm sizes and enforces the paper's growth bound
/// `f(t+1) ≤ ⌈max{f(t), 1}·µ⌉`.
///
/// Generators use [`SwarmGrowthLimiter::admit`] to cap how many new viewers
/// may join a video's swarm in the current round; the simulator uses
/// [`SwarmGrowthLimiter::verify`] to assert that a demand trace respects the
/// bound.
#[derive(Clone, Debug)]
pub struct SwarmGrowthLimiter {
    mu: f64,
    /// Swarm size per video at the end of the previous round.
    previous: Vec<usize>,
    /// New joins recorded for the current round.
    current_joins: Vec<usize>,
    /// The videos whose `current_joins` is non-zero, in first-join order:
    /// the only entries `advance_to` has to fold.
    joined: Vec<u32>,
    current_round: u64,
}

impl SwarmGrowthLimiter {
    /// Creates a limiter for `videos` videos with growth bound `mu`.
    pub fn new(videos: usize, mu: f64) -> Self {
        assert!(mu >= 1.0, "µ must be at least 1");
        SwarmGrowthLimiter {
            mu,
            previous: vec![0; videos],
            current_joins: vec![0; videos],
            joined: Vec::new(),
            current_round: 0,
        }
    }

    /// The growth bound `µ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Moves the limiter to `round`, folding the joins recorded so far into
    /// the per-video swarm sizes. Rounds must be visited in non-decreasing
    /// order; skipped rounds count as rounds with no join (the swarm ceiling
    /// still grows accordingly because growth is per elapsed round). Costs
    /// the videos that got joins, not the catalog.
    pub fn advance_to(&mut self, round: u64) {
        if round <= self.current_round {
            return;
        }
        for v in self.joined.drain(..) {
            let v = v as usize;
            self.previous[v] += std::mem::take(&mut self.current_joins[v]);
        }
        self.current_round = round;
    }

    /// Records that `leaving` viewers left the swarm of `video` (their
    /// playback ended). Departures never violate the growth bound.
    pub fn record_departures(&mut self, video: VideoId, leaving: usize) {
        let p = &mut self.previous[video.index()];
        *p = p.saturating_sub(leaving);
    }

    /// Maximum number of *new* viewers that may still join `video` in the
    /// current round without violating `f(t+1) ≤ ⌈max{f(t),1}·µ⌉`.
    pub fn headroom(&self, video: VideoId) -> usize {
        let f = self.previous[video.index()];
        let ceiling = ((f.max(1)) as f64 * self.mu).ceil() as usize;
        ceiling
            .saturating_sub(f)
            .saturating_sub(self.current_joins[video.index()])
    }

    /// Tries to admit `wanted` new viewers to `video` in the current round;
    /// returns how many were admitted (≤ `wanted`, capped by the headroom).
    pub fn admit(&mut self, video: VideoId, wanted: usize) -> usize {
        let admitted = wanted.min(self.headroom(video));
        let joins = &mut self.current_joins[video.index()];
        if *joins == 0 && admitted > 0 {
            self.joined.push(video.0);
        }
        *joins += admitted;
        admitted
    }

    /// Current swarm size of `video` (including joins of the current round).
    pub fn swarm_size(&self, video: VideoId) -> usize {
        self.previous[video.index()] + self.current_joins[video.index()]
    }

    /// Verifies that a batch of per-round join counts for one video respects
    /// the growth bound, starting from an empty swarm. Returns the offending
    /// round index on failure.
    pub fn verify(mu: f64, joins_per_round: &[usize]) -> Result<(), usize> {
        let mut f = 0usize;
        for (i, &j) in joins_per_round.iter().enumerate() {
            let ceiling = ((f.max(1)) as f64 * mu).ceil() as usize;
            if f + j > ceiling {
                return Err(i);
            }
            f += j;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_view_on_slice() {
        let free = [true, false, true];
        let view: &[bool] = &free;
        assert!(view.is_free(BoxId(0)));
        assert!(!view.is_free(BoxId(1)));
        assert!(!view.is_free(BoxId(7))); // out of range counts as busy
        assert_eq!(view.free_boxes(), vec![BoxId(0), BoxId(2)]);
    }

    #[test]
    fn limiter_allows_first_viewer_and_bounds_growth() {
        let mut lim = SwarmGrowthLimiter::new(2, 2.0);
        let v = VideoId(0);
        // Empty swarm: ceiling = ⌈1·2⌉ = 2 joins allowed.
        assert_eq!(lim.headroom(v), 2);
        assert_eq!(lim.admit(v, 5), 2);
        assert_eq!(lim.swarm_size(v), 2);
        lim.advance_to(1);
        // f = 2: ceiling 4, headroom 2.
        assert_eq!(lim.headroom(v), 2);
        assert_eq!(lim.admit(v, 1), 1);
        lim.advance_to(2);
        // f = 3: ceiling 6, headroom 3.
        assert_eq!(lim.admit(v, 10), 3);
    }

    #[test]
    fn limiter_handles_departures() {
        let mut lim = SwarmGrowthLimiter::new(1, 1.5);
        let v = VideoId(0);
        lim.admit(v, 1);
        lim.advance_to(1);
        lim.record_departures(v, 1);
        assert_eq!(lim.swarm_size(v), 0);
        // Back to the empty-swarm ceiling ⌈1·1.5⌉ = 2.
        assert_eq!(lim.headroom(v), 2);
    }

    #[test]
    fn advance_is_idempotent_for_same_round() {
        let mut lim = SwarmGrowthLimiter::new(1, 2.0);
        let v = VideoId(0);
        lim.admit(v, 2);
        lim.advance_to(1);
        lim.advance_to(1);
        assert_eq!(lim.swarm_size(v), 2);
    }

    /// The limiter as a plain table: `advance_to` folds every video's
    /// joins, whether or not it got any.
    struct FoldEveryVideo {
        mu: f64,
        previous: Vec<usize>,
        current_joins: Vec<usize>,
        current_round: u64,
    }

    impl FoldEveryVideo {
        fn advance_to(&mut self, round: u64) {
            if round <= self.current_round {
                return;
            }
            for (p, j) in self.previous.iter_mut().zip(&mut self.current_joins) {
                *p += std::mem::take(j);
            }
            self.current_round = round;
        }
        fn headroom(&self, v: usize) -> usize {
            let f = self.previous[v];
            let ceiling = (f.max(1) as f64 * self.mu).ceil() as usize;
            ceiling
                .saturating_sub(f)
                .saturating_sub(self.current_joins[v])
        }
        fn admit(&mut self, v: usize, wanted: usize) -> usize {
            let admitted = wanted.min(self.headroom(v));
            self.current_joins[v] += admitted;
            admitted
        }
        fn record_departures(&mut self, v: usize, leaving: usize) {
            self.previous[v] = self.previous[v].saturating_sub(leaving);
        }
    }

    /// Seeded scripts of admits (repeated on one video within a round, and
    /// past the headroom so some admit nothing), departures, repeated and
    /// skipped rounds: every video's swarm size and headroom match a
    /// limiter that folds the whole catalog each round.
    #[test]
    fn limiter_folds_like_a_full_catalog_fold() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0x11_417 + seed);
            let videos = [1usize, 7, 50][seed as usize % 3];
            let mu = [1.0, 1.5, 2.0][(seed as usize / 3) % 3];
            let mut lim = SwarmGrowthLimiter::new(videos, mu);
            let mut reference = FoldEveryVideo {
                mu,
                previous: vec![0; videos],
                current_joins: vec![0; videos],
                current_round: 0,
            };
            let (mut round, mut zero_admits) = (0u64, 0);
            for step in 0..400 {
                let at = format!("seed {seed} step {step} round {round}");
                let v = rng.gen_range(0..videos);
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let wanted = rng.gen_range(0..6usize);
                        let admitted = lim.admit(VideoId(v as u32), wanted);
                        assert_eq!(admitted, reference.admit(v, wanted), "{at}");
                        zero_admits += usize::from(admitted == 0);
                        // A second admit of the same video in the round.
                        let again = lim.admit(VideoId(v as u32), 1);
                        assert_eq!(again, reference.admit(v, 1), "{at}: again");
                    }
                    5..=6 => {
                        let leaving = rng.gen_range(0..4usize);
                        lim.record_departures(VideoId(v as u32), leaving);
                        reference.record_departures(v, leaving);
                    }
                    // A repeated round, the next one, or a skip of up to three.
                    _ => round += rng.gen_range(0..4u64),
                }
                lim.advance_to(round);
                reference.advance_to(round);
                for v in 0..videos {
                    let id = VideoId(v as u32);
                    let size = reference.previous[v] + reference.current_joins[v];
                    assert_eq!(lim.swarm_size(id), size, "{at}: size of {id}");
                    assert_eq!(
                        lim.headroom(id),
                        reference.headroom(v),
                        "{at}: headroom of {id}"
                    );
                }
            }
            assert!(zero_admits > 0, "seed {seed}: no admit came back empty");
        }
    }

    #[test]
    fn verify_accepts_exponential_and_rejects_jump() {
        // Growth exactly doubling each round is fine for µ = 2.
        assert!(SwarmGrowthLimiter::verify(2.0, &[2, 2, 4, 8]).is_ok());
        // A jump beyond the ceiling is flagged at the right index.
        assert_eq!(SwarmGrowthLimiter::verify(2.0, &[2, 5]), Err(1));
        // The very first round allows up to ⌈µ⌉ joins.
        assert_eq!(SwarmGrowthLimiter::verify(1.5, &[3]), Err(0));
        assert!(SwarmGrowthLimiter::verify(1.5, &[2, 1]).is_ok());
    }

    #[test]
    fn demand_construction() {
        let d = VideoDemand::new(BoxId(3), VideoId(7), 12);
        assert_eq!(d.box_id, BoxId(3));
        assert_eq!(d.video, VideoId(7));
        assert_eq!(d.round, 12);
    }
}
