//! Per-round stage timing aggregates.

use crate::neutral::{eq_ignoring_timing, TimingNeutral};
use crate::stage::Stage;
use vod_core::json::{obj, Json, JsonCodec, JsonError};

/// One round's per-stage nanosecond totals and span counts.
///
/// A fixed pair of arrays indexed by [`Stage::index`] — `Copy`, stack-only,
/// so accumulating and handing a round's timings to `RoundMetrics` stays
/// inside the zero-alloc steady-state envelope. Every field is wall-clock,
/// so equality (via [`TimingNeutral`]) considers any two values equal and
/// the bit-equality gates never see a timing difference.
#[derive(Clone, Copy, Debug)]
pub struct StageTimings {
    /// Total nanoseconds per stage this round.
    pub ns: [u64; Stage::COUNT],
    /// Number of spans per stage this round.
    pub counts: [u32; Stage::COUNT],
}

impl Default for StageTimings {
    fn default() -> Self {
        StageTimings {
            ns: [0; Stage::COUNT],
            counts: [0; Stage::COUNT],
        }
    }
}

impl StageTimings {
    /// Adds one span to the aggregate. Zero-alloc.
    #[inline]
    pub fn add(&mut self, stage: Stage, ns: u64) {
        let i = stage.index();
        self.ns[i] = self.ns[i].saturating_add(ns);
        self.counts[i] += 1;
    }

    /// Total nanoseconds recorded for `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Span count recorded for `stage`.
    pub fn stage_count(&self, stage: Stage) -> u32 {
        self.counts[stage.index()]
    }

    /// Sum of all stages' nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Whether any span was recorded.
    pub fn any(&self) -> bool {
        self.counts.iter().any(|&c| c > 0)
    }

    /// Resets to the empty aggregate.
    pub fn clear(&mut self) {
        *self = StageTimings::default();
    }
}

impl TimingNeutral for StageTimings {
    // Every field is wall-clock; there is no structural residue.
    type Structural = ();

    fn structural(&self) {}

    fn scrub(&mut self) {
        self.clear();
    }
}

impl PartialEq for StageTimings {
    fn eq(&self, other: &Self) -> bool {
        eq_ignoring_timing(self, other)
    }
}

impl Eq for StageTimings {}

impl JsonCodec for StageTimings {
    fn to_json(&self) -> Json {
        // Sparse: only stages that recorded something.
        let stages = Stage::ALL
            .iter()
            .filter(|s| self.counts[s.index()] > 0)
            .map(|s| {
                obj(vec![
                    ("stage", Json::Str(s.name().to_string())),
                    ("ns", self.ns[s.index()].to_json()),
                    ("count", u64::from(self.counts[s.index()]).to_json()),
                ])
            })
            .collect();
        obj(vec![("stages", Json::Arr(stages))])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut timings = StageTimings::default();
        for entry in json.field("stages")?.as_arr()? {
            let stage = Stage::from_name(entry.field("stage")?.as_str()?)?;
            let i = stage.index();
            timings.ns[i] = u64::from_json(entry.field("ns")?)?;
            timings.counts[i] = u32::try_from(u64::from_json(entry.field("count")?)?)
                .map_err(|_| JsonError::new("stage count overflows u32"))?;
        }
        Ok(timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_per_stage() {
        let mut t = StageTimings::default();
        t.add(Stage::Schedule, 100);
        t.add(Stage::Schedule, 50);
        t.add(Stage::ChurnDrain, 7);
        assert_eq!(t.stage_ns(Stage::Schedule), 150);
        assert_eq!(t.stage_count(Stage::Schedule), 2);
        assert_eq!(t.stage_ns(Stage::ChurnDrain), 7);
        assert_eq!(t.total_ns(), 157);
        assert!(t.any());
    }

    #[test]
    fn equality_ignores_all_timing() {
        let mut a = StageTimings::default();
        let mut b = StageTimings::default();
        a.add(Stage::Schedule, 100);
        b.add(Stage::Deliver, 999);
        // Both values are pure wall-clock: equality must hold regardless.
        assert_eq!(a, b);
        assert_eq!(a, StageTimings::default());
    }

    #[test]
    fn scrub_resets() {
        let mut t = StageTimings::default();
        t.add(Stage::Schedule, 100);
        t.scrub();
        assert!(!t.any());
        assert_eq!(t.total_ns(), 0);
    }

    #[test]
    fn json_round_trip_preserves_contents() {
        let mut t = StageTimings::default();
        t.add(Stage::Schedule, 1234);
        t.add(Stage::Deliver, 55);
        t.add(Stage::Deliver, 45);
        let back = StageTimings::from_json(&t.to_json()).unwrap();
        // PartialEq is timing-neutral (always true), so compare fields.
        assert_eq!(back.ns, t.ns);
        assert_eq!(back.counts, t.counts);
    }
}
