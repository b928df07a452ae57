//! Whole-run per-stage profiles.

use crate::hist::LogHistogram;
use crate::neutral::{eq_ignoring_timing, TimingNeutral};
use crate::stage::Stage;
use vod_core::json::{obj, Json, JsonCodec, JsonError};

/// One stage's whole-run aggregate: span count, total/max nanoseconds, and
/// the log-bucketed latency distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Spans recorded over the run.
    pub count: u64,
    /// Total nanoseconds over the run (saturating).
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Per-span duration distribution.
    pub hist: LogHistogram,
}

impl JsonCodec for StageProfile {
    fn to_json(&self) -> Json {
        obj(vec![
            ("count", self.count.to_json()),
            ("total_ns", self.total_ns.to_json()),
            ("max_ns", self.max_ns.to_json()),
            ("hist", self.hist.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(StageProfile {
            count: u64::from_json(json.field("count")?)?,
            total_ns: u64::from_json(json.field("total_ns")?)?,
            max_ns: u64::from_json(json.field("max_ns")?)?,
            hist: LogHistogram::from_json(json.field("hist")?)?,
        })
    }
}

/// The whole-run profile: one [`StageProfile`] per stage plus the number of
/// rounds the tracer observed.
///
/// All contents are wall-clock, so equality (via [`TimingNeutral`]) treats
/// any two profiles as equal — a traced report compares bit-identical to an
/// untraced one in every equivalence gate.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Per-stage aggregates, indexed by [`Stage::index`].
    pub stages: Vec<StageProfile>,
    /// Rounds the tracer observed.
    pub rounds: u64,
}

impl Default for RunProfile {
    fn default() -> Self {
        RunProfile {
            stages: vec![StageProfile::default(); Stage::COUNT],
            rounds: 0,
        }
    }
}

impl RunProfile {
    /// Records one span into the stage's aggregate. Zero-alloc (the stage
    /// vector is preallocated at construction).
    #[inline]
    pub fn add(&mut self, stage: Stage, ns: u64) {
        let s = &mut self.stages[stage.index()];
        s.count += 1;
        s.total_ns = s.total_ns.saturating_add(ns);
        s.max_ns = s.max_ns.max(ns);
        s.hist.record(ns);
    }

    /// The aggregate for one stage.
    pub fn stage(&self, stage: Stage) -> &StageProfile {
        &self.stages[stage.index()]
    }

    /// Stages that recorded at least one span, in pipeline order.
    pub fn occupied(&self) -> impl Iterator<Item = (Stage, &StageProfile)> + '_ {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.stage(s)))
            .filter(|(_, p)| p.count > 0)
    }

    /// Sum of all stages' total nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.stages
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.total_ns))
    }

    /// Whether any stage recorded a span.
    pub fn any(&self) -> bool {
        self.stages.iter().any(|s| s.count > 0)
    }
}

impl TimingNeutral for RunProfile {
    // The whole profile is wall-clock measurement.
    type Structural = ();

    fn structural(&self) {}

    fn scrub(&mut self) {
        *self = RunProfile::default();
    }
}

impl PartialEq for RunProfile {
    fn eq(&self, other: &Self) -> bool {
        eq_ignoring_timing(self, other)
    }
}

impl Eq for RunProfile {}

impl JsonCodec for RunProfile {
    fn to_json(&self) -> Json {
        // Sparse: only stages that recorded spans, keyed by stable name.
        let stages = self
            .occupied()
            .map(|(s, p)| {
                let mut fields = match p.to_json() {
                    Json::Obj(fields) => fields,
                    _ => unreachable!("StageProfile serializes to an object"),
                };
                fields.insert(0, ("stage".to_string(), Json::Str(s.name().to_string())));
                Json::Obj(fields)
            })
            .collect();
        obj(vec![
            ("rounds", self.rounds.to_json()),
            ("stages", Json::Arr(stages)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut profile = RunProfile {
            rounds: u64::from_json(json.field("rounds")?)?,
            ..RunProfile::default()
        };
        for entry in json.field("stages")?.as_arr()? {
            let stage = Stage::from_name(entry.field("stage")?.as_str()?)?;
            profile.stages[stage.index()] = StageProfile::from_json(entry)?;
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_feeds_count_total_max_and_hist() {
        let mut p = RunProfile::default();
        p.add(Stage::Schedule, 100);
        p.add(Stage::Schedule, 300);
        let s = p.stage(Stage::Schedule);
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 400);
        assert_eq!(s.max_ns, 300);
        assert_eq!(s.hist.count(), 2);
        assert!(p.any());
        assert_eq!(p.total_ns(), 400);
    }

    #[test]
    fn equality_is_timing_neutral() {
        let mut a = RunProfile::default();
        a.add(Stage::HkPhase, 12345);
        assert_eq!(a, RunProfile::default());
    }

    #[test]
    fn json_round_trip_preserves_contents() {
        let mut p = RunProfile {
            rounds: 40,
            ..RunProfile::default()
        };
        p.add(Stage::Schedule, 100);
        p.add(Stage::HkPhase, 700);
        let back = RunProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back.rounds, 40);
        // PartialEq is timing-neutral, so compare the stage vectors.
        assert_eq!(back.stages, p.stages);
    }
}
