//! The stage taxonomy: every timed phase of the round pipeline.
//!
//! One variant per instrumentation point, ordered the way a round executes:
//! the engine's `step` phases first, then the flow-solver phases that run
//! inside a schedule call. The discriminants index the fixed-size arrays of
//! [`crate::StageTimings`] and [`crate::RunProfile`]; everything written to
//! disk names a stage by [`Stage::name`], never by index.

use vod_core::json::JsonError;

/// A timed phase of the simulation round pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// `Simulator::step`: retiring playbacks that finished last round.
    PlaybackEnd,
    /// Candidate-index maintenance (`CandidateIndex::begin_round`): the
    /// expiry wheel tick behind each round's `B(x)` supplier sets.
    CandidateMaintain,
    /// Draining scheduled churn events (departures, crashes, rejoins).
    ChurnDrain,
    /// `RepairPlanner`: planning budgeted re-replication transfers.
    RepairPlan,
    /// Accepting the demand generator's new video demands.
    DemandIntake,
    /// Collecting the round's active stripe requests.
    RequestCollect,
    /// Filling per-request candidate rows from the candidate index.
    CandidateFill,
    /// The scheduler call itself (matching requests onto boxes).
    Schedule,
    /// Relay accounting: per-relay load notes and reservation bookkeeping.
    RelayAccount,
    /// Diagnosing an infeasible round (obstruction / starved reservations).
    FailureDiagnose,
    /// `RepairPlanner`: committing planned transfers into placement.
    RepairCommit,
    /// `RelayBroker`: re-planning reservations after a churn event.
    RelayReplan,
    /// Flow solvers: Lemma-1 [`BipartiteShape`] analysis rebuilding the bit
    /// rows after an arena structure change.
    ///
    /// [`BipartiteShape`]: https://docs.rs/vod-flow
    SolverAnalyze,
    /// One Hopcroft–Karp BFS+DFS phase (payload = augmentations found).
    HkPhase,
    /// One push–relabel global-relabel BFS pass (payload = pass ordinal).
    GlobalRelabel,
    /// Draining the round's fault events and overlaying the capacity
    /// deductions of the active fault windows (payload = slots lost).
    FaultDrain,
    /// Delivery resolution: scheduled connections resolving into
    /// delivered / dropped / timed-out outcomes and retry bookkeeping.
    Deliver,
    /// The graceful-degradation controller's windowed feasibility update.
    Degrade,
}

impl Stage {
    /// Number of stages (the length of the per-stage arrays).
    pub const COUNT: usize = 18;

    /// Every stage, in discriminant order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::PlaybackEnd,
        Stage::CandidateMaintain,
        Stage::ChurnDrain,
        Stage::RepairPlan,
        Stage::DemandIntake,
        Stage::RequestCollect,
        Stage::CandidateFill,
        Stage::Schedule,
        Stage::RelayAccount,
        Stage::FailureDiagnose,
        Stage::RepairCommit,
        Stage::RelayReplan,
        Stage::SolverAnalyze,
        Stage::HkPhase,
        Stage::GlobalRelabel,
        Stage::FaultDrain,
        Stage::Deliver,
        Stage::Degrade,
    ];

    /// The stage's stable array index (its discriminant).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable kebab-case name used in JSON, JSONL traces, and tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::PlaybackEnd => "playback-end",
            Stage::CandidateMaintain => "candidate-maintain",
            Stage::ChurnDrain => "churn-drain",
            Stage::RepairPlan => "repair-plan",
            Stage::DemandIntake => "demand-intake",
            Stage::RequestCollect => "request-collect",
            Stage::CandidateFill => "candidate-fill",
            Stage::Schedule => "schedule",
            Stage::RelayAccount => "relay-account",
            Stage::FailureDiagnose => "failure-diagnose",
            Stage::RepairCommit => "repair-commit",
            Stage::RelayReplan => "relay-replan",
            Stage::SolverAnalyze => "solver-analyze",
            Stage::HkPhase => "hk-phase",
            Stage::GlobalRelabel => "global-relabel",
            Stage::FaultDrain => "fault-drain",
            Stage::Deliver => "deliver",
            Stage::Degrade => "degrade",
        }
    }

    /// Looks a stage up by its stable name (the inverse of [`Stage::name`]).
    pub fn from_name(name: &str) -> Result<Stage, JsonError> {
        Stage::ALL
            .iter()
            .copied()
            .find(|s| s.name() == name)
            .ok_or_else(|| JsonError::new(format!("unknown stage `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive_and_in_discriminant_order() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()).unwrap(), stage);
        }
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn unknown_name_is_an_error() {
        assert!(Stage::from_name("no-such-stage").is_err());
        // A trace written before the per-swarm stages were deleted is
        // rejected with a typed error, not mapped onto a neighbour.
        let err = Stage::from_name("shard-solve").unwrap_err();
        assert!(err.to_string().contains("shard-solve"), "{err}");
    }
}
