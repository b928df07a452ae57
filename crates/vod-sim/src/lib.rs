//! # vod-sim
//!
//! Discrete round-based simulator of the fully distributed Video-on-Demand
//! protocol studied in the IPDPS 2009 threshold paper. It executes the
//! preloading strategy of Section 3 (and the relaying strategy of Section 4
//! for `u*`-balanced heterogeneous systems) against arbitrary demand
//! generators, computing each round's connection matching with the paper's
//! max-flow machinery (or baseline schedulers) and reporting feasibility,
//! utilization, sourcing/swarming split, start-up delays, and obstruction
//! witnesses.
//!
//! * [`request`] — stripe requests, per-box download plans, start-up delays;
//! * [`candidates`] — incremental candidate-index maintenance: the expiry
//!   wheel behind each round's `B(x)` supplier sets;
//! * [`swarm`] — per-video swarm tracking and preload-stripe rotation;
//! * [`scheduler`] — the incremental max-flow scheduler, the greedy and
//!   random baselines, the textbook [`NaiveScheduler`] the tests check the
//!   first against, plus the relay subsystem's [`RelayBroker`] (live `u*`-compensation:
//!   reservation re-planning under churn, per-relay utilization, starved
//!   reservation witnesses);
//! * [`engine`] — the simulator itself, including the live-population loop
//!   (engine-driven churn, liveness-aware occupancy, live allocation table);
//! * [`HallCut`] — a failing round's Lemma-1 cut (the obstruction witness),
//!   read off the round's own assignment by one alternating search;
//! * [`metrics`] — per-round and aggregate measurements;
//! * [`repair`] — budgeted, deterministic re-replication of stripes that
//!   lost replicas to departures, competing with serving traffic through
//!   the same Lemma-1 box budgets;
//! * [`delivery`] — the delivery-reliability state machine: scheduled
//!   connections resolve into delivered/dropped/timed-out outcomes, failed
//!   streams retry with deadline + capped exponential backoff through the
//!   same Lemma-1 budgets, and a graceful-degradation controller sheds
//!   load (admission shedding, partial service) under sustained
//!   infeasibility with hysteresis.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidates;
mod class_rows;
pub mod delivery;
pub mod engine;
mod hall_cut;
mod ledger;
pub mod metrics;
pub mod repair;
pub mod request;
pub mod scheduler;
pub mod swarm;

pub use candidates::{CandidateIndex, CandidateStats};
pub use delivery::{
    Admission, DegradationConfig, DegradationController, DegradationRoundStats, DeliveryOutcome,
    DeliveryPolicy, DeliveryRoundStats, DeliverySummary, DeliveryTracker,
};
pub use engine::{FailurePolicy, SimConfig, Simulator};
pub use hall_cut::{HallCut, HallDeficit};
pub use metrics::{FailureRecord, PlaybackRecord, RoundMetrics, SimulationReport};
pub use repair::{RepairPlanner, RepairRoundStats, RepairTransfer};
pub use request::{PlaybackState, RequestKind, StripePlan, StripeRequest};
pub use scheduler::{
    GreedyScheduler, IncrementalMatcher, MaxFlowScheduler, NaiveScheduler, RandomScheduler,
    RelayBroker, RelayEvent, RelayRoundStats, RelayUtilization, RequestKey, RowWork, Scheduler,
    SearchCounters, SearchStats, ShardRoundStats,
};
pub use swarm::{Swarm, SwarmTracker};
// Observability surface: the tracer types callers hand to
// [`Simulator::attach_tracer`] and the timing aggregates they read back,
// re-exported so downstream crates need no direct vod-obs dependency.
pub use vod_obs::{
    eq_ignoring_timing, RunProfile, Stage, StageProfile, StageTimings, TimingNeutral, TraceHandle,
    TraceRecord,
};
