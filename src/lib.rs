//! # p2p-vod
//!
//! A complete reproduction of *"An Upload Bandwidth Threshold for
//! Peer-to-Peer Video-on-Demand Scalability"* (Boufkhad, Mathieu,
//! de Montgolfier, Perino, Viennot — IPDPS 2009) as a Rust workspace:
//!
//! * [`core`] — the `(n, u, d)`-video-system model: boxes, videos,
//!   stripes, catalogs, random allocations, and the
//!   heterogeneous `u*`-balancing machinery;
//! * [`flow`] — the max-flow / matching substrate behind the per-round
//!   connection-matching feasibility (Lemma 1);
//! * [`workloads`] — adversarial and stochastic demand generators
//!   (never-owned attack, flash crowds, Zipf…);
//! * [`sim`] — the discrete round-based protocol simulator (preloading
//!   strategy, relaying, schedulers, metrics, churn, fault injection and
//!   delivery reliability);
//! * [`analysis`] — Theorems 1 & 2, the first-moment obstruction bound,
//!   Monte-Carlo estimation and threshold searches.
//!
//! ## Quick start
//!
//! ```
//! use p2p_vod::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A homogeneous system of 32 boxes with upload u = 2 streams, storage
//! // d = 8 videos, c = 4 stripes, k = 4 replicas, swarm growth µ = 1.3.
//! let params = SystemParams::new(32, 2.0, 8, 4, 4, 1.3, 40);
//! let mut rng = StdRng::seed_from_u64(7);
//! let system = VideoSystem::homogeneous(
//!     params,
//!     &RandomPermutationAllocator::new(4),
//!     &mut rng,
//! ).unwrap();
//!
//! // Everyone watches continuously for 60 rounds; the run must stay feasible.
//! let mut demand = SequentialViewing::new(32, system.m(), NextVideoPolicy::RoundRobin, 1.3, 1);
//! let report = Simulator::new(&system, SimConfig::new(60)).run(&mut demand);
//! assert!(report.all_rounds_feasible());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vod_analysis as analysis;
pub use vod_core as core;
pub use vod_flow as flow;
pub use vod_sim as sim;
pub use vod_workloads as workloads;

/// Commonly used items from every crate, for `use p2p_vod::prelude::*`.
pub mod prelude {
    pub use vod_analysis::{
        estimate_failure_probability, find_upload_threshold, first_moment_bound,
        max_feasible_catalog, BoundParams, FeasibilityEstimate, LowerBoundCheck, SearchConfig,
        Summary, Table, Theorem1Params, Theorem2Params, TrialSpec, WorkloadKind,
    };
    pub use vod_core::{
        compensate, relay_reservation, Allocator, Bandwidth, BoxId, BoxSet, Catalog,
        CompensationDelta, CompensationPlan, CoreError, FullReplicationAllocator, Json, JsonCodec,
        JsonError, NodeBox, Placement, RandomIndependentAllocator, RandomPermutationAllocator,
        RoundRobinAllocator, StorageSlots, StripeId, SystemParams, Video, VideoId, VideoSystem,
    };
    pub use vod_flow::{
        find_obstruction, verify_lemma1, CandidateBuf, CandidateView, ConnectionMatching,
        ConnectionProblem, Dinic, FlowArena, HopcroftKarpSolve, MaxFlowSolve, Obstruction,
        PushRelabel, NO_STAMP,
    };
    pub use vod_sim::{
        Admission, CandidateIndex, CandidateStats, DegradationConfig, DegradationController,
        DegradationRoundStats, DeliveryOutcome, DeliveryPolicy, DeliveryRoundStats,
        DeliverySummary, DeliveryTracker, FailurePolicy, GreedyScheduler, IncrementalMatcher,
        MaxFlowScheduler, NaiveScheduler, RandomScheduler, RelayBroker, RelayEvent,
        RelayRoundStats, RelayUtilization, RepairPlanner, RepairRoundStats, RepairTransfer,
        RequestKey, Scheduler, ShardRoundStats, SimConfig, SimulationReport, Simulator,
    };
    pub use vod_workloads::{
        ChurnCounts, ChurnEvent, ChurnModel, DemandGenerator, DemandTrace, FaultCounts, FaultEvent,
        FaultModel, FlashCrowd, MultiSwarmChurn, NeverOwnedAttack, NextVideoPolicy,
        PoorBoxesSameVideo, SequentialViewing, SessionLength, SwarmGrowthLimiter, VideoDemand,
        ZipfDemand, ZipfSampler,
    };
}
