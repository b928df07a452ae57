//! # vod-analysis
//!
//! Analytical bounds and statistical estimation for the P2P Video-on-Demand
//! upload-bandwidth threshold model:
//!
//! * [`theorem1`] — homogeneous-system parameter choices (`c`, `ν`, `u′`,
//!   `k`) and the catalog lower bound of Theorem 1;
//! * [`theorem2`] — the heterogeneous (`u*`-balanced) counterparts of
//!   Theorem 2 plus the `u > 1 + Δ(1)/n` necessary condition;
//! * [`lower_bound`] — the `u < 1` impossibility argument (constant catalog);
//! * [`obstruction`] — numeric evaluation of the first-moment bound on the
//!   probability that a random allocation admits an obstruction;
//! * [`montecarlo`] — Monte-Carlo feasibility estimation by running the full
//!   simulator over many random allocations (parallelized);
//! * [`threshold`] — empirical threshold / capacity searches by bisection;
//! * [`mod@explore`] — bounded exhaustive model-checking of the Theorem 1
//!   threshold with a differential fuzz gate over every engine fast path;
//! * [`stats`] / [`report`] — summary statistics and experiment tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explore;
pub mod lower_bound;
pub mod montecarlo;
pub mod obstruction;
pub mod report;
pub mod stats;
pub mod theorem1;
pub mod theorem2;
pub mod threshold;

pub use explore::{
    crosscheck_first_moment, explore, is_admissible, normalize_report, normalize_round,
    replay_fails, replay_fails_scripted, replay_seed, shrink_counterexample, shrink_scripted,
    EngineVariant, ExploreOutcome, ExploreSpec, FirstMomentCheck, HeteroSpec, ScriptedChurn,
    ScriptedFault, SeedFile, SeedSystem,
};
pub use lower_bound::LowerBoundCheck;
pub use montecarlo::{
    estimate_failure_probability, run_trial, run_workload, FeasibilityEstimate, TrialOutcome,
    TrialSpec, WorkloadKind,
};
pub use obstruction::{
    first_moment_bound, ln_first_moment_bound, required_k_for_bound, BoundParams,
};
pub use report::{fmt_prob, Table};
pub use stats::{quantile, wilson_ci95, Summary};
pub use theorem1::Theorem1Params;
pub use theorem2::Theorem2Params;
pub use threshold::{find_upload_threshold, max_feasible_catalog, SearchConfig};
