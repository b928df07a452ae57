//! # vod-workloads
//!
//! Demand-sequence generators for the P2P Video-on-Demand threshold model.
//! The paper's guarantees are adversarial (any admissible demand sequence),
//! so the experiment suite needs both the explicit worst-case sequences used
//! in the proofs and stochastic traffic for typical-case behaviour:
//!
//! * [`demand`] — demand/occupancy abstractions and the swarm-growth limiter
//!   enforcing `f(t+1) ≤ ⌈max{f(t),1}·µ⌉`;
//! * [`adversarial`] — the never-owned-video attack (Section 1.3 lower bound)
//!   and the poor-boxes-pile-on attack (Section 4 necessary condition);
//! * [`churn`] — seeded box-churn processes (joins, leaves, crashes, upload
//!   changes) the engine drives through its relay-event path;
//! * [`faults`] — seeded fault injection (flaky uploads, flapping boxes,
//!   regional outages, delivery-drop surges) the engine overlays on its
//!   live capacity table each round;
//! * [`flashcrowd`] — maximal-growth flash crowds (Theorem 1's stress case);
//! * [`multiswarm`] — many concurrently hot swarms with a sliding window;
//! * [`zipf`] — long-tailed stochastic traffic;
//! * [`sequential`] — back-to-back viewing keeping all `n` boxes busy;
//! * [`trace`] — recordable, serializable, replayable demand traces.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversarial;
pub mod churn;
pub mod demand;
pub mod faults;
pub mod flashcrowd;
pub mod multiswarm;
pub mod sequential;
pub mod trace;
pub mod zipf;

pub use adversarial::{NeverOwnedAttack, PoorBoxesSameVideo};
pub use churn::{ChurnCounts, ChurnEvent, ChurnModel, SessionLength};
pub use demand::{DemandGenerator, OccupancyView, SwarmGrowthLimiter, VideoDemand};
pub use faults::{FaultCounts, FaultEvent, FaultModel};
pub use flashcrowd::{CrowdSpec, FlashCrowd};
pub use multiswarm::MultiSwarmChurn;
pub use sequential::{NextVideoPolicy, SequentialViewing};
pub use trace::{DemandTrace, TraceReplay};
pub use zipf::{ZipfDemand, ZipfSampler};
