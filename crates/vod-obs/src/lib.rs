//! # vod-obs
//!
//! Observability substrate for the VoD threshold reproduction: a
//! zero-overhead span/event tracer for the round pipeline, log-bucketed
//! latency histograms, per-round stage timings, and whole-run profiles.
//!
//! The crate is std-only (the offline-deps constraint) and allocation-free
//! on every hot path: the disabled tracer never reads the clock, the
//! enabled tracer writes into preallocated rings and fixed-size bucket
//! arrays, and draining only happens when a run finishes.
//!
//! * [`stage`] — the [`Stage`] taxonomy: every timed phase of
//!   `Simulator::step` and the flow solvers;
//! * [`record`] — [`TraceRecord`] `(stage, round, ns, payload)` events and
//!   the preallocated wrapping [`TraceRing`];
//! * [`hist`] — [`LogHistogram`]: fixed 64-bucket log2 latency histograms
//!   with p50/p99/max readouts;
//! * [`timings`] — [`StageTimings`]: one round's per-stage nanosecond and
//!   count aggregate, attached to `RoundMetrics`;
//! * [`profile`] — [`RunProfile`]: the whole-run per-stage aggregate
//!   attached to `SimulationReport`;
//! * [`tracer`] — the [`Recorder`] trait (with its provably-free no-op
//!   default), the shareable [`TraceHandle`], and [`StageClock`] spans;
//! * [`neutral`] — the [`TimingNeutral`] trait centralizing the repo-wide
//!   "equality ignores wall-clock" rule used by every bit-equality gate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod neutral;
pub mod profile;
pub mod record;
pub mod stage;
pub mod timings;
pub mod tracer;

pub use hist::LogHistogram;
pub use neutral::{eq_ignoring_timing, TimingNeutral};
pub use profile::{RunProfile, StageProfile};
pub use record::{TraceRecord, TraceRing};
pub use stage::Stage;
pub use timings::StageTimings;
pub use tracer::{NoopRecorder, Recorder, StageClock, TraceHandle};
