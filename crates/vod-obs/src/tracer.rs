//! The recorder trait, the shareable trace handle, and stage clocks.

use crate::profile::RunProfile;
use crate::record::{TraceRecord, TraceRing};
use crate::stage::Stage;
use crate::timings::StageTimings;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A started stage span: the clock read when recording is on, nothing when
/// it is off. Constructed by [`Recorder::begin`]; consumed by
/// [`Recorder::end`].
#[must_use = "a started span must be ended to be recorded"]
#[derive(Clone, Copy, Debug)]
pub struct StageClock(Option<Instant>);

impl StageClock {
    /// A span that was never started (the disabled path).
    #[inline]
    pub fn disabled() -> Self {
        StageClock(None)
    }

    /// Whether the span actually read the clock.
    pub fn is_running(&self) -> bool {
        self.0.is_some()
    }
}

/// A sink for stage spans and events.
///
/// The two required-by-override methods default to the no-op path:
/// [`Recorder::enabled`] returns `false` and [`Recorder::emit`] discards.
/// The span helpers [`Recorder::begin`]/[`Recorder::end`] are built on
/// them, so for a recorder using the defaults (like [`NoopRecorder`]) the
/// whole surface constant-folds away: `begin` never reads the clock
/// (`enabled()` is a compile-time `false`) and `end` matches on an `Option`
/// that is statically `None`. That is what makes instrumented hot loops
/// free when tracing is off.
pub trait Recorder {
    /// Whether spans are being recorded.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Records one completed span or event. `ns` is the duration (0 for
    /// pure events); `payload` is stage-specific.
    #[inline]
    fn emit(&self, stage: Stage, ns: u64, payload: u64) {
        let _ = (stage, ns, payload);
    }

    /// Starts a span: reads the clock only when recording is enabled.
    #[inline]
    fn begin(&self) -> StageClock {
        if self.enabled() {
            StageClock(Some(Instant::now()))
        } else {
            StageClock(None)
        }
    }

    /// Ends a span started by [`Recorder::begin`], emitting it when the
    /// clock was actually read.
    #[inline]
    fn end(&self, clock: StageClock, stage: Stage, payload: u64) {
        if let Some(start) = clock.0 {
            self.emit(stage, start.elapsed().as_nanos() as u64, payload);
        }
    }
}

/// The recorder that records nothing — all trait defaults, zero-sized, so
/// the instrumentation it is passed through compiles to straight-line code
/// with no clock reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Everything a recording handle accumulates, behind one lock.
struct TracerState {
    ring: TraceRing,
    round_agg: StageTimings,
    profile: RunProfile,
}

struct TracerShared {
    /// Current simulation round, stamped onto emitted records.
    round: AtomicU64,
    state: Mutex<TracerState>,
}

/// A cloneable, thread-safe handle to one run's tracer.
///
/// The default handle is *off*: it holds no state, [`Recorder::enabled`]
/// is `false`, and every span helper takes the no-op path without reading
/// the clock. [`TraceHandle::recording`] builds an *on* handle whose clones
/// all feed one shared ring + aggregate set (the engine hands clones to
/// schedulers and solvers). Recording locks a mutex and writes into preallocated
/// storage — no allocation in steady state.
#[derive(Clone, Default)]
pub struct TraceHandle {
    shared: Option<Arc<TracerShared>>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.shared.is_some())
            .finish()
    }
}

impl TraceHandle {
    /// The disabled handle (same as `TraceHandle::default()`).
    pub fn off() -> Self {
        TraceHandle { shared: None }
    }

    /// A recording handle whose ring keeps the most recent
    /// `ring_capacity` records (older ones are overwritten and counted).
    pub fn recording(ring_capacity: usize) -> Self {
        TraceHandle {
            shared: Some(Arc::new(TracerShared {
                round: AtomicU64::new(0),
                state: Mutex::new(TracerState {
                    ring: TraceRing::with_capacity(ring_capacity),
                    round_agg: StageTimings::default(),
                    profile: RunProfile::default(),
                }),
            })),
        }
    }

    /// Whether this handle records spans.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Stamps the round number onto subsequently emitted records.
    pub fn set_round(&self, round: u64) {
        if let Some(shared) = &self.shared {
            shared.round.store(round, Ordering::Relaxed);
        }
    }

    /// Records one completed span or event (no-op when off). Zero-alloc.
    #[inline]
    pub fn emit_ns(&self, stage: Stage, ns: u64, payload: u64) {
        if let Some(shared) = &self.shared {
            let round = shared.round.load(Ordering::Relaxed);
            let mut state = shared.state.lock().expect("tracer lock poisoned");
            state.ring.push(TraceRecord {
                stage,
                round,
                ns,
                payload,
            });
            state.round_agg.add(stage, ns);
            state.profile.add(stage, ns);
        }
    }

    /// Takes the current round's stage aggregate, resetting it for the
    /// next round and counting the round into the run profile. `None` when
    /// the handle is off.
    pub fn take_round_timings(&self) -> Option<StageTimings> {
        let shared = self.shared.as_ref()?;
        let mut state = shared.state.lock().expect("tracer lock poisoned");
        let agg = state.round_agg;
        state.round_agg.clear();
        state.profile.rounds += 1;
        Some(agg)
    }

    /// A snapshot of the whole-run profile. `None` when the handle is off.
    pub fn run_profile(&self) -> Option<RunProfile> {
        let shared = self.shared.as_ref()?;
        let state = shared.state.lock().expect("tracer lock poisoned");
        Some(state.profile.clone())
    }

    /// Drains the trace ring, oldest record first (empty when off).
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        match &self.shared {
            Some(shared) => {
                let mut state = shared.state.lock().expect("tracer lock poisoned");
                state.ring.drain()
            }
            None => Vec::new(),
        }
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.shared {
            Some(shared) => {
                let state = shared.state.lock().expect("tracer lock poisoned");
                state.ring.dropped()
            }
            None => 0,
        }
    }

    /// Starts a span: reads the clock only when recording (see
    /// [`Recorder::begin`]).
    #[inline]
    pub fn begin(&self) -> StageClock {
        if self.enabled() {
            StageClock(Some(Instant::now()))
        } else {
            StageClock(None)
        }
    }

    /// Ends a span started by [`TraceHandle::begin`] (see
    /// [`Recorder::end`]).
    #[inline]
    pub fn end(&self, clock: StageClock, stage: Stage, payload: u64) {
        if let Some(start) = clock.0 {
            self.emit_ns(stage, start.elapsed().as_nanos() as u64, payload);
        }
    }
}

impl Recorder for TraceHandle {
    #[inline]
    fn enabled(&self) -> bool {
        TraceHandle::enabled(self)
    }

    #[inline]
    fn emit(&self, stage: Stage, ns: u64, payload: u64) {
        self.emit_ns(stage, ns, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_zero_sized_and_clock_free() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        // The no-op begin never reads the clock.
        assert!(!rec.begin().is_running());
        // Ending a never-started span emits nothing (and cannot panic).
        rec.end(StageClock::disabled(), Stage::Schedule, 0);
    }

    #[test]
    fn off_handle_records_nothing() {
        let h = TraceHandle::off();
        assert!(!h.enabled());
        assert!(!h.begin().is_running());
        h.emit_ns(Stage::Schedule, 100, 0);
        assert!(h.take_round_timings().is_none());
        assert!(h.run_profile().is_none());
        assert!(h.drain_trace().is_empty());
        assert_eq!(h.dropped(), 0);
    }

    #[test]
    fn recording_handle_accumulates_rounds_and_profile() {
        let h = TraceHandle::recording(16);
        assert!(h.enabled());
        h.set_round(3);
        h.emit_ns(Stage::Schedule, 100, 0);
        h.emit_ns(Stage::ChurnDrain, 50, 0);
        let t = h.take_round_timings().unwrap();
        assert_eq!(t.stage_ns(Stage::Schedule), 100);
        assert_eq!(t.stage_count(Stage::ChurnDrain), 1);
        // The round aggregate resets; the profile keeps accumulating.
        h.set_round(4);
        h.emit_ns(Stage::Schedule, 200, 0);
        let t2 = h.take_round_timings().unwrap();
        assert_eq!(t2.stage_ns(Stage::Schedule), 200);
        let profile = h.run_profile().unwrap();
        assert_eq!(profile.rounds, 2);
        assert_eq!(profile.stage(Stage::Schedule).count, 2);
        assert_eq!(profile.stage(Stage::Schedule).total_ns, 300);
        let trace = h.drain_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].round, 3);
        assert_eq!(trace[2].round, 4);
    }

    #[test]
    fn clones_share_one_tracer() {
        let h = TraceHandle::recording(8);
        let clone = h.clone();
        clone.emit_ns(Stage::HkPhase, 10, 5);
        let trace = h.drain_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].stage, Stage::HkPhase);
        assert_eq!(trace[0].payload, 5);
    }

    #[test]
    fn begin_end_measures_and_emits() {
        let h = TraceHandle::recording(8);
        let clock = h.begin();
        assert!(clock.is_running());
        h.end(clock, Stage::RepairPlan, 9);
        let trace = h.drain_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].stage, Stage::RepairPlan);
        assert_eq!(trace[0].payload, 9);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceHandle>();
        assert_send_sync::<NoopRecorder>();
    }
}
