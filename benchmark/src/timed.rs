//! The traced run's instrumentation, all of it on the benchmark's side of the
//! layer boundaries: a span log and three pass-through wrappers —
//! [`TimedGenerator`] (vod-workloads), [`TimedScheduler`] (vod-sim's
//! scheduler) and [`TimedSolver`] (vod-flow) — that time and count each call
//! and forward it unchanged.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use vod_core::BoxId;
use vod_flow::{CandidateBuf, CandidateView, FlowArena, MaxFlowSolve, RelayLendStats, RelayView};
use vod_sim::scheduler::assignment_is_valid_view;
use vod_sim::{MaxFlowScheduler, RequestKey, Scheduler, ShardRoundStats, TraceHandle};
use vod_workloads::{DemandGenerator, OccupancyView, VideoDemand};

pub const SPAN_TRIAL: &str = "analysis.trial";
pub const SPAN_STEP: &str = "sim.step";
pub const SPAN_DEMAND: &str = "workloads.demand";
pub const SPAN_SCHEDULE: &str = "scheduler.schedule";
pub const SPAN_SOLVE: &str = "flow.warm_solve";
/// The wrapper's own validation and capture work: inside the step, outside
/// every layer span, and subtracted from the step before it is reported.
pub const SPAN_BENCH: &str = "bench.validate";

/// One recorded interval. `parent` is the index of the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A scheduler input kept for the drills.
pub struct Capture {
    pub round: u64,
    pub capacities: Vec<u32>,
    pub rows: Vec<Vec<BoxId>>,
    pub served: usize,
}

/// Counts taken at the layer boundaries, over recorded rounds only.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub demands: u64,
    pub schedule_calls: u64,
    pub requests: u64,
    pub candidate_edges: u64,
    pub arena_edges: u64,
    pub solve_calls: u64,
    pub augmented: u64,
    pub invalid_assignments: u64,
}

/// Every `PERIODIC_CAPTURE`-th schedule call is kept for the cold-solve
/// drill, up to `MAX_CAPTURES`; so are the first infeasible rounds.
const PERIODIC_CAPTURE: u64 = 50;
const MAX_CAPTURES: usize = 12;

/// In-memory span store shared by the wrappers and the driving loop. Spans
/// nest strictly (one thread, call/return order), so the open spans form a
/// stack and a new span's parent is the top of it.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Off during warm-up rounds: wrappers forward without recording.
    pub recording: bool,
    pub round: u64,
    pub counters: Counters,
    heaviest_ns: u64,
    pub heaviest: Option<Capture>,
    pub periodic: Vec<Capture>,
    pub infeasible: Vec<Capture>,
}

#[derive(Clone)]
pub struct SharedLog(Arc<Mutex<SpanLog>>);

impl SharedLog {
    pub fn new() -> Self {
        SharedLog(Arc::new(Mutex::new(SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            recording: false,
            round: 0,
            counters: Counters::default(),
            heaviest_ns: 0,
            heaviest: None,
            periodic: Vec::new(),
            infeasible: Vec::new(),
        })))
    }

    pub fn lock(&self) -> MutexGuard<'_, SpanLog> {
        self.0
            .lock()
            .expect("span log is only used from one thread at a time")
    }

    /// Opens a span under the innermost open one. The clock is read last.
    pub fn open(&self, name: &'static str) -> Option<u32> {
        let mut log = self.lock();
        if !log.recording {
            return None;
        }
        let id = log.spans.len() as u32;
        let parent = log.open.last().copied();
        let round = log.round;
        log.open.push(id);
        let start_ns = log.epoch.elapsed().as_nanos() as u64;
        log.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        Some(id)
    }

    /// Closes a span (the clock is read first) and returns its duration.
    pub fn close(&self, id: Option<u32>) -> u64 {
        let mut log = self.lock();
        let end_ns = log.epoch.elapsed().as_nanos() as u64;
        let Some(id) = id else { return 0 };
        let top = log.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        let span = &mut log.spans[id as usize];
        span.end_ns = end_ns;
        span.dur_ns()
    }
}

/// Pass-through [`DemandGenerator`] timing each call into vod-workloads.
pub struct TimedGenerator {
    inner: Box<dyn DemandGenerator>,
    log: SharedLog,
}

impl TimedGenerator {
    pub fn new(inner: Box<dyn DemandGenerator>, log: SharedLog) -> Self {
        TimedGenerator { inner, log }
    }
}

impl DemandGenerator for TimedGenerator {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        let id = self.log.open(SPAN_DEMAND);
        let demands = self.inner.demands_at(round, occupancy);
        self.log.close(id);
        if id.is_some() {
            self.log.lock().counters.demands += demands.len() as u64;
        }
        demands
    }

    fn demands_into(
        &mut self,
        round: u64,
        occupancy: &dyn OccupancyView,
        out: &mut Vec<VideoDemand>,
    ) {
        let id = self.log.open(SPAN_DEMAND);
        self.inner.demands_into(round, occupancy, out);
        self.log.close(id);
        if id.is_some() {
            self.log.lock().counters.demands += out.len() as u64;
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Pass-through [`MaxFlowSolve`] timing each warm-started solver call.
pub struct TimedSolver {
    inner: Box<dyn MaxFlowSolve>,
    log: SharedLog,
}

impl MaxFlowSolve for TimedSolver {
    fn max_flow(&mut self, arena: &mut FlowArena, source: usize, sink: usize) -> i64 {
        let id = self.log.open(SPAN_SOLVE);
        let pushed = self.inner.max_flow(arena, source, sink);
        self.log.close(id);
        if id.is_some() {
            let mut log = self.log.lock();
            log.counters.solve_calls += 1;
            log.counters.augmented += pushed.max(0) as u64;
        }
        pushed
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.inner.attach_tracer(tracer);
    }
}

/// The default scheduler with its default solver inside a [`TimedSolver`],
/// or `None` when the benchmark does not know how to construct the solver
/// the default scheduler names (then `flow.warm_*` is omitted rather than
/// timing some other solver silently).
fn default_scheduler_with_timed_solver(log: &SharedLog) -> Option<MaxFlowScheduler> {
    let default_name = MaxFlowScheduler::new().matcher().solver_name();
    let known: [Box<dyn MaxFlowSolve>; 3] = [
        Box::new(vod_flow::Dinic::new()),
        Box::new(vod_flow::HopcroftKarpSolve::new()),
        Box::new(vod_flow::PushRelabel::new()),
    ];
    let inner = known.into_iter().find(|s| s.name() == default_name)?;
    Some(MaxFlowScheduler::with_solver(Box::new(TimedSolver {
        inner,
        log: log.clone(),
    })))
}

/// Pass-through [`Scheduler`] around the production default
/// (`MaxFlowScheduler::new()`): times every entry point, then — outside the
/// schedule span — validates the assignment and keeps inputs for the drills.
pub struct TimedScheduler {
    inner: MaxFlowScheduler,
    log: SharedLog,
    loads: Vec<u32>,
}

impl TimedScheduler {
    /// Returns the wrapper and whether the solver inside it is timed.
    pub fn new(log: SharedLog) -> (Self, bool) {
        let timed = default_scheduler_with_timed_solver(&log);
        let solver_timed = timed.is_some();
        let scheduler = TimedScheduler {
            inner: timed.unwrap_or_default(),
            log,
            loads: Vec::new(),
        };
        (scheduler, solver_timed)
    }

    fn after_view(
        &mut self,
        schedule_ns: u64,
        capacities: &[u32],
        candidates: CandidateView<'_>,
        out: &[Option<BoxId>],
    ) {
        let id = self.log.open(SPAN_BENCH);
        if id.is_some() {
            let valid = assignment_is_valid_view(out, capacities, candidates, &mut self.loads);
            let served = out.iter().flatten().count();
            let arena_edges = self.inner.matcher().arena_edge_count() as u64;
            let mut log = self.log.lock();
            log.note_schedule(valid, out.len(), candidates.total_entries(), arena_edges);
            let (heaviest, periodic, infeasible) =
                log.wants_capture(schedule_ns, served < out.len());
            let round = log.round;
            let capture = || Capture {
                round,
                capacities: capacities.to_vec(),
                rows: candidates.to_vecs(),
                served,
            };
            if heaviest {
                log.heaviest = Some(capture());
            }
            if periodic {
                log.periodic.push(capture());
            }
            if infeasible {
                log.infeasible.push(capture());
            }
        }
        self.log.close(id);
    }

    /// The slice-of-vecs entry points (which the engine does not drive)
    /// share the view path's checks through a flat copy of the rows.
    fn after_vecs(
        &mut self,
        schedule_ns: u64,
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
        out: &[Option<BoxId>],
    ) {
        let mut flat = CandidateBuf::new();
        flat.fill_from_slices(candidates);
        self.after_view(schedule_ns, capacities, flat.view(), out);
    }
}

impl SpanLog {
    fn note_schedule(&mut self, valid: bool, requests: usize, edges: usize, arena_edges: u64) {
        let c = &mut self.counters;
        c.schedule_calls += 1;
        c.requests += requests as u64;
        c.candidate_edges += edges as u64;
        c.arena_edges += arena_edges;
        c.invalid_assignments += u64::from(!valid);
    }

    /// Which capture sets this schedule call belongs in.
    fn wants_capture(&mut self, schedule_ns: u64, infeasible: bool) -> (bool, bool, bool) {
        let heaviest = schedule_ns > self.heaviest_ns;
        if heaviest {
            self.heaviest_ns = schedule_ns;
        }
        let periodic = (self.counters.schedule_calls - 1).is_multiple_of(PERIODIC_CAPTURE)
            && self.periodic.len() < MAX_CAPTURES;
        let infeasible = infeasible && self.infeasible.len() < MAX_CAPTURES;
        (heaviest, periodic, infeasible)
    }
}

impl Scheduler for TimedScheduler {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        let id = self.log.open(SPAN_SCHEDULE);
        let out = self.inner.schedule(capacities, candidates);
        let ns = self.log.close(id);
        self.after_vecs(ns, capacities, candidates, &out);
        out
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        let id = self.log.open(SPAN_SCHEDULE);
        self.inner.schedule_keyed(capacities, keys, candidates, out);
        let ns = self.log.close(id);
        self.after_vecs(ns, capacities, candidates, out);
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        let id = self.log.open(SPAN_SCHEDULE);
        self.inner
            .schedule_keyed_view(capacities, keys, candidates, out);
        let ns = self.log.close(id);
        self.after_view(ns, capacities, candidates, out);
    }

    fn schedule_relayed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        let id = self.log.open(SPAN_SCHEDULE);
        self.inner
            .schedule_relayed(capacities, keys, candidates, relays, out);
        let ns = self.log.close(id);
        self.after_vecs(ns, capacities, candidates, out);
    }

    fn schedule_relayed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        let id = self.log.open(SPAN_SCHEDULE);
        self.inner
            .schedule_relayed_view(capacities, keys, candidates, relays, out);
        let ns = self.log.close(id);
        self.after_view(ns, capacities, candidates, out);
    }

    fn shard_stats(&self) -> Option<ShardRoundStats> {
        self.inner.shard_stats()
    }

    fn relay_stats(&self) -> Option<RelayLendStats> {
        self.inner.relay_stats()
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.inner.attach_tracer(tracer);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
