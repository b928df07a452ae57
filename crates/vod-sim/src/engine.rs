//! The discrete round-based simulator.
//!
//! Each round the simulator:
//!
//! 1. ends playbacks that have reached the video duration `T` (the box
//!    becomes free, leaves its swarm, and its playback record is emitted) —
//!    like every per-round walk over the viewers, by visiting the set bits
//!    of the active-viewer index in ascending box order, never all `n`
//!    playback slots;
//! 2. runs the candidate index's round maintenance: the [`CandidateIndex`]
//!    drains exactly the cache entries whose eviction round has come (the
//!    expiry wheel — O(expiring), not O(live state));
//! 3. collects the new demands from the workload generator (honouring the
//!    one-video-per-box constraint) and enters the corresponding boxes into
//!    their swarms, assigning preload stripes round-robin (`p mod c`) and
//!    building the per-stripe download plan (homogeneous, rich, or relayed
//!    poor plan depending on the system and the compensation plan);
//! 4. assembles the set of *active* stripe requests (every stripe of every
//!    playing box whose request has been issued) into a pooled buffer,
//!    builds each request's candidate supplier set `B(x)` — static
//!    allocation holders plus playback caches that are ahead in the same
//!    stripe — as one flat CSR [`vod_flow::CandidateView`] (one row build
//!    per (stripe, issue round), stored once a round and shared by every
//!    request of the class under that build's number as change stamp, so
//!    incremental schedulers skip unchanged rows and resolve a shared one
//!    once), and hands the instance to the configured [`Scheduler`];
//! 5. records metrics (including the per-round [`CandidateStats`]); if some
//!    request is unserved the round is infeasible: the obstruction (Hall
//!    violator) can be extracted and the run either aborts or keeps
//!    counting stalls, per the failure policy.

use crate::candidates::{CandidateIndex, CandidateStats};
use crate::delivery::{
    Admission, DegradationConfig, DegradationController, DeliveryOutcome, DeliveryPolicy,
    DeliverySummary, DeliveryTracker,
};
use crate::metrics::{FailureRecord, PlaybackRecord, RoundMetrics, SimulationReport};
use crate::repair::{RepairPlanner, RepairRoundStats};
use crate::request::{
    direct_stripe_budget, homogeneous_plan, poor_plan, rich_plan, PlaybackState, StripeRequest,
};
use crate::scheduler::{MaxFlowScheduler, RelayBroker, RelayEvent, RequestKey, Scheduler};
use crate::swarm::SwarmTracker;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;
use vod_core::{BoxId, FxHasher64, Placement, SortedSignature, StripeId, VideoId, VideoSystem};
use vod_flow::bitset::{for_each_bit_of_word, for_each_set_bit};
use vod_flow::{find_obstruction_in, BitSet, CandidateBuf, ConnectionProblem, Dinic, FlowArena};
use vod_obs::{Stage, TraceHandle};
use vod_workloads::{
    ChurnEvent, ChurnModel, DemandGenerator, FaultEvent, FaultModel, OccupancyView, VideoDemand,
};

/// What to do when a round cannot serve every active request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop the simulation at the first infeasible round (used by the
    /// feasibility/threshold experiments, where a single obstruction settles
    /// the question).
    #[default]
    Abort,
    /// Record the failure, let the affected playbacks stall, and continue.
    Continue,
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of rounds to simulate.
    pub max_rounds: u64,
    /// Behaviour on an infeasible round.
    pub failure_policy: FailurePolicy,
    /// Whether to extract the obstruction witness on failures (costs one
    /// extra max-flow per failing round).
    pub collect_obstructions: bool,
}

impl SimConfig {
    /// Configuration simulating `max_rounds` rounds with the default policy.
    pub fn new(max_rounds: u64) -> Self {
        SimConfig {
            max_rounds,
            failure_policy: FailurePolicy::Abort,
            collect_obstructions: true,
        }
    }

    /// Switches to the stall-and-continue failure policy.
    pub fn continue_on_failure(mut self) -> Self {
        self.failure_policy = FailurePolicy::Continue;
        self
    }

    /// Disables obstruction extraction.
    pub fn without_obstructions(mut self) -> Self {
        self.collect_obstructions = false;
        self
    }
}

/// Occupancy view over the simulator's viewer and liveness sets. Departed
/// boxes are never free: a generator cannot hand a demand to a box that is
/// down.
struct Occupancy<'a> {
    viewers: &'a BitSet,
    alive: &'a BitSet,
}

impl OccupancyView for Occupancy<'_> {
    fn is_free(&self, box_id: BoxId) -> bool {
        self.alive.get(box_id.index()) && !self.viewers.contains(box_id.index())
    }
    fn box_count(&self) -> usize {
        self.alive.len()
    }
    /// `alive & !viewers`, 64 boxes per step.
    fn free_boxes_into(&self, out: &mut Vec<BoxId>) {
        out.clear();
        let words = self.alive.words().iter().zip(self.viewers.words());
        for (wi, (&alive, &viewing)) in words.enumerate() {
            for_each_bit_of_word(wi, alive & !viewing, |idx| out.push(BoxId(idx as u32)));
        }
    }
}

/// The report record of `viewer`'s playback `st`, ended or flushed with
/// `stalled_rounds` stalls.
fn playback_record(viewer: BoxId, st: &PlaybackState, stalled_rounds: u64) -> PlaybackRecord {
    PlaybackRecord {
        box_id: viewer,
        video: st.video,
        entered_at: st.entered_at,
        startup_delay: st.startup_delay(),
        stalled_rounds,
    }
}

/// One memoized class row (see `Simulator::row_cache`): the box list every
/// request for a given (stripe, issue round) resolves to. The row is
/// replayable while the stripe's shrink stamp is the one it was built
/// under — the index redraws that stamp on every change that can alter an
/// existing row, so an equal stamp guarantees a bit-identical rebuild.
#[derive(Default)]
struct ClassRow {
    /// [`CandidateIndex::shrink_stamp`] of the stripe at build time.
    shrink_stamp: u64,
    /// Which build of a class row this is, counted over the whole run
    /// (0 = not built yet): handed down as the row's change stamp, so equal
    /// stamps mean the same build and therefore the same row.
    build: u64,
    /// `round + 1` of the last round that replayed the row, and the id it
    /// was stored under in that round's candidate buffer.
    used: u64,
    stored: u32,
    boxes: Vec<BoxId>,
}

/// The round-based protocol simulator.
pub struct Simulator<'a> {
    system: &'a VideoSystem,
    config: SimConfig,
    scheduler: Box<dyn Scheduler>,
    round: u64,
    playing: Vec<Option<PlaybackState>>,
    /// The active-viewer index: bit `b` is set iff `playing[b]` is `Some`.
    /// Every per-round walk over the viewers (playback end, request
    /// collection, the viewer count, the free list handed to generators)
    /// visits set bits in ascending box order instead of all `n` slots.
    /// Written only where `playing` is: [`Simulator::start_playback`] and
    /// [`Simulator::end_playback`].
    viewers: BitSet,
    /// Which boxes hold which stripe in their playback cache, and since
    /// when (the expiry-wheel index).
    candidates: CandidateIndex,
    swarms: SwarmTracker,
    /// Stall-round counters for in-flight playbacks.
    stalls: Vec<u64>,
    /// The *live* allocation table: starts as a clone of the system's
    /// static placement and tracks the population — departures strip a
    /// box's replicas the round it leaves, repair adds them back. Every
    /// candidate row, self-serve check, and sourcing/swarming attribution
    /// reads this table, never the static one.
    placement: Placement,
    /// Liveness per box: cleared by a leave/crash until rejoin.
    alive: BitSet,
    /// Engine-driven churn process, when attached: drained every round
    /// inside [`Simulator::step`] so membership changes interleave with
    /// admissions.
    churn: Option<ChurnModel>,
    /// Pooled buffer for the round's churn events.
    churn_buf: Vec<ChurnEvent>,
    /// Engine-driven fault process, when attached: drained every round
    /// right after churn, so transient capacity loss overlays the same
    /// table the repair planner and the scheduler read.
    faults: Option<FaultModel>,
    /// Pooled buffer for the round's fault events.
    fault_buf: Vec<FaultEvent>,
    /// True once any fault has been attached or scripted: gates the whole
    /// fault overlay so the faults-off path stays zero-cost.
    faults_active: bool,
    /// Per-box remaining-capacity percentage of the open fault window
    /// (100 = healthy, 0 = fully stalled).
    fault_pct: Vec<u8>,
    /// Per-box fault-window expiry round (0 = no open window).
    fault_until: Vec<u64>,
    /// Upload slots deducted from each box *this round* by the fault
    /// overlay; restored after the repair commit so the capacity table
    /// never drifts.
    fault_deducted: Vec<u32>,
    /// Total slots the fault overlay removed this round (failure
    /// attribution: see [`FailureRecord::fault_slots_lost`]).
    fault_slots_lost: u64,
    /// Delivery-reliability state machine, when attached: resolves every
    /// scheduled connection into an outcome and runs the retry queue.
    delivery: Option<DeliveryTracker>,
    /// Graceful-degradation controller, when attached: sheds load under
    /// sustained infeasibility, with hysteresis.
    degrade: Option<DegradationController>,
    /// Per-round viewer dedup marks for rebuffer accounting (viewers with
    /// at least one failed delivery this round).
    rebuffer_mark: Vec<u64>,
    /// Stripe repair planner, when attached: plans budgeted re-replication
    /// before each round is scheduled and commits after.
    repair: Option<RepairPlanner>,
    /// The repair stats of the round being scheduled (threaded into its
    /// `RoundMetrics::repair`).
    round_repair: Option<RepairRoundStats>,
    report: SimulationReport,
    /// Per-box upload capacities: derived from the system at construction,
    /// refreshed from the relay broker on churn events
    /// ([`Simulator::apply_relay_event`]).
    capacities: Vec<u32>,
    /// The relay subsystem, when the system carries a compensation plan:
    /// owns the live reservation table and per-relay utilization counters.
    relay_broker: Option<RelayBroker>,
    /// Reused per-round buffers: active requests, request keys, the flat
    /// CSR candidate buffer with its per-row change stamps, assignment,
    /// per-relay forwarding loads, and the demand batch pulled from the
    /// generator.
    request_buf: Vec<StripeRequest>,
    sched_keys: Vec<RequestKey>,
    cand_buf: CandidateBuf,
    cand_stamps: Vec<u64>,
    assignment: Vec<Option<BoxId>>,
    relay_loads: Vec<u32>,
    demand_buf: Vec<VideoDemand>,
    /// Per-box generation marks for O(1) candidate dedup (holders vs cache
    /// holders) — one epoch per request row.
    box_seen: Vec<u64>,
    seen_epoch: u64,
    /// Per-(stripe, issue round) class-row cache: a row is a pure function
    /// of the stripe's static holders, the index entries that started
    /// before the issue round, and nothing else — the requester is in
    /// neither (it does not store the stripe, or the request would be
    /// self-served, and its own index entry starts at the issue round) — so
    /// every viewer that issued the stripe in the same round shares one
    /// row, built once and replayed for each of them until the stripe's
    /// shrink stamp moves.
    row_cache: HashMap<(StripeId, u64), ClassRow, BuildHasherDefault<FxHasher64>>,
    /// Class rows built so far (the source of `ClassRow::build`).
    row_builds: u64,
    /// Class rows the last round replayed (the live share of `row_cache`).
    rows_in_use: usize,
    row_cache_hits: u64,
    /// Pooled stalled-viewer / failed-video accumulation with per-round
    /// generation marks (replacing the old linear `contains` scans).
    stalled_viewers: Vec<BoxId>,
    failed_videos: Vec<VideoId>,
    viewer_mark: Vec<u64>,
    video_mark: Vec<u64>,
    /// The current round's candidate-pipeline profile (maintenance + fill).
    round_cand_stats: CandidateStats,
    /// Scratch for the debug-only assignment validity check.
    dbg_loads: Vec<u32>,
    /// Scratch for obstruction extraction on failing rounds.
    obstruction_arena: FlowArena,
    obstruction_solver: Dinic,
    /// Round-pipeline span sink. Off by default: every span site goes
    /// through a `TraceHandle` whose disabled path is a single `Option`
    /// check (no clock read, no lock), so untraced runs pay nothing.
    tracer: TraceHandle,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with the paper's max-flow scheduler.
    pub fn new(system: &'a VideoSystem, config: SimConfig) -> Self {
        Simulator::with_scheduler(system, config, Box::new(MaxFlowScheduler::new()))
    }

    /// Creates a simulator with an explicit scheduler.
    pub fn with_scheduler(
        system: &'a VideoSystem,
        config: SimConfig,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        let n = system.n();
        let capacities = (0..n as u32)
            .map(|i| system.upload_slots(BoxId(i)))
            .collect();
        // Heterogeneous systems get the relay subsystem: the broker mirrors
        // the system's compensation plan and manages it as live structure.
        let relay_broker = system
            .compensation()
            .map(|plan| RelayBroker::from_plan(plan.clone(), system.boxes(), system.c()));
        let mut report = SimulationReport::default();
        // Bounded pre-reservation keeps steady-state rounds free of metric
        // reallocation (the zero-alloc engine contract); very long runs
        // amortize the occasional growth as usual.
        report
            .rounds
            .reserve(usize::try_from(config.max_rounds).unwrap_or(0).min(4096));
        let mut viewers = BitSet::new();
        viewers.reset(n);
        Simulator {
            system,
            config,
            scheduler,
            round: 0,
            playing: vec![None; n],
            viewers,
            candidates: CandidateIndex::new(system.duration() as u64, system.c()),
            swarms: SwarmTracker::new(system.c()),
            stalls: vec![0; n],
            placement: system.placement().clone(),
            alive: BitSet::ones(n),
            churn: None,
            churn_buf: Vec::new(),
            faults: None,
            fault_buf: Vec::new(),
            faults_active: false,
            fault_pct: vec![100; n],
            fault_until: vec![0; n],
            fault_deducted: vec![0; n],
            fault_slots_lost: 0,
            delivery: None,
            degrade: None,
            rebuffer_mark: vec![0; n],
            repair: None,
            round_repair: None,
            report,
            capacities,
            relay_broker,
            request_buf: Vec::new(),
            sched_keys: Vec::new(),
            cand_buf: CandidateBuf::new(),
            cand_stamps: Vec::new(),
            assignment: Vec::new(),
            relay_loads: Vec::new(),
            demand_buf: Vec::new(),
            box_seen: vec![0; n],
            seen_epoch: 0,
            row_cache: HashMap::default(),
            row_builds: 0,
            rows_in_use: 0,
            row_cache_hits: 0,
            stalled_viewers: Vec::new(),
            failed_videos: Vec::new(),
            viewer_mark: vec![0; n],
            video_mark: vec![0; system.m()],
            round_cand_stats: CandidateStats::default(),
            dbg_loads: Vec::new(),
            obstruction_arena: FlowArena::new(),
            obstruction_solver: Dinic::new(),
            tracer: TraceHandle::off(),
        }
    }

    /// Attaches a recording trace handle: from the next [`Simulator::step`]
    /// on, every pipeline stage (and the scheduler's solver phases) emits
    /// timing spans into it. Per-round aggregates land in
    /// [`RoundMetrics::timing`](crate::metrics::RoundMetrics::timing) and
    /// the whole-run profile in
    /// [`SimulationReport::profile`](crate::metrics::SimulationReport::profile);
    /// neither participates in report equality, so traced and untraced runs
    /// of the same workload compare equal.
    pub fn attach_tracer(&mut self, tracer: TraceHandle) {
        self.scheduler.attach_tracer(&tracer);
        self.tracer = tracer;
    }

    /// The current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The system being simulated.
    pub fn system(&self) -> &VideoSystem {
        self.system
    }

    /// Candidate-row cache profile as `(hits, misses)`: request rows
    /// replayed from a class row that was already built (this round, for an
    /// earlier request of the class, or in an earlier round) vs class rows
    /// built from the holder sets and the index.
    pub fn candidate_row_cache_stats(&self) -> (u64, u64) {
        (self.row_cache_hits, self.row_builds)
    }

    /// The playback state of box `b`, when it is currently viewing.
    pub fn playback(&self, b: BoxId) -> Option<&PlaybackState> {
        self.playing.get(b.index()).and_then(|p| p.as_ref())
    }

    /// The report accumulated so far (rounds simulated up to now). Unlike
    /// [`Simulator::run`], this does not flush in-flight playbacks or the
    /// relay utilization profile — it is the live view a stepping driver
    /// (the exhaustive explorer) compares across engine variants.
    pub fn report_so_far(&self) -> &SimulationReport {
        &self.report
    }

    /// The relay subsystem, when the system is heterogeneous.
    pub fn relay_broker(&self) -> Option<&RelayBroker> {
        self.relay_broker.as_ref()
    }

    /// The live upload-slot capacity of box `b` as the scheduler sees it
    /// (static allocation minus reservations, updated by
    /// [`Simulator::apply_relay_event`]).
    pub fn upload_slots(&self, b: BoxId) -> u32 {
        self.capacities.get(b.index()).copied().unwrap_or(0)
    }

    /// The live allocation table (static placement ⊖ departures ⊕ repairs).
    pub fn live_placement(&self) -> &Placement {
        &self.placement
    }

    /// Whether box `b` is currently part of the population.
    pub fn is_alive(&self, b: BoxId) -> bool {
        self.alive.get(b.index())
    }

    /// Boxes currently part of the population.
    pub fn alive_count(&self) -> usize {
        self.alive.count_ones()
    }

    /// The attached repair planner, when repair is enabled.
    pub fn repair_planner(&self) -> Option<&RepairPlanner> {
        self.repair.as_ref()
    }

    /// Attaches an engine-driven churn process: from the next round on,
    /// its events are drained at the top of every [`Simulator::step`] —
    /// after finished playbacks end, before new demands are admitted — so
    /// membership changes interleave with admissions instead of being
    /// replayed between rounds. Heterogeneous systems route the events
    /// through [`Simulator::apply_relay_event`] (re-planning reservations);
    /// homogeneous systems mutate the capacity table directly.
    pub fn attach_churn(&mut self, model: ChurnModel) {
        assert!(
            model.box_count() <= self.playing.len(),
            "churn model spans {} boxes but the engine universe has {}",
            model.box_count(),
            self.playing.len()
        );
        self.churn = Some(model);
    }

    /// Attaches a stripe repair planner: each round it plans a budgeted
    /// batch of replica transfers from the live placement, the transfer
    /// slots are deducted from the source boxes' `⌊u_b·c⌋` budgets *before*
    /// the scheduler runs (repair competes with serving through the same
    /// Lemma-1 budgets), and the new replicas are committed after the round
    /// so they serve from the next round on.
    pub fn attach_repair(&mut self, planner: RepairPlanner) {
        self.repair = Some(planner);
    }

    /// Attaches an engine-driven fault process: from the next round on its
    /// events are drained right after churn — a faulted box stays in the
    /// population (replicas, playback, swarm membership intact) but its
    /// effective upload budget is overlaid on the live capacity table for
    /// the window, restored when the window closes. Attaching faults also
    /// attaches a default-policy [`DeliveryTracker`] (unless one is
    /// already attached) carrying the model's per-connection drop/timeout
    /// hazards and outcome salt.
    pub fn attach_faults(&mut self, model: FaultModel) {
        assert!(
            model.box_count() <= self.playing.len(),
            "fault model spans {} boxes but the engine universe has {}",
            model.box_count(),
            self.playing.len()
        );
        if self.delivery.is_none() {
            self.delivery = Some(DeliveryTracker::new(DeliveryPolicy::default()));
        }
        self.delivery.as_mut().expect("attached above").set_hazards(
            model.salt(),
            model.drop_ppm(),
            model.timeout_ppm(),
        );
        self.faults_active = true;
        self.faults = Some(model);
    }

    /// Attaches (or replaces) the delivery-reliability state machine with
    /// an explicit retry policy. When a fault model is already attached,
    /// its per-connection hazards and outcome salt carry over; call this
    /// *before* exercising faults to pin a non-default policy (e.g.
    /// [`DeliveryPolicy::no_retry`] for the no-retry baseline).
    pub fn attach_delivery(&mut self, policy: DeliveryPolicy) {
        let mut tracker = DeliveryTracker::new(policy);
        if let Some(model) = &self.faults {
            tracker.set_hazards(model.salt(), model.drop_ppm(), model.timeout_ppm());
        }
        self.delivery = Some(tracker);
    }

    /// Attaches the graceful-degradation controller: from the next round
    /// on it folds every round's (attempted, unserved) into its window and
    /// sheds load — new admissions, and optionally tail stripes — while
    /// the windowed unserved ratio stays above the configured thresholds.
    pub fn attach_degradation(&mut self, config: DegradationConfig) {
        self.degrade = Some(DegradationController::new(config));
    }

    /// The delivery-reliability state machine, when attached.
    pub fn delivery_tracker(&self) -> Option<&DeliveryTracker> {
        self.delivery.as_ref()
    }

    /// The graceful-degradation controller, when attached.
    pub fn degradation(&self) -> Option<&DegradationController> {
        self.degrade.as_ref()
    }

    /// Applies one fault event to the engine, scripted or model-driven: a
    /// degradation or stall opens a per-box capacity window (a restore
    /// closes it early) that the next round's fault overlay deducts from
    /// the live capacity table; a drop surge raises the delivery tracker's
    /// per-connection hazards. This is both the step-loop's internal path
    /// for an attached [`FaultModel`] and the public entry point for
    /// scripted faults (the explorer's fault-event branches). A
    /// [`FaultEvent::DropSurge`] is a no-op unless a delivery tracker is
    /// attached.
    pub fn apply_fault(&mut self, event: FaultEvent) {
        self.faults_active = true;
        if let Some(box_id) = event.box_id() {
            assert!(
                box_id.index() < self.playing.len(),
                "fault event targets box {} outside the universe of {} boxes",
                box_id,
                self.playing.len()
            );
        }
        match event {
            FaultEvent::Degraded { box_id, pct, until } => {
                self.fault_pct[box_id.index()] = pct;
                self.fault_until[box_id.index()] = until;
            }
            FaultEvent::Stalled { box_id, until } => {
                self.fault_pct[box_id.index()] = 0;
                self.fault_until[box_id.index()] = until;
            }
            FaultEvent::Restored { box_id } => {
                self.fault_pct[box_id.index()] = 100;
                self.fault_until[box_id.index()] = 0;
            }
            FaultEvent::DropSurge { add_ppm, until } => {
                if let Some(tracker) = &mut self.delivery {
                    tracker.apply_surge(add_ppm, until);
                }
            }
        }
    }

    /// Enables dynamic relay-reservation sizing (heterogeneous systems
    /// only): instead of holding every relay at the worst-case
    /// `u* + 1 − 2u_b` reservation forever, the broker shrinks a relay's
    /// reserved slots after `window` consecutive calm rounds and grows them
    /// back on saturation, never past the plan's worst case. The engine
    /// resyncs its capacity table from the broker after every round, so
    /// freed slots serve ordinary traffic the next round. The sizing
    /// feedback reads observed relay loads, which are scheduler-dependent —
    /// enable it only when comparing runs within one scheduler family.
    pub fn enable_dynamic_reservations(&mut self, window: u64) {
        self.relay_broker
            .as_mut()
            .expect("dynamic reservation sizing needs a heterogeneous (relayed) system")
            .enable_dynamic_reservations(window);
    }

    /// Canonical signature of the behavioural state: everything the future
    /// of the simulation depends on — playback states (with their request
    /// plans), live candidate-cache entries, swarm preload counters, the
    /// current round, the live capacity table, and the relay plan. Pooled
    /// scratch, warm scheduler state, and accumulated reports are excluded:
    /// the equivalence gates prove they never change a schedule. Components
    /// are combined order-insensitively ([`SortedSignature`]); where order
    /// is behaviour (holder lists), each component carries its position.
    pub fn state_signature(&self) -> u64 {
        let mut sig = SortedSignature::new();
        sig.push(&(0u8, self.round));
        for_each_set_bit(self.viewers.words(), |idx| {
            let st = self.playing[idx].as_ref().expect("indexed viewer plays");
            sig.push(&(1u8, idx as u32, st));
        });
        for (stripe, b, start) in self.candidates.iter_live() {
            sig.push(&(2u8, stripe, b, start));
        }
        for (video, swarm) in self.swarms.iter() {
            sig.push(&(3u8, video, swarm.entered_total()));
        }
        for (idx, cap) in self.capacities.iter().enumerate() {
            sig.push(&(4u8, idx as u32, *cap));
        }
        if let Some(broker) = &self.relay_broker {
            for (idx, slots) in broker.reserved_slots().iter().enumerate() {
                sig.push(&(5u8, idx as u32, *slots));
            }
            for (poor, relay) in broker.plan().assignments() {
                sig.push(&(6u8, poor, relay));
            }
        }
        // Live-population state: holder lists are order-sensitive (candidate
        // rows list holders in placement order), so each holder is tagged
        // with its position.
        for (stripe, holders) in self.placement.stripes() {
            for (pos, b) in holders.iter().enumerate() {
                sig.push(&(7u8, stripe, pos as u32, *b));
            }
        }
        for idx in (0..self.alive.len()).filter(|&idx| !self.alive.contains(idx)) {
            sig.push(&(8u8, idx as u32));
        }
        // The repair queue drives future placement mutations. (An attached
        // churn model is external stochastic input, like the demand
        // generator — not part of the engine's behavioural state.)
        if let Some(planner) = &self.repair {
            for &s in planner.pending() {
                sig.push(&(9u8, s));
            }
            for &s in planner.lost() {
                sig.push(&(10u8, s));
            }
        }
        // Fault-injection state: open fault windows, the delivery
        // tracker's retry/backoff queue and surge window, and the
        // degradation controller's window/mode all steer future rounds.
        // (An attached fault model is external stochastic input, like the
        // churn model.)
        for idx in 0..self.fault_pct.len() {
            if self.fault_pct[idx] != 100 || self.fault_until[idx] != 0 {
                sig.push(&(11u8, idx as u32, self.fault_pct[idx], self.fault_until[idx]));
            }
        }
        if let Some(tracker) = &self.delivery {
            tracker.push_signature(&mut sig);
        }
        if let Some(ctrl) = &self.degrade {
            ctrl.push_signature(&mut sig);
        }
        sig.finish()
    }

    /// Branches the simulation: an independent simulator continuing from
    /// this one's exact behavioural state, scheduling with `scheduler`.
    ///
    /// Live state (round, playbacks, candidate index, swarms, stalls,
    /// report, capacity table, relay broker) is cloned; pooled scratch,
    /// memoized candidate rows, and the scheduler's warm state start cold —
    /// sound because the warm-vs-cold and incremental-vs-rebuild
    /// equivalence suites pin those as output-invariant. The fork and the
    /// original evolve independently from here; this is the branch
    /// primitive of the exhaustive explorer.
    pub fn fork_with(&self, scheduler: Box<dyn Scheduler>) -> Simulator<'a> {
        let mut fork = Simulator::with_scheduler(self.system, self.config, scheduler);
        fork.round = self.round;
        fork.playing = self.playing.clone();
        fork.viewers = self.viewers.clone();
        fork.candidates = self.candidates.clone();
        fork.swarms = self.swarms.clone();
        fork.stalls = self.stalls.clone();
        fork.report = self.report.clone();
        fork.capacities = self.capacities.clone();
        fork.relay_broker = self.relay_broker.clone();
        fork.placement = self.placement.clone();
        fork.alive = self.alive.clone();
        fork.churn = self.churn.clone();
        fork.repair = self.repair.clone();
        fork.faults = self.faults.clone();
        fork.faults_active = self.faults_active;
        fork.fault_pct = self.fault_pct.clone();
        fork.fault_until = self.fault_until.clone();
        fork.delivery = self.delivery.clone();
        fork.degrade = self.degrade.clone();
        fork
    }

    /// Applies one churn event to the relay subsystem mid-run and re-syncs
    /// the scheduler's capacity table from the live plan (departed boxes
    /// drop to zero upload; freed or grown reservations open slots).
    ///
    /// A [`RelayEvent::BoxLeft`] also detaches the box from the engine's
    /// live structures *the round it leaves*: its in-flight playback ends
    /// (recorded with its stalls so far), its playback-cache entries are
    /// purged from the candidate index, and its replicas are stripped
    /// from the live allocation table (notifying the repair planner when
    /// one is attached). Without the purge, a departed box lingers as a
    /// stripe holder in candidate rows until cache expiry — and worse, a
    /// later rejoin would claim replicas the box no longer stores.
    ///
    /// Returns the compensation deltas performed, or the broker's named
    /// error when the population is no longer `u*`-compensable (the event's
    /// plan mutations still happened, exactly as [`RelayBroker::apply`]
    /// documents). Future playbacks plan against the updated live plan;
    /// playbacks already in flight keep the plans they were admitted with.
    ///
    /// # Panics
    /// Panics on homogeneous systems (no relay subsystem) and when a
    /// [`RelayEvent::BoxJoined`] id lies outside the original box universe
    /// (the engine's per-box tables are sized at construction).
    pub fn apply_relay_event(
        &mut self,
        event: RelayEvent,
    ) -> Result<Vec<vod_core::CompensationDelta>, vod_core::CoreError> {
        assert!(
            self.relay_broker.is_some(),
            "relay events require a heterogeneous system with a compensation plan"
        );
        match &event {
            RelayEvent::BoxJoined(node) => {
                assert!(
                    node.id.index() < self.playing.len(),
                    "box {} joined outside the original universe of {} boxes",
                    node.id,
                    self.playing.len()
                );
                self.alive.set(node.id.index());
            }
            RelayEvent::BoxLeft(id) => self.detach_box(*id),
            RelayEvent::UploadChanged(..) => {}
        }
        let broker = self.relay_broker.as_mut().expect("checked above");
        let clock = self.tracer.begin();
        let result = broker.apply(event);
        self.tracer.end(
            clock,
            Stage::RelayReplan,
            result.as_ref().map_or(0, |deltas| deltas.len() as u64),
        );
        for (idx, cap) in self.capacities.iter_mut().enumerate() {
            *cap = broker.open_upload_slots(BoxId(idx as u32));
        }
        result
    }

    /// Applies one [`ChurnEvent`] to the engine, on homogeneous and
    /// heterogeneous systems alike. Heterogeneous systems route through
    /// [`Simulator::apply_relay_event`] (reservation re-planning; a failed
    /// re-plan leaves poor boxes uncovered and the simulation continues —
    /// the resulting stalls are the modelled behaviour). Homogeneous
    /// systems mutate the liveness and capacity tables directly. This is
    /// both the step-loop's internal path for an attached [`ChurnModel`]
    /// and the public entry point for scripted churn (the explorer's
    /// churn-event branches).
    pub fn apply_churn(&mut self, event: ChurnEvent) {
        match event {
            ChurnEvent::Joined(node) => {
                assert!(
                    node.id.index() < self.playing.len(),
                    "box {} joined outside the original universe of {} boxes",
                    node.id,
                    self.playing.len()
                );
                if self.relay_broker.is_some() {
                    let _ = self.apply_relay_event(RelayEvent::BoxJoined(node));
                } else {
                    self.alive.set(node.id.index());
                    self.capacities[node.id.index()] = node.upload.stripe_slots(self.system.c());
                }
            }
            ChurnEvent::Left(id) | ChurnEvent::Crashed(id) => {
                if self.relay_broker.is_some() {
                    let _ = self.apply_relay_event(RelayEvent::BoxLeft(id));
                } else {
                    self.detach_box(id);
                    self.capacities[id.index()] = 0;
                }
            }
            ChurnEvent::UploadChanged(id, upload) => {
                if self.relay_broker.is_some() {
                    let _ = self.apply_relay_event(RelayEvent::UploadChanged(id, upload));
                } else {
                    self.capacities[id.index()] = upload.stripe_slots(self.system.c());
                }
            }
        }
    }

    /// Detaches a departed box from every live structure, effective this
    /// round: terminates its in-flight playback (recording it), purges its
    /// cache entries from the candidate index (stamp bumps invalidate
    /// memoized rows), and strips its replicas from the live allocation
    /// table, queueing them with the repair planner.
    fn detach_box(&mut self, id: BoxId) {
        self.alive.unset(id.index());
        self.end_playback(id);
        self.candidates.purge_box(id);
        let lost = self.placement.remove_box(id);
        for &stripe in &lost {
            self.candidates.touch(stripe);
        }
        if let Some(planner) = &mut self.repair {
            planner.note_lost(&lost);
        }
    }

    /// Runs the configured number of rounds against a demand generator and
    /// returns the report.
    pub fn run(mut self, generator: &mut dyn DemandGenerator) -> SimulationReport {
        while self.round < self.config.max_rounds {
            let feasible = self.step(generator);
            if !feasible && self.config.failure_policy == FailurePolicy::Abort {
                self.report.aborted = true;
                break;
            }
        }
        self.finish()
    }

    /// Consumes a manually-stepped simulator and finalizes its report
    /// (flushing in-flight playbacks and the relay utilization profile),
    /// exactly as [`Simulator::run`] does at the end of a run. For drivers
    /// that interleave [`Simulator::step`] with scripted churn.
    pub fn into_report(self) -> SimulationReport {
        self.finish()
    }

    /// Finalizes the report: flushes in-flight playbacks and the relay
    /// utilization profile.
    fn finish(mut self) -> SimulationReport {
        self.report.profile = self.tracer.run_profile();
        if self.delivery.is_some() {
            self.report.delivery = Some(DeliverySummary::from_rounds(&self.report.rounds));
        }
        if let Some(broker) = &self.relay_broker {
            self.report.relays = broker.utilization();
        }
        for_each_set_bit(self.viewers.words(), |idx| {
            let st = self.playing[idx].as_ref().expect("indexed viewer plays");
            self.report
                .playbacks
                .push(playback_record(BoxId(idx as u32), st, self.stalls[idx]));
        });
        self.report
    }

    /// Simulates one round. Returns `true` when every active request was
    /// served.
    pub fn step(&mut self, generator: &mut dyn DemandGenerator) -> bool {
        let now = self.round;
        self.tracer.set_round(now);

        let clock = self.tracer.begin();
        self.end_finished_playbacks(now);
        self.tracer.end(clock, Stage::PlaybackEnd, 0);
        // Candidate-index maintenance is half of the round's candidate
        // cost; the other half (row construction) is timed in
        // `schedule_round` and summed into the same per-round profile.
        let maintenance = Instant::now();
        self.candidates.begin_round(now);
        let maintenance_ns = maintenance.elapsed().as_nanos() as u64;
        self.round_cand_stats = CandidateStats {
            build_ns: maintenance_ns,
            ..CandidateStats::default()
        };
        // The maintenance half is already timed unconditionally (it feeds
        // `CandidateStats::build_ns`), so the span reuses that measurement.
        self.tracer
            .emit_ns(Stage::CandidateMaintain, maintenance_ns, 0);
        // Engine-driven churn: membership changes land before admissions,
        // interleaved with the round rather than replayed between rounds.
        let clock = self.tracer.begin();
        self.drain_churn(now);
        self.tracer.end(clock, Stage::ChurnDrain, 0);
        // Fault overlay: open this round's fault windows (model events +
        // scripted ones still pending), expire finished windows, and
        // deduct the transient capacity loss before the repair planner and
        // the scheduler read the table. Restored after the repair commit.
        let clock = self.tracer.begin();
        if let Some(tracker) = &mut self.delivery {
            tracker.begin_round(now);
        }
        if let Some(ctrl) = &mut self.degrade {
            ctrl.begin_round(now);
        }
        self.fault_slots_lost = self.drain_faults(now);
        self.tracer
            .end(clock, Stage::FaultDrain, self.fault_slots_lost);
        // Repair planning deducts the transfer slots from the source boxes'
        // budgets before the scheduler sees them.
        let clock = self.tracer.begin();
        self.round_repair = self.plan_repairs();
        let planned = self.round_repair.as_ref().map_or(0, |s| s.repaired as u64);
        self.tracer.end(clock, Stage::RepairPlan, planned);
        let clock = self.tracer.begin();
        let new_demands = self.accept_demands(generator, now);
        self.tracer
            .end(clock, Stage::DemandIntake, new_demands as u64);
        // Detach the pooled request buffer so collection can borrow `self`.
        let mut requests = std::mem::take(&mut self.request_buf);
        requests.clear();
        let clock = self.tracer.begin();
        let self_served = self.collect_active_requests_into(now, &mut requests);
        self.tracer
            .end(clock, Stage::RequestCollect, requests.len() as u64);
        let (metrics, feasible) = self.schedule_round(now, &requests, self_served, new_demands);
        self.request_buf = requests;
        self.report.rounds.push(metrics);
        // Commit the planned repairs: capacities are restored and the new
        // replicas enter the live placement, serving from the next round on
        // (a transfer takes the round it was planned in).
        let clock = self.tracer.begin();
        self.commit_repairs();
        self.tracer.end(clock, Stage::RepairCommit, 0);
        // Restore the fault overlay's deductions: the capacity table
        // carries only the round's transient loss, recomputed from the
        // open windows each round (so churned capacities never drift).
        if self.faults_active {
            for idx in 0..self.fault_deducted.len() {
                if self.fault_deducted[idx] != 0 {
                    self.capacities[idx] += self.fault_deducted[idx];
                    self.fault_deducted[idx] = 0;
                }
            }
        }
        // Dynamic reservation sizing re-tunes inside `note_round`; pick the
        // shifted capacities up for the next round.
        if self
            .relay_broker
            .as_ref()
            .is_some_and(RelayBroker::dynamic_reservations_enabled)
        {
            let broker = self.relay_broker.as_ref().expect("checked above");
            for (idx, cap) in self.capacities.iter_mut().enumerate() {
                *cap = broker.open_upload_slots(BoxId(idx as u32));
            }
        }
        // The repair commit lands after the metrics push, so the round's
        // timing aggregate is patched into the record it belongs to.
        if let Some(timing) = self.tracer.take_round_timings() {
            if let Some(last) = self.report.rounds.last_mut() {
                last.timing = Some(timing);
            }
        }
        self.round += 1;
        feasible
    }

    /// Drains the attached churn model's events for `now` and applies them.
    fn drain_churn(&mut self, now: u64) {
        if self.churn.is_none() {
            return;
        }
        let mut events = std::mem::take(&mut self.churn_buf);
        self.churn
            .as_mut()
            .expect("checked above")
            .events_into(now, &mut events);
        for event in events.drain(..) {
            self.apply_churn(event);
        }
        self.churn_buf = events;
    }

    /// Drains the attached fault model's events for `now`, expires the
    /// fault windows whose round has come, and overlays the open windows
    /// on the live capacity table (`keep = ⌊cap·pct/100⌋`, recomputed
    /// fresh each round). Returns the upload slots removed.
    fn drain_faults(&mut self, now: u64) -> u64 {
        if !self.faults_active {
            return 0;
        }
        if self.faults.is_some() {
            let mut events = std::mem::take(&mut self.fault_buf);
            self.faults
                .as_mut()
                .expect("checked above")
                .events_into(now, &mut events);
            for event in events.drain(..) {
                self.apply_fault(event);
            }
            self.fault_buf = events;
        }
        let mut lost = 0u64;
        for idx in 0..self.fault_pct.len() {
            if self.fault_until[idx] != 0 && self.fault_until[idx] <= now {
                self.fault_until[idx] = 0;
                self.fault_pct[idx] = 100;
            }
            let pct = self.fault_pct[idx];
            if pct < 100 {
                let cap = self.capacities[idx];
                let keep = (cap as u64 * pct as u64 / 100) as u32;
                let loss = cap - keep;
                self.fault_deducted[idx] = loss;
                self.capacities[idx] = keep;
                lost += loss as u64;
            }
        }
        lost
    }

    /// Plans this round's repair transfers and charges their upload slots
    /// against the live capacity table, so serving and repair compete for
    /// the same `⌊u_b·c⌋` budgets. The plan reads only scheduler-invariant
    /// state (live placement, liveness, capacities) — never the assignment
    /// — keeping placement evolution bit-identical across schedulers.
    fn plan_repairs(&mut self) -> Option<RepairRoundStats> {
        let planner = self.repair.as_mut()?;
        let stats = planner.plan_round(&self.placement, &self.alive, &self.capacities);
        for t in planner.transfers() {
            let open = &mut self.capacities[t.source.index()];
            debug_assert!(*open > 0, "repair oversubscribed box");
            *open -= 1;
        }
        Some(stats)
    }

    /// Commits the round's planned repairs: restores the deducted source
    /// capacities and lands the new replicas in the live placement, bumping
    /// the repaired stripes' candidate stamps so next round's rows rebuild.
    fn commit_repairs(&mut self) {
        let Some(planner) = &mut self.repair else {
            return;
        };
        for t in planner.transfers() {
            self.capacities[t.source.index()] += 1;
            self.candidates.touch(t.stripe);
        }
        planner.commit(&mut self.placement);
    }

    fn end_finished_playbacks(&mut self, now: u64) {
        for wi in 0..self.viewers.words().len() {
            // A copy of the word: ending a playback clears its bit.
            for_each_bit_of_word(wi, self.viewers.words()[wi], |idx| {
                let st = self.playing[idx].as_ref().expect("indexed viewer plays");
                if st.ends_at <= now {
                    self.end_playback(BoxId(idx as u32));
                }
            });
        }
    }

    /// Ends `id`'s playback, if it has one: the box leaves the viewer index
    /// and its swarm, its record is emitted with the stalls so far, and the
    /// delivery tracker drops its retry state (also for a box that was not
    /// playing — a departed box may still have streams in backoff).
    fn end_playback(&mut self, id: BoxId) {
        let idx = id.index();
        if let Some(st) = self.playing[idx].take() {
            self.viewers.unset(idx);
            self.swarms.leave(st.video, id);
            self.report
                .playbacks
                .push(playback_record(id, &st, self.stalls[idx]));
            self.stalls[idx] = 0;
        }
        if let Some(tracker) = &mut self.delivery {
            tracker.forget_viewer(id);
        }
    }

    fn accept_demands(&mut self, generator: &mut dyn DemandGenerator, now: u64) -> usize {
        // Pull the round's demands into the pooled buffer (detached so the
        // generator call can borrow the viewer and liveness sets).
        let mut demands = std::mem::take(&mut self.demand_buf);
        {
            let occupancy = Occupancy {
                viewers: &self.viewers,
                alive: &self.alive,
            };
            generator.demands_into(now, &occupancy, &mut demands);
        }
        let mut accepted = 0;
        for demand in demands.drain(..) {
            let idx = demand.box_id.index();
            if idx >= self.playing.len()
                || self.playing[idx].is_some()
                || !self.alive.contains(idx)
                || self.system.catalog().video(demand.video).is_none()
            {
                self.report.rejected_demands += 1;
                continue;
            }
            // Degraded mode sheds new admissions deterministically:
            // existing playbacks' continuity outranks new entrants.
            if self.degrade.as_ref().is_some_and(|c| c.shedding()) {
                self.report.rejected_demands += 1;
                self.degrade.as_mut().expect("checked above").note_shed();
                continue;
            }
            self.start_playback(demand.box_id, demand.video, now);
            accepted += 1;
        }
        self.demand_buf = demands;
        self.report.total_demands += accepted;
        accepted
    }

    fn start_playback(&mut self, box_id: BoxId, video: VideoId, now: u64) {
        let c = self.system.c();
        let preload = self.swarms.join(video, box_id, now);
        let duration = self.system.duration() as u64;
        let mu = self.system.params().swarm_growth;

        // Plans consult the *live* plan when the relay subsystem is active
        // (the broker starts as a mirror of the system's static plan, so
        // behaviour is unchanged until a churn event is applied through
        // [`Simulator::apply_relay_event`]). A poor box whose relay could
        // not be re-placed after churn falls back to the direct rich plan.
        let (plan, playback_starts_at) = match &self.relay_broker {
            None => homogeneous_plan(c, preload, now),
            Some(broker) => {
                let upload = broker
                    .node(box_id)
                    .map(|n| n.upload)
                    .unwrap_or_else(|| self.system.boxes().get(box_id).upload);
                match broker.plan().relay(box_id) {
                    Some(relay) => {
                        let budget = direct_stripe_budget(c, upload.as_streams(), mu);
                        poor_plan(c, preload, now, relay, budget)
                    }
                    None => rich_plan(c, preload, now),
                }
            }
        };

        // Every stripe enters the requester's (and the viewer's) playback
        // cache at the round its download starts.
        for (stripe_idx, stripe_plan) in plan.iter().enumerate() {
            let stripe = StripeId::new(video, stripe_idx as u16);
            let start = stripe_plan.activate_at();
            let requester = stripe_plan.requester(box_id);
            self.candidates.insert(stripe, requester, start, now);
            if requester != box_id {
                self.candidates.insert(stripe, box_id, start, now);
            }
        }

        self.stalls[box_id.index()] = 0;
        self.viewers.set(box_id.index());
        self.playing[box_id.index()] = Some(PlaybackState {
            video,
            entered_at: now,
            ends_at: now + duration,
            playback_starts_at,
            plan,
        });
    }

    /// Collects the round's active stripe requests into the pooled buffer,
    /// returning the number of requests served from the requester's own
    /// static storage (no connection needed). With a delivery tracker
    /// attached, each request first consults the retry queue: a stream in
    /// backoff (or abandoned) is suppressed this round, an expired backoff
    /// re-enters as a first-class request. With partial service active,
    /// tail stripes (`index ≥ c'`) are suppressed without counting as
    /// stalls.
    fn collect_active_requests_into(&mut self, now: u64, out: &mut Vec<StripeRequest>) -> usize {
        // Detach the tracker so the closure can consult the retry queue
        // mutably while `self` is borrowed for the playback iteration.
        let mut delivery = self.delivery.take();
        let stripe_limit = self
            .degrade
            .as_ref()
            .and_then(DegradationController::active_stripe_limit);
        let mut suppressed = 0usize;
        let mut self_served = 0usize;
        for_each_set_bit(self.viewers.words(), |idx| {
            let st = self.playing[idx].as_ref().expect("indexed viewer plays");
            st.for_each_active(BoxId(idx as u32), now, |req| {
                if self.placement.stores(req.requester, req.stripe) {
                    self_served += 1;
                } else if stripe_limit.is_some_and(|limit| req.stripe.index >= limit) {
                    suppressed += 1;
                } else {
                    match delivery
                        .as_mut()
                        .map_or(Admission::Emit, |t| t.admit(req.viewer, req.stripe, now))
                    {
                        Admission::Emit | Admission::Retry => out.push(req),
                        Admission::Suppress => {}
                    }
                }
            });
        });
        self.delivery = delivery;
        if suppressed > 0 {
            self.degrade
                .as_mut()
                .expect("stripe_limit came from the controller")
                .note_suppressed(suppressed);
        }
        self_served
    }

    /// Builds every request's candidate supplier row into the pooled flat
    /// CSR buffer: static holders of the stripe plus boxes whose playback
    /// cache is ahead on the same stripe, excluding the requester itself.
    /// Per-box generation marks give O(1) dedup between the two sources;
    /// a row lists the holders in placement order, then the cache holders
    /// in index insertion order.
    ///
    /// The fill works in class rows: one build per (stripe, issue round),
    /// stored in the buffer once a round and referred to by every request
    /// of the class, all under the build's number as their change stamp —
    /// the buffer is linear in a crowd.
    fn fill_round_candidates(&mut self, now: u64, requests: &[StripeRequest]) {
        let window = self.system.duration() as u64;
        let index = &self.candidates;
        self.cand_buf.clear();
        self.cand_stamps.clear();
        // The row cache is only worth keeping while it tracks the live
        // classes; once it clearly outgrows them (their viewers finished,
        // the rows can never hit again) drop it wholesale.
        if self.row_cache.len() > 2 * self.rows_in_use + 64 {
            self.row_cache.clear();
        }
        self.rows_in_use = 0;
        for req in requests {
            let shrink_stamp = index.shrink_stamp(req.stripe);
            let row = self
                .row_cache
                .entry((req.stripe, req.issued_at))
                .or_default();
            if row.build != 0 && row.shrink_stamp == shrink_stamp {
                self.row_cache_hits += 1;
            } else {
                self.seen_epoch += 1;
                let epoch = self.seen_epoch;
                row.boxes.clear();
                for &b in self.placement.holders_of(req.stripe) {
                    self.box_seen[b.index()] = epoch;
                    row.boxes.push(b);
                }
                // Entries are live by construction (the wheel drained
                // everything older than the window), so only the
                // ahead-of-the-class condition remains per entry.
                for &(b, start) in index.candidates(req.stripe) {
                    debug_assert!(start + window >= now, "index kept an expired entry");
                    if self.box_seen[b.index()] != epoch && start < req.issued_at {
                        row.boxes.push(b);
                    }
                }
                self.row_builds += 1;
                row.build = self.row_builds;
                row.shrink_stamp = shrink_stamp;
            }
            // What lets one row serve the whole class: no requester is in
            // it. A requester that stored the stripe would be self-served,
            // and `start_playback` filed (or refreshed) its index entry at
            // `start = issued_at`, not before.
            debug_assert!(
                !row.boxes.contains(&req.requester),
                "{} is a candidate of its own request for {:?}",
                req.requester,
                req.stripe
            );
            // The class's first request of the round stores the row (the
            // index does not move during a fill, so a row is not rebuilt
            // after it); the others refer to it.
            if row.used != now + 1 {
                row.used = now + 1;
                self.rows_in_use += 1;
                row.stored = self.cand_buf.push_row(row.boxes.iter().copied());
            } else {
                self.cand_buf.push_shared(row.stored);
            }
            self.cand_stamps.push(row.build);
        }
    }

    fn schedule_round(
        &mut self,
        now: u64,
        requests: &[StripeRequest],
        self_served: usize,
        new_demands: usize,
    ) -> (RoundMetrics, bool) {
        // Build the flat candidate rows (timed into the round's candidate
        // profile together with the maintenance half from `step`).
        let fill = Instant::now();
        self.fill_round_candidates(now, requests);
        let fill_ns = fill.elapsed().as_nanos() as u64;
        self.round_cand_stats = CandidateStats {
            index_entries: self.candidates.live_entries(),
            expired: self.candidates.expired_this_round(),
            inserted: self.candidates.inserted_this_round(),
            build_ns: self.round_cand_stats.build_ns + fill_ns,
        };
        // Like the maintenance half, the fill is already timed into the
        // candidate profile — the span reuses the measurement.
        self.tracer
            .emit_ns(Stage::CandidateFill, fill_ns, requests.len() as u64);
        // Stable request identities let incremental schedulers patch the
        // previous round's flow network instead of rebuilding it.
        self.sched_keys.clear();
        self.sched_keys.extend(requests.iter().map(|r| RequestKey {
            viewer: r.viewer,
            stripe: r.stripe,
        }));

        // Every system schedules the plain Lemma-1 instance: relay
        // reservations are already netted out of `capacities` and are
        // disjoint from the open budgets the matching allocates.
        let mut assignment = std::mem::take(&mut self.assignment);
        let clock = self.tracer.begin();
        self.scheduler.schedule_keyed_view(
            &self.capacities,
            &self.sched_keys,
            self.cand_buf.view_with_stamps(&self.cand_stamps),
            &mut assignment,
        );
        self.tracer
            .end(clock, Stage::Schedule, requests.len() as u64);
        debug_assert!(crate::scheduler::assignment_is_valid_view(
            &assignment,
            &self.capacities,
            self.cand_buf.view(),
            &mut self.dbg_loads,
        ));

        // Fold this round's forwarding demand into the relay subsystem's
        // utilization counters. A request downloaded by a box other than its
        // viewer is a poor box's stripe fetched by its relay, whose
        // reservation forwards it every active round.
        let relay_metrics = match &mut self.relay_broker {
            Some(broker) => {
                let clock = self.tracer.begin();
                self.relay_loads.clear();
                self.relay_loads.resize(self.capacities.len(), 0);
                for req in requests.iter().filter(|r| r.requester != r.viewer) {
                    self.relay_loads[req.requester.index()] += 1;
                }
                let stats = broker.note_round(&self.relay_loads);
                self.tracer
                    .end(clock, Stage::RelayAccount, stats.forwarded as u64);
                Some(stats)
            }
            None => None,
        };

        let mut served = 0usize;
        let mut served_from_allocation = 0usize;
        let mut served_from_cache = 0usize;
        let mut unserved = 0usize;
        // Pooled accumulation with generation marks: no linear `contains`
        // scan per unserved request.
        self.stalled_viewers.clear();
        self.failed_videos.clear();
        let mark = now + 1;

        // Delivery resolution rides the served loop: the outcome hash
        // depends only on (salt, round, viewer, stripe) — never on the
        // assigned supplier — so every scheduler pipeline resolves every
        // connection identically.
        let mut delivery = self.delivery.take();
        let deliver_clock = delivery.is_some().then(|| self.tracer.begin());
        for (req, assigned) in requests.iter().zip(&assignment) {
            match assigned {
                Some(supplier) => {
                    let outcome = delivery.as_mut().map_or(DeliveryOutcome::Delivered, |t| {
                        t.resolve(req.viewer, req.stripe, now)
                    });
                    match outcome {
                        DeliveryOutcome::Delivered => {
                            served += 1;
                            if self.placement.stores(*supplier, req.stripe) {
                                served_from_allocation += 1;
                            } else {
                                served_from_cache += 1;
                            }
                        }
                        DeliveryOutcome::Dropped | DeliveryOutcome::Timeout => {
                            // A failed delivery is a rebuffer round for its
                            // viewer, not a Lemma-1 failure: the matching
                            // existed, the data path lost it. It counts
                            // neither `served` nor `unserved`.
                            if self.rebuffer_mark[req.viewer.index()] != mark {
                                self.rebuffer_mark[req.viewer.index()] = mark;
                                delivery
                                    .as_mut()
                                    .expect("outcome came from the tracker")
                                    .note_rebuffer();
                            }
                            if self.viewer_mark[req.viewer.index()] != mark {
                                self.viewer_mark[req.viewer.index()] = mark;
                                self.stalled_viewers.push(req.viewer);
                            }
                        }
                    }
                }
                None => {
                    unserved += 1;
                    // Scheduler-unserved requests take the legacy stall
                    // path untouched — they do not enter the retry queue
                    // (Lemma-1 shortfall is the round's failure, not a
                    // data-path fault), keeping the fault-free run
                    // bit-identical to the pre-delivery engine.
                    if self.viewer_mark[req.viewer.index()] != mark {
                        self.viewer_mark[req.viewer.index()] = mark;
                        self.stalled_viewers.push(req.viewer);
                    }
                    let video_idx = req.stripe.video.0 as usize;
                    if self.video_mark[video_idx] != mark {
                        self.video_mark[video_idx] = mark;
                        self.failed_videos.push(req.stripe.video);
                    }
                }
            }
        }
        let delivery_stats = delivery.as_ref().map(DeliveryTracker::round_stats);
        self.delivery = delivery;
        if let Some(clock) = deliver_clock {
            let failed = delivery_stats
                .map(|d| (d.dropped + d.timed_out) as u64)
                .unwrap_or(0);
            self.tracer.end(clock, Stage::Deliver, failed);
        }

        for viewer in &self.stalled_viewers {
            self.stalls[viewer.index()] += 1;
        }

        // The degradation controller observes the round's scheduling
        // outcome last (its mode switch, if any, takes effect next round).
        let degradation_stats = match &mut self.degrade {
            Some(ctrl) => {
                let clock = self.tracer.begin();
                let stats = ctrl.note_round(now, requests.len() as u64, unserved as u64);
                self.tracer
                    .end(clock, Stage::Degrade, stats.window_unserved_ppm as u64);
                Some(stats)
            }
            None => None,
        };

        // A round fails iff a *download* leg goes unserved — the quantity
        // the paper's Lemma-1 feasibility (and every scheduler) decides.
        // Forwarding starvation on reserved relay capacity does not fail
        // the round: the reservation is the model's statically-provisioned
        // resource (Theorem 2 sizes it for the worst case), so demand
        // exceeding it is a model-assumption violation reported through `RelayRoundStats::starved` and
        // `RelayUtilization::oversubscribed_rounds` each round, and named
        // per relay in `FailureRecord::starved_relays` whenever a failing
        // round is diagnosed below.
        let feasible = unserved == 0;
        if !feasible {
            let clock = self.tracer.begin();
            let mut record = FailureRecord {
                round: now,
                unserved,
                obstruction_size: None,
                obstruction_capacity: None,
                starved_relays: Vec::new(),
                videos: self.failed_videos.clone(),
                fault_slots_lost: self.fault_slots_lost,
            };
            if self.config.collect_obstructions {
                // The supply side is the one Lemma-1 min cut: reserve chains
                // are dead ends of the two-hop residual graph, so relaying
                // leaves it unchanged. The forwarding side is the relays
                // whose demand exceeds their reservation, read after
                // `note_round` retuned it.
                let mut problem = ConnectionProblem::new(self.capacities.clone());
                for cand in self.cand_buf.view().rows() {
                    problem.add_request(cand.iter().copied());
                }
                if let Some(ob) = find_obstruction_in(
                    &problem,
                    &mut self.obstruction_arena,
                    &mut self.obstruction_solver,
                ) {
                    record.obstruction_size = Some(ob.requests.len());
                    record.obstruction_capacity = Some(ob.capacity);
                }
                if let Some(broker) = &self.relay_broker {
                    record.starved_relays = broker.starved_relays(&self.relay_loads);
                }
            }
            self.tracer
                .end(clock, Stage::FailureDiagnose, unserved as u64);
            self.report.failures.push(record);
        }

        let metrics = RoundMetrics {
            round: now,
            new_demands,
            active_requests: requests.len(),
            self_served,
            served,
            unserved,
            served_from_allocation,
            served_from_cache,
            upload_slots_available: self.capacities.iter().map(|&c| c as u64).sum(),
            viewers: self.viewers.count_ones(),
            max_swarm: self.swarms.max_swarm_size(),
            relay: relay_metrics,
            candidates: Some(self.round_cand_stats),
            repair: self.round_repair.take(),
            delivery: delivery_stats,
            degradation: degradation_stats,
            // Patched in by `step` once the round (including the repair
            // commit, which lands after this record is pushed) has closed.
            timing: None,
        };
        // Return the reused buffers for the next round.
        self.assignment = assignment;
        (metrics, feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{GreedyScheduler, NaiveScheduler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vod_core::{RandomPermutationAllocator, SystemParams};
    use vod_workloads::{FlashCrowd, NextVideoPolicy, SequentialViewing};

    fn small_system(n: usize, u: f64, c: u16, k: u32, duration: u32) -> VideoSystem {
        let params = SystemParams::new(n, u, 8, c, k, 1.5, duration);
        let mut rng = StdRng::seed_from_u64(42);
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(k), &mut rng).unwrap()
    }

    #[test]
    fn well_provisioned_system_serves_sequential_viewing() {
        let sys = small_system(24, 2.0, 4, 4, 30);
        let sim = Simulator::new(&sys, SimConfig::new(60));
        let mut gen = SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 7);
        let report = sim.run(&mut gen);
        assert_eq!(report.round_count(), 60);
        assert!(
            report.all_rounds_feasible(),
            "failures: {:?}",
            report.failures
        );
        assert!(report.total_demands > 0);
        assert_eq!(report.service_ratio(), 1.0);
        assert!(report.mean_startup_delay() >= 3.0 - 1e-9);
    }

    #[test]
    fn flash_crowd_is_absorbed_by_swarming() {
        let sys = small_system(32, 2.0, 6, 4, 40);
        let sim = Simulator::new(&sys, SimConfig::new(50));
        let mut gen = FlashCrowd::single(VideoId(0), 32, sys.m(), 1.5, 3);
        let report = sim.run(&mut gen);
        assert!(
            report.all_rounds_feasible(),
            "failures: {:?}",
            report.failures
        );
        // Late joiners must have been served largely from caches of earlier
        // joiners (swarming), not only from the k allocation replicas.
        assert!(
            report.swarming_share() > 0.2,
            "share {}",
            report.swarming_share()
        );
    }

    #[test]
    fn candidate_row_cache_replays_stable_rows() {
        let sys = small_system(24, 2.0, 4, 4, 30);
        let mut gen = SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 7);
        let mut sim = Simulator::new(&sys, SimConfig::new(40));
        while sim.round() < 40 && sim.step(&mut gen) {}
        let (hits, misses) = sim.candidate_row_cache_stats();
        assert!(misses > 0, "first sightings must build rows");
        // A stripe request stays active (same issued_at) for the whole
        // playback, so stamp-stable rows replay from the cache.
        assert!(hits > misses, "hits {hits} vs misses {misses}");
    }

    /// What one scheduled round looked like from the scheduler's side of
    /// the boundary.
    #[derive(Default)]
    struct SeenRound {
        /// `(stamp, row)` per request key.
        rows: HashMap<RequestKey, (u64, Vec<BoxId>)>,
        arena_edges: usize,
        /// The view's own counts: rows and entries as stored, and entries
        /// per request.
        stored_rows: usize,
        stored_entries: usize,
        total_entries: usize,
    }

    /// The default scheduler, leaving the last round's view where the test
    /// can read it.
    struct Probe {
        inner: MaxFlowScheduler,
        seen: std::rc::Rc<std::cell::RefCell<SeenRound>>,
    }

    impl Probe {
        fn boxed() -> (
            Box<dyn Scheduler>,
            std::rc::Rc<std::cell::RefCell<SeenRound>>,
        ) {
            let seen = std::rc::Rc::default();
            let probe = Probe {
                inner: MaxFlowScheduler::new(),
                seen: std::rc::Rc::clone(&seen),
            };
            (Box::new(probe), seen)
        }
    }

    impl Scheduler for Probe {
        fn schedule(
            &mut self,
            capacities: &[u32],
            candidates: &[Vec<BoxId>],
        ) -> Vec<Option<BoxId>> {
            self.inner.schedule(capacities, candidates)
        }

        fn schedule_keyed(
            &mut self,
            _: &[u32],
            _: &[RequestKey],
            _: &[Vec<BoxId>],
            _: &mut Vec<Option<BoxId>>,
        ) {
            unreachable!("the engine drives the view entry points");
        }

        fn schedule_keyed_view(
            &mut self,
            capacities: &[u32],
            keys: &[RequestKey],
            candidates: vod_flow::CandidateView<'_>,
            out: &mut Vec<Option<BoxId>>,
        ) {
            self.inner
                .schedule_keyed_view(capacities, keys, candidates, out);
            let mut seen = self.seen.borrow_mut();
            seen.arena_edges = self.inner.matcher().arena_edge_count();
            seen.stored_rows = candidates.stored_rows();
            seen.stored_entries = candidates.stored_entries();
            seen.total_entries = candidates.total_entries();
            seen.rows.clear();
            for (x, key) in keys.iter().enumerate() {
                let row = (candidates.row_stamp(x), candidates.row(x).to_vec());
                seen.rows.insert(*key, row);
            }
        }

        fn name(&self) -> &'static str {
            "probe"
        }
    }

    /// The stripe requests active at `now`, by asking every playback.
    fn active_requests(sim: &Simulator, now: u64) -> Vec<StripeRequest> {
        let mut requests = Vec::new();
        for b in 0..sim.system().n() as u32 {
            if let Some(st) = sim.playback(BoxId(b)) {
                requests.extend(st.active_requests(BoxId(b), now));
            }
        }
        requests
    }

    #[test]
    fn a_crowd_costs_the_matcher_its_distinct_rows_not_its_requests() {
        // One whole-population crowd: every round the arena stays within a
        // small factor of the *distinct* row entries (plus the n source
        // edges), however many requests share them, and while the crowd
        // grows a round builds rows only for the classes it creates — the
        // rows of the viewers already in are replayed.
        let n = 256;
        let sys = small_system(n, 2.0, 6, 4, 40);
        let (scheduler, seen) = Probe::boxed();
        let mut sim = Simulator::with_scheduler(&sys, SimConfig::new(100), scheduler);
        let mut gen = FlashCrowd::single(VideoId(0), n, sys.m(), 1.5, 3);
        let mut largest_class = 0;
        let mut growth_rounds = 0;
        for now in 0..100 {
            let builds_before = sim.candidate_row_cache_stats().1;
            assert!(sim.step(&mut gen), "round {now} left a request unserved");
            let seen = seen.borrow();
            let mut classes: HashMap<&[BoxId], usize> = HashMap::new();
            for (_, row) in seen.rows.values() {
                *classes.entry(row).or_default() += 1;
            }
            let distinct_entries: usize = classes.keys().map(|row| row.len()).sum();
            assert!(
                seen.arena_edges <= 4 * (distinct_entries + n),
                "round {now}: {} arena edges for {distinct_entries} distinct row entries",
                seen.arena_edges
            );
            largest_class = largest_class.max(classes.values().copied().max().unwrap_or(0));

            // No cache entry can expire before round T + 1 = 41: until
            // then every row built belongs to a class issued this round.
            if now <= 40 {
                let created: std::collections::HashSet<StripeId> = active_requests(&sim, now)
                    .iter()
                    .filter(|req| req.issued_at == now)
                    .map(|req| req.stripe)
                    .collect();
                let built = sim.candidate_row_cache_stats().1 - builds_before;
                assert!(
                    built <= created.len() as u64,
                    "round {now}: {built} rows built for {} new classes",
                    created.len()
                );
                growth_rounds += usize::from(!created.is_empty());
            }
        }
        assert!(growth_rounds > 10, "the crowd never grew");
        assert!(largest_class > 32, "largest class: {largest_class}");
    }

    #[test]
    fn a_crowd_is_stored_once_per_class_and_counted_once_per_request() {
        // One whole-population crowd, through growth, plateau and the first
        // expiries: the view stores one row per class in use — its size is
        // linear in the crowd — while `total_entries` still reads what one
        // materialised row per request would hold.
        let n = 512;
        let sys = small_system(n, 2.0, 6, 4, 20);
        let (scheduler, seen) = Probe::boxed();
        let mut sim = Simulator::with_scheduler(&sys, SimConfig::new(60), scheduler);
        let mut gen = FlashCrowd::single(VideoId(0), n, sys.m(), 1.5, 3);
        let mut most_shared = 0.0f64;
        for now in 0..60 {
            assert!(sim.step(&mut gen), "round {now} left a request unserved");
            let seen = seen.borrow();
            // A class is a build stamp: one row, however many requests.
            let mut class_rows: HashMap<u64, usize> = HashMap::new();
            for (stamp, row) in seen.rows.values() {
                let len = class_rows.entry(*stamp).or_insert(row.len());
                assert_eq!(*len, row.len(), "round {now}: stamp {stamp} names two rows");
            }
            assert_eq!(seen.stored_rows, class_rows.len(), "round {now}");
            assert_eq!(seen.stored_rows, sim.rows_in_use, "round {now}");
            let class_entries: usize = class_rows.values().sum();
            assert!(
                seen.stored_entries <= class_entries,
                "round {now}: {} entries stored for class rows of {class_entries}",
                seen.stored_entries
            );
            let materialised: usize = seen.rows.values().map(|(_, row)| row.len()).sum();
            assert_eq!(seen.total_entries, materialised, "round {now}");
            if seen.stored_entries > 0 {
                most_shared = most_shared.max(materialised as f64 / seen.stored_entries as f64);
            }
        }
        assert!(
            most_shared > 32.0,
            "never shared more than {most_shared:.1}×"
        );
    }

    /// Demands `video` for `viewer` in every round of `rounds`.
    struct Scripted(Vec<(u64, BoxId, VideoId)>);

    impl DemandGenerator for Scripted {
        fn demands_at(&mut self, round: u64, _: &dyn OccupancyView) -> Vec<VideoDemand> {
            self.0
                .iter()
                .filter(|&&(at, ..)| at == round)
                .map(|&(at, box_id, video)| VideoDemand::new(box_id, video, at))
                .collect()
        }

        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    #[test]
    fn a_redemanded_video_arrives_under_a_new_stamp() {
        // Box 0 watches video 0 from round 0 and demands it again in round
        // T, the round that playback ends: its preload stripe keeps the key
        // (viewer, stripe) from round T - 1 to round T, but the request is a
        // new one — issued at T, so the boxes that joined in between now
        // count as ahead of it. A scheduler that trusted the old stamp would
        // keep serving it from the old, shorter row.
        let duration = 12u64;
        let sys = small_system(16, 2.0, 4, 2, duration as u32);
        let (scheduler, seen) = Probe::boxed();
        let mut sim = Simulator::with_scheduler(&sys, SimConfig::new(40), scheduler);
        let mut script = vec![(0, BoxId(0), VideoId(0)), (duration, BoxId(0), VideoId(0))];
        script.extend((1..6).map(|i| (i as u64, BoxId(i), VideoId(0))));
        let mut gen = Scripted(script);
        let mut before = HashMap::new();
        for now in 0..=duration {
            assert!(sim.step(&mut gen), "round {now}");
            if now == duration - 1 {
                before = std::mem::take(&mut seen.borrow_mut().rows);
            }
        }
        let seen = seen.borrow();
        let carried: Vec<&RequestKey> = seen
            .rows
            .keys()
            .filter(|key| key.viewer == BoxId(0) && before.contains_key(key))
            .collect();
        assert_eq!(carried.len(), 1, "the preload stripe, and only it");
        let (old_stamp, old_row) = &before[carried[0]];
        let (new_stamp, new_row) = &seen.rows[carried[0]];
        assert!(new_row.len() > old_row.len(), "{old_row:?} -> {new_row:?}");
        assert_ne!(new_stamp, old_stamp);
    }

    #[test]
    fn no_requester_is_a_candidate_of_its_own_request() {
        // What lets one row serve every request for a (stripe, issue round):
        // the row never has to leave its requester out. Checked from the
        // scheduler's side on a relayed fleet — where the requester of a
        // poor box's stripe is its relay, which caches the stripe for
        // several viewers at once — and, in debug builds, by the engine's
        // own assertion on every request of every test.
        use vod_core::{Bandwidth, Catalog};
        let c: u16 = 4;
        let uploads = [0.6, 0.6, 0.6, 2.6, 2.6, 2.6, 2.6, 2.6];
        let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
        let params = SystemParams::new(boxes.len(), 1.8, 8, c, 3, 1.3, 10);
        let catalog = Catalog::uniform(4, 10, c);
        let mut rng = StdRng::seed_from_u64(9);
        let sys = VideoSystem::heterogeneous(
            params,
            boxes,
            catalog,
            &RandomPermutationAllocator::new(3),
            Some(Bandwidth::from_streams(1.2)),
            &mut rng,
        )
        .unwrap();
        let (scheduler, seen) = Probe::boxed();
        let config = SimConfig::new(60).continue_on_failure();
        let mut sim = Simulator::with_scheduler(&sys, config, scheduler);
        let mut gen = SequentialViewing::new(8, sys.m(), NextVideoPolicy::RoundRobin, 1.3, 3);
        let (mut relayed, mut shared) = (0, 0);
        for now in 0..60 {
            sim.step(&mut gen);
            let seen = seen.borrow();
            for req in active_requests(&sim, now) {
                let key = RequestKey {
                    viewer: req.viewer,
                    stripe: req.stripe,
                };
                // Self-served and suppressed requests never reach the view.
                let Some((stamp, row)) = seen.rows.get(&key) else {
                    continue;
                };
                assert!(
                    !row.contains(&req.requester),
                    "round {now}: {} is in the row of {req:?}",
                    req.requester
                );
                relayed += usize::from(req.requester != req.viewer);
                shared += seen
                    .rows
                    .iter()
                    .filter(|(other, (s, _))| **other != key && s == stamp)
                    .count();
            }
        }
        assert!(relayed > 0, "no relayed request was scheduled");
        assert!(shared > 0, "no two requests ever shared a class row");
    }

    #[test]
    fn starved_system_fails_and_reports_obstruction() {
        // u = 0.4 < 1 with a large catalog: the adversarial situation arises
        // even under benign sequential demand because upload is insufficient.
        let sys = small_system(16, 0.4, 4, 1, 30);
        let sim = Simulator::new(&sys, SimConfig::new(30));
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 1);
        let report = sim.run(&mut gen);
        assert!(!report.all_rounds_feasible());
        assert!(report.aborted);
        let failure = &report.failures[0];
        assert!(failure.unserved > 0);
        assert!(failure.obstruction_size.is_some());
        assert!(failure.obstruction_capacity.unwrap() < failure.obstruction_size.unwrap() as u64);
    }

    #[test]
    fn continue_policy_keeps_simulating_after_failures() {
        let sys = small_system(16, 0.4, 4, 1, 30);
        let sim = Simulator::new(
            &sys,
            SimConfig::new(20)
                .continue_on_failure()
                .without_obstructions(),
        );
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 1);
        let report = sim.run(&mut gen);
        assert_eq!(report.round_count(), 20);
        assert!(!report.aborted);
        assert!(!report.failures.is_empty());
        assert!(report.service_ratio() < 1.0);
        assert!(report.failures.iter().all(|f| f.obstruction_size.is_none()));
    }

    #[test]
    fn greedy_scheduler_plugs_in() {
        let sys = small_system(16, 2.5, 4, 4, 25);
        let sim =
            Simulator::with_scheduler(&sys, SimConfig::new(40), Box::new(GreedyScheduler::new()));
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::UniformRandom, 1.5, 2);
        let report = sim.run(&mut gen);
        assert!(report.round_count() > 0);
        assert!(report.service_ratio() > 0.9);
    }

    #[test]
    fn playback_records_cover_all_accepted_demands() {
        let sys = small_system(12, 2.0, 4, 4, 10);
        let sim = Simulator::new(&sys, SimConfig::new(35));
        let mut gen = SequentialViewing::new(12, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
        let report = sim.run(&mut gen);
        assert_eq!(report.playbacks.len(), report.total_demands);
        // With duration 10 and 35 rounds, boxes cycle through several videos.
        assert!(report.total_demands > 12);
    }

    #[test]
    fn occupancy_prevents_double_booking() {
        let sys = small_system(8, 2.0, 4, 4, 20);
        let sim = Simulator::new(&sys, SimConfig::new(10));
        // Generator that asks every box every round: only the first demand
        // per box per playback window may be accepted.
        let mut gen = SequentialViewing::new(8, sys.m(), NextVideoPolicy::RoundRobin, 4.0, 9);
        let report = sim.run(&mut gen);
        assert_eq!(report.total_demands, 8);
    }

    #[test]
    fn candidate_stats_track_expiry_scale() {
        // With duration 6 and steady churn, entries keep expiring; the
        // expired counts across the run must equal insertions minus what is
        // still live at the end.
        let sys = small_system(12, 2.0, 4, 4, 6);
        let mut gen = SequentialViewing::new(12, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
        let report = Simulator::new(&sys, SimConfig::new(40).continue_on_failure()).run(&mut gen);
        let inserted: usize = report
            .rounds
            .iter()
            .map(|r| r.candidates.unwrap().inserted)
            .sum();
        let expired: usize = report
            .rounds
            .iter()
            .map(|r| r.candidates.unwrap().expired)
            .sum();
        let live_at_end = report
            .rounds
            .last()
            .unwrap()
            .candidates
            .unwrap()
            .index_entries;
        assert!(inserted > 0);
        assert!(expired > 0, "no entry ever expired");
        assert_eq!(inserted - expired, live_at_end);
    }

    /// A fork continues exactly like the original: same per-round metrics,
    /// same state signatures, even though the fork's scheduler, scratch,
    /// and row cache start cold.
    #[test]
    fn fork_with_continues_bit_identically() {
        let sys = small_system(12, 2.0, 4, 4, 8);
        let make_gen = || SequentialViewing::new(12, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
        let mut original = Simulator::new(&sys, SimConfig::new(30).continue_on_failure());
        let mut gen = make_gen();
        for _ in 0..10 {
            original.step(&mut gen);
        }
        let mut fork = original.fork_with(Box::new(MaxFlowScheduler::new()));
        assert_eq!(fork.round(), original.round());
        assert_eq!(fork.state_signature(), original.state_signature());
        // Generators are stateful, so warm two fresh ones identically (each
        // against its own throwaway simulator) before driving the pair.
        let mut gen_fork = make_gen();
        let mut gen_orig = make_gen();
        let mut rewarm_a = Simulator::new(&sys, SimConfig::new(30).continue_on_failure());
        let mut rewarm_b = Simulator::new(&sys, SimConfig::new(30).continue_on_failure());
        for _ in 0..10 {
            rewarm_a.step(&mut gen_fork);
            rewarm_b.step(&mut gen_orig);
        }
        for _ in 0..10 {
            fork.step(&mut gen_fork);
            original.step(&mut gen_orig);
            assert_eq!(fork.state_signature(), original.state_signature());
            // The fork's matcher starts cold, the original's is warm: both
            // serve a maximum, from suppliers of their own choosing.
            let last = |sim: &Simulator| sim.report_so_far().rounds.last().map(|r| r.normalized());
            assert_eq!(last(&fork), last(&original));
        }
    }

    /// The full-scan oracle for the active-viewer index: bit `b` is set iff
    /// `playing[b]` is `Some`, no dead box plays, and the free list handed to
    /// generators is exactly the alive, idle boxes in ascending order —
    /// through `free_boxes`, through `free_boxes_into` over a dirty buffer,
    /// and box by box through `is_free` (`tests/active_set.rs` compares with
    /// the trait's default filter).
    fn assert_index_matches_full_scan(sim: &Simulator) {
        let n = sim.playing.len();
        assert_eq!((sim.viewers.len(), sim.alive.len()), (n, n));
        let occupancy = Occupancy {
            viewers: &sim.viewers,
            alive: &sim.alive,
        };
        assert_eq!(occupancy.box_count(), n);
        let mut free = Vec::new();
        for (idx, slot) in sim.playing.iter().enumerate() {
            assert_eq!(sim.viewers.contains(idx), slot.is_some(), "box {idx}");
            assert!(slot.is_none() || sim.alive.contains(idx), "dead box {idx}");
            let idle = slot.is_none() && sim.alive.contains(idx);
            assert_eq!(occupancy.is_free(BoxId(idx as u32)), idle, "box {idx}");
            if idle {
                free.push(BoxId(idx as u32));
            }
        }
        assert!(!occupancy.is_free(BoxId(n as u32)), "out of range is busy");
        assert_eq!(
            sim.viewers.count_ones(),
            sim.playing.iter().flatten().count()
        );
        assert_eq!(occupancy.free_boxes(), free);
        let mut pooled = vec![BoxId(7); 5];
        occupancy.free_boxes_into(&mut pooled);
        assert_eq!(pooled, free);
    }

    /// Word-boundary sizes: the index, the liveness set and the free list
    /// stay exact at `n = 1, 63, 64, 65, 130` with every box playing, with a
    /// box leaving and rejoining in consecutive rounds, and with every box
    /// dead.
    #[test]
    fn active_index_is_exact_at_word_boundary_sizes() {
        use vod_workloads::ChurnEvent;
        for n in [1usize, 63, 64, 65, 130] {
            let k = n.min(3) as u32;
            let sys = small_system(n, 2.0, 4, k, 5);
            // µ = n lets every box start at round 0.
            let mut gen =
                SequentialViewing::new(n, sys.m(), NextVideoPolicy::RoundRobin, n as f64, 7);
            let mut sim = Simulator::new(&sys, SimConfig::new(40).continue_on_failure());
            assert_index_matches_full_scan(&sim);
            sim.step(&mut gen);
            assert_eq!(sim.viewers.count_ones(), n, "n = {n}: every box plays");
            assert_eq!(sim.report_so_far().rounds[0].viewers, n);
            assert_index_matches_full_scan(&sim);

            // The last box (the last bit of the last word) leaves, misses a
            // round, and rejoins the next one.
            let last = BoxId(n as u32 - 1);
            let node = *sys.boxes().iter().nth(n - 1).unwrap();
            sim.apply_churn(ChurnEvent::Left(last));
            assert_index_matches_full_scan(&sim);
            assert_eq!(sim.alive_count(), n - 1);
            sim.step(&mut gen);
            assert_eq!(sim.report_so_far().rounds[1].viewers, n - 1);
            sim.apply_churn(ChurnEvent::Joined(node));
            assert_index_matches_full_scan(&sim);
            sim.step(&mut gen);
            assert!(sim.playback(last).is_some(), "n = {n}: rejoined box plays");
            assert_eq!(sim.report_so_far().rounds[2].viewers, n);
            // Across a whole playback generation, ends and restarts included.
            for _ in 0..8 {
                sim.step(&mut gen);
                assert_index_matches_full_scan(&sim);
            }

            // Every box dead: nothing plays, nothing is free, rounds go on.
            for b in 0..n as u32 {
                sim.apply_churn(ChurnEvent::Crashed(BoxId(b)));
            }
            assert_index_matches_full_scan(&sim);
            assert_eq!((sim.alive_count(), sim.viewers.count_ones()), (0, 0));
            sim.step(&mut gen);
            let last_round = sim.report_so_far().rounds.last().unwrap();
            assert_eq!((last_round.viewers, last_round.active_requests), (0, 0));
            let signature = sim.state_signature();
            let fork = sim.fork_with(Box::new(MaxFlowScheduler::new()));
            assert_eq!(fork.state_signature(), signature);
            let flushed = sim.report_so_far().playbacks.len();
            assert_eq!(sim.into_report().playbacks.len(), flushed);
        }
    }

    /// The index tracks the playback table bit for bit through engine-driven
    /// churn with repair and through injected faults with retries and
    /// degradation (both mutate `playing` from inside `step`).
    #[test]
    fn active_index_tracks_the_playback_table_under_churn_and_faults() {
        use vod_workloads::{ChurnModel, SessionLength};
        let sys = small_system(70, 2.0, 4, 3, 6);
        let config = SimConfig::new(80)
            .continue_on_failure()
            .without_obstructions();
        let mut churned = Simulator::new(&sys, config);
        churned.attach_churn(
            ChurnModel::new(sys.boxes(), 33)
                .with_session(SessionLength::Geometric { leave_rate: 0.03 })
                .with_crash_rate(0.01)
                .with_rejoin_delay(1, 3)
                .with_min_up(40),
        );
        churned.attach_repair(RepairPlanner::for_system(&sys, 6));
        let mut faulty = Simulator::new(&sys, config);
        faulty.attach_faults(
            FaultModel::new(sys.boxes(), 0xFA17)
                .with_degradation(0.05, vec![25, 50], 1, 3)
                .with_drop_rate(60_000, 20_000),
        );
        faulty.attach_degradation(DegradationConfig::default());
        for mut sim in [churned, faulty] {
            let mut gen =
                SequentialViewing::new(70, sys.m(), NextVideoPolicy::UniformRandom, 1.5, 5);
            for _ in 0..80 {
                sim.step(&mut gen);
                assert_index_matches_full_scan(&sim);
            }
            assert!(sim.report_so_far().playbacks.len() > 70, "viewers cycled");
        }
    }

    /// The state signature is insensitive to the scheduler: the matcher
    /// and the naive scheduler walk through identical signatures on the
    /// same demand sequence.
    #[test]
    fn state_signature_agrees_across_pipelines() {
        let sys = small_system(12, 2.0, 4, 4, 8);
        let config = SimConfig::new(20).continue_on_failure();
        let make_gen = || SequentialViewing::new(12, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
        let mut incremental =
            Simulator::with_scheduler(&sys, config, Box::new(MaxFlowScheduler::new()));
        let mut naive = Simulator::with_scheduler(&sys, config, Box::new(NaiveScheduler::new()));
        let (mut g1, mut g2) = (make_gen(), make_gen());
        for round in 0..20 {
            incremental.step(&mut g1);
            naive.step(&mut g2);
            let sig = incremental.state_signature();
            assert_eq!(sig, naive.state_signature(), "round {round}");
        }
    }

    /// The faults-off identity gate at unit scale: attaching a zero-rate
    /// fault model (which also attaches a delivery tracker) must leave
    /// every state signature and every scheduling outcome bit-identical
    /// to the plain engine — the tracker only *observes* until a hazard
    /// is configured.
    #[test]
    fn zero_rate_fault_model_keeps_the_schedule_bit_identical() {
        let sys = small_system(24, 2.0, 4, 4, 30);
        let make_gen = || SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 7);
        let mut plain = Simulator::new(&sys, SimConfig::new(40).continue_on_failure());
        let mut faulty = Simulator::new(&sys, SimConfig::new(40).continue_on_failure());
        faulty.attach_faults(FaultModel::new(sys.boxes(), 0x1DEA));
        let (mut g1, mut g2) = (make_gen(), make_gen());
        for round in 0..40 {
            plain.step(&mut g1);
            faulty.step(&mut g2);
            assert_eq!(
                plain.state_signature(),
                faulty.state_signature(),
                "round {round}"
            );
        }
        let plain = plain.into_report();
        let faulty = faulty.into_report();
        for (a, b) in plain.rounds.iter().zip(&faulty.rounds) {
            assert_eq!(
                (a.served, a.unserved),
                (b.served, b.unserved),
                "round {}",
                a.round
            );
        }
        let summary = faulty.delivery.expect("tracker was attached");
        assert_eq!(summary.dropped + summary.timed_out, 0);
        assert_eq!(summary.delivered, faulty.total_served());
        assert!(plain.delivery.is_none());
    }

    /// Fault trajectories are scheduler-invariant: the same seeded fault
    /// model (capacity windows, drops, surges) plus retry and degradation
    /// drives the matcher and the naive scheduler through identical states
    /// and scheduling outcomes.
    #[test]
    fn pipelines_agree_under_injected_faults() {
        let sys = small_system(16, 2.0, 4, 4, 10);
        let config = SimConfig::new(30)
            .continue_on_failure()
            .without_obstructions();
        let make_gen = || SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
        let make_faults = || {
            FaultModel::new(sys.boxes(), 0xFA17)
                .with_degradation(0.05, vec![25, 50], 1, 3)
                .with_flapping(0.03, 1, 2)
                .with_drop_rate(60_000, 20_000)
                .with_drop_surges(0.05, 200_000, 1, 3)
        };
        let mut sims = vec![
            Simulator::with_scheduler(&sys, config, Box::new(MaxFlowScheduler::new())),
            Simulator::with_scheduler(&sys, config, Box::new(NaiveScheduler::new())),
        ];
        for sim in &mut sims {
            sim.attach_faults(make_faults());
            sim.attach_degradation(DegradationConfig::default());
        }
        let mut gens: Vec<_> = (0..sims.len()).map(|_| make_gen()).collect();
        for round in 0..30 {
            for (sim, gen) in sims.iter_mut().zip(&mut gens) {
                sim.step(gen);
            }
            let sig = sims[0].state_signature();
            for sim in &sims[1..] {
                assert_eq!(sig, sim.state_signature(), "round {round}");
            }
            let last = sims[0].report_so_far().rounds.last().cloned();
            for sim in &sims[1..] {
                let other = sim.report_so_far().rounds.last().cloned();
                assert_eq!(
                    last.as_ref()
                        .map(|r| (r.served, r.unserved, r.delivery, r.degradation)),
                    other
                        .as_ref()
                        .map(|r| (r.served, r.unserved, r.delivery, r.degradation)),
                    "round {round}"
                );
            }
        }
        let report = sims.remove(0).into_report();
        let summary = report.delivery.expect("tracker attached");
        assert!(
            summary.dropped + summary.timed_out > 0,
            "hazards never fired"
        );
    }

    /// Dropped deliveries re-enter the schedule as retries and the
    /// affected playbacks still finish: with a generous retry policy no
    /// stream is abandoned, while the no-retry baseline abandons every
    /// stream its first drop touches.
    #[test]
    fn retries_recover_dropped_deliveries() {
        let sys = small_system(24, 2.0, 4, 4, 30);
        let run = |policy: DeliveryPolicy| {
            let mut sim = Simulator::new(&sys, SimConfig::new(60).continue_on_failure());
            sim.attach_faults(FaultModel::new(sys.boxes(), 0xD0_5E).with_drop_rate(120_000, 0));
            sim.attach_delivery(policy);
            let mut gen = SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 7);
            while sim.round() < 60 {
                sim.step(&mut gen);
            }
            sim.into_report()
        };
        let retrying = run(DeliveryPolicy::default());
        let summary = retrying.delivery.expect("tracker attached");
        assert!(summary.dropped > 0, "the drop hazard never fired");
        assert!(summary.retries > 0, "drops must come back as retries");
        assert_eq!(summary.abandoned, 0, "generous policy never abandons");

        let no_retry = run(DeliveryPolicy::no_retry());
        let summary = no_retry.delivery.expect("tracker attached");
        assert!(summary.abandoned > 0, "no-retry abandons on first drop");
        assert_eq!(summary.retries, 0, "no-retry never re-enters");
        // Abandoned streams stop requesting, so the no-retry run delivers
        // measurably less than the retrying run.
        assert!(
            no_retry.total_served() < retrying.total_served(),
            "no-retry {} vs retrying {}",
            no_retry.total_served(),
            retrying.total_served()
        );
    }

    /// The degradation controller sheds new admissions under sustained
    /// infeasibility and re-admits when headroom returns, without ever
    /// flapping round-to-round.
    #[test]
    fn degradation_sheds_and_readmits_with_hysteresis() {
        // u = 0.4 < 1: chronically infeasible under sustained demand.
        let sys = small_system(16, 0.4, 4, 1, 30);
        let mut sim = Simulator::new(
            &sys,
            SimConfig::new(60)
                .continue_on_failure()
                .without_obstructions(),
        );
        sim.attach_degradation(DegradationConfig {
            enter_ppm: 100_000,
            exit_ppm: 20_000,
            window: 4,
            cooldown: 3,
            min_stripes: 2,
        });
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 1);
        while sim.round() < 60 {
            sim.step(&mut gen);
        }
        let report = sim.into_report();
        let degraded: Vec<bool> = report
            .rounds
            .iter()
            .map(|r| r.degradation.expect("controller attached").degraded)
            .collect();
        assert!(degraded.iter().any(|&d| d), "never entered degraded mode");
        let shed: u64 = report
            .rounds
            .iter()
            .map(|r| r.degradation.unwrap().shed_demands as u64)
            .sum();
        let suppressed: u64 = report
            .rounds
            .iter()
            .map(|r| r.degradation.unwrap().suppressed_stripes as u64)
            .sum();
        assert!(shed > 0, "degraded mode must shed admissions");
        assert!(suppressed > 0, "partial service must suppress tail stripes");
        // No round-to-round flap: every switch persists for at least the
        // cooldown's worth of rounds.
        let mut last_switch = 0usize;
        for i in 1..degraded.len() {
            if degraded[i] != degraded[i - 1] {
                assert!(
                    i - last_switch >= 3 || last_switch == 0,
                    "mode flapped at round {i}"
                );
                last_switch = i;
            }
        }
    }

    /// An upload change through the engine refreshes the live slot table
    /// used by subsequent scheduling rounds.
    #[test]
    fn apply_relay_event_refreshes_capacities() {
        use vod_core::{Bandwidth, Catalog};
        let c: u16 = 4;
        let uploads = [0.6, 0.6, 2.6, 2.6, 2.6];
        let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
        let params = SystemParams::new(boxes.len(), 1.8, 8, c, 3, 1.3, 20);
        let catalog = Catalog::uniform(4, 20, c);
        let mut rng = StdRng::seed_from_u64(9);
        let sys = VideoSystem::heterogeneous(
            params,
            boxes,
            catalog,
            &RandomPermutationAllocator::new(3),
            Some(Bandwidth::from_streams(1.2)),
            &mut rng,
        )
        .unwrap();
        let mut sim = Simulator::new(&sys, SimConfig::new(20).continue_on_failure());
        let mut gen = SequentialViewing::new(5, sys.m(), NextVideoPolicy::RoundRobin, 1.2, 3);
        for _ in 0..3 {
            sim.step(&mut gen);
        }
        let before = sim.upload_slots(BoxId(4));
        sim.apply_relay_event(RelayEvent::UploadChanged(
            BoxId(4),
            Bandwidth::from_streams(3.4),
        ))
        .unwrap();
        let after = sim.upload_slots(BoxId(4));
        assert!(after > before, "{after} vs {before}");
        let broker = sim.relay_broker().unwrap();
        for idx in 0..5u32 {
            assert_eq!(
                sim.upload_slots(BoxId(idx)),
                broker.open_upload_slots(BoxId(idx))
            );
        }
        // The run continues cleanly on the refreshed table.
        for _ in 0..5 {
            sim.step(&mut gen);
        }
        assert_eq!(sim.round(), 8);
    }

    /// Staleness regression: the round a box leaves, it is gone from every
    /// live structure — liveness, capacities, the live allocation table,
    /// and the candidate index. Its playback-cache entries must not linger
    /// as candidate rows until cache expiry, and a later rejoin must not
    /// claim replicas the box no longer stores.
    #[test]
    fn departed_box_is_purged_the_round_it_leaves() {
        use vod_workloads::ChurnEvent;
        let sys = small_system(16, 2.0, 4, 4, 20);
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 11);
        let mut sim = Simulator::new(&sys, SimConfig::new(40).continue_on_failure());
        for _ in 0..6 {
            sim.step(&mut gen);
        }
        let gone = BoxId(3);
        let held_before: Vec<StripeId> = sim
            .live_placement()
            .stripes()
            .filter(|(_, holders)| holders.contains(&gone))
            .map(|(stripe, _)| stripe)
            .collect();
        assert!(!held_before.is_empty(), "box 3 held no replicas");
        let cached = |sim: &Simulator| {
            let entries = sim.candidates.iter_live();
            entries.filter(|&(_, b, _)| b == gone).count()
        };
        assert!(cached(&sim) > 0, "box 3 cached nothing");

        sim.apply_churn(ChurnEvent::Left(gone));
        // Purged immediately — not at cache expiry, not at the next round.
        assert!(!sim.is_alive(gone));
        assert_eq!(sim.alive_count(), 15);
        assert_eq!(sim.upload_slots(gone), 0);
        for (stripe, holders) in sim.live_placement().stripes() {
            assert!(!holders.contains(&gone), "{stripe} still lists box 3");
        }
        assert_eq!(cached(&sim), 0, "box 3's cache entries outlived it");

        // The box rejoins with fresh capacity but WITHOUT its old replicas
        // (nothing re-replicated them): candidate rows must not offer it as
        // a supplier of stripes it no longer stores.
        let node = *sys.boxes().iter().nth(gone.index()).unwrap();
        sim.apply_churn(ChurnEvent::Joined(node));
        assert!(sim.is_alive(gone));
        assert!(sim.upload_slots(gone) > 0);
        for &stripe in &held_before {
            assert!(!sim.live_placement().stores(gone, stripe));
        }
        // Nor does any cache entry from before the departure come back.
        let rejoined_at = sim.round();
        for _ in 0..10 {
            sim.step(&mut gen);
            for (stripe, b, start) in sim.candidates.iter_live() {
                assert!(
                    b != gone || start >= rejoined_at,
                    "{stripe}: box 3's entry from round {start} is back"
                );
            }
        }
    }

    /// Engine-driven churn with repair: membership changes interleave with
    /// admissions, the repair planner re-replicates under its budget, and
    /// the whole process is deterministic — two runs from the same seeds
    /// produce bit-identical reports, and every surviving replica is held
    /// by a live box.
    #[test]
    fn engine_churn_with_repair_recovers_replication() {
        use vod_workloads::{ChurnModel, SessionLength};
        let sys = small_system(24, 2.0, 4, 3, 12);
        let run = || {
            let mut sim = Simulator::new(&sys, SimConfig::new(50).continue_on_failure());
            sim.attach_churn(
                ChurnModel::new(sys.boxes(), 77)
                    .with_session(SessionLength::Geometric { leave_rate: 0.03 })
                    .with_rejoin_delay(3, 6)
                    .with_min_up(16),
            );
            sim.attach_repair(RepairPlanner::for_system(&sys, 6));
            let mut gen = SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
            for _ in 0..50 {
                sim.step(&mut gen);
            }
            sim
        };
        let sim = run();
        let planner = sim.repair_planner().unwrap();
        assert!(planner.repaired_total() > 0, "churn never exercised repair");
        let report = sim.report_so_far();
        let repaired: u64 = report
            .rounds
            .iter()
            .filter_map(|r| r.repair)
            .map(|r| r.repaired as u64)
            .sum();
        assert_eq!(repaired, planner.repaired_total());
        // Departed boxes hold nothing; every holder is live.
        for (stripe, holders) in sim.live_placement().stripes() {
            for &b in holders {
                assert!(sim.is_alive(b), "dead box {b} still holds {stripe}");
            }
        }
        // Bit-identical replay from the same seeds.
        let twin = run();
        assert_eq!(sim.state_signature(), twin.state_signature());
        assert_eq!(report, twin.report_so_far());
    }

    /// The live-population loop keeps the scheduler equivalence intact:
    /// with the same seeded churn process and repair planner attached, the
    /// matcher's and the naive scheduler's engines walk through identical
    /// state signatures, and the naive engine serves exactly as many
    /// requests per round as the matcher's.
    #[test]
    fn pipelines_agree_under_engine_driven_churn() {
        use vod_workloads::{ChurnModel, SessionLength};
        let sys = small_system(16, 2.0, 4, 3, 10);
        let config = SimConfig::new(30).continue_on_failure();
        let churn = || {
            ChurnModel::new(sys.boxes(), 19)
                .with_session(SessionLength::Geometric { leave_rate: 0.04 })
                .with_crash_rate(0.01)
                .with_rejoin_delay(2, 4)
                .with_min_up(10)
        };
        let make_gen = || SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
        let mut inc = Simulator::new(&sys, config);
        let mut naive = Simulator::with_scheduler(&sys, config, Box::new(NaiveScheduler::new()));
        for sim in [&mut inc, &mut naive] {
            sim.attach_churn(churn());
            sim.attach_repair(RepairPlanner::for_system(&sys, 4));
        }
        let (mut g1, mut g2) = (make_gen(), make_gen());
        for round in 0..30 {
            inc.step(&mut g1);
            naive.step(&mut g2);
            assert_eq!(
                inc.state_signature(),
                naive.state_signature(),
                "round {round}"
            );
        }
        let (global, reference) = (inc.report_so_far(), naive.report_so_far());
        for (a, b) in global.rounds.iter().zip(&reference.rounds) {
            assert_eq!(a.served, b.served, "round {}", a.round);
            assert_eq!(a.unserved, b.unserved, "round {}", a.round);
            assert_eq!(a.repair, b.repair, "round {}", a.round);
        }
        assert!(
            global
                .rounds
                .iter()
                .any(|r| r.repair.is_some_and(|s| s.repaired > 0)),
            "churn never exercised repair"
        );
    }
}
