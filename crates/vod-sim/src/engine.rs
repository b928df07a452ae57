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
//!    request is unserved the round is infeasible: its obstruction (the
//!    Hall violator of Lemma 1's min cut) is read off the round's own
//!    assignment by one alternating search ([`HallCut`]; no flow network,
//!    no second solve) and the run either aborts or keeps counting stalls,
//!    per the failure policy.
//!
//! A [`Simulator`] is three parts. The *round state* is the model and the
//! report: [`Simulator::fork_with`] copies exactly it and
//! [`Simulator::state_signature`] reads only it. The *round scratch* —
//! pooled buffers, generation marks, the Lemma-1 cut reader, the class-row
//! memo — is nothing a round's outcome depends on, so a fork starts with
//! fresh scratch. The *handles* are the system, the configuration, the
//! scheduler and the tracer. Stages borrow state and scratch separately,
//! and hand later stages values, not fields.

use crate::candidates::{CandidateIndex, CandidateStats};
use crate::class_rows::ClassRows;
use crate::delivery::{
    Admission, DegradationConfig, DegradationController, DeliveryOutcome, DeliveryPolicy,
    DeliverySummary, DeliveryTracker,
};
use crate::hall_cut::HallCut;
use crate::ledger::CapacityLedger;
use crate::metrics::{FailureRecord, PlaybackRecord, RoundMetrics, SimulationReport};
use crate::repair::{RepairPlanner, RepairRoundStats};
use crate::request::{
    direct_stripe_budget, homogeneous_plan, poor_plan, rich_plan, PlaybackState, StripeRequest,
};
use crate::scheduler::{MaxFlowScheduler, RelayBroker, RelayEvent, Scheduler};
use crate::swarm::SwarmTracker;
use std::borrow::Cow;
use vod_core::{BoxId, Placement, SortedSignature, StripeId, VideoId, VideoSystem};
use vod_flow::bitset::{for_each_bit_of_word, for_each_set_bit};
use vod_flow::BitSet;
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
}

impl SimConfig {
    /// Configuration simulating `max_rounds` rounds with the default policy.
    pub fn new(max_rounds: u64) -> Self {
        SimConfig {
            max_rounds,
            failure_policy: FailurePolicy::Abort,
        }
    }

    /// Switches to the stall-and-continue failure policy.
    pub fn continue_on_failure(mut self) -> Self {
        self.failure_policy = FailurePolicy::Continue;
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
    /// `alive & !viewers`, 64 boxes per step; an all-free word (the common
    /// one on an idle fleet) is one range. Padding bits are zero, so only
    /// words wholly inside the fleet can be all free.
    fn free_boxes_into(&self, out: &mut Vec<BoxId>) {
        out.clear();
        let words = self.alive.words().iter().zip(self.viewers.words());
        for (wi, (&alive, &viewing)) in words.enumerate() {
            match alive & !viewing {
                u64::MAX => {
                    let first = wi as u32 * 64;
                    out.extend((first..first + 64).map(BoxId));
                }
                free => for_each_bit_of_word(wi, free, |idx| out.push(BoxId(idx as u32))),
            }
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

/// One open fault window: `box_id` keeps `pct` % of its at-rest budget
/// until round `until` (0 = until restored).
#[derive(Clone, Copy, Debug)]
struct FaultWindow {
    box_id: BoxId,
    pct: u8,
    until: u64,
}

/// The behavioural state of a run: everything the future of the
/// simulation depends on, plus the report it has produced. A fork is a
/// clone of it.
#[derive(Clone)]
struct RoundState<'a> {
    round: u64,
    playing: Vec<Option<PlaybackState>>,
    /// The active-viewer index: bit `b` is set iff `playing[b]` is `Some`.
    /// Every per-round walk over the viewers (playback end, request
    /// collection, the viewer count, the free list handed to generators)
    /// visits set bits in ascending box order instead of all `n` slots.
    /// Written only where `playing` is: [`RoundState::start_playback`] and
    /// [`RoundState::end_playback`].
    viewers: BitSet,
    /// Which boxes hold which stripe in their playback cache, and since
    /// when (the expiry-wheel index).
    candidates: CandidateIndex,
    swarms: SwarmTracker,
    /// Stall-round counters for in-flight playbacks.
    stalls: Vec<u64>,
    /// The *live* allocation table: the system's static placement,
    /// borrowed until its first change and copied then — departures strip
    /// a box's replicas the round it leaves, repair adds them back. Every
    /// candidate row, self-serve check, and sourcing/swarming attribution
    /// reads this table. A run without departures or repairs, and every
    /// fork of it, shares the system's table.
    placement: Cow<'a, Placement>,
    /// Liveness per box: cleared by a leave/crash until rejoin.
    alive: BitSet,
    /// Per-box upload-slot budgets and their only writer: at rest they are
    /// the system's `⌊u_b·c⌋` net of relay reservations, set by churn and
    /// by broker resyncs; within a round they carry the fault-window and
    /// repair-transfer holds, all released when the round closes.
    ledger: CapacityLedger,
    /// The relay subsystem, when the system carries a compensation plan:
    /// owns the live reservation table and per-relay utilization counters.
    relay_broker: Option<RelayBroker>,
    /// Engine-driven churn process, when attached: drained every round
    /// inside [`Simulator::step`] so membership changes interleave with
    /// admissions.
    churn: Option<ChurnModel>,
    /// Stripe repair planner, when attached: plans budgeted re-replication
    /// before each round is scheduled and commits after.
    repair: Option<RepairPlanner>,
    /// Engine-driven fault process, when attached: drained every round
    /// right after churn, so transient capacity loss is held on the same
    /// ledger the repair planner and the scheduler read.
    faults: Option<FaultModel>,
    /// The open fault windows, at most one per box, in no particular
    /// order. Empty is the faults-off path: the drain then costs nothing.
    fault_windows: Vec<FaultWindow>,
    /// Delivery-reliability state machine, when attached: resolves every
    /// scheduled connection into an outcome and runs the retry queue.
    delivery: Option<DeliveryTracker>,
    /// Graceful-degradation controller, when attached: sheds load under
    /// sustained infeasibility, with hysteresis.
    degrade: Option<DegradationController>,
    report: SimulationReport,
}

/// Pooled per-round buffers and memos: no round's outcome depends on them.
struct RoundScratch {
    churn_events: Vec<ChurnEvent>,
    fault_events: Vec<FaultEvent>,
    demands: Vec<VideoDemand>,
    /// The round's active requests, the candidate rows built for them
    /// (with their keys), the scheduler's assignment, and per-relay
    /// forwarding loads.
    requests: Vec<StripeRequest>,
    rows: ClassRows,
    assignment: Vec<Option<BoxId>>,
    relay_loads: Vec<u32>,
    /// The round's failed videos, and per-round generation marks that
    /// dedup stalled viewers, failed videos and rebuffering viewers.
    failed_videos: Vec<VideoId>,
    viewer_mark: Vec<u64>,
    video_mark: Vec<u64>,
    rebuffer_mark: Vec<u64>,
    /// Scratch for the debug-only assignment validity check.
    dbg_loads: Vec<u32>,
    /// Scratch for reading the Lemma-1 cut of a failing round.
    hall_cut: HallCut,
}

/// The round-based protocol simulator.
pub struct Simulator<'a> {
    system: &'a VideoSystem,
    config: SimConfig,
    scheduler: Box<dyn Scheduler>,
    /// Round-pipeline span sink. Off by default: every span site goes
    /// through a `TraceHandle` whose disabled path is a single `Option`
    /// check (no clock read, no lock), so untraced runs pay nothing.
    tracer: TraceHandle,
    state: RoundState<'a>,
    scratch: RoundScratch,
}

impl<'a> RoundState<'a> {
    fn new(system: &'a VideoSystem, max_rounds: u64) -> Self {
        let n = system.n();
        let mut report = SimulationReport::default();
        // Bounded pre-reservation keeps steady-state rounds free of metric
        // reallocation (the zero-alloc engine contract); very long runs
        // amortize the occasional growth as usual.
        report
            .rounds
            .reserve(usize::try_from(max_rounds).unwrap_or(0).min(4096));
        let mut viewers = BitSet::new();
        viewers.reset(n);
        RoundState {
            round: 0,
            playing: vec![None; n],
            viewers,
            candidates: CandidateIndex::new(system.duration() as u64, system.c()),
            swarms: SwarmTracker::new(system.c()),
            stalls: vec![0; n],
            placement: Cow::Borrowed(system.placement()),
            alive: BitSet::ones(n),
            ledger: CapacityLedger::new(
                (0..n as u32)
                    .map(|i| system.upload_slots(BoxId(i)))
                    .collect(),
            ),
            // Heterogeneous systems get the relay subsystem: the broker
            // mirrors the system's compensation plan and manages it as live
            // structure.
            relay_broker: system
                .compensation()
                .map(|plan| RelayBroker::from_plan(plan.clone(), system.boxes(), system.c())),
            churn: None,
            repair: None,
            faults: None,
            fault_windows: Vec::new(),
            delivery: None,
            degrade: None,
            report,
        }
    }

    /// See [`Simulator::state_signature`].
    fn signature(&self) -> u64 {
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
        for (idx, cap) in self.ledger.slots().iter().enumerate() {
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
        for w in &self.fault_windows {
            sig.push(&(11u8, w.box_id.index() as u32, w.pct, w.until));
        }
        if let Some(tracker) = &self.delivery {
            tracker.push_signature(&mut sig);
        }
        if let Some(ctrl) = &self.degrade {
            ctrl.push_signature(&mut sig);
        }
        sig.finish()
    }

    /// See [`Simulator::apply_churn`]; a relay re-plan is traced on
    /// `tracer`.
    fn apply_churn(&mut self, system: &VideoSystem, tracer: &TraceHandle, event: ChurnEvent) {
        match event {
            ChurnEvent::Joined(node) => {
                assert!(
                    node.id.index() < self.playing.len(),
                    "box {} joined outside the original universe of {} boxes",
                    node.id,
                    self.playing.len()
                );
                self.alive.set(node.id.index());
            }
            ChurnEvent::Left(id) | ChurnEvent::Crashed(id) => self.detach_box(id),
            ChurnEvent::UploadChanged(..) => {}
        }
        if let Some(broker) = &mut self.relay_broker {
            // Re-plan the reservations the event touches, then resync the
            // ledger from the live plan.
            let clock = tracer.begin();
            let result = broker.apply(match event {
                ChurnEvent::Joined(node) => RelayEvent::BoxJoined(node),
                ChurnEvent::Left(id) | ChurnEvent::Crashed(id) => RelayEvent::BoxLeft(id),
                ChurnEvent::UploadChanged(id, upload) => RelayEvent::UploadChanged(id, upload),
            });
            let moves = result.map_or(0, |deltas| deltas.len() as u64);
            tracer.end(clock, Stage::RelayReplan, moves);
            // The one place a relayed system's at-rest budgets move: every
            // box's budget becomes its open slots under the live plan
            // (departed boxes drop to zero, freed or grown reservations
            // open slots).
            for idx in 0..self.ledger.slots().len() {
                let b = BoxId(idx as u32);
                self.ledger.set(b, broker.open_upload_slots(b));
            }
            return;
        }
        let slots = match event {
            ChurnEvent::Joined(node) => node.upload.stripe_slots(system.c()),
            ChurnEvent::Left(_) | ChurnEvent::Crashed(_) => 0,
            ChurnEvent::UploadChanged(_, upload) => upload.stripe_slots(system.c()),
        };
        self.ledger.set(event.box_id(), slots);
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
        let lost = self.placement.to_mut().remove_box(id);
        for &stripe in &lost {
            self.candidates.touch(stripe);
        }
        if let Some(planner) = &mut self.repair {
            planner.note_lost(&lost);
        }
    }

    /// See [`Simulator::apply_fault`].
    fn apply_fault(&mut self, event: FaultEvent) {
        if let Some(box_id) = event.box_id() {
            assert!(
                box_id.index() < self.playing.len(),
                "fault event targets box {} outside the universe of {} boxes",
                box_id,
                self.playing.len()
            );
        }
        match event {
            FaultEvent::Degraded { box_id, pct, until } => self.open_window(box_id, pct, until),
            FaultEvent::Stalled { box_id, until } => self.open_window(box_id, 0, until),
            FaultEvent::Restored { box_id } => self.open_window(box_id, 100, 0),
            FaultEvent::DropSurge { add_ppm, until } => {
                if let Some(tracker) = &mut self.delivery {
                    tracker.apply_surge(add_ppm, until);
                }
            }
        }
    }

    /// Replaces `box_id`'s open fault window with one keeping `pct` % of
    /// its budget until round `until` (0 = until restored). A full-budget
    /// window that never closes is no window at all.
    fn open_window(&mut self, box_id: BoxId, pct: u8, until: u64) {
        self.fault_windows.retain(|w| w.box_id != box_id);
        if pct != 100 || until != 0 {
            self.fault_windows.push(FaultWindow { box_id, pct, until });
        }
    }

    /// Opens the round for the delivery tracker and the degradation
    /// controller, drains the attached fault model's events for `now`
    /// (through the pooled `events`), expires the fault windows whose round
    /// has come, and holds each open window's loss `cap − ⌊cap·pct/100⌋` on
    /// the ledger. Returns the upload slots held. O(open windows), not O(n).
    fn drain_faults(&mut self, now: u64, events: &mut Vec<FaultEvent>) -> u64 {
        if let Some(tracker) = &mut self.delivery {
            tracker.begin_round(now);
        }
        if let Some(ctrl) = &mut self.degrade {
            ctrl.begin_round(now);
        }
        if let Some(faults) = &mut self.faults {
            faults.events_into(now, events);
            for event in events.drain(..) {
                self.apply_fault(event);
            }
        }
        self.fault_windows.retain(|w| w.until == 0 || w.until > now);
        let mut lost = 0u64;
        for w in &self.fault_windows {
            if w.pct < 100 {
                let cap = self.ledger.slots()[w.box_id.index()];
                let loss = cap - (cap as u64 * w.pct as u64 / 100) as u32;
                self.ledger.hold(w.box_id, loss);
                lost += loss as u64;
            }
        }
        lost
    }

    /// Plans this round's repair transfers and holds one upload slot on
    /// each transfer's source, so serving and repair compete for the same
    /// `⌊u_b·c⌋` budgets. The plan reads only scheduler-invariant state
    /// (live placement, liveness, the post-fault ledger) — never the
    /// assignment — keeping placement evolution bit-identical across
    /// schedulers.
    fn plan_repairs(&mut self) -> Option<RepairRoundStats> {
        let planner = self.repair.as_mut()?;
        let stats = planner.plan_round(&self.placement, &self.alive, self.ledger.slots());
        for t in planner.transfers() {
            self.ledger.hold(t.source, 1);
        }
        Some(stats)
    }

    /// Commits the round's planned repairs: lands the new replicas in the
    /// live placement, bumping the repaired stripes' candidate stamps so
    /// next round's rows rebuild. (The transfer holds end with the round's
    /// [`CapacityLedger::release`].)
    fn commit_repairs(&mut self) {
        let Some(planner) = &mut self.repair else {
            return;
        };
        if planner.transfers().is_empty() {
            return; // nothing lands: the placement stays shared
        }
        for t in planner.transfers() {
            self.candidates.touch(t.stripe);
        }
        planner.commit(self.placement.to_mut());
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

    /// Pulls the round's demands from `generator` into the pooled `demands`
    /// and admits them, returning how many were accepted.
    fn accept_demands(
        &mut self,
        system: &VideoSystem,
        generator: &mut dyn DemandGenerator,
        now: u64,
        demands: &mut Vec<VideoDemand>,
    ) -> usize {
        let occupancy = Occupancy {
            viewers: &self.viewers,
            alive: &self.alive,
        };
        generator.demands_into(now, &occupancy, demands);
        let mut accepted = 0;
        for demand in demands.drain(..) {
            let idx = demand.box_id.index();
            if idx >= self.playing.len()
                || self.playing[idx].is_some()
                || !self.alive.contains(idx)
                || system.catalog().video(demand.video).is_none()
            {
                self.report.rejected_demands += 1;
                continue;
            }
            // Degraded mode sheds new admissions deterministically:
            // existing playbacks' continuity outranks new entrants.
            if let Some(ctrl) = self.degrade.as_mut().filter(|c| c.shedding()) {
                self.report.rejected_demands += 1;
                ctrl.note_shed();
                continue;
            }
            self.start_playback(system, demand.box_id, demand.video, now);
            accepted += 1;
        }
        self.report.total_demands += accepted;
        accepted
    }

    fn start_playback(&mut self, system: &VideoSystem, box_id: BoxId, video: VideoId, now: u64) {
        let c = system.c();
        let preload = self.swarms.join(video, box_id, now);
        let duration = system.duration() as u64;
        let mu = system.params().swarm_growth;

        // Plans consult the *live* plan when the relay subsystem is active
        // (the broker starts as a mirror of the system's static plan, so
        // behaviour is unchanged until a churn event is applied through
        // [`Simulator::apply_churn`]). A poor box whose relay could
        // not be re-placed after churn falls back to the direct rich plan.
        let (plan, playback_starts_at) = match &self.relay_broker {
            None => homogeneous_plan(c, preload, now),
            Some(broker) => {
                let upload = broker
                    .node(box_id)
                    .map(|n| n.upload)
                    .unwrap_or_else(|| system.boxes().get(box_id).upload);
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

    /// Collects the round's active stripe requests into `out`, returning
    /// the number of requests served from the requester's own static
    /// storage (no connection needed). With a delivery tracker attached,
    /// each request first consults the retry queue: a stream in backoff (or
    /// abandoned) is suppressed this round, an expired backoff re-enters as
    /// a first-class request. With partial service active, tail stripes
    /// (`index ≥ c'`) are suppressed without counting as stalls.
    ///
    /// The requests come out in strictly ascending
    /// [`RequestKey`](crate::scheduler::RequestKey) order —
    /// `(viewer, video, stripe index)` — because viewers are walked by bit
    /// and a playback's stripes in plan order. The class-row memo and the
    /// matcher merge each round against the last in that order, so a
    /// surviving request finds its class without a hash probe.
    fn collect_requests(&mut self, now: u64, out: &mut Vec<StripeRequest>) -> usize {
        out.clear();
        let stripe_limit = self
            .degrade
            .as_ref()
            .and_then(DegradationController::active_stripe_limit);
        let mut suppressed = 0usize;
        let mut self_served = 0usize;
        let placement: &Placement = &self.placement;
        for_each_set_bit(self.viewers.words(), |idx| {
            let st = self.playing[idx].as_ref().expect("indexed viewer plays");
            st.for_each_active(BoxId(idx as u32), now, |req| {
                if placement.stores(req.requester, req.stripe) {
                    self_served += 1;
                } else if stripe_limit.is_some_and(|limit| req.stripe.index >= limit) {
                    suppressed += 1;
                } else {
                    match self
                        .delivery
                        .as_mut()
                        .map_or(Admission::Emit, |t| t.admit(req.viewer, req.stripe, now))
                    {
                        Admission::Emit | Admission::Retry => out.push(req),
                        Admission::Suppress => {}
                    }
                }
            });
        });
        if suppressed > 0 {
            self.degrade
                .as_mut()
                .expect("stripe_limit came from the controller")
                .note_suppressed(suppressed);
        }
        self_served
    }

    /// Consumes the state into the final report: flushes in-flight
    /// playbacks and the relay utilization profile.
    fn into_report(mut self, tracer: &TraceHandle) -> SimulationReport {
        self.report.profile = tracer.run_profile();
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
}

impl RoundScratch {
    fn new(system: &VideoSystem) -> Self {
        let n = system.n();
        RoundScratch {
            churn_events: Vec::new(),
            fault_events: Vec::new(),
            demands: Vec::new(),
            requests: Vec::new(),
            rows: ClassRows::new(n, system.duration() as u64),
            assignment: Vec::new(),
            relay_loads: Vec::new(),
            failed_videos: Vec::new(),
            viewer_mark: vec![0; n],
            video_mark: vec![0; system.m()],
            rebuffer_mark: vec![0; n],
            dbg_loads: Vec::new(),
            hall_cut: HallCut::new(),
        }
    }
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
        Simulator {
            system,
            config,
            scheduler,
            tracer: TraceHandle::off(),
            state: RoundState::new(system, config.max_rounds),
            scratch: RoundScratch::new(system),
        }
    }

    /// Attaches a recording trace handle: from the next [`Simulator::step`]
    /// on, every pipeline stage emits timing spans into it. Per-round aggregates land in
    /// [`RoundMetrics::timing`](crate::metrics::RoundMetrics::timing) and
    /// the whole-run profile in
    /// [`SimulationReport::profile`](crate::metrics::SimulationReport::profile);
    /// neither participates in report equality, so traced and untraced runs
    /// of the same workload compare equal.
    pub fn attach_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// The current round.
    pub fn round(&self) -> u64 {
        self.state.round
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
        self.scratch.rows.cache_stats()
    }

    /// The playback state of box `b`, when it is currently viewing.
    pub fn playback(&self, b: BoxId) -> Option<&PlaybackState> {
        self.state.playing.get(b.index()).and_then(|p| p.as_ref())
    }

    /// The report accumulated so far (rounds simulated up to now). Unlike
    /// [`Simulator::run`], this does not flush in-flight playbacks or the
    /// relay utilization profile — it is the live view a stepping driver
    /// (the exhaustive explorer) compares across engine variants.
    pub fn report_so_far(&self) -> &SimulationReport {
        &self.state.report
    }

    /// The relay subsystem, when the system is heterogeneous.
    pub fn relay_broker(&self) -> Option<&RelayBroker> {
        self.state.relay_broker.as_ref()
    }

    /// The live upload-slot capacity of box `b` as the scheduler sees it
    /// (static allocation minus reservations, updated by churn through
    /// [`Simulator::apply_churn`]). Between rounds no hold is open, so this
    /// is the box's at-rest budget.
    pub fn upload_slots(&self, b: BoxId) -> u32 {
        self.state
            .ledger
            .slots()
            .get(b.index())
            .copied()
            .unwrap_or(0)
    }

    /// The live allocation table (static placement ⊖ departures ⊕ repairs).
    pub fn live_placement(&self) -> &Placement {
        &self.state.placement
    }

    /// Whether box `b` is currently part of the population.
    pub fn is_alive(&self, b: BoxId) -> bool {
        self.state.alive.get(b.index())
    }

    /// Boxes currently part of the population.
    pub fn alive_count(&self) -> usize {
        self.state.alive.count_ones()
    }

    /// The attached repair planner, when repair is enabled.
    pub fn repair_planner(&self) -> Option<&RepairPlanner> {
        self.state.repair.as_ref()
    }

    /// Attaches an engine-driven churn process: from the next round on,
    /// its events are drained at the top of every [`Simulator::step`] —
    /// after finished playbacks end, before new demands are admitted — so
    /// membership changes interleave with admissions instead of being
    /// replayed between rounds, through [`Simulator::apply_churn`].
    pub fn attach_churn(&mut self, model: ChurnModel) {
        assert!(
            model.box_count() <= self.system.n(),
            "churn model spans {} boxes but the engine universe has {}",
            model.box_count(),
            self.system.n()
        );
        self.state.churn = Some(model);
    }

    /// Attaches a stripe repair planner: each round it plans a budgeted
    /// batch of replica transfers from the live placement, the transfer
    /// slots are deducted from the source boxes' `⌊u_b·c⌋` budgets *before*
    /// the scheduler runs (repair competes with serving through the same
    /// Lemma-1 budgets), and the new replicas are committed after the round
    /// so they serve from the next round on.
    pub fn attach_repair(&mut self, planner: RepairPlanner) {
        self.state.repair = Some(planner);
    }

    /// Attaches an engine-driven fault process: from the next round on its
    /// events are drained right after churn — a faulted box stays in the
    /// population (replicas, playback, swarm membership intact) but its
    /// upload budget is held down on the capacity ledger every round the
    /// window is open. Attaching faults also attaches a default-policy
    /// [`DeliveryTracker`] (unless one is already attached) carrying the
    /// model's per-connection drop/timeout hazards and outcome salt.
    pub fn attach_faults(&mut self, model: FaultModel) {
        assert!(
            model.box_count() <= self.system.n(),
            "fault model spans {} boxes but the engine universe has {}",
            model.box_count(),
            self.system.n()
        );
        let tracker = self
            .state
            .delivery
            .get_or_insert_with(|| DeliveryTracker::new(DeliveryPolicy::default()));
        tracker.set_hazards(model.salt(), model.drop_ppm(), model.timeout_ppm());
        self.state.faults = Some(model);
    }

    /// Attaches (or replaces) the delivery-reliability state machine with
    /// an explicit retry policy. When a fault model is already attached,
    /// its per-connection hazards and outcome salt carry over; call this
    /// *before* exercising faults to pin a non-default policy (e.g.
    /// [`DeliveryPolicy::no_retry`] for the no-retry baseline).
    pub fn attach_delivery(&mut self, policy: DeliveryPolicy) {
        let mut tracker = DeliveryTracker::new(policy);
        if let Some(model) = &self.state.faults {
            tracker.set_hazards(model.salt(), model.drop_ppm(), model.timeout_ppm());
        }
        self.state.delivery = Some(tracker);
    }

    /// Attaches the graceful-degradation controller: from the next round
    /// on it folds every round's (attempted, unserved) into its window and
    /// sheds load — new admissions, and optionally tail stripes — while
    /// the windowed unserved ratio stays above the configured thresholds.
    pub fn attach_degradation(&mut self, config: DegradationConfig) {
        self.state.degrade = Some(DegradationController::new(config));
    }

    /// Applies one fault event to the engine, scripted or model-driven: a
    /// degradation or stall opens a per-box capacity window, replacing the
    /// box's open one (a restore closes it early), that every round's
    /// fault drain holds against the ledger; a drop surge raises the
    /// delivery tracker's per-connection hazards. This is both the
    /// step-loop's internal path for an attached [`FaultModel`] and the
    /// public entry point for scripted faults (the explorer's fault-event
    /// branches). A [`FaultEvent::DropSurge`] is a no-op unless a delivery
    /// tracker is attached.
    ///
    /// # Panics
    /// Panics when the event targets a box outside the universe.
    pub fn apply_fault(&mut self, event: FaultEvent) {
        self.state.apply_fault(event);
    }

    /// Canonical signature of the behavioural state: everything the future
    /// of the simulation depends on — playback states (with their request
    /// plans), live candidate-cache entries, swarm preload counters, the
    /// current round, the live capacity table, and the relay plan. Round
    /// scratch, warm scheduler state, and accumulated reports are excluded:
    /// the equivalence gates prove they never change a schedule. Components
    /// are combined order-insensitively ([`SortedSignature`]); where order
    /// is behaviour (holder lists), each component carries its position.
    pub fn state_signature(&self) -> u64 {
        self.state.signature()
    }

    /// Branches the simulation: an independent simulator continuing from
    /// this one's exact behavioural state, scheduling with `scheduler`.
    ///
    /// The round state (round, playbacks, candidate index, swarms, stalls,
    /// report, capacity table, and every attached subsystem) is cloned
    /// whole; round scratch — pooled buffers, memoized candidate rows —
    /// and the scheduler's warm state start cold, which is sound because
    /// the warm-vs-cold and incremental-vs-rebuild equivalence suites pin
    /// those as output-invariant. The fork is untraced. The fork and the
    /// original evolve independently from here; this is the branch
    /// primitive of the exhaustive explorer.
    pub fn fork_with(&self, scheduler: Box<dyn Scheduler>) -> Simulator<'a> {
        Simulator {
            system: self.system,
            config: self.config,
            scheduler,
            tracer: TraceHandle::off(),
            state: self.state.clone(),
            scratch: RoundScratch::new(self.system),
        }
    }

    /// Applies one [`ChurnEvent`] to the engine, on homogeneous and
    /// heterogeneous systems alike. This is both the step-loop's internal
    /// path for an attached [`ChurnModel`] and the public entry point for
    /// scripted churn (the explorer's churn-event branches).
    ///
    /// A departure ([`ChurnEvent::Left`] or [`ChurnEvent::Crashed`]) also
    /// detaches the box from the engine's live structures *the round it
    /// leaves*: its in-flight playback ends (recorded with its stalls so
    /// far), its playback-cache entries are purged from the candidate
    /// index, and its replicas are stripped from the live allocation table
    /// (notifying the repair planner when one is attached). Without the
    /// purge, a departed box lingers as a stripe holder in candidate rows
    /// until cache expiry — and worse, a later rejoin would claim replicas
    /// the box no longer stores.
    ///
    /// Homogeneous systems then set the box's budget to `⌊u_b·c⌋` (0 once
    /// it left). Heterogeneous systems hand the event to the relay broker,
    /// which re-plans the reservations it touches
    /// ([`RelayBroker::last_deltas`] lists the moves), and resync every
    /// budget from the live plan. A failed re-plan leaves poor boxes
    /// uncovered and the simulation continues — the resulting stalls are
    /// the modelled behaviour. Future playbacks plan against the updated
    /// live plan; playbacks already in flight keep the plans they were
    /// admitted with.
    ///
    /// # Panics
    /// Panics when a [`ChurnEvent::Joined`] id lies outside the original
    /// box universe (the engine's per-box tables are sized at
    /// construction).
    pub fn apply_churn(&mut self, event: ChurnEvent) {
        self.state.apply_churn(self.system, &self.tracer, event);
    }

    /// Runs the configured number of rounds against a demand generator and
    /// returns the report.
    pub fn run(mut self, generator: &mut dyn DemandGenerator) -> SimulationReport {
        while self.state.round < self.config.max_rounds {
            let feasible = self.step(generator);
            if !feasible && self.config.failure_policy == FailurePolicy::Abort {
                self.state.report.aborted = true;
                break;
            }
        }
        self.into_report()
    }

    /// Consumes the simulator and finalizes its report (flushing in-flight
    /// playbacks and the relay utilization profile), exactly as
    /// [`Simulator::run`] does at the end of a run. For drivers that
    /// interleave [`Simulator::step`] with scripted churn.
    pub fn into_report(self) -> SimulationReport {
        self.state.into_report(&self.tracer)
    }

    /// Simulates one round. Returns `true` when every active request was
    /// served.
    pub fn step(&mut self, generator: &mut dyn DemandGenerator) -> bool {
        let now = self.state.round;
        let (state, scratch, tracer) = (&mut self.state, &mut self.scratch, &self.tracer);
        tracer.set_round(now);

        let clock = tracer.begin();
        state.end_finished_playbacks(now);
        tracer.end(clock, Stage::PlaybackEnd, 0);
        let clock = tracer.begin();
        state.candidates.begin_round(now);
        tracer.end(clock, Stage::CandidateMaintain, 0);
        // Engine-driven churn: membership changes land before admissions,
        // interleaved with the round rather than replayed between rounds.
        let clock = tracer.begin();
        if let Some(churn) = &mut state.churn {
            churn.events_into(now, &mut scratch.churn_events);
            for event in scratch.churn_events.drain(..) {
                state.apply_churn(self.system, tracer, event);
            }
        }
        tracer.end(clock, Stage::ChurnDrain, 0);
        // Fault holds: open this round's fault windows (model events +
        // scripted ones still pending), expire finished windows, and hold
        // the transient capacity loss before the repair planner and the
        // scheduler read the ledger.
        let clock = tracer.begin();
        let fault_slots_lost = state.drain_faults(now, &mut scratch.fault_events);
        tracer.end(clock, Stage::FaultDrain, fault_slots_lost);
        // Repair planning holds the transfer slots on the source boxes'
        // post-fault budgets before the scheduler sees them.
        let clock = tracer.begin();
        let repair = state.plan_repairs();
        let planned = repair.as_ref().map_or(0, |s| s.repaired as u64);
        tracer.end(clock, Stage::RepairPlan, planned);
        let clock = tracer.begin();
        let new_demands = state.accept_demands(self.system, generator, now, &mut scratch.demands);
        tracer.end(clock, Stage::DemandIntake, new_demands as u64);
        let clock = tracer.begin();
        let self_served = state.collect_requests(now, &mut scratch.requests);
        tracer.end(clock, Stage::RequestCollect, scratch.requests.len() as u64);

        let (metrics, feasible) = self.schedule_round(now, fault_slots_lost);
        let (state, tracer) = (&mut self.state, &self.tracer);
        state.report.rounds.push(RoundMetrics {
            new_demands,
            self_served,
            repair,
            ..metrics
        });
        // Commit the planned repairs: the new replicas enter the live
        // placement, serving from the next round on (a transfer takes the
        // round it was planned in).
        let clock = tracer.begin();
        state.commit_repairs();
        tracer.end(clock, Stage::RepairCommit, 0);
        // The round's fault and repair holds end with it.
        state.ledger.release();
        // The repair commit lands after the metrics push, so the round's
        // timing aggregate is patched into the record it belongs to.
        if let Some(timing) = tracer.take_round_timings() {
            if let Some(last) = state.report.rounds.last_mut() {
                last.timing = Some(timing);
            }
        }
        state.round += 1;
        feasible
    }

    /// Schedules the round's collected requests and accounts for the
    /// outcome: relay loads, delivery outcomes, stalls, the degradation
    /// window and, on a failing round, its failure record (with the
    /// `fault_slots_lost` the round's fault holds took). Returns whether
    /// every request was served and the round's metrics, except what the
    /// stages before scheduling measured (`new_demands`, `self_served`,
    /// `repair`), which `step` fills in.
    fn schedule_round(&mut self, now: u64, fault_slots_lost: u64) -> (RoundMetrics, bool) {
        let Simulator {
            scheduler,
            tracer,
            state,
            scratch,
            ..
        } = self;
        let requests = &scratch.requests;
        let clock = tracer.begin();
        scratch
            .rows
            .fill(now, requests, &state.placement, &state.candidates);
        tracer.end(clock, Stage::CandidateFill, requests.len() as u64);
        let candidate_stats = CandidateStats {
            index_entries: state.candidates.live_entries(),
            expired: state.candidates.expired_this_round(),
            inserted: state.candidates.inserted_this_round(),
        };
        // Stable request identities (built by the fill, in request order)
        // let incremental schedulers patch the previous round's instance
        // instead of rebuilding it.
        let keys = scratch.rows.keys();
        debug_assert!(
            keys.windows(2).all(|pair| pair[0] < pair[1]),
            "requests not collected in strictly ascending key order"
        );

        // Every system schedules the plain Lemma-1 instance: relay
        // reservations are already netted out of the ledger and are
        // disjoint from the open budgets the matching allocates.
        let clock = tracer.begin();
        scheduler.schedule_keyed_view(
            state.ledger.slots(),
            keys,
            scratch.rows.view(),
            &mut scratch.assignment,
        );
        tracer.end(clock, Stage::Schedule, requests.len() as u64);
        debug_assert!(crate::scheduler::assignment_is_valid_view(
            &scratch.assignment,
            state.ledger.slots(),
            scratch.rows.view(),
            &mut scratch.dbg_loads,
        ));

        // Fold this round's forwarding demand into the relay subsystem's
        // utilization counters. A request downloaded by a box other than its
        // viewer is a poor box's stripe fetched by its relay, whose
        // reservation forwards it every active round.
        let relay_metrics = state.relay_broker.as_mut().map(|broker| {
            let clock = tracer.begin();
            scratch.relay_loads.clear();
            scratch.relay_loads.resize(state.ledger.slots().len(), 0);
            for req in requests.iter().filter(|r| r.requester != r.viewer) {
                scratch.relay_loads[req.requester.index()] += 1;
            }
            let stats = broker.note_round(&scratch.relay_loads);
            tracer.end(clock, Stage::RelayAccount, stats.forwarded as u64);
            stats
        });

        let (mut served, mut served_from_allocation, mut unserved) = (0usize, 0usize, 0usize);
        // Generation marks dedup stalled viewers and failed videos: no
        // linear `contains` scan per unserved request.
        scratch.failed_videos.clear();
        let mark = now + 1;

        // Delivery resolution rides the served loop: the outcome hash
        // depends only on (salt, round, viewer, stripe) — never on the
        // assigned supplier — so every scheduler pipeline resolves every
        // connection identically.
        let deliver_clock = state.delivery.is_some().then(|| tracer.begin());
        let placement: &Placement = &state.placement;
        for (req, assigned) in requests.iter().zip(&scratch.assignment) {
            let viewer = req.viewer.index();
            match *assigned {
                Some(supplier) => match state
                    .delivery
                    .as_mut()
                    .map_or(DeliveryOutcome::Delivered, |t| {
                        t.resolve(req.viewer, req.stripe, now)
                    }) {
                    DeliveryOutcome::Delivered => {
                        served += 1;
                        served_from_allocation +=
                            usize::from(placement.stores(supplier, req.stripe));
                        continue;
                    }
                    // A failed delivery is a rebuffer round for its viewer,
                    // not a Lemma-1 failure: the matching existed, the data
                    // path lost it. It counts neither `served` nor
                    // `unserved`.
                    DeliveryOutcome::Dropped | DeliveryOutcome::Timeout => {
                        if scratch.rebuffer_mark[viewer] != mark {
                            scratch.rebuffer_mark[viewer] = mark;
                            let tracker = state.delivery.as_mut().expect("outcome came from it");
                            tracker.note_rebuffer();
                        }
                    }
                },
                // Scheduler-unserved requests do not enter the retry queue
                // (Lemma-1 shortfall is the round's failure, not a
                // data-path fault), keeping the fault-free run
                // bit-identical to the pre-delivery engine.
                None => {
                    unserved += 1;
                    let video = req.stripe.video.0 as usize;
                    if scratch.video_mark[video] != mark {
                        scratch.video_mark[video] = mark;
                        scratch.failed_videos.push(req.stripe.video);
                    }
                }
            }
            // Either way the viewer stalls this round, once.
            if scratch.viewer_mark[viewer] != mark {
                scratch.viewer_mark[viewer] = mark;
                state.stalls[viewer] += 1;
            }
        }
        let delivery_stats = state.delivery.as_ref().map(DeliveryTracker::round_stats);
        if let Some(clock) = deliver_clock {
            let failed = delivery_stats
                .map(|d| (d.dropped + d.timed_out) as u64)
                .unwrap_or(0);
            tracer.end(clock, Stage::Deliver, failed);
        }

        // The degradation controller observes the round's scheduling
        // outcome last (its mode switch, if any, takes effect next round).
        let degradation_stats = state.degrade.as_mut().map(|ctrl| {
            let clock = tracer.begin();
            let stats = ctrl.note_round(now, requests.len() as u64, unserved as u64);
            tracer.end(clock, Stage::Degrade, stats.window_unserved_ppm as u64);
            stats
        });

        // A round fails iff a *download* leg goes unserved — the quantity
        // the paper's Lemma-1 feasibility (and every scheduler) decides.
        // Forwarding starvation on reserved relay capacity does not fail
        // the round: the reservation is the model's statically-provisioned
        // resource (Theorem 2 sizes it for the worst case), so demand
        // exceeding it is a model-assumption violation reported through
        // `RelayRoundStats::starved` and
        // `RelayUtilization::oversubscribed_rounds` each round, and named
        // per relay in `FailureRecord::starved_relays` whenever a failing
        // round is diagnosed below.
        let feasible = unserved == 0;
        if !feasible {
            let clock = tracer.begin();
            // The supply side is the one Lemma-1 min cut, read off the
            // round's assignment: reserve chains are dead ends of the
            // two-hop residual graph, so relaying leaves it unchanged. The
            // forwarding side is the relays whose demand exceeds their
            // reservation.
            let cut = scratch.hall_cut.read(
                state.ledger.slots(),
                scratch.rows.view(),
                &scratch.assignment,
            );
            let starved_relays = state.relay_broker.as_ref().map_or_else(Vec::new, |broker| {
                broker.starved_relays(&scratch.relay_loads)
            });
            state.report.failures.push(FailureRecord {
                round: now,
                unserved,
                obstruction_size: cut.map(|cut| cut.size),
                obstruction_capacity: cut.map(|cut| cut.capacity),
                starved_relays,
                videos: scratch.failed_videos.clone(),
                fault_slots_lost,
            });
            tracer.end(clock, Stage::FailureDiagnose, unserved as u64);
        }

        let metrics = RoundMetrics {
            round: now,
            active_requests: requests.len(),
            served,
            unserved,
            served_from_allocation,
            served_from_cache: served - served_from_allocation,
            upload_slots_available: state.ledger.total(),
            viewers: state.viewers.count_ones(),
            max_swarm: state.swarms.max_swarm_size(),
            relay: relay_metrics,
            candidates: Some(candidate_stats),
            delivery: delivery_stats,
            degradation: degradation_stats,
            // `timing` is patched in by `step` once the round (including
            // the repair commit, which lands after this record is pushed)
            // has closed.
            ..RoundMetrics::default()
        };
        (metrics, feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{GreedyScheduler, NaiveScheduler, RequestKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
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
    fn a_churn_run_builds_rows_for_new_and_restamped_classes_only() {
        // 2 000 rounds of churn over a small fleet: viewers come and go, a
        // box leaving purges its cache entries and replicas, and expiries
        // shrink rows. A round builds a row only for a class it did not have
        // last round or one whose stripe's shrink stamp moved since — never
        // the whole memo over — and the memo holds exactly the live classes.
        // (Nothing moves a stamp after the fill without repair, so the stamp
        // read after a step is the one the fill saw.)
        use std::collections::HashSet;
        use vod_workloads::{ChurnModel, SessionLength};
        let n = 64;
        let sys = small_system(n, 2.0, 4, 3, 16);
        let mut sim = Simulator::new(&sys, SimConfig::new(2000).continue_on_failure());
        sim.attach_churn(
            ChurnModel::new(sys.boxes(), 5)
                .with_session(SessionLength::Geometric { leave_rate: 0.01 })
                .with_crash_rate(0.002)
                .with_rejoin_delay(1, 4)
                .with_min_up(n - n / 8),
        );
        let mut gen = SequentialViewing::new(n, sys.m(), NextVideoPolicy::UniformRandom, 1.3, 5);
        let mut last: HashMap<(StripeId, u64), u64> = HashMap::new();
        let (mut new_total, mut moved_total) = (0, 0);
        for now in 0..2000 {
            let builds_before = sim.candidate_row_cache_stats().1;
            sim.step(&mut gen);
            let built = sim.candidate_row_cache_stats().1 - builds_before;
            let classes: HashSet<(StripeId, u64)> = sim
                .scratch
                .requests
                .iter()
                .map(|r| (r.stripe, r.issued_at))
                .collect();
            let stamp = |class: &(StripeId, u64)| sim.state.candidates.shrink_stamp(class.0);
            let new = classes.iter().filter(|c| !last.contains_key(c)).count();
            let moved = classes
                .iter()
                .filter(|c| last.get(c).is_some_and(|&was| was != stamp(c)))
                .count();
            assert!(
                built <= (new + moved) as u64,
                "round {now}: {built} rows built for {new} new and {moved} restamped classes"
            );
            assert_eq!(
                sim.scratch.rows.live_classes(),
                classes.len(),
                "round {now}"
            );
            (new_total, moved_total) = (new_total + new, moved_total + moved);
            last = classes.iter().map(|c| (*c, stamp(c))).collect();
        }
        assert!(
            new_total > 1000 && moved_total > 100,
            "{new_total} new, {moved_total} moved"
        );
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
            assert_eq!(seen.stored_rows, sim.scratch.rows.in_use(), "round {now}");
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
        let sim = Simulator::new(&sys, SimConfig::new(20).continue_on_failure());
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 1);
        let report = sim.run(&mut gen);
        assert_eq!(report.round_count(), 20);
        assert!(!report.aborted);
        assert!(!report.failures.is_empty());
        assert!(report.service_ratio() < 1.0);
        assert!(report.failures.iter().all(|f| f.obstruction_size.is_some()));
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

    /// The state signature of the loaded engine below at its fork point:
    /// a change that moves it changes what the engine does, or what the
    /// signature reads.
    const LOADED_FORK_SIGNATURE: u64 = 0xa55d_4571_309c_a0e1;

    /// A fork of an engine with every subsystem attached — a relayed
    /// heterogeneous fleet, churn with repair, faults with delivery
    /// retries, and degradation — continues exactly like the original, and
    /// forking does not move the state signature.
    #[test]
    fn fork_of_a_loaded_engine_continues_bit_identically() {
        use vod_core::{Bandwidth, Catalog};
        use vod_workloads::{ChurnModel, SessionLength};
        let c: u16 = 4;
        let mut uploads = vec![0.6; 4];
        uploads.extend([2.6; 12]);
        let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
        let params = SystemParams::new(boxes.len(), 1.8, 8, c, 3, 1.3, 10);
        let catalog = Catalog::uniform(8, 10, c);
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
        let mut original = Simulator::new(&sys, SimConfig::new(60).continue_on_failure());
        original.attach_churn(
            ChurnModel::new(sys.boxes(), 41)
                .with_session(SessionLength::Geometric { leave_rate: 0.04 })
                .with_crash_rate(0.01)
                .with_rejoin_delay(1, 3)
                .with_min_up(6),
        );
        original.attach_repair(RepairPlanner::for_system(&sys, 4));
        original.attach_faults(
            FaultModel::new(sys.boxes(), 0xFA17)
                .with_degradation(0.08, vec![25, 50], 1, 3)
                .with_drop_rate(80_000, 20_000),
        );
        original.attach_delivery(DeliveryPolicy::default());
        original.attach_degradation(DegradationConfig::default());
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::UniformRandom, 1.3, 3);
        for _ in 0..20 {
            original.step(&mut gen);
        }
        let mut fork = original.fork_with(Box::new(MaxFlowScheduler::new()));
        let signature = fork.state_signature();
        assert_eq!(signature, original.state_signature());
        assert_eq!(
            signature, LOADED_FORK_SIGNATURE,
            "signature {signature:#018x}"
        );
        let mut gen_fork = gen.clone();
        for round in 20..30 {
            fork.step(&mut gen_fork);
            original.step(&mut gen);
            assert_eq!(
                fork.state_signature(),
                original.state_signature(),
                "round {round}"
            );
            let last = |sim: &Simulator| sim.report_so_far().rounds.last().map(|r| r.normalized());
            assert_eq!(last(&fork), last(&original), "round {round}");
        }
        // Every subsystem took part.
        let report = original.report_so_far();
        let sum = |f: &dyn Fn(&RoundMetrics) -> usize| report.rounds.iter().map(f).sum::<usize>();
        assert!(
            sum(&|r| r.repair.map_or(0, |s| s.repaired)) > 0,
            "no repair"
        );
        assert!(
            sum(&|r| r.delivery.map_or(0, |d| d.dropped + d.timed_out)) > 0,
            "no failed delivery"
        );
        assert!(
            sum(&|r| r.relay.map_or(0, |s| s.forwarded)) > 0,
            "no relaying"
        );
        assert!(
            report.failures.iter().any(|f| f.fault_slots_lost > 0),
            "no fault hold"
        );
    }

    /// The full-scan oracle for the active-viewer index: bit `b` is set iff
    /// `playing[b]` is `Some`, no dead box plays, and the free list handed to
    /// generators is exactly the alive, idle boxes in ascending order —
    /// through `free_boxes`, through `free_boxes_into` over a dirty buffer,
    /// and box by box through `is_free` (`tests/active_set.rs` compares with
    /// the trait's default filter).
    fn assert_index_matches_full_scan(sim: &Simulator) {
        let n = sim.state.playing.len();
        assert_eq!((sim.state.viewers.len(), sim.state.alive.len()), (n, n));
        let occupancy = Occupancy {
            viewers: &sim.state.viewers,
            alive: &sim.state.alive,
        };
        assert_eq!(occupancy.box_count(), n);
        let mut free = Vec::new();
        for (idx, slot) in sim.state.playing.iter().enumerate() {
            assert_eq!(sim.state.viewers.contains(idx), slot.is_some(), "box {idx}");
            assert!(
                slot.is_none() || sim.state.alive.contains(idx),
                "dead box {idx}"
            );
            let idle = slot.is_none() && sim.state.alive.contains(idx);
            assert_eq!(occupancy.is_free(BoxId(idx as u32)), idle, "box {idx}");
            if idle {
                free.push(BoxId(idx as u32));
            }
        }
        assert!(!occupancy.is_free(BoxId(n as u32)), "out of range is busy");
        assert_eq!(
            sim.state.viewers.count_ones(),
            sim.state.playing.iter().flatten().count()
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
            assert_eq!(
                sim.state.viewers.count_ones(),
                n,
                "n = {n}: every box plays"
            );
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
            assert_eq!((sim.alive_count(), sim.state.viewers.count_ones()), (0, 0));
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
        let config = SimConfig::new(80).continue_on_failure();
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
        let config = SimConfig::new(30).continue_on_failure();
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
        let mut sim = Simulator::new(&sys, SimConfig::new(60).continue_on_failure());
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

    /// An upload change churned into a relayed engine refreshes the live
    /// slot table used by subsequent scheduling rounds.
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
        sim.apply_churn(ChurnEvent::UploadChanged(
            BoxId(4),
            Bandwidth::from_streams(3.4),
        ));
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
            let entries = sim.state.candidates.iter_live();
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
            for (stripe, b, start) in sim.state.candidates.iter_live() {
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

    /// A run that moves no replica, and every fork of it, reads the
    /// system's own placement: no copy is made, with or without a repair
    /// planner whose every plan is empty (nothing queued, nothing lost).
    #[test]
    fn an_unchanged_run_borrows_the_system_placement() {
        let sys = small_system(16, 2.0, 4, 3, 12);
        let run = |repair: bool| {
            let mut sim = Simulator::new(&sys, SimConfig::new(20).continue_on_failure());
            if repair {
                let storage = sys.boxes().iter().map(|b| b.storage.slots()).collect();
                sim.attach_repair(RepairPlanner::new(storage, 3, 6));
            }
            let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 3);
            for _ in 0..8 {
                sim.step(&mut gen);
            }
            sim
        };
        let plain = run(false);
        assert!(std::ptr::eq(plain.live_placement(), sys.placement()));
        let fork = plain.fork_with(Box::new(MaxFlowScheduler::new()));
        assert!(std::ptr::eq(fork.live_placement(), sys.placement()));
        let repaired = run(true);
        let planned = repaired
            .report_so_far()
            .rounds
            .iter()
            .filter(|r| r.repair.is_some());
        assert_eq!(planned.count(), 8, "the planner ran every round");
        assert_eq!(repaired.repair_planner().unwrap().repaired_total(), 0);
        assert!(std::ptr::eq(repaired.live_placement(), sys.placement()));
    }

    /// The first departure gives the run a placement of its own: the box
    /// is stripped from the live table, repairs land in it, and the
    /// system's placement stays what it was before the run.
    #[test]
    fn a_departure_leaves_the_system_placement_as_it_was() {
        use vod_workloads::ChurnEvent;
        let sys = small_system(16, 2.0, 4, 3, 12);
        let before = sys.placement().clone();
        let mut sim = Simulator::new(&sys, SimConfig::new(20).continue_on_failure());
        sim.attach_repair(RepairPlanner::for_system(&sys, 6));
        let mut gen = SequentialViewing::new(16, sys.m(), NextVideoPolicy::RoundRobin, 1.5, 3);
        for _ in 0..4 {
            sim.step(&mut gen);
        }
        let gone = BoxId(5);
        assert!(sim.live_placement().box_load(gone) > 0);
        sim.apply_churn(ChurnEvent::Left(gone));
        assert!(!std::ptr::eq(sim.live_placement(), sys.placement()));
        assert_eq!(sim.live_placement().box_load(gone), 0);
        for _ in 0..6 {
            sim.step(&mut gen);
        }
        assert!(sim.repair_planner().unwrap().repaired_total() > 0);
        assert!(sys.placement() == &before, "the system's placement moved");
        assert!(sim.live_placement() != &before);
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
