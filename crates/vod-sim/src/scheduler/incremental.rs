//! Incremental per-round connection matching.
//!
//! Consecutive simulation rounds solve nearly identical matching instances:
//! most playbacks continue, so most stripe requests and their candidate sets
//! carry over unchanged, and per-box capacities are static. Lemma 1 needs
//! per round only the candidate sets `B(x)` and the budgets `⌊u_b·c⌋`, so
//! the [`IncrementalMatcher`] keeps exactly those, and the matching itself,
//! in tables of its own across rounds — no flow network is alive on a warm
//! round. It also exploits a second regularity of the preloading strategy:
//! every viewer that issues stripe `s` in round `t` has the *same*
//! candidate set `B(x)`, and Lemma 1 only cares about `B(x)`, so such
//! requests are interchangeable.
//!
//! The unit of work is therefore the **row class**: all requests of a round
//! whose candidate rows are equal, entry for entry. A class holds its raw
//! row (its identity), one *search row* `cand` — the row's in-range boxes,
//! each once — and a member count, which is its demand; a request alone
//! with its row is the degenerate class of one, and there is no other code
//! path. A box holds its capacity and its load (the units it sends), and
//! has a spare slot while the load is below the capacity.
//!
//! * requests are identified by a stable [`RequestKey`]; each round the
//!   incoming keys, taken in key order, are merged against the previous
//!   round's, also in key order, so a survivor finds its class with no
//!   hash probe and the old requests the merge passes over are the
//!   departures. Every request is resolved to the class holding its row by
//!   the producer's change stamp when it proves the row unchanged, by
//!   hashing and comparing the row otherwise, so stamped, unstamped and
//!   slice-of-vecs inputs build the same classes in the same order;
//! * a class whose row changed is *retargeted* in place by one pass over
//!   `cand`: the entries the new row keeps stay **in their order, with the
//!   flow on them**, a dropped candidate's flow is cancelled and its entry
//!   removed, and the boxes the row gained are appended in ascending id
//!   (see `sync_row` for why the order is a contract);
//! * arrivals and departures only move a class's member count, at no cost
//!   per candidate; flow above the new demand is cancelled;
//! * maximality is then restored from the repaired matching by one
//!   *targeted* alternating search per unserved unit, in *passes* over the
//!   classes short of units: a class frame first looks along its row for a
//!   box with a spare slot and ends the search there, visit marks last the
//!   whole pass (an augmentation lifts only its root's), and passes repeat
//!   until one moves no unit off a saturated box — so only the delta is
//!   routed, in every regime.
//!
//! The matching is the **assignment mirror**: every `(box, class)` pair
//! that carries flow has a record (its units, its box, its class, its
//! position in the class's `cand`) on two intrusive doubly-linked lists,
//! its box's and its class's, and the `cand` entry points back at it. The
//! targeted search leaves a saturated box only along its matched list,
//! capacity eviction and departures cancel flow off the lists' heads, and
//! extraction hands a class's units to its members in input order.
//!
//! The **cold round** — the first, the one after a fleet-size change and the
//! one after a one-shot solve — is a warm round from the empty matching: it
//! starts the tables over, settles the class table as any round does, and
//! the same passes of the targeted search place every unit. No keyed round
//! builds a flow network or calls the solver; a [`FlowArena`] and the
//! configured solver serve [`IncrementalMatcher::schedule_cold`] only, the
//! one-shot instance behind [`Scheduler::schedule`](crate::scheduler::Scheduler::schedule).
//!
//! All bookkeeping (class slots, search rows, mirror records, scratch, the
//! tracked requests and the row map) reuses its allocations, so a steady-state
//! round — same working set of requests — performs **zero heap allocations** in the
//! matching layer, and a dropped candidate or a departed class leaves
//! nothing behind in the tables.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use vod_core::{BoxId, StripeId};
use vod_flow::{CandidateBuf, CandidateView, Dinic, FlowArena, MaxFlowSolve, NO_STAMP};
use vod_obs::TraceHandle;

/// Deterministic multiply-xor hasher for the request-key and row maps: the
/// default SipHash dominates the per-round diff cost at thousands of lookups
/// per round, and HashDoS resistance is irrelevant for simulator-internal
/// keys (shared with the flow layer via [`vod_core::hash`]).
pub type KeyHasher = vod_core::FxHasher64;

/// Row hash → first class of the chain of classes whose row has that hash.
type RowMap = HashMap<u64, u32, BuildHasherDefault<KeyHasher>>;

/// Stable identity of a stripe request across rounds.
///
/// Within one round a viewer has at most one active request per stripe, and a
/// viewer's playback of a video spans contiguous rounds, so `(viewer,
/// stripe)` identifies "the same request as last round".
///
/// Keys are ordered by viewer, then video, then stripe index — the order in
/// which the engine collects its requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey {
    /// The box that will play the stripe.
    pub viewer: BoxId,
    /// The requested stripe.
    pub stripe: StripeId,
}

/// "No class" / "no link" in the `u32` indices of the class table and the
/// assignment mirror (the mirror costs four bytes per box, so it stays off
/// the large-fleet memory budget).
const NIL: u32 = u32::MAX;

/// An extraction cursor that has not been pointed at its class's matched
/// list yet this round.
const FRESH: u32 = u32::MAX - 1;

/// The cursor of a class frame that has not looked ahead along its row yet.
const UNSCOUTED: u32 = u32::MAX;

/// Boxes per block of the capacity diff (see [`IncrementalMatcher::patch`]).
const CAP_BLOCK: usize = 256;

/// Work counters of the targeted augmenting search: plain integer adds on
/// the search path (no clock, no allocation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Searches started (one per unserved unit per pass, until a class's
    /// search fails).
    pub searches: u64,
    /// Searches that found an augmenting path.
    pub augmented: u64,
    /// Entries examined: entries of classes' search rows (by the look-ahead
    /// and by the descent, each time), which hold live candidates only, plus
    /// matched-list entries of saturated boxes.
    pub edges_scanned: u64,
    /// Longest augmenting path pushed, in bipartite edges (1 = the class
    /// found a box with a spare slot directly).
    pub longest_path: u64,
    /// Passes over the classes short of units. A round that searches runs
    /// passes until one pushes no path through a saturated box or nothing
    /// is left to place.
    pub passes: u64,
    /// Searches ended by the look-ahead of their own root: paths of one
    /// edge, no unit displaced.
    pub lookahead_hits: u64,
}

impl SearchCounters {
    fn absorb(&mut self, round: &SearchCounters) {
        self.searches += round.searches;
        self.augmented += round.augmented;
        self.edges_scanned += round.edges_scanned;
        self.longest_path = self.longest_path.max(round.longest_path);
        self.passes += round.passes;
        self.lookahead_hits += round.lookahead_hits;
    }
}

/// [`SearchCounters`] of the last scheduled round and of the matcher's
/// whole life (see [`IncrementalMatcher::search_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// The last round alone (all zero when it ran no targeted search).
    pub round: SearchCounters,
    /// Every round so far.
    pub total: SearchCounters,
}

/// What resolving one round's requests to their classes cost in row reads
/// (see [`IncrementalMatcher::row_work`]): plain integer adds, like
/// [`SearchCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowWork {
    /// Rows hashed to look their class up by content: at most one per
    /// stored row of the view for arrivals, one per class whose row changed
    /// for survivors — not one per request.
    pub hashed_rows: u64,
    /// Entries of those rows.
    pub hashed_entries: u64,
}

/// One frame of the targeted search's alternating depth-first walk: a class
/// on the path, and how far the walk has read its search row and the matched
/// list of the saturated box of that row it is looking into.
#[derive(Clone, Copy, Debug)]
struct Frame {
    class: u32,
    /// The mirror record (box one frame down → this class) a unit of which
    /// the class gives up if the path completes; [`NIL`] for the root.
    from: u32,
    /// The next entry of the search row to descend through ([`UNSCOUTED`]
    /// until the frame has looked ahead); the box being looked into is the
    /// entry before it, and `link` the next record of its matched list to
    /// examine ([`NIL`]: move on along the row).
    cursor: u32,
    link: u32,
}

/// One tracked request: a member of the class holding its row.
#[derive(Clone, Copy, Debug)]
struct Member {
    /// Its class ([`NIL`] for an arrival, in `pos_member` before the round
    /// has resolved it).
    class: u32,
    /// The producer change stamp the request's row last arrived under
    /// ([`vod_flow::NO_STAMP`] when the producer attached none): an equal
    /// stamp on the next round proves the row unchanged without comparing
    /// it.
    given_stamp: u64,
}

/// The part of a row class every request of every round reads: who is in
/// it, what serves it, and whether its row has been seen this round. Kept
/// apart from [`ClassSlot`] (and from the search's visit marks) so that a
/// steady-state round, which reads nothing else of a class, walks a table a
/// third the size.
#[derive(Clone, Copy, Debug)]
struct ClassState {
    /// Round stamp of the last round in which a request's row was matched
    /// against the class's (so that row is this round's content).
    touched: u64,
    /// The change stamp a row equal to the class's arrived under this round;
    /// meaningful only while `touched` is the current round.
    given_stamp: u64,
    /// Requests currently in the class: its demand.
    members: u32,
    /// Units of flow into the class: the sum over its matched list.
    served: u32,
    /// Assignment mirror: first link of the class's matched list.
    head: u32,
    /// Extraction cursor: the link whose units are being handed out
    /// ([`FRESH`] from the round's first touch until the first hand-out) and
    /// how many of them are left.
    hand: u32,
    hand_left: u32,
    /// On this round's settle list.
    dirty: bool,
    /// On the worklist of classes short of units (see
    /// [`IncrementalMatcher::augment_unserved`]).
    short: bool,
    /// The search row does not reflect the raw row yet (new or retargeted).
    needs_sync: bool,
}

impl ClassState {
    /// A slot in the pool: no member, no flow, on no list.
    const POOLED: ClassState = ClassState {
        touched: 0,
        given_stamp: NO_STAMP,
        members: 0,
        served: 0,
        head: NIL,
        hand: NIL,
        hand_left: 0,
        dirty: false,
        short: false,
        needs_sync: true,
    };
}

/// The rows of a class. Slots (and their vectors) are pooled and reused.
#[derive(Clone, Debug)]
struct ClassSlot {
    /// The class's row, raw as the producer gave it.
    given: Vec<BoxId>,
    /// Hash of `given`, and the next class of the same hash in `by_row`.
    hash: u64,
    hash_next: u32,
    /// The search row, ordered by [`IncrementalMatcher::sync_row`]: the
    /// in-range boxes of `given`, each once, each with the mirror record of
    /// the units it sends the class ([`NIL`] without flow). Empty when pooled.
    cand: Vec<(u32, u32)>,
}

/// Assignment-mirror record of one `(box, class)` pair that carries flow: it
/// sits on its box's and its class's matched lists for as long as it does.
/// Records are pooled; the class's `cand[pos]` points back at its record.
#[derive(Clone, Copy, Debug)]
struct FlowLink {
    class: u32,
    /// The box's entry in the class's search row.
    pos: u32,
    /// The sending box and its units: extraction reads the records alone.
    box_idx: u32,
    units: u32,
    /// Neighbours in the box's matched list ([`NIL`]-terminated).
    next: u32,
    prev: u32,
    /// Neighbours in the class's matched list ([`NIL`]-terminated).
    class_next: u32,
    class_prev: u32,
}

fn row_hash(row: &[BoxId]) -> u64 {
    let mut hasher = KeyHasher::default();
    row.hash(&mut hasher);
    hasher.finish()
}

/// Reusable incremental matcher.
///
/// ```
/// use vod_core::{BoxId, StripeId, VideoId};
/// use vod_sim::{IncrementalMatcher, RequestKey};
///
/// let caps = vec![1, 1];
/// let keys = vec![
///     RequestKey { viewer: BoxId(0), stripe: StripeId::new(VideoId(0), 0) },
///     RequestKey { viewer: BoxId(1), stripe: StripeId::new(VideoId(0), 1) },
/// ];
/// let cands = vec![vec![BoxId(0), BoxId(1)], vec![BoxId(0)]];
/// let mut matcher = IncrementalMatcher::default();
/// let mut out = Vec::new();
/// matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
/// assert_eq!(out.iter().flatten().count(), 2);
///
/// // An identical round patches nothing and keeps the matching: still
/// // optimal, still exactly one cold round.
/// matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
/// assert_eq!(out.iter().flatten().count(), 2);
/// assert_eq!(matcher.rebuilds(), 1);
/// ```
pub struct IncrementalMatcher {
    /// Pooled storage of `schedule_cold`, the one caller of the solver.
    arena: FlowArena,
    solver: Box<dyn MaxFlowSolve>,
    /// Per box: its capacity (stripe connections), the units it sends, and
    /// the first link of its matched list ([`NIL`] when it serves nothing).
    caps: Vec<u32>,
    load: Vec<u32>,
    box_head: Vec<u32>,
    /// The row classes, in two tables of one length (see [`ClassState`]).
    classes: Vec<ClassSlot>,
    states: Vec<ClassState>,
    free_classes: Vec<u32>,
    by_row: RowMap,
    /// Last round's requests: their keys and member records by input
    /// position, and the positions in ascending key order. Merging this
    /// round's key order against it finds every survivor's class and every
    /// departure without a hash probe; on the engine's input, which arrives
    /// in key order, the order is the identity.
    keys: Vec<RequestKey>,
    members: Vec<Member>,
    order: Vec<u32>,
    /// Assignment mirror: the pooled records of the pairs that carry flow.
    links: Vec<FlowLink>,
    free_links: Vec<u32>,
    stamp: u64,
    total_flow: i64,
    /// Classes with members and the entries of their search rows, as of the
    /// last settling (for [`IncrementalMatcher::arena_edge_count`]).
    live_classes: usize,
    live_entries: usize,
    rebuilds: u64,
    rounds: u64,
    /// True when the tables reflect no tracked instance (before the first
    /// round, after a one-shot solve): the next keyed round starts over.
    dirty: bool,
    /// True when the current round modified the instance (so maximality must
    /// be restored); untouched rounds keep the previous maximum matching.
    changed: bool,
    // Scratch buffers (reused every round).
    /// This round's input positions in ascending key order; per position,
    /// last round's member record (class [`NIL`]: an arrival) until the
    /// round resolves it to this round's; and the classes of last round's
    /// requests missing from this one. The first two swap with `order` and
    /// `members` once the round is resolved.
    next_order: Vec<u32>,
    pos_member: Vec<Member>,
    departed: Vec<u32>,
    /// Class per stored row of the current round's view, for the stored rows
    /// an arrival has been resolved through ([`NIL`] for the others).
    row_class: Vec<u32>,
    /// The classes this round must settle — new, retargeted or resized — in
    /// first-mention order, each with the members it entered the round with.
    dirty_classes: Vec<(u32, u32)>,
    /// Every live class short of units, and possibly some that no longer
    /// are: listed when a class loses a unit or settles short, pruned by the
    /// next pass that walks it. Lives across rounds, so a class the round did
    /// not touch is still retried when the round changed something else.
    short_classes: Vec<u32>,
    /// Visit stamps of the targeted search, by box and by class: current
    /// when equal to `visit_epoch`, which each pass redraws. `sync_row`
    /// borrows the box marks for its diff.
    box_mark: Vec<u64>,
    class_mark: Vec<u64>,
    visit_epoch: u64,
    /// DFS scratch: the alternating class/box frames of the current path.
    dfs_stack: Vec<Frame>,
    search: SearchStats,
    row_work: RowWork,
    /// Scratch of the debug-only maximality check, pooled so steady-state
    /// rounds allocate nothing in debug builds either: seen flags for the
    /// boxes, then the classes, and the walk's stack.
    dbg_seen: Vec<bool>,
    dbg_stack: Vec<u32>,
    /// Pooled CSR bridge for the slice-of-vecs entry points (the view-based
    /// [`IncrementalMatcher::schedule_keyed_view`] is the native path).
    csr_bridge: CandidateBuf,
}

impl Default for IncrementalMatcher {
    fn default() -> Self {
        IncrementalMatcher::new(Box::new(Dinic::new()))
    }
}

impl IncrementalMatcher {
    /// Creates a matcher whose one-shot instances
    /// ([`IncrementalMatcher::schedule_cold`]) go to `solver`; keyed rounds,
    /// cold ones included, never call it.
    pub fn new(solver: Box<dyn MaxFlowSolve>) -> Self {
        IncrementalMatcher {
            arena: FlowArena::new(),
            solver,
            caps: Vec::new(),
            load: Vec::new(),
            box_head: Vec::new(),
            classes: Vec::new(),
            states: Vec::new(),
            free_classes: Vec::new(),
            by_row: RowMap::default(),
            keys: Vec::new(),
            members: Vec::new(),
            order: Vec::new(),
            links: Vec::new(),
            free_links: Vec::new(),
            stamp: 0,
            total_flow: 0,
            live_classes: 0,
            live_entries: 0,
            rebuilds: 0,
            rounds: 0,
            dirty: true,
            changed: false,
            next_order: Vec::new(),
            pos_member: Vec::new(),
            departed: Vec::new(),
            row_class: Vec::new(),
            dirty_classes: Vec::new(),
            short_classes: Vec::new(),
            box_mark: Vec::new(),
            class_mark: Vec::new(),
            visit_epoch: 0,
            dfs_stack: Vec::new(),
            search: SearchStats::default(),
            row_work: RowWork::default(),
            dbg_seen: Vec::new(),
            dbg_stack: Vec::new(),
            csr_bridge: CandidateBuf::new(),
        }
    }

    /// Installs a trace handle on the underlying flow solver, so the solver
    /// phases of one-shot solves (shape analyses, HK phases, global
    /// relabels) emit spans.
    pub fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.solver.attach_tracer(tracer);
    }

    /// The number of cold rounds so far: keyed rounds that started the
    /// tables over and searched from the empty matching (1 after the first
    /// round; steady-state rounds must not add more).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The number of rounds scheduled so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current matching size.
    pub fn total_flow(&self) -> i64 {
        self.total_flow
    }

    /// Directed edge count (twins included) of the Lemma-1 network the
    /// tables stand for: a source edge per box, a sink edge per class with
    /// members and a candidate edge per entry of such a class's search row.
    pub fn arena_edge_count(&self) -> usize {
        2 * (self.caps.len() + self.live_classes + self.live_entries)
    }

    /// The solver of this matcher's one-shot solves.
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// Work done by the targeted augmenting search, for the last round and
    /// in total. Every keyed round's routing is here, a cold round's (which
    /// places every unit from the empty matching) included; one-shot solves
    /// add nothing.
    pub fn search_stats(&self) -> SearchStats {
        self.search
    }

    /// Rows (and their entries) the last scheduled round hashed to resolve
    /// its requests to classes. A request whose stamp proves its row
    /// unchanged, and an arrival on a stored row another arrival of the round
    /// came in on, cost nothing here.
    pub fn row_work(&self) -> RowWork {
        self.row_work
    }

    /// Schedules one round incrementally. `keys[i]` is the stable identity
    /// of the request with candidate set `candidates[i]`; the assignment is
    /// written into `out` (reused, index-aligned with the input).
    pub fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        // Detach the pooled bridge buffer so the view can borrow it while
        // `self` stays mutably borrowable for the core call.
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        self.schedule_keyed_view(capacities, keys, bridge.view(), out);
        self.csr_bridge = bridge;
    }

    /// View-based core of [`IncrementalMatcher::schedule_keyed`]: identical
    /// semantics over a borrowed flat [`CandidateView`] (the engine's native
    /// representation). When the view carries per-row change stamps, a
    /// surviving request whose stamp is unchanged is not compared with its
    /// class's row, let alone hashed.
    pub fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        assert_eq!(keys.len(), candidates.len(), "one key per request");
        self.rounds += 1;
        self.search.round = SearchCounters::default();
        self.row_work = RowWork::default();
        self.changed = false;
        if self.dirty || capacities.len() != self.caps.len() {
            // A cold round is a warm one from the empty matching.
            self.reset(capacities);
            self.rebuilds += 1;
        }
        self.patch(capacities, keys, candidates);
        // The patched matching is valid but possibly not maximal, and only
        // classes short of units can be endpoints of augmenting paths.
        if self.changed && keys.len() as i64 > self.total_flow {
            self.augment_unserved();
        }
        debug_assert!(self.flow_is_consistent());
        debug_assert!(self.flow_is_maximal());
        self.extract(out);
    }

    /// One-shot solve without request identity: builds the instance inside
    /// the reused arena and solves cold. Leaves the matcher marked dirty, so
    /// a later keyed round starts over.
    pub fn schedule_cold(
        &mut self,
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.rounds += 1;
        let mut problem = vod_flow::ConnectionProblem::new(capacities.to_vec());
        for cands in candidates {
            problem.add_request(cands.iter().copied());
        }
        let matching = problem.solve_in(&mut self.arena, &mut self.solver);
        self.dirty = true;
        out.clear();
        out.extend(matching.assignment);
    }

    /// Forgets the tracked instance: idle boxes at `capacities`, an empty
    /// mirror and every class slot back in the pool (allocations kept).
    fn reset(&mut self, capacities: &[u32]) {
        let boxes = capacities.len();
        self.caps.clear();
        self.caps.extend_from_slice(capacities);
        self.load.clear();
        self.load.resize(boxes, 0);
        self.box_head.clear();
        self.box_head.resize(boxes, NIL);
        // Stale marks can stay: the epoch only grows.
        self.box_mark.resize(boxes, 0);
        self.links.clear();
        self.free_links.clear();
        self.keys.clear();
        self.members.clear();
        self.order.clear();
        self.by_row.clear();
        self.states.fill(ClassState::POOLED);
        self.classes.iter_mut().for_each(|class| class.cand.clear());
        self.free_classes.clear();
        self.free_classes
            .extend((0..self.classes.len() as u32).rev());
        self.short_classes.clear();
        (self.total_flow, self.live_classes, self.live_entries) = (0, 0, 0);
        self.dirty = false;
    }

    /// Diffs the incoming round against the tracked instance: applies the
    /// changed capacities, resolves every request to its class, takes the
    /// departures out, then settles each class that is new, retargeted or
    /// changed in size, repairing the matching's validity.
    fn patch(&mut self, capacities: &[u32], keys: &[RequestKey], candidates: CandidateView<'_>) {
        self.stamp += 1;
        let now = self.stamp;

        // Capacity changes are rare (static per system; faults and relays
        // overlay a few boxes a round): compare a block at a time, which
        // the compiler vectorises, and walk only a block that differs.
        for (block, new) in capacities.chunks(CAP_BLOCK).enumerate() {
            let start = block * CAP_BLOCK;
            if *new == self.caps[start..start + new.len()] {
                continue;
            }
            for (box_idx, &cap) in (start..).zip(new) {
                if cap != self.caps[box_idx] {
                    self.patch_box_capacity(box_idx, cap);
                }
            }
        }

        // Upsert this round's requests, in input order.
        self.merge_keys(keys);
        self.dirty_classes.clear();
        // An arrival reaches its class through its stored row: only the
        // first one of a stored row has the row hashed and compared.
        self.row_class.clear();
        self.row_class.resize(candidates.stored_rows(), NIL);
        for pos in 0..keys.len() {
            // The row itself is looked up only where it is read.
            let stamp = candidates.row_stamp(pos);
            let member = self.pos_member[pos];
            let class = if member.class != NIL {
                let unchanged = stamp != NO_STAMP && stamp == member.given_stamp;
                let old = member.class;
                // Untouched so far, the class still holds last round's row,
                // which was this request's; touched, it holds the row of a
                // request of this view, and equal stamps within one view mean
                // equal rows.
                let state = &self.states[old as usize];
                let proven = if state.touched != now {
                    unchanged
                } else {
                    stamp != NO_STAMP && stamp == state.given_stamp
                };
                if proven {
                    debug_assert_eq!(
                        self.classes[old as usize].given,
                        candidates.row(pos),
                        "stale change stamp"
                    );
                    self.touch_class(old, stamp);
                    old
                } else {
                    let class = self.resolve_class(Some(old), candidates.row(pos), stamp);
                    if class != old {
                        self.resize_class(old, -1);
                        self.resize_class(class, 1);
                    }
                    class
                }
            } else {
                let id = candidates.row_id(pos) as usize;
                let class = match self.row_class[id] {
                    NIL => {
                        let class = self.resolve_class(None, candidates.row(pos), stamp);
                        self.row_class[id] = class;
                        class
                    }
                    // Equal ids are one row, and a class touched this round
                    // is not retargeted before the next: the class recorded
                    // for the id still holds the row.
                    class => {
                        debug_assert_eq!(self.classes[class as usize].given, candidates.row(pos));
                        self.touch_class(class, stamp);
                        class
                    }
                };
                self.resize_class(class, 1);
                class
            };
            let resolved = Member {
                class,
                given_stamp: stamp,
            };
            if (member.class, member.given_stamp) != (class, stamp) {
                self.pos_member[pos] = resolved;
            }
        }
        std::mem::swap(&mut self.members, &mut self.pos_member);

        // The requests that disappeared this round leave their classes.
        for i in 0..self.departed.len() {
            self.resize_class(self.departed[i], -1);
        }

        for i in 0..self.dirty_classes.len() {
            let (idx, members_before) = self.dirty_classes[i];
            self.settle(idx as usize, members_before);
        }
    }

    /// Merges this round's keys against last round's: `next_order` becomes
    /// the input positions in ascending key order (the identity when the
    /// input is in key order already, as the engine's is; any order is
    /// legal), `pos_member` each position's member record of last round
    /// (class [`NIL`] for an arrival), and `departed` the classes of last
    /// round's requests that this round does not list, in key order. Then
    /// this round's keys and order replace last round's.
    ///
    /// # Panics
    /// Panics on a key listed twice: it would alias two requests onto one
    /// unit of demand.
    fn merge_keys(&mut self, keys: &[RequestKey]) {
        self.next_order.clear();
        self.next_order.extend(0..keys.len() as u32);
        if !keys.windows(2).all(|pair| pair[0] < pair[1]) {
            self.next_order
                .sort_unstable_by_key(|&pos| keys[pos as usize]);
            if let Some(pair) = self
                .next_order
                .windows(2)
                .find(|pair| keys[pair[0] as usize] == keys[pair[1] as usize])
            {
                panic!(
                    "duplicate request key {:?} in one round",
                    keys[pair[0] as usize]
                );
            }
        }
        let arrival = Member {
            class: NIL,
            given_stamp: NO_STAMP,
        };
        // Every position is written below, so only new tail slots need a
        // value here.
        self.pos_member.resize(keys.len(), arrival);
        self.departed.clear();
        let mut old = 0;
        for &pos in &self.next_order {
            let key = &keys[pos as usize];
            let mut member = arrival;
            while let Some(&prev) = self.order.get(old) {
                let prev = prev as usize;
                match self.keys[prev].cmp(key) {
                    Ordering::Less => self.departed.push(self.members[prev].class),
                    Ordering::Equal => {
                        member = self.members[prev];
                        old += 1;
                        break;
                    }
                    Ordering::Greater => break,
                }
                old += 1;
            }
            self.pos_member[pos as usize] = member;
        }
        let rest = &self.order[old..];
        self.departed
            .extend(rest.iter().map(|&prev| self.members[prev as usize].class));
        std::mem::swap(&mut self.order, &mut self.next_order);
        self.keys.clear();
        self.keys.extend_from_slice(keys);
    }

    /// The class holding `row` this round, for a request that was in class
    /// `prev` last round (`None` for an arrival) and whose change stamp
    /// proves nothing. Identity tables only — search rows and the matching
    /// are settled once the round's membership is final.
    ///
    /// Identity is row *content*. The request stays in `prev` when that
    /// class's row is still its own. Otherwise the row is looked up by hash
    /// and compared; and when no class holds it, `prev` is retargeted to it
    /// if this is the first of its requests to arrive this round (the rest
    /// are about to present the same row), else a class is allocated.
    fn resolve_class(&mut self, prev: Option<u32>, row: &[BoxId], stamp: u64) -> u32 {
        if let Some(idx) = prev {
            if self.classes[idx as usize].given == row {
                self.touch_class(idx, stamp);
                return idx;
            }
        }
        let hash = row_hash(row);
        self.row_work.hashed_rows += 1;
        self.row_work.hashed_entries += row.len() as u64;
        let mut cursor = self.by_row.get(&hash).copied().unwrap_or(NIL);
        while cursor != NIL {
            let class = &self.classes[cursor as usize];
            if class.given == row {
                self.touch_class(cursor, stamp);
                return cursor;
            }
            cursor = class.hash_next;
        }
        let idx = match prev {
            Some(idx) if self.states[idx as usize].touched != self.stamp => {
                self.unregister_class(idx);
                idx
            }
            _ => self.alloc_class(),
        };
        let class = &mut self.classes[idx as usize];
        class.given.clear();
        class.given.extend_from_slice(row);
        class.hash = hash;
        class.hash_next = self.by_row.insert(hash, idx).unwrap_or(NIL);
        self.states[idx as usize].needs_sync = true;
        self.touch_class(idx, stamp);
        self.list_dirty(idx);
        idx
    }

    /// Takes an empty class slot, reusing a pooled one (and its vectors)
    /// when one is free.
    fn alloc_class(&mut self) -> u32 {
        if let Some(idx) = self.free_classes.pop() {
            return idx;
        }
        // The mirror links classes by `u32` index.
        assert!(self.classes.len() < FRESH as usize, "class slot overflow");
        self.classes.push(ClassSlot {
            given: Vec::new(),
            hash: 0,
            hash_next: NIL,
            cand: Vec::new(),
        });
        self.states.push(ClassState::POOLED);
        self.class_mark.push(0);
        self.classes.len() as u32 - 1
    }

    /// Takes class `idx` off its row-hash chain.
    fn unregister_class(&mut self, idx: u32) {
        let (hash, next) = {
            let class = &self.classes[idx as usize];
            (class.hash, class.hash_next)
        };
        let head = *self.by_row.get(&hash).expect("live class is registered");
        if head == idx {
            if next == NIL {
                self.by_row.remove(&hash);
            } else {
                self.by_row.insert(hash, next);
            }
            return;
        }
        let mut cursor = head;
        while self.classes[cursor as usize].hash_next != idx {
            cursor = self.classes[cursor as usize].hash_next;
        }
        self.classes[cursor as usize].hash_next = next;
    }

    /// Notes that a request of this round presented class `idx`'s row, under
    /// `stamp`.
    fn touch_class(&mut self, idx: u32, stamp: u64) {
        let state = &mut self.states[idx as usize];
        if state.touched != self.stamp {
            state.touched = self.stamp;
            state.given_stamp = stamp;
            state.hand = FRESH;
        } else if stamp != NO_STAMP {
            state.given_stamp = stamp;
        }
    }

    /// A request joined (`delta = 1`) or left (`-1`) class `idx`.
    fn resize_class(&mut self, idx: u32, delta: i32) {
        self.list_dirty(idx);
        let state = &mut self.states[idx as usize];
        state.members = state.members.wrapping_add_signed(delta);
    }

    /// Puts class `idx` on this round's settle list (once) with its member
    /// count — the one it ended the last round with, nothing having touched
    /// the class yet.
    fn list_dirty(&mut self, idx: u32) {
        let state = &mut self.states[idx as usize];
        if !state.dirty {
            state.dirty = true;
            self.dirty_classes.push((idx, state.members));
        }
    }

    /// Brings class `idx`, which entered the round with `members_before`
    /// members, in line with its final membership and row: flow cut down to
    /// the member count, the search row matching the raw row. A class left
    /// without members is retired.
    fn settle(&mut self, idx: usize, members_before: u32) {
        let state = &mut self.states[idx];
        state.dirty = false;
        let members = state.members;
        if members == 0 {
            self.retire(idx);
            return;
        }
        self.live_classes += (members_before == 0) as usize;
        let excess = state.served.saturating_sub(members);
        self.cancel_off(|m| m.states[idx].head, excess);
        if self.states[idx].needs_sync {
            self.sync_row(idx);
        }
        // More members are more demand, fewer may have cost a unit above:
        // either way the search has something to look at.
        self.changed |= members != members_before;
        self.list_if_short(idx as u32);
    }

    /// Puts class `idx` on the worklist of the maximality passes (once) if
    /// it is short of units.
    fn list_if_short(&mut self, idx: u32) {
        let state = &mut self.states[idx as usize];
        if state.served < state.members && !state.short {
            state.short = true;
            self.short_classes.push(idx);
        }
    }

    /// Retires a class whose last member left: cancels its flow, empties its
    /// search row and returns the slot to the pool.
    fn retire(&mut self, idx: usize) {
        self.cancel_off(|m| m.states[idx].head, self.states[idx].served);
        // Only a class that had members can lose its last one: a slot
        // allocated this round holds the request it was allocated for.
        self.live_classes -= 1;
        self.live_entries -= self.classes[idx].cand.len();
        self.classes[idx].cand.clear();
        self.unregister_class(idx as u32);
        self.free_classes.push(idx as u32);
        self.changed = true;
    }

    /// Brings class `idx`'s search row in line with its raw row, in one pass
    /// over the search row: entries whose box the row still lists stay, in
    /// their order and with their flow; the others lose their flow and are
    /// dropped; the boxes the search row lacked are appended in ascending
    /// id. Out-of-range ids are ignored, a box listed twice is entered once.
    ///
    /// The order is a contract. The search reads a row front to back, so a
    /// class prefers the boxes it has listed longest and, among those it
    /// took up together, the lowest ids — whatever order the producer lists
    /// them in. (In producer order, static holders first, swarming never
    /// takes load off the holders of a crowd's video.)
    fn sync_row(&mut self, idx: usize) {
        // Mark-array diff in `box_mark` (a diff and a search never
        // interleave, and the epoch only grows): `wanted` marks the boxes of
        // the row, `placed` those with an entry, so duplicate ids collapse.
        let given = std::mem::take(&mut self.classes[idx].given);
        let boxes = self.caps.len();
        let (wanted, placed) = (self.visit_epoch + 1, self.visit_epoch + 2);
        self.visit_epoch = placed;
        for b in given.iter().filter(|b| b.index() < boxes) {
            self.box_mark[b.index()] = wanted;
        }
        let before = self.classes[idx].cand.len();
        let mut kept = 0;
        for i in 0..before {
            let (box_idx, link) = self.classes[idx].cand[i];
            let mark = &mut self.box_mark[box_idx as usize];
            if *mark == wanted {
                *mark = placed;
                if link != NIL {
                    self.links[link as usize].pos = kept as u32;
                }
                self.classes[idx].cand[kept] = (box_idx, link);
                kept += 1;
            } else if link != NIL {
                // Entry `i` is still in place for the record to clear.
                self.cancel_units(link, self.links[link as usize].units);
            }
        }
        let cand = &mut self.classes[idx].cand;
        cand.truncate(kept);
        for b in given.iter().filter(|b| b.index() < boxes) {
            let mark = &mut self.box_mark[b.index()];
            if *mark == wanted {
                *mark = placed;
                cand.push((b.0, NIL));
            }
        }
        cand[kept..].sort_unstable();
        self.live_entries = self.live_entries - before + cand.len();
        self.changed |= kept < before || kept < cand.len();
        self.classes[idx].given = given;
        self.states[idx].needs_sync = false;
    }

    /// Puts `units` more units of flow on entry `pos` of class `class`'s
    /// search row: the box's load, the class's served count and the pair's
    /// mirror record, created on the fronts of both matched lists if absent.
    fn add_units(&mut self, class: u32, pos: u32, units: u32) {
        let (box_idx, link) = self.classes[class as usize].cand[pos as usize];
        self.load[box_idx as usize] += units;
        let state = &mut self.states[class as usize];
        state.served += units;
        if link != NIL {
            self.links[link as usize].units += units;
            return;
        }
        let (box_head, class_head) = (self.box_head[box_idx as usize], state.head);
        let record = FlowLink {
            class,
            pos,
            box_idx,
            units,
            next: box_head,
            prev: NIL,
            class_next: class_head,
            class_prev: NIL,
        };
        let link = self.free_links.pop().unwrap_or(self.links.len() as u32);
        assert!(link < NIL, "mirror record overflow");
        match self.links.get_mut(link as usize) {
            Some(pooled) => *pooled = record,
            None => self.links.push(record),
        }
        if box_head != NIL {
            self.links[box_head as usize].prev = link;
        }
        if class_head != NIL {
            self.links[class_head as usize].class_prev = link;
        }
        self.box_head[box_idx as usize] = link;
        state.head = link;
        self.classes[class as usize].cand[pos as usize].1 = link;
    }

    /// Takes `units` units of flow off mirror record `link`: the box's load,
    /// the class's served count and, when none is left, the record off both
    /// matched lists and into the pool, its `cand` entry back to [`NIL`].
    fn remove_units(&mut self, link: u32, units: u32) {
        let record = &mut self.links[link as usize];
        debug_assert!(units > 0 && units <= record.units);
        record.units -= units;
        let record = *record;
        self.load[record.box_idx as usize] -= units;
        self.states[record.class as usize].served -= units;
        if record.units > 0 {
            return;
        }
        if record.prev == NIL {
            self.box_head[record.box_idx as usize] = record.next;
        } else {
            self.links[record.prev as usize].next = record.next;
        }
        if record.next != NIL {
            self.links[record.next as usize].prev = record.prev;
        }
        if record.class_prev == NIL {
            self.states[record.class as usize].head = record.class_next;
        } else {
            self.links[record.class_prev as usize].class_next = record.class_next;
        }
        if record.class_next != NIL {
            self.links[record.class_next as usize].class_prev = record.class_prev;
        }
        self.free_links.push(link);
        self.classes[record.class as usize].cand[record.pos as usize].1 = NIL;
    }

    /// Cancels `units` of the flow on mirror record `link`; the class goes
    /// on the worklist of the maximality passes.
    fn cancel_units(&mut self, link: u32, units: u32) {
        let class = self.links[link as usize].class;
        self.remove_units(link, units);
        self.total_flow -= units as i64;
        self.changed = true;
        self.list_if_short(class);
    }

    /// Cancels `excess` units off the front of the matched list whose first
    /// link `head` reads.
    fn cancel_off(&mut self, head: impl Fn(&Self) -> u32, mut excess: u32) {
        while excess > 0 {
            let link = head(self);
            let units = self.links[link as usize].units.min(excess);
            self.cancel_units(link, units);
            excess -= units;
        }
    }

    /// Applies a changed per-box capacity, cancelling the box's load above
    /// the new capacity (the search re-routes it elsewhere).
    fn patch_box_capacity(&mut self, box_idx: usize, new_cap: u32) {
        let excess = self.load[box_idx].saturating_sub(new_cap);
        self.cancel_off(|m| m.box_head[box_idx], excess);
        self.caps[box_idx] = new_cap;
        self.changed = true;
    }

    /// Restores maximality: one augmenting search per unserved unit, in
    /// passes over the classes short of units, a class at a time until its
    /// first failure.
    ///
    /// Visit marks last a whole pass. What a failed search proved unable to
    /// reach a spare slot stays unable however many units are placed
    /// afterwards (an augmenting path out of it after a push along `P` would
    /// have to meet `P`, and could have followed `P` to its spare slot
    /// before), so failures are never re-proven within a pass. A search that
    /// succeeds *through* saturated boxes leaves its marks too, on boxes and
    /// classes it proved nothing about, and later searches of the pass can
    /// miss a path through them; its root's mark is lifted once the root
    /// has all its units. Hence passes repeat until one pushes no path
    /// through a saturated box — every mark of such a pass is a proof, and
    /// every class still short carries one — or every class has its units.
    /// A pass enters each saturated box once and each class once besides the
    /// roots served in full, and a root's searches resume along its row
    /// where the last one stopped, so a pass costs O(search-row entries +
    /// matched links + units placed) however many it places — also where
    /// Lemma 1 fails (u < 1) and most searches do: `tests/matcher_regimes.rs`
    /// holds the work to one read of the tables per pass from u = 0.6 to
    /// u = 2.
    fn augment_unserved(&mut self) {
        loop {
            self.visit_epoch += 1;
            self.search.round.passes += 1;
            let before = self.search.round;
            let mut kept = 0;
            for i in 0..self.short_classes.len() {
                let idx = self.short_classes[i];
                self.augment_class(idx);
                let state = &mut self.states[idx as usize];
                state.short = state.served < state.members;
                if state.short {
                    self.short_classes[kept] = idx;
                    kept += 1;
                }
            }
            self.short_classes.truncate(kept);
            let round = &self.search.round;
            let through_boxes = (round.augmented - before.augmented)
                - (round.lookahead_hits - before.lookahead_hits);
            if kept == 0 || through_boxes == 0 {
                break;
            }
        }
        self.search.total.absorb(&self.search.round);
    }

    /// Gives class `root` the units it is short of, one search each, until
    /// one fails.
    fn augment_class(&mut self, root: u32) {
        let short = |m: &Self| m.states[root as usize].served < m.states[root as usize].members;
        if !short(self) {
            return; // listed when it was; served or retired since
        }
        if self.class_mark[root as usize] == self.visit_epoch {
            // Crossed or proven unreachable earlier this pass.
            self.search.round.searches += 1;
            return;
        }
        self.class_mark[root as usize] = self.visit_epoch;
        // How far the root's searches have read its row this pass: a spare
        // slot behind `scout` or a way through a box behind `descent` cannot
        // appear before the pass ends (boxes only gain load, the root's
        // entries only gain flow, marks stay).
        let (mut scout, mut descent) = (0, UNSCOUTED);
        while short(self) {
            self.search.round.searches += 1;
            if !self.try_augment(root, &mut scout, &mut descent) {
                return;
            }
            self.search.round.augmented += 1;
            self.total_flow += 1;
        }
        // With all its units the root is like any class the pass has not
        // entered: another root's path may move one of them.
        self.class_mark[root as usize] = 0;
    }

    /// Looks ahead along class `class`'s search row from entry `from` for a
    /// box with a spare slot — the end of an augmenting path — and returns
    /// its position. On the way it notes in `descent`, unless something is
    /// noted there already, the first entry whose box the pass has not
    /// entered: where a descent into the row's saturated boxes will start
    /// (the end of the row if nowhere).
    ///
    /// No entry needs a capacity test of its own: a box may send a class as
    /// many units as it has members, so the one pair that can be full is
    /// that of a class served in full by one box, which a search enters
    /// through that box, marked.
    fn look_ahead(&mut self, class: u32, from: usize, descent: &mut u32) -> Option<usize> {
        let cand = &self.classes[class as usize].cand;
        for (i, &(box_idx, _)) in cand.iter().enumerate().skip(from) {
            self.search.round.edges_scanned += 1;
            let box_idx = box_idx as usize;
            if self.load[box_idx] < self.caps[box_idx] {
                return Some(i);
            }
            if *descent == UNSCOUTED && self.box_mark[box_idx] != self.visit_epoch {
                *descent = i as u32;
            }
        }
        if *descent == UNSCOUTED {
            *descent = cand.len() as u32;
        }
        None
    }

    /// Searches an alternating path from class `root`, short of a unit and
    /// marked, to a box with a spare slot and, when found, pushes one unit
    /// along it. Returns whether the class gained the unit. `scout` and
    /// `descent` are the root's positions in its own row, kept by the caller
    /// from one search of the pass to the next.
    ///
    /// A frame, when first entered, looks ahead along its class's whole row
    /// for a spare slot and ends the search there; only when there is none
    /// does it descend, into the saturated boxes of the row one by one.
    /// (Descending before looking cost 596 entries per search over paths of
    /// up to 583 edges on the benchmark's `relay-faults`, a fleet where a
    /// spare slot is almost always one hop away; looking first, 12 entries
    /// and 5 edges.) It leaves a saturated box along the box's matched list
    /// — the classes a unit of whose flow could be moved elsewhere — not to
    /// every class that lists the box.
    fn try_augment(&mut self, root: u32, scout: &mut usize, descent: &mut u32) -> bool {
        let hit = self.look_ahead(root, *scout, descent);
        *scout = hit.unwrap_or(self.classes[root as usize].cand.len());
        self.dfs_stack.clear();
        self.dfs_stack.push(Frame {
            class: root,
            from: NIL,
            cursor: *descent,
            link: NIL,
        });
        if let Some(hit) = hit {
            self.search.round.lookahead_hits += 1;
            self.push_path(hit as u32);
            return true;
        }
        while let Some(&(mut frame)) = self.dfs_stack.last() {
            if frame.cursor == UNSCOUTED {
                if let Some(hit) = self.look_ahead(frame.class, 0, &mut frame.cursor) {
                    *descent = self.dfs_stack[0].cursor;
                    self.push_path(hit as u32);
                    return true;
                }
            }
            // No box of the row has a spare slot (no search changes that
            // before it ends), so every entry leads into a saturated box:
            // the first class on a box's matched list that the pass has not
            // entered is the next frame.
            let cand = &self.classes[frame.class as usize].cand;
            let mut descend = None;
            while descend.is_none() {
                if frame.link != NIL {
                    let from = frame.link;
                    let record = self.links[from as usize];
                    frame.link = record.next;
                    self.search.round.edges_scanned += 1;
                    let mark = &mut self.class_mark[record.class as usize];
                    if *mark != self.visit_epoch {
                        *mark = self.visit_epoch;
                        descend = Some((record.class, from));
                    }
                } else if let Some(&(box_idx, _)) = cand.get(frame.cursor as usize) {
                    frame.cursor += 1;
                    self.search.round.edges_scanned += 1;
                    let mark = &mut self.box_mark[box_idx as usize];
                    if *mark != self.visit_epoch {
                        *mark = self.visit_epoch;
                        frame.link = self.box_head[box_idx as usize];
                    }
                } else {
                    break;
                }
            }
            *self.dfs_stack.last_mut().expect("read above") = frame;
            match descend {
                Some((class, from)) => self.dfs_stack.push(Frame {
                    class,
                    from,
                    cursor: UNSCOUTED,
                    link: NIL,
                }),
                None => drop(self.dfs_stack.pop()),
            }
        }
        false
    }

    /// Pushes one unit along the path held in `dfs_stack`, completed by
    /// entry `last` of the top class's search row (a box with a spare slot):
    /// each class takes a unit from the box one step nearer the free end and
    /// gives up the one it was entered by, so only the free box gains load
    /// and only the root a unit.
    fn push_path(&mut self, last: u32) {
        let edges = 2 * self.dfs_stack.len() as u64 - 1;
        self.search.round.longest_path = self.search.round.longest_path.max(edges);
        let mut pos = last;
        while let Some(frame) = self.dfs_stack.pop() {
            self.add_units(frame.class, pos, 1);
            if frame.from != NIL {
                self.remove_units(frame.from, 1);
            }
            if let Some(below) = self.dfs_stack.last() {
                pos = below.cursor - 1;
            }
        }
    }

    /// Writes the assignment for this round's requests into `out`: each
    /// class's units go to its members in input order, matched list first to
    /// last. Reads the mirror records only.
    fn extract(&mut self, out: &mut Vec<Option<BoxId>>) {
        out.clear();
        for member in &self.members {
            let state = &mut self.states[member.class as usize];
            if state.hand == FRESH {
                state.hand = state.head;
                state.hand_left = 0;
            }
            // A link runs dry when its last unit is handed out, so a cursor
            // with nothing left is one that has not read its link yet.
            if state.hand != NIL && state.hand_left == 0 {
                state.hand_left = self.links[state.hand as usize].units;
            }
            if state.hand == NIL {
                out.push(None);
                continue;
            }
            let record = &self.links[state.hand as usize];
            out.push(Some(BoxId(record.box_idx)));
            state.hand_left -= 1;
            if state.hand_left == 0 {
                state.hand = record.class_next;
            }
        }
    }

    /// Debug check: the tables describe one valid flow of value
    /// `total_flow`. Every box's matched list is well linked, its units the
    /// box's load, within its capacity, and the loads add up to
    /// `total_flow`; every class's is well linked, its units the class's
    /// served count, within its member count. Every record's `(class, pos)`
    /// names a `cand` entry holding that box and that record, and a class
    /// has as many records as entries with one. A class without members has
    /// no entries, and the live counters are what a full walk counts.
    fn flow_is_consistent(&self) -> bool {
        let mut total = 0;
        for (box_idx, &head) in self.box_head.iter().enumerate() {
            let mut load = 0;
            let (mut prev, mut cursor) = (NIL, head);
            while cursor != NIL {
                let record = &self.links[cursor as usize];
                let cand = &self.classes[record.class as usize].cand;
                if record.prev != prev
                    || record.units == 0
                    || record.box_idx as usize != box_idx
                    || cand.get(record.pos as usize) != Some(&(record.box_idx, cursor))
                {
                    return false;
                }
                load += record.units;
                (prev, cursor) = (cursor, record.next);
            }
            if load != self.load[box_idx] || load > self.caps[box_idx] {
                return false;
            }
            total += load as i64;
        }
        let (mut live_classes, mut live_entries) = (0, 0);
        let classes_hold = (0..self.classes.len()).all(|idx| {
            let (class, state) = (&self.classes[idx], &self.states[idx]);
            if state.members == 0 {
                return class.cand.is_empty() && state.head == NIL && state.served == 0;
            }
            live_classes += 1;
            live_entries += class.cand.len();
            let (mut served, mut records) = (0, 0);
            let (mut prev, mut cursor) = (NIL, state.head);
            while cursor != NIL {
                let record = &self.links[cursor as usize];
                if record.class as usize != idx || record.class_prev != prev {
                    return false;
                }
                served += record.units;
                records += 1;
                (prev, cursor) = (cursor, record.class_next);
            }
            let entries_with_flow = class.cand.iter().filter(|entry| entry.1 != NIL).count();
            served == state.served && served <= state.members && records == entries_with_flow
        });
        classes_hold
            && total == self.total_flow
            && (live_classes, live_entries) == (self.live_classes, self.live_entries)
    }

    /// Debug check: no augmenting path is left. Walks, with marks and a
    /// stack of its own, from every class short of units along search rows
    /// (a class could take a unit from any box it lists) and matched lists
    /// (a saturated box could move a unit of any class it serves) and finds
    /// no box with a spare slot: the residual graph's alternating
    /// reachability, read from the demand side.
    fn flow_is_maximal(&mut self) -> bool {
        let boxes = self.caps.len();
        self.dbg_seen.clear();
        self.dbg_seen.resize(boxes + self.classes.len(), false);
        self.dbg_stack.clear();
        for (idx, state) in self.states.iter().enumerate() {
            if state.served < state.members {
                self.dbg_seen[boxes + idx] = true;
                self.dbg_stack.push(idx as u32);
            }
        }
        while let Some(class) = self.dbg_stack.pop() {
            for &(box_idx, _) in &self.classes[class as usize].cand {
                let box_idx = box_idx as usize;
                if self.load[box_idx] < self.caps[box_idx] {
                    return false;
                }
                if std::mem::replace(&mut self.dbg_seen[box_idx], true) {
                    continue;
                }
                let mut cursor = self.box_head[box_idx];
                while cursor != NIL {
                    let record = &self.links[cursor as usize];
                    if !std::mem::replace(&mut self.dbg_seen[boxes + record.class as usize], true) {
                        self.dbg_stack.push(record.class);
                    }
                    cursor = record.next;
                }
            }
        }
        true
    }
}

/// The incremental matcher plugs into the engine as a
/// [`Scheduler`](crate::scheduler::Scheduler): keyed rounds patch the
/// persistent instance, unkeyed rounds fall back to the cold one-shot
/// solve.
impl crate::scheduler::Scheduler for IncrementalMatcher {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        let mut out = Vec::new();
        self.schedule_cold(capacities, candidates, &mut out);
        out
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        IncrementalMatcher::schedule_keyed(self, capacities, keys, candidates, out);
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        IncrementalMatcher::schedule_keyed_view(self, capacities, keys, candidates, out);
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        IncrementalMatcher::attach_tracer(self, tracer);
    }

    fn name(&self) -> &'static str {
        "incremental"
    }
}

impl std::fmt::Debug for IncrementalMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalMatcher")
            .field("solver", &self.solver.name())
            .field("boxes", &self.caps.len())
            .field("tracked_requests", &self.keys.len())
            .field("classes", &(self.classes.len() - self.free_classes.len()))
            .field("total_flow", &self.total_flow)
            .field("rebuilds", &self.rebuilds)
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{assignment_is_valid, assignment_is_valid_view};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use vod_core::VideoId;
    use vod_flow::{HopcroftKarpSolve, PushRelabel};

    fn key(viewer: u32, video: u32, index: u16) -> RequestKey {
        RequestKey {
            viewer: BoxId(viewer),
            stripe: StripeId::new(VideoId(video), index),
        }
    }

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    /// The life-time counters after a round that did `round` on top of
    /// `before`.
    fn after(mut before: SearchCounters, round: SearchCounters) -> SearchCounters {
        before.absorb(&round);
        before
    }

    fn cold_served(caps: &[u32], cands: &[Vec<BoxId>]) -> usize {
        let mut problem = vod_flow::ConnectionProblem::new(caps.to_vec());
        for c in cands {
            problem.add_request(c.iter().copied());
        }
        problem.solve().served()
    }

    #[test]
    fn first_round_matches_cold_solve() {
        let caps = vec![1, 1];
        let keys = vec![key(0, 0, 0), key(1, 0, 1)];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert!(assignment_is_valid(&out, &caps, &cands));
        assert_eq!(out.iter().flatten().count(), cold_served(&caps, &cands));
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn unchanged_rounds_do_not_rebuild_and_stay_optimal() {
        let caps = vec![2, 1];
        let keys = vec![key(0, 0, 0), key(1, 0, 1), key(2, 0, 2)];
        let cands = vec![vec![b(0)], vec![b(0), b(1)], vec![b(1)]];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        for _ in 0..10 {
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
            assert!(assignment_is_valid(&out, &caps, &cands));
            assert_eq!(out.iter().flatten().count(), 3);
        }
        assert_eq!(matcher.rebuilds(), 1);
        assert_eq!(matcher.rounds(), 10);
    }

    #[test]
    fn arrivals_and_departures_track_cold_solves() {
        // Rolling window of requests over 4 boxes: each round drops the
        // oldest request and adds a new one with rotating candidates.
        let caps = vec![1, 1, 1, 1];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        let mut window: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        for round in 0u32..40 {
            if window.len() >= 5 {
                window.remove(0);
            }
            let cands = vec![b(round % 4), b((round + 1) % 4)];
            window.push((key(round, round % 7, 0), cands));
            let keys: Vec<RequestKey> = window.iter().map(|(k, _)| *k).collect();
            let cands: Vec<Vec<BoxId>> = window.iter().map(|(_, c)| c.clone()).collect();
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
            assert!(assignment_is_valid(&out, &caps, &cands), "round {round}");
            assert_eq!(
                out.iter().flatten().count(),
                cold_served(&caps, &cands),
                "round {round}"
            );
        }
    }

    #[test]
    fn candidate_set_changes_are_patched() {
        let caps = vec![1, 1];
        let keys = vec![key(0, 0, 0), key(1, 0, 0)];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        // Round 1: both requests can only use box 0 → one unserved.
        let cands = vec![vec![b(0)], vec![b(0)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 1);
        // Round 2: request 1 gains box 1 → both served, no rebuild.
        let cands = vec![vec![b(0)], vec![b(0), b(1)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        // Round 3: request 0 loses box 0 entirely → its flow is cancelled.
        let cands = vec![vec![], vec![b(0), b(1)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out[0], None);
        assert_eq!(out.iter().flatten().count(), 1);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn capacity_reduction_evicts_and_reroutes() {
        let keys = vec![key(0, 0, 0), key(1, 0, 0)];
        let cands = vec![vec![b(0), b(1)], vec![b(0), b(1)]];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        matcher.schedule_keyed(&[2, 0], &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        // Box 0 shrinks to 1 slot, box 1 opens one: still fully servable.
        matcher.schedule_keyed(&[1, 1], &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        assert!(assignment_is_valid(&out, &[1, 1], &cands));
        // Both boxes shrink: only one request served.
        matcher.schedule_keyed(&[1, 0], &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 1);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn heavy_churn_triggers_compaction_and_stays_correct() {
        let caps = vec![2; 8];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        for round in 0u32..300 {
            // Entirely fresh keys each round, and rows no earlier round used
            // in that order: every row of the round before is garbage.
            let keys: Vec<RequestKey> = (0..6).map(|i| key(round * 10 + i, round % 5, 0)).collect();
            let cands: Vec<Vec<BoxId>> = (0..6u32)
                .map(|i| {
                    let mut row = vec![b((round + i) % 8), b((round + i + 3) % 8)];
                    row.rotate_left((round / 8 % 2) as usize);
                    row.push(b((round / 16 + i) % 8));
                    row
                })
                .collect();
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
            assert_eq!(out.iter().flatten().count(), 6, "round {round}");
            // What compaction existed to guarantee, every round: the tables
            // hold the live rows and nothing of the 6 × round rows before.
            assert_tables_hold(&mut matcher, &format!("round {round}"));
            assert!(matcher.arena_edge_count() <= 2 * (8 + 6 + 6 * 3));
        }
        assert_eq!(matcher.rebuilds(), 1, "nothing to compact, ever");
    }

    #[test]
    fn cold_one_shot_then_keyed_round_recovers() {
        let caps = vec![1, 1];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        matcher.schedule_cold(&caps, &[vec![b(0), b(1)], vec![b(0)]], &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        let keys = vec![key(0, 0, 0)];
        let cands = vec![vec![b(1)]];
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out, vec![Some(b(1))]);
    }

    /// `2 × (boxes + classes with members + distinct in-range boxes of their
    /// raw rows)`: what `arena_edge_count` must answer from its two counters,
    /// recounted from the rows the producer gave.
    fn walked_edge_count(matcher: &IncrementalMatcher) -> usize {
        let boxes = matcher.caps.len();
        let mut pairs = boxes;
        for (class, state) in matcher.classes.iter().zip(&matcher.states) {
            if state.members > 0 {
                let mut row: Vec<BoxId> = class.given.clone();
                row.retain(|b| b.index() < boxes);
                row.sort_unstable();
                row.dedup();
                pairs += 1 + row.len();
            }
        }
        2 * pairs
    }

    /// The debug predicates, asserted so release test builds check them
    /// too, and the edge count against a full walk.
    fn assert_tables_hold(matcher: &mut IncrementalMatcher, what: &str) {
        assert!(matcher.flow_is_consistent(), "{what}");
        assert!(matcher.flow_is_maximal(), "{what}");
        assert_eq!(
            matcher.arena_edge_count(),
            walked_edge_count(matcher),
            "{what}"
        );
    }

    /// One keyed round, checked three ways: the assignment is valid, its
    /// size equals a cold solve of the same instance, and the tables are
    /// consistent and maximal by the matcher's own debug predicates.
    fn checked_round(
        matcher: &mut IncrementalMatcher,
        caps: &[u32],
        live: &[(RequestKey, Vec<BoxId>)],
        out: &mut Vec<Option<BoxId>>,
        what: &str,
    ) {
        let keys: Vec<RequestKey> = live.iter().map(|(k, _)| *k).collect();
        let cands: Vec<Vec<BoxId>> = live.iter().map(|(_, c)| c.clone()).collect();
        matcher.schedule_keyed(caps, &keys, &cands, out);
        assert!(assignment_is_valid(out, caps, &cands), "{what}");
        assert_eq!(
            out.iter().flatten().count(),
            cold_served(caps, &cands),
            "{what}"
        );
        assert_tables_hold(matcher, what);
    }

    fn random_row(rng: &mut StdRng, boxes: usize) -> Vec<BoxId> {
        let degree = rng.gen_range(0..=boxes.min(6));
        (0..degree)
            .map(|_| b(rng.gen_range(0..boxes) as u32))
            .collect()
    }

    /// A round's requests, each with its row.
    type Live = Vec<(RequestKey, Vec<BoxId>)>;

    /// Requests sharing one row, as the script's generator sees them: the
    /// stamp is redrawn whenever the row changes, so equal stamps mean equal
    /// rows (two groups may still hold equal rows under different stamps).
    struct Group {
        row: Vec<BoxId>,
        stamp: u64,
        members: Vec<RequestKey>,
    }

    /// A seeded script over row classes of 1–64 members: classes appear,
    /// members join and leave mid-class or move to a row of their own, rows
    /// shrink, box capacities are cut and restored and — every 40 rounds, by
    /// swapping in an entirely fresh population for a few rounds — whole
    /// class tables die at once. Three matchers run it side by side, fed
    /// stamped rows, unstamped rows and slices of vecs: every round they must
    /// return the same assignment vector, valid and as large as a cold solve
    /// of the materialised rows, each with consistent, maximal tables that
    /// hold nothing but the live rows and one cold round behind it. Returns
    /// the stamped matcher with the last round's capacities and requests.
    fn run_script(
        make_solver: fn() -> Box<dyn MaxFlowSolve>,
        boxes: usize,
        rounds: u32,
        seed: u64,
    ) -> (IncrementalMatcher, Vec<u32>, Live) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<u32> = (0..boxes).map(|_| rng.gen_range(0u32..12)).collect();
        let mut caps = base.clone();
        let mut matchers = [(); 3].map(|()| IncrementalMatcher::new(make_solver()));
        let mut outs = [(); 3].map(|()| Vec::new());
        let mut groups: Vec<Group> = Vec::new();
        let (mut next_id, mut next_stamp) = (0u32, 0u64);
        let mut fresh_key = move || {
            next_id += 1;
            key(next_id, next_id % 5, 0)
        };
        let mut fresh_stamp = move || {
            next_stamp += 1;
            next_stamp
        };
        let mut buf = CandidateBuf::new();
        let mut loads = Vec::new();
        let mut last = Vec::new();
        for round in 0..rounds {
            if round % 40 >= 36 {
                groups.clear();
            }
            for _ in 0..rng.gen_range(0..3) {
                let size: usize = if rng.gen_bool(0.5) {
                    1
                } else {
                    rng.gen_range(1usize..=64)
                };
                groups.push(Group {
                    row: random_row(&mut rng, boxes),
                    stamp: fresh_stamp(),
                    members: (0..size).map(|_| fresh_key()).collect(),
                });
            }
            for group in &mut groups {
                if rng.gen_bool(0.3) {
                    group.members.push(fresh_key());
                }
                if rng.gen_bool(0.3) {
                    group
                        .members
                        .swap_remove(rng.gen_range(0..group.members.len()));
                }
            }
            groups.retain(|group| !group.members.is_empty());
            while groups.iter().map(|g| g.members.len()).sum::<usize>() > 300 {
                groups.swap_remove(rng.gen_range(0..groups.len()));
            }
            if !groups.is_empty() {
                // A row shrinks under all its members at once …
                let pick = rng.gen_range(0..groups.len());
                let group = &mut groups[pick];
                if !group.row.is_empty() {
                    group.row.remove(rng.gen_range(0..group.row.len()));
                    group.stamp = fresh_stamp();
                }
                // … and one member leaves its class for a row of its own.
                let pick = rng.gen_range(0..groups.len());
                if groups[pick].members.len() > 1 {
                    let member = groups[pick].members.pop().expect("two members");
                    groups.push(Group {
                        row: random_row(&mut rng, boxes),
                        stamp: fresh_stamp(),
                        members: vec![member],
                    });
                }
            }
            let box_idx = rng.gen_range(0..boxes);
            caps[box_idx] = match rng.gen_range(0..3) {
                0 => 0,
                1 => base[box_idx],
                _ => rng.gen_range(0u32..12),
            };

            // Input order interleaves the classes, as the engine's does.
            let mut live: Vec<(RequestKey, usize)> = groups
                .iter()
                .enumerate()
                .flat_map(|(g, group)| group.members.iter().map(move |&k| (k, g)))
                .collect();
            live.sort_unstable();
            let keys: Vec<RequestKey> = live.iter().map(|&(k, _)| k).collect();
            let rows: Vec<Vec<BoxId>> = live.iter().map(|&(_, g)| groups[g].row.clone()).collect();
            let stamps: Vec<u64> = live.iter().map(|&(_, g)| groups[g].stamp).collect();
            buf.fill_from_slices(&rows);
            let [stamped, plain, bridged] = &mut matchers;
            let [out_stamped, out_plain, out_bridged] = &mut outs;
            stamped.schedule_keyed_view(&caps, &keys, buf.view_with_stamps(&stamps), out_stamped);
            plain.schedule_keyed_view(&caps, &keys, buf.view(), out_plain);
            bridged.schedule_keyed(&caps, &keys, &rows, out_bridged);

            let what = format!("{boxes} boxes, seed {seed}, round {round}");
            assert_eq!(outs[0], outs[1], "{what}: stamps changed the assignment");
            assert_eq!(
                outs[1], outs[2],
                "{what}: the bridge changed the assignment"
            );
            assert!(
                assignment_is_valid_view(&outs[0], &caps, buf.view(), &mut loads),
                "{what}"
            );
            assert_eq!(
                outs[0].iter().flatten().count(),
                cold_served(&caps, &rows),
                "{what}"
            );
            for matcher in &mut matchers {
                assert_tables_hold(matcher, &what);
                assert_eq!(matcher.rebuilds(), 1, "{what}");
            }
            last = keys.into_iter().zip(rows).collect();
        }
        let [stamped, ..] = matchers;
        (stamped, caps, last)
    }

    #[test]
    fn mirror_equals_arena_through_a_seeded_script_under_every_solver() {
        let solvers: [fn() -> Box<dyn MaxFlowSolve>; 3] = [
            || Box::new(Dinic::new()),
            || Box::new(HopcroftKarpSolve::new()),
            || Box::new(PushRelabel::new()),
        ];
        for make_solver in solvers {
            run_script(make_solver, 12, 300, 2009);
        }
    }

    #[test]
    fn word_boundary_fleet_sizes() {
        for boxes in [1, 63, 64, 65] {
            run_script(|| Box::new(Dinic::new()), boxes, 60, boxes as u64);
        }
    }

    #[test]
    fn requests_sharing_a_row_share_one_node_and_one_edge_set() {
        // Forty requests over two rows: two class nodes, five candidate
        // edges and two sink edges, whatever the member counts.
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        for i in 0..40 {
            let row = if i % 4 == 0 {
                vec![b(0), b(1)]
            } else {
                vec![b(1), b(2), b(3)]
            };
            live.push((key(i, 0, 0), row));
        }
        let caps = [6, 6, 20, 20];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "cold");
        assert_eq!(out.iter().flatten().count(), 40);
        assert_eq!(matcher.arena_edge_count(), 2 * (4 + 2 + 5));
        // Members leave and join mid-class: capacities follow, no edge is
        // added, and the survivors keep their units.
        live.retain(|(k, _)| k.viewer.0 % 3 != 0);
        live.push((key(100, 0, 0), vec![b(0), b(1)]));
        checked_round(&mut matcher, &caps, &live, &mut out, "churn");
        assert_eq!(out.iter().flatten().count(), live.len());
        assert_eq!(matcher.arena_edge_count(), 2 * (4 + 2 + 5));
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn a_changed_row_retargets_its_class_in_place_and_keeps_the_flow() {
        // Eight requests share [0, 1, 2]; box 2 then drops out of the row
        // (a cache entry expired). The class keeps its node and the units on
        // boxes 0 and 1; only box 2's three units are re-routed.
        let caps = [3, 3, 3, 3];
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = (0..8)
            .map(|i| (key(i, 0, 0), vec![b(0), b(1), b(2)]))
            .collect();
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "cold");
        assert_eq!(out.iter().flatten().count(), 8);
        let edges = matcher.arena_edge_count();
        for (_, row) in &mut live {
            *row = vec![b(0), b(1), b(3)];
        }
        checked_round(&mut matcher, &caps, &live, &mut out, "retargeted");
        assert_eq!(out.iter().flatten().count(), 8);
        assert_eq!(matcher.arena_edge_count(), edges, "one entry out, one in");
        let round = matcher.search_stats().round;
        assert!(round.searches <= 3, "{} searches", round.searches);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn a_departed_class_is_garbage_at_once() {
        // Two 30-member classes over all 40 boxes and a small one. When the
        // big two leave, their 82 edge pairs are gone from the count in the
        // round they leave in, with no rebuild to take them out.
        let boxes = 40u32;
        let caps = vec![2u32; boxes as usize];
        let forward: Vec<BoxId> = (0..boxes).map(b).collect();
        let backward: Vec<BoxId> = (0..boxes).rev().map(b).collect();
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        for i in 0..30 {
            live.push((key(i, 0, 0), forward.clone()));
            live.push((key(i, 0, 1), backward.clone()));
        }
        let small: Vec<(RequestKey, Vec<BoxId>)> = (0..4)
            .map(|i| (key(100 + i, 1, 0), vec![b(0), b(1), b(2)]))
            .collect();
        live.extend(small.iter().cloned());
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "all");
        assert_eq!(matcher.arena_edge_count(), 2 * (40 + 3 + 40 + 40 + 3));
        let before = out[60..].to_vec();
        assert_eq!(matcher.rebuilds(), 1);
        // The cold round places all 64 units, each by a path of its own.
        let cold = matcher.search_stats().total;
        assert_eq!(cold.augmented, 64);
        checked_round(&mut matcher, &caps, &small, &mut out, "departed");
        assert_eq!(matcher.arena_edge_count(), 2 * (40 + 1 + 3));
        // A pure departure keeps the matching of what stays: nothing to
        // search for, now or in the round after.
        assert_eq!(out, before);
        assert_eq!(matcher.search_stats().total, cold);
        checked_round(&mut matcher, &caps, &small, &mut out, "after");
        assert_eq!(out, before);
        assert_eq!(matcher.search_stats().total, cold);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn targeted_search_leaves_a_fat_box_along_matched_edges_only() {
        // Box 0 has 5 000 candidate edges (every request has a row of its
        // own: its third candidate is a closed box no other request lists)
        // and `cap` slots, all taken by the first `cap` requests (box 1,
        // their only alternative, starts closed); every other request sits
        // on box 2.
        let cap = 4u32;
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        for i in 0..5_000 {
            let alternative = if i < cap { b(1) } else { b(2) };
            live.push((key(i, 0, 0), vec![b(0), alternative, b(3 + i)]));
        }
        let mut caps = vec![0u32; 3 + 5_000];
        caps[..3].copy_from_slice(&[cap, 0, 5_000]);
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "setup");
        assert!(out[..cap as usize].iter().all(|a| *a == Some(b(0))));
        let cold = matcher.search_stats().total;

        // Box 1 opens one slot and a request arrives that only box 0 can
        // serve: newcomer → box 0 → one of its four requests → box 1.
        live.push((key(5_000, 0, 0), vec![b(0)]));
        caps[1] = 1;
        checked_round(&mut matcher, &caps, &live, &mut out, "arrival");
        assert_eq!(out[5_000], Some(b(0)));
        let round = matcher.search_stats().round;
        assert_eq!((round.searches, round.augmented), (1, 1));
        assert_eq!(round.longest_path, 3);
        // The newcomer's row (one candidate), box 0's matched list, one
        // displaced request's row (three candidates) — not box 0's
        // 5 000-entry adjacency list.
        assert!(
            round.edges_scanned <= 1 + cap as u64 + 3,
            "scanned {} entries",
            round.edges_scanned
        );
        assert_eq!(matcher.search_stats().total, after(cold, round));
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn a_spare_slot_at_the_end_of_the_row_is_found_before_any_descent() {
        // Boxes 0..4 are full (each serves the one request that also lists
        // box 5 + i, closed in the first round), box 4 is empty.
        let mut caps = vec![1u32; 9];
        caps[5..].fill(0);
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = (0..4)
            .map(|i| (key(i, 0, 0), vec![b(i), b(5 + i)]))
            .collect();
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "setup");
        assert_eq!(out, (0..4).map(|i| Some(b(i))).collect::<Vec<_>>());

        // Boxes 5..9 open, so a walk that went down into box 0 would find a
        // path of three edges (newcomer → box 0 → request 0 → box 5). The
        // newcomer's own row ends in a box with a spare slot.
        caps[5..].fill(1);
        let row: Vec<BoxId> = (0..5).map(b).collect();
        live.push((key(9, 0, 0), row.clone()));
        checked_round(&mut matcher, &caps, &live, &mut out, "arrival");
        assert_eq!(out[4], Some(b(4)));
        assert_eq!(out[..4], (0..4).map(|i| Some(b(i))).collect::<Vec<_>>());
        let round = matcher.search_stats().round;
        assert_eq!((round.searches, round.augmented), (1, 1));
        assert_eq!((round.passes, round.lookahead_hits), (1, 1));
        assert_eq!(round.longest_path, 1);
        assert!(
            round.edges_scanned <= row.len() as u64,
            "scanned {} entries of a row of {}",
            round.edges_scanned,
            row.len()
        );
    }

    #[test]
    fn a_class_short_of_several_units_gains_them_all_in_one_pass() {
        let caps = [2, 2, 2, 1];
        let mut live = vec![(key(100, 1, 0), vec![b(3)])];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "setup");
        let cold = matcher.search_stats().total;
        assert_eq!((cold.passes, cold.searches, cold.lookahead_hits), (1, 1, 1));
        // Six members arrive under one row: one root, six searches, and the
        // pass's marks do not stand in the root's way after its first unit.
        live.extend((0..6).map(|i| (key(i, 0, 0), vec![b(0), b(1), b(2)])));
        checked_round(&mut matcher, &caps, &live, &mut out, "arrivals");
        assert_eq!(out.iter().flatten().count(), 7);
        let round = matcher.search_stats().round;
        assert_eq!((round.searches, round.augmented), (6, 6));
        assert_eq!((round.passes, round.lookahead_hits), (1, 6));
        assert_eq!(matcher.search_stats().total, after(cold, round));
    }

    #[test]
    fn a_pass_of_direct_placements_needs_no_second_one() {
        let caps = [2, 1];
        let mut live = vec![(key(100, 1, 0), vec![b(1)])];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "setup");
        let cold = matcher.search_stats().total;
        assert_eq!(cold.passes, 1);
        // Three members, two slots: two units placed directly, then a
        // failure, which nothing the pass did can have caused.
        live.extend((0..3).map(|i| (key(i, 0, 0), vec![b(0)])));
        checked_round(&mut matcher, &caps, &live, &mut out, "arrivals");
        assert_eq!(out.iter().flatten().count(), 3);
        let round = matcher.search_stats().round;
        assert_eq!((round.passes, round.searches), (1, 3));
        assert_eq!((round.augmented, round.lookahead_hits), (2, 2));
        // Nothing changes: the class stays short and is not searched again.
        checked_round(&mut matcher, &caps, &live, &mut out, "unchanged");
        assert_eq!(matcher.search_stats().round, SearchCounters::default());
        // A slot opens: one pass places the unit and nothing is left.
        checked_round(&mut matcher, &[3, 1], &live, &mut out, "opened");
        assert_eq!(out.iter().flatten().count(), 4);
        let round = matcher.search_stats().round;
        assert_eq!((round.passes, round.searches, round.augmented), (1, 1, 1));
        assert_eq!(matcher.search_stats().total.passes, cold.passes + 2);
    }

    /// Box 0 (two slots) is full of a two-member class that can also use box
    /// 2; two newcomers can only use box 0.
    /// Returns the matcher, the search counters of the cold setup round and
    /// of the newcomers' round, and the newcomers' round's assignment.
    fn newcomers_behind_a_full_box(
        box_2_slots: u32,
    ) -> (
        IncrementalMatcher,
        SearchCounters,
        SearchCounters,
        Vec<Option<BoxId>>,
    ) {
        let mut live: Vec<(RequestKey, Vec<BoxId>)> =
            (0..2).map(|i| (key(i, 0, 0), vec![b(0), b(2)])).collect();
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &[2, 0, 0], &live, &mut out, "setup");
        let cold = matcher.search_stats().round;
        live.extend((0..2).map(|i| (key(10 + i, 1, 0), vec![b(0)])));
        checked_round(&mut matcher, &[2, 0, box_2_slots], &live, &mut out, "in");
        let round = matcher.search_stats().round;
        (matcher, cold, round, out)
    }

    #[test]
    fn a_unit_behind_a_box_crossed_earlier_in_the_pass_is_placed_by_the_next() {
        // The first search moves one of box 0's units over to box 2; the
        // second finds box 0 marked for the rest of the pass and is retried,
        // successfully, by pass two, after which nothing is short.
        let (_, _, round, out) = newcomers_behind_a_full_box(2);
        assert_eq!(out.iter().flatten().count(), 4);
        assert_eq!(round.passes, 2);
        assert_eq!((round.searches, round.augmented), (3, 2));
        assert_eq!((round.longest_path, round.lookahead_hits), (3, 0));
    }

    #[test]
    fn a_pass_that_crosses_a_box_and_leaves_a_unit_is_followed_by_a_dry_one() {
        // Box 2 has room for one unit only. Pass one moves it there and
        // fails the second newcomer on box 0's mark, which proves nothing;
        // pass two fails it under fresh marks, and that is the proof.
        let (matcher, cold, round, out) = newcomers_behind_a_full_box(1);
        assert_eq!(out.iter().flatten().count(), 3);
        assert_eq!(round.passes, 2);
        assert_eq!((round.searches, round.augmented), (3, 1));
        // The cold round placed its class's two units on box 0 directly.
        assert_eq!((cold.searches, cold.lookahead_hits), (2, 2));
        assert_eq!(matcher.search_stats().total, after(cold, round));
    }

    #[test]
    fn a_mostly_unserved_warm_round_is_searched_under_every_solver() {
        let solvers: [fn() -> Box<dyn MaxFlowSolve>; 3] = [
            || Box::new(Dinic::new()),
            || Box::new(HopcroftKarpSolve::new()),
            || Box::new(PushRelabel::new()),
        ];
        // Twenty classes of ten over 24 boxes of 8 slots (200 requests, 192
        // slots): tight, so units must be displaced, not just placed.
        let class_row = |c: u32| vec![b(c % 24), b((c * 7 + 3) % 24), b((c * 5 + 11) % 24)];
        let population = |classes: std::ops::Range<u32>| -> Vec<(RequestKey, Vec<BoxId>)> {
            classes
                .flat_map(|c| (0..10).map(move |i| (key(c * 10 + i, c, 0), class_row(c))))
                .collect()
        };
        let caps = vec![8u32; 24];
        for make_solver in solvers {
            let mut matcher = IncrementalMatcher::new(make_solver());
            let what = matcher.solver_name();
            let mut out = Vec::new();
            checked_round(&mut matcher, &caps, &population(0..20), &mut out, what);
            // Half the classes leave, ten new ones arrive, and three boxes
            // lose most of their slots — all in one round. At least 100 of
            // 200 units are unserved after patching, far beyond the eighth
            // above which such rounds used to go to the solver.
            let live = population(10..30);
            let arrivals = 100;
            assert!(arrivals * 8 > live.len() + 64);
            let mut cut = caps.clone();
            cut[..3].fill(2);
            checked_round(&mut matcher, &cut, &live, &mut out, what);
            let round = matcher.search_stats().round;
            assert!(
                round.augmented > 0 && round.passes >= 2,
                "{what}: {round:?}"
            );
            assert_eq!(matcher.rebuilds(), 1, "{what}");
            // And back: the units the cut left unserved are placed.
            checked_round(&mut matcher, &caps, &live, &mut out, what);
            assert_eq!(out.iter().flatten().count(), 192, "{what}");
        }
    }

    #[test]
    fn compaction_keeps_the_matching() {
        // Twenty-four long-lived requests in twelve classes of two fill
        // boxes 0..12 (2 slots each); eight short-lived ones a round rotate
        // over boxes 12..24 (1 slot each): 1 600 rows come and go, which an
        // arena kept in step had to be rebuilt for, the matching pushed back.
        let mut caps = vec![2u32; 12];
        caps.extend([1; 12]);
        let stable: Vec<(RequestKey, Vec<BoxId>)> = (0..24)
            .map(|i| (key(i, 0, 0), vec![b(i % 12), b((i + 1) % 12)]))
            .collect();
        // The boxes serving each class (members `i` and `i + 12`), sorted:
        // which member holds which of the class's units is not pinned.
        let per_class = |out: &[Option<BoxId>]| -> Vec<[Option<BoxId>; 2]> {
            (0..12)
                .map(|i| {
                    let mut pair = [out[i], out[i + 12]];
                    pair.sort_unstable();
                    pair
                })
                .collect()
        };
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        let mut before = Vec::new();
        for round in 0u32..200 {
            let mut live = stable.clone();
            for i in 0..8 {
                let id = 1_000 + round * 8 + i;
                let mut row = vec![b(12 + id % 12), b(12 + (id + 5) % 12)];
                // No two rounds' rows alike, so none is recycled.
                row.push(b(24 + round));
                live.push((key(id, 1, 0), row));
            }
            let mut round_caps = caps.clone();
            round_caps.resize(24 + 200, 0);
            let what = format!("round {round}");
            checked_round(&mut matcher, &round_caps, &live, &mut out, &what);
            assert_eq!(out[..24].iter().flatten().count(), 24, "{what}");
            if round > 0 {
                // The survivors kept their boxes, so only the eight
                // arrivals were searched for.
                assert_eq!(per_class(&out), before, "{what}");
                assert_eq!(matcher.search_stats().round.searches, 8, "{what}");
            }
            assert_eq!(
                matcher.arena_edge_count(),
                2 * (224 + 12 + 24 + 8 + 24),
                "{what}"
            );
            before = per_class(&out);
        }
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn zero_capacity_boxes_serve_nothing() {
        let live = vec![
            (key(0, 0, 0), vec![b(0), b(1)]),
            (key(1, 0, 0), vec![b(0)]),
            (key(2, 0, 0), vec![b(1)]),
        ];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &[0, 1], &live, &mut out, "cold");
        assert_eq!(out[1], None);
        checked_round(&mut matcher, &[0, 0], &live, &mut out, "all closed");
        assert_eq!(out, vec![None, None, None]);
        checked_round(&mut matcher, &[1, 0], &live, &mut out, "swapped");
        assert_eq!(out[2], None);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn arrival_whose_only_candidate_is_cut_in_the_same_round() {
        let mut live = vec![(key(0, 0, 0), vec![b(0)])];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &[1, 1], &live, &mut out, "before");
        assert_eq!(out, vec![Some(b(0))]);
        // Box 0 closes (evicting request 0) as request 1 arrives for it.
        live.push((key(1, 0, 0), vec![b(0)]));
        checked_round(&mut matcher, &[0, 1], &live, &mut out, "cut");
        assert_eq!(out, vec![None, None]);
        checked_round(&mut matcher, &[1, 1], &live, &mut out, "restored");
        assert_eq!(out.iter().flatten().count(), 1);
    }

    #[test]
    fn recycled_slot_starts_unassigned() {
        let caps = [1, 1, 1];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        let first = vec![(key(0, 0, 0), vec![b(0), b(1)])];
        checked_round(&mut matcher, &caps, &first, &mut out, "first");
        // Request 0 leaves in the round request 1 arrives (into a fresh
        // class slot: arrivals are placed before departures are swept) …
        let second = vec![(key(1, 0, 0), vec![b(0)])];
        checked_round(&mut matcher, &caps, &second, &mut out, "second");
        assert_eq!(out, vec![Some(b(0))]);
        // … and request 2 then inherits request 0's slot with its still
        // active edges to boxes 0 and 1, of which it wants only box 1.
        let third = vec![second[0].clone(), (key(2, 0, 0), vec![b(1), b(2)])];
        checked_round(&mut matcher, &caps, &third, &mut out, "third");
        assert_eq!(out.iter().flatten().count(), 2);
        assert_eq!(matcher.classes.len(), 2, "the freed slot was not reused");
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn duplicate_and_out_of_range_candidates_collapse() {
        let caps = [1, 1];
        let mut live = vec![(key(0, 0, 0), vec![b(1), b(1), b(7), b(0), b(1)])];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "cold");
        // Two source edges, one sink edge, one candidate edge per real box.
        assert_eq!(matcher.arena_edge_count(), 2 * (2 + 1 + 2));
        live[0].1 = vec![b(9), b(0), b(0)];
        live.push((key(1, 0, 0), vec![b(0), b(0), b(2)]));
        checked_round(&mut matcher, &caps, &live, &mut out, "patched");
        assert_eq!(out.iter().flatten().count(), 1);
        // Box 1 left the first row and took its entry with it.
        assert_eq!(matcher.arena_edge_count(), 2 * (2 + 2 + 2));
        assert_eq!(search_row(&matcher, live[0].0), [0]);
        assert_eq!(search_row(&matcher, live[1].0), [0]);
    }

    /// The boxes of the search row of `key`'s class, in order.
    fn search_row(matcher: &IncrementalMatcher, key: RequestKey) -> Vec<u32> {
        let at = matcher
            .keys
            .iter()
            .position(|&k| k == key)
            .expect("a tracked key");
        let class = matcher.members[at].class as usize;
        let cand = &matcher.classes[class].cand;
        cand.iter().map(|&(box_idx, _)| box_idx).collect()
    }

    #[test]
    fn a_search_row_is_ascending_keeps_its_order_and_takes_additions_behind() {
        // Three members under one row, listed out of order and with a
        // duplicate and a box that does not exist: the search row is
        // ascending whatever the producer did.
        let caps = [1u32; 8];
        let row = |boxes: &[u32]| boxes.iter().map(|&i| b(i)).collect::<Vec<_>>();
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = (0..3)
            .map(|i| (key(i, 0, 0), row(&[5, 2, 7, 2, 9, 3])))
            .collect();
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "cold");
        assert_eq!(search_row(&matcher, live[0].0), [2, 3, 5, 7]);
        assert_eq!(out.iter().flatten().count(), 3);
        let served = out.clone();
        let cold = matcher.search_stats().total;

        // The one box that serves none of the three leaves the row, and the
        // producer lists the rest backwards: the entries that stay keep their
        // places and their flow, and nothing is searched for.
        let idle = [2, 3, 5, 7]
            .into_iter()
            .find(|&i| !out.contains(&Some(b(i))))
            .expect("three units over four boxes");
        let mut kept: Vec<u32> = [7, 5, 3, 2].into_iter().filter(|&i| i != idle).collect();
        for (_, given) in &mut live {
            *given = row(&kept);
        }
        checked_round(&mut matcher, &caps, &live, &mut out, "shrunk");
        kept.reverse();
        assert_eq!(search_row(&matcher, live[0].0), kept);
        assert_eq!(out, served);
        assert_eq!(matcher.search_stats().round, SearchCounters::default());
        assert_eq!(matcher.search_stats().total, cold);

        // Boxes join the row: behind what was there, in ascending id, not
        // where the producer put them. A class arriving on a warm round is
        // ascending from the start.
        let mut grown = vec![6, 1];
        grown.extend(&kept);
        grown.push(0);
        for (_, given) in &mut live {
            *given = row(&grown);
        }
        live.push((key(9, 1, 0), row(&[4, 6, 0])));
        checked_round(&mut matcher, &caps, &live, &mut out, "grown");
        kept.extend([0, 1, 6]);
        assert_eq!(search_row(&matcher, live[0].0), kept);
        assert_eq!(search_row(&matcher, live[3].0), [0, 4, 6]);
        assert_eq!(out[..3], served[..]);
        // The newcomer takes the first free box of its row: one look.
        assert_eq!(out[3], Some(b(0)));
        let round = matcher.search_stats().round;
        assert_eq!((round.searches, round.lookahead_hits), (1, 1));
        assert_eq!(round.edges_scanned, 1);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn a_class_whose_serving_box_leaves_its_row_is_re_served_by_one_look() {
        let caps = [1u32; 4];
        let mut live = vec![(key(0, 0, 0), vec![b(0), b(1), b(2), b(3)])];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &live, &mut out, "cold");
        let serving = out[0].expect("four free boxes");
        live[0].1.retain(|&candidate| candidate != serving);
        checked_round(&mut matcher, &caps, &live, &mut out, "left");
        assert!(out[0].is_some() && out[0] != Some(serving));
        let round = matcher.search_stats().round;
        assert_eq!((round.passes, round.searches), (1, 1));
        assert_eq!((round.augmented, round.lookahead_hits), (1, 1));
        assert_eq!(round.longest_path, 1);
        assert!(round.edges_scanned <= 3, "scanned {}", round.edges_scanned);
    }

    #[test]
    fn a_cold_build_after_a_warm_script_serves_a_cold_solve_under_every_solver() {
        let solvers: [fn() -> Box<dyn MaxFlowSolve>; 3] = [
            || Box::new(Dinic::new()),
            || Box::new(HopcroftKarpSolve::new()),
            || Box::new(PushRelabel::new()),
        ];
        for make_solver in solvers {
            let (mut matcher, mut caps, live) = run_script(make_solver, 12, 100, 7);
            let what = matcher.solver_name();
            assert!(live.len() > 50, "{what}: the script ended idle");
            let mut out = Vec::new();
            // Twice over — by a fleet-size change, then by a one-shot solve
            // (the one call that reaches the solver) — the tables start
            // over: the search routes the whole instance from the empty
            // matching, and an unchanged warm round after it finds nothing
            // to do.
            for builds in [2, 3] {
                if builds == 2 {
                    caps.push(3);
                } else {
                    let one_shot = [vec![b(0)], vec![b(0), b(12)]];
                    matcher.schedule_cold(&caps, &one_shot, &mut out);
                    let served = out.iter().flatten().count();
                    assert_eq!(served, cold_served(&caps, &one_shot), "{what}");
                }
                checked_round(&mut matcher, &caps, &live, &mut out, what);
                assert_eq!(matcher.rebuilds(), builds, "{what}");
                let searched = matcher.search_stats().total;
                checked_round(&mut matcher, &caps, &live, &mut out, what);
                assert_eq!(matcher.rebuilds(), builds, "{what}");
                assert_eq!(matcher.search_stats().total, searched, "{what}");
            }
        }
    }

    /// The tracked requests are last round's keys, and `order` lists them
    /// ascending.
    fn assert_tracks(matcher: &IncrementalMatcher, keys: &[RequestKey], what: &str) {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let tracked: Vec<RequestKey> = matcher
            .order
            .iter()
            .map(|&pos| matcher.keys[pos as usize])
            .collect();
        assert_eq!(tracked, sorted, "{what}");
        assert_eq!(matcher.members.len(), keys.len(), "{what}");
    }

    #[test]
    fn any_key_order_serves_what_the_sorted_order_and_the_naive_matcher_serve() {
        use crate::scheduler::{NaiveScheduler, Scheduler};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let boxes = 10;
            let caps: Vec<u32> = (0..boxes).map(|_| rng.gen_range(0u32..4)).collect();
            // Rows shared by classes of requests, keys spread over viewers.
            let rows: Vec<Vec<BoxId>> = (0..6).map(|_| random_row(&mut rng, boxes)).collect();
            let mut live: Live = (0..60u32)
                .map(|v| {
                    (
                        key(v, v % 4, (v % 3) as u16),
                        rows[rng.gen_range(0..rows.len())].clone(),
                    )
                })
                .collect();
            live.sort_unstable_by_key(|(key, _)| *key);
            let what = format!("seed {seed}");
            let mut sorted = IncrementalMatcher::default();
            let mut out = Vec::new();
            checked_round(&mut sorted, &caps, &live, &mut out, &what);
            let served = out.iter().flatten().count();
            let cands: Vec<Vec<BoxId>> = live.iter().map(|(_, row)| row.clone()).collect();
            let naive = NaiveScheduler::new().schedule(&caps, &cands);
            assert_eq!(served, naive.iter().flatten().count(), "{what}");

            // A cold matcher on a shuffle, and the sorted matcher warm on
            // another: the same size, and every request that stayed is
            // found again — an identical round hashes no row.
            let mut shuffled = live.clone();
            let mut cold = IncrementalMatcher::default();
            for (label, matcher) in [("cold", &mut cold), ("warm", &mut sorted)] {
                shuffled.shuffle(&mut rng);
                let what = format!("{what}, {label} shuffle");
                checked_round(matcher, &caps, &shuffled, &mut out, &what);
                assert_eq!(out.iter().flatten().count(), served, "{what}");
                let keys: Vec<RequestKey> = shuffled.iter().map(|(key, _)| *key).collect();
                assert_tracks(matcher, &keys, &what);
            }
            assert_eq!(sorted.row_work(), RowWork::default(), "{what}");
            assert_eq!(sorted.rebuilds(), 1, "{what}");

            // Drop a third, shuffle the rest: the departures leave exactly.
            shuffled.retain(|_| rng.gen_bool(0.66));
            let what = format!("{what}, departures");
            checked_round(&mut sorted, &caps, &shuffled, &mut out, &what);
            let keys: Vec<RequestKey> = shuffled.iter().map(|(key, _)| *key).collect();
            assert_tracks(&sorted, &keys, &what);
            let members: u32 = sorted.states.iter().map(|state| state.members).sum();
            assert_eq!(members as usize, shuffled.len(), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate request key")]
    fn a_duplicate_key_in_key_order_panics() {
        let mut matcher = IncrementalMatcher::default();
        let keys = [key(0, 0, 0), key(1, 0, 0), key(1, 0, 0)];
        let cands = vec![vec![b(0)]; 3];
        matcher.schedule_keyed(&[3], &keys, &cands, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "duplicate request key")]
    fn a_duplicate_key_out_of_order_panics_on_a_warm_round() {
        let mut matcher = IncrementalMatcher::default();
        let keys = [key(0, 0, 0), key(1, 0, 0), key(2, 0, 0)];
        let cands = vec![vec![b(0)]; 3];
        matcher.schedule_keyed(&[3], &keys, &cands, &mut Vec::new());
        let keys = [key(2, 0, 0), key(0, 0, 0), key(2, 0, 0)];
        matcher.schedule_keyed(&[3], &keys, &cands, &mut Vec::new());
    }

    #[test]
    fn a_key_that_skips_a_round_is_admitted_again() {
        let caps = [1, 1, 1];
        let (gone, kept) = (key(0, 0, 1), key(5, 0, 1));
        let both: Live = vec![(gone, vec![b(0), b(1)]), (kept, vec![b(1), b(2)])];
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &caps, &both, &mut out, "both");
        checked_round(&mut matcher, &caps, &both[1..], &mut out, "skipped");
        assert_tracks(&matcher, &[kept], "skipped");
        assert_eq!(matcher.live_classes, 1);
        // Back, on a row of its own again: a class of one, served.
        checked_round(&mut matcher, &caps, &both, &mut out, "back");
        assert_tracks(&matcher, &[gone, kept], "back");
        assert_eq!(out.iter().flatten().count(), 2);
        assert_eq!(matcher.live_classes, 2);
        assert_eq!(
            matcher.row_work().hashed_rows,
            1,
            "the returning key is an arrival"
        );
    }
}
