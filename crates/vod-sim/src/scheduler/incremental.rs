//! Incremental per-round connection matching.
//!
//! Consecutive simulation rounds solve nearly identical matching instances:
//! most playbacks continue, so most stripe requests and their candidate sets
//! carry over unchanged, and per-box capacities are static. The
//! [`IncrementalMatcher`] exploits this by keeping one Lemma-1 flow network
//! alive inside a [`FlowArena`] across rounds:
//!
//! * requests are identified by a stable [`RequestKey`]; each round the
//!   incoming key set is diffed against the previous round's;
//! * surviving requests keep their node, edges, **and assigned flow**;
//!   departed requests have their flow cancelled and their edges
//!   de-capacitated; new requests get (or reuse) a node and edges;
//! * candidate-set changes patch edge capacities in place, reviving a
//!   previously de-capacitated edge when a candidate returns (a box's cache
//!   entry ageing out and re-appearing is common under churn);
//! * maximality is then restored from the repaired flow: with few unserved
//!   requests by one *targeted* alternating search each, otherwise by the
//!   solver, *warm-started* on the residual, so either way only the delta is
//!   routed instead of re-solving from zero.
//!
//! Beside the arena the matcher keeps an **assignment mirror**: each slot
//! remembers the candidate edge (and box) carrying its unit of flow, and
//! each box heads an intrusive doubly-linked list of the slots assigned to
//! it. The matcher's own flow edits keep the mirror exact; after a solver
//! call — the only place flow moves behind the matcher's back —
//! `resync_assignments` re-reads it. The targeted search therefore leaves a
//! saturated box only along its ≤ `cap` matched edges (never along its whole
//! adjacency list, which holds every candidate edge ever created, live or
//! dead), and extraction, departure and capacity eviction read the mirror
//! in O(1) per request.
//!
//! All bookkeeping (slots, edge lists, scratch buffers, the key map) reuses
//! its allocations, so a steady-state round — same working set of requests —
//! performs **zero heap allocations** in the matching layer. De-capacitated
//! edges accumulate in the arena under heavy churn; when more than half of
//! the arena is dead the matcher compacts by rebuilding in place (amortized
//! O(1), still allocation-free once the arena has grown to the high-water
//! mark) and pushing the surviving requests' flow back onto the boxes the
//! mirror remembered, so the round after a compaction is as warm as any.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use vod_core::{BoxId, StripeId};
use vod_flow::{CandidateBuf, CandidateView, Dinic, FlowArena, MaxFlowSolve, NodeId, NO_STAMP};
use vod_obs::TraceHandle;

/// Deterministic multiply-xor hasher for the request-key map: the default
/// SipHash dominates the per-round diff cost at thousands of lookups per
/// round, and HashDoS resistance is irrelevant for simulator-internal keys
/// (shared with the flow layer via [`vod_core::hash`]).
pub type KeyHasher = vod_core::FxHasher64;

type KeyMap<V> = HashMap<RequestKey, V, BuildHasherDefault<KeyHasher>>;

/// Stable identity of a stripe request across rounds.
///
/// Within one round a viewer has at most one active request per stripe, and a
/// viewer's playback of a video spans contiguous rounds, so `(viewer,
/// stripe)` identifies "the same request as last round".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey {
    /// The box that will play the stripe.
    pub viewer: BoxId,
    /// The requested stripe.
    pub stripe: StripeId,
}

/// "No slot" / "no box" in the assignment mirror's `u32` links (the mirror
/// costs four bytes per box, so it stays off the large-fleet memory budget).
const NIL: u32 = u32::MAX;

/// Work counters of the targeted augmenting search: plain integer adds on
/// the search path (no clock, no allocation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Searches started (one per unserved request per targeted round).
    pub searches: u64,
    /// Searches that found an augmenting path.
    pub augmented: u64,
    /// Entries examined: request-row adjacency entries plus matched-list
    /// entries of saturated boxes.
    pub edges_scanned: u64,
    /// Longest augmenting path pushed, in bipartite edges (1 = the request
    /// found a box with a spare slot directly).
    pub longest_path: u64,
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

/// One frame of the targeted search's alternating depth-first walk.
#[derive(Clone, Copy, Debug)]
enum Frame {
    /// At a request: `cursor` is the next entry of the request node's arena
    /// adjacency list to examine.
    Request { slot: u32, cursor: Option<usize> },
    /// At a saturated box entered along candidate edge `via` (box → the
    /// request one frame down): `cursor` is the next slot of the box's
    /// matched list to examine.
    Box { via: usize, cursor: u32 },
}

/// One tracked request: its node in the arena and every edge ever created
/// for it. Slots (and their edge lists) are pooled and reused.
#[derive(Clone, Debug)]
struct RequestSlot {
    node: NodeId,
    sink_edge: usize,
    /// Candidate edges ever created for this node, one per box, in creation
    /// order. An edge is *active* when its capacity is 1, de-capacitated (0)
    /// otherwise.
    cand_edges: Vec<(BoxId, usize)>,
    /// Assignment mirror: the box serving this request ([`NIL`] when
    /// unserved) and the candidate edge carrying the unit of flow.
    assigned_box: u32,
    assigned_edge: usize,
    /// Neighbours in `assigned_box`'s matched list ([`NIL`]-terminated).
    next: u32,
    prev: u32,
    /// The raw candidate list as last given, letting unchanged rounds skip
    /// the diff entirely.
    given: Vec<BoxId>,
    /// False until `given` reflects this slot's active edges (freshly
    /// allocated or recycled slots must run a full diff).
    given_valid: bool,
    /// The producer change stamp `given` was captured under
    /// ([`vod_flow::NO_STAMP`] when the producer attached none): an equal
    /// stamp on a later round proves the row unchanged without comparing it.
    given_stamp: u64,
    /// Round stamp of the last round that listed this request.
    stamp: u64,
    /// Position of this request in the current round's input.
    pos: usize,
}

impl Default for RequestSlot {
    fn default() -> Self {
        RequestSlot {
            node: 0,
            sink_edge: 0,
            cand_edges: Vec::new(),
            assigned_box: NIL,
            assigned_edge: 0,
            next: NIL,
            prev: NIL,
            given: Vec::new(),
            given_valid: false,
            given_stamp: 0,
            stamp: 0,
            pos: 0,
        }
    }
}

/// Reusable incremental matcher over one [`FlowArena`].
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
/// // An identical round patches nothing and keeps the flow: still optimal,
/// // still exactly one rebuild.
/// matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
/// assert_eq!(out.iter().flatten().count(), 2);
/// assert_eq!(matcher.rebuilds(), 1);
/// ```
pub struct IncrementalMatcher {
    arena: FlowArena,
    solver: Box<dyn MaxFlowSolve>,
    /// Current per-box capacity (stripe connections).
    caps: Vec<u32>,
    /// Source edge per box (always present, capacity may be 0).
    source_edges: Vec<usize>,
    slots: Vec<RequestSlot>,
    /// Assignment mirror: first slot of each box's matched list ([`NIL`]
    /// when the box serves nothing).
    box_head: Vec<u32>,
    by_key: KeyMap<usize>,
    free_slots: Vec<usize>,
    sink: NodeId,
    stamp: u64,
    total_flow: i64,
    /// Edge pairs currently de-capacitated (candidate + sink edges).
    dead_pairs: usize,
    rebuilds: u64,
    rounds: u64,
    /// True when the arena no longer reflects the tracked instance (e.g.
    /// after a cold one-shot solve) and must be rebuilt.
    dirty: bool,
    /// True when the current round modified the instance (so the solver must
    /// run); untouched rounds keep the previous maximum flow as-is.
    changed: bool,
    // Scratch buffers (reused every round).
    added_cands: Vec<BoxId>,
    stale_keys: Vec<RequestKey>,
    /// Slot index per input position for the current round (skips a second
    /// hash pass during extraction).
    round_slots: Vec<usize>,
    /// Visit stamps for the targeted augmenting-path search.
    visit_stamp: Vec<u64>,
    visit_epoch: u64,
    /// DFS scratch: the alternating request/box frames of the current path.
    dfs_stack: Vec<Frame>,
    /// Compaction scratch: the box serving each input position before the
    /// arena was cleared ([`NIL`] for none).
    kept_boxes: Vec<u32>,
    search: SearchStats,
    /// Scratch for the debug-only maximality check (kept allocation-free so
    /// steady-state rounds allocate nothing even in debug builds).
    dbg_seen: Vec<bool>,
    dbg_stack: Vec<NodeId>,
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
    /// Creates a matcher warm-starting the given solver each round.
    pub fn new(solver: Box<dyn MaxFlowSolve>) -> Self {
        IncrementalMatcher {
            arena: FlowArena::new(),
            solver,
            caps: Vec::new(),
            source_edges: Vec::new(),
            slots: Vec::new(),
            box_head: Vec::new(),
            by_key: KeyMap::default(),
            free_slots: Vec::new(),
            sink: 0,
            stamp: 0,
            total_flow: 0,
            dead_pairs: 0,
            rebuilds: 0,
            rounds: 0,
            dirty: true,
            changed: false,
            added_cands: Vec::new(),
            stale_keys: Vec::new(),
            round_slots: Vec::new(),
            visit_stamp: Vec::new(),
            visit_epoch: 0,
            dfs_stack: Vec::new(),
            kept_boxes: Vec::new(),
            search: SearchStats::default(),
            dbg_seen: Vec::new(),
            dbg_stack: Vec::new(),
            csr_bridge: CandidateBuf::new(),
        }
    }

    /// Installs a trace handle on the underlying flow solver, so solver
    /// phases (shape analyses, HK phases, global relabels) emit spans.
    pub fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.solver.attach_tracer(tracer);
    }

    /// The number of full rebuilds performed so far (1 after the first
    /// round; steady-state rounds must not add more).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The number of rounds scheduled so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current matching size carried in the arena.
    pub fn total_flow(&self) -> i64 {
        self.total_flow
    }

    /// Directed edge count of the underlying arena (twins included) —
    /// observability for the compaction heuristic.
    pub fn arena_edge_count(&self) -> usize {
        self.arena.edge_count()
    }

    /// The solver driving this matcher.
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// Work done by the targeted augmenting search, for the last round and
    /// in total. Rounds handed to the solver add nothing here.
    pub fn search_stats(&self) -> SearchStats {
        self.search
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
    /// surviving request whose stamp is unchanged skips the per-row
    /// diff entirely.
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
        let total_pairs = self.arena.edge_count() / 2;
        let needs_compaction = total_pairs > 64 && self.dead_pairs * 2 > total_pairs;
        self.changed = false;
        if self.dirty || capacities.len() != self.caps.len() {
            self.rebuild(capacities, keys, candidates);
            // Cold instance: hand the whole thing to the configured solver.
            self.solve();
        } else {
            if needs_compaction {
                self.compact(capacities, keys, candidates);
            } else {
                self.patch(capacities, keys, candidates);
            }
            if self.changed {
                // The patched flow is valid but possibly not maximal; only
                // unserved requests can be endpoints of augmenting paths.
                // With few of them, targeted searches restore maximality
                // without touching the (much larger) unchanged part of the
                // network. A large unserved set (persistently infeasible
                // instance) would thrash the targeted search — every
                // successful augment invalidates the failure marks — so hand
                // that case to the solver, warm-started on the residual.
                //
                // Tried and rejected: "always search, fall back to the
                // solver once a round has scanned `arena_edges / 8` entries"
                // took `steady-churn` `round_ms_p99` 7.9 → 4.7 ms but
                // `relay-faults` `round_ms_p50` 7.1 → 15.5 ms (466 of 894
                // rounds overflowed into a solver call on top of the
                // search they had already paid for).
                let unserved = self.count_unserved();
                if unserved * 8 > self.round_slots.len() + 64 {
                    self.solve();
                } else if unserved > 0 {
                    self.augment_unserved();
                }
            }
        }
        debug_assert!(self.flow_is_consistent());
        debug_assert!(self.mirror_matches_arena());
        debug_assert!(self.flow_is_maximal());
        self.extract(out);
    }

    /// One-shot solve without request identity: rebuilds the instance inside
    /// the reused arena and solves cold. Leaves the matcher marked dirty, so
    /// a later keyed round rebuilds before patching.
    pub fn schedule_cold(
        &mut self,
        capacities: &[u32],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.rounds += 1;
        // Reuse the keyed machinery with positional pseudo-keys: stale state
        // never leaks because the instance is rebuilt from scratch.
        let mut problem = vod_flow::ConnectionProblem::new(capacities.to_vec());
        for cands in candidates {
            problem.add_request(cands.iter().copied());
        }
        let matching = problem.solve_in(&mut self.arena, &mut self.solver);
        self.dirty = true;
        out.clear();
        out.extend(matching.assignment);
    }

    /// Full reconstruction of the tracked instance inside the reused arena.
    /// The rebuilt network carries no flow.
    fn rebuild(&mut self, capacities: &[u32], keys: &[RequestKey], candidates: CandidateView<'_>) {
        let boxes = capacities.len();
        self.arena.clear(boxes + 2);
        self.sink = boxes + 1;
        self.caps.clear();
        self.caps.extend_from_slice(capacities);
        self.source_edges.clear();
        for (i, &cap) in capacities.iter().enumerate() {
            self.source_edges
                .push(self.arena.add_edge(0, 1 + i, cap as i64));
        }
        // Recycle every slot: clear its edges but keep the allocations. The
        // arena was cleared, so stale node/edge ids must be forgotten
        // (`node == 0` marks "no node": node 0 is always the source).
        self.by_key.clear();
        self.free_slots.clear();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            slot.cand_edges.clear();
            slot.stamp = 0;
            slot.node = 0;
            slot.sink_edge = 0;
            slot.assigned_box = NIL;
            self.free_slots.push(idx);
        }
        self.box_head.clear();
        self.box_head.resize(boxes, NIL);
        // `set_candidates` keeps its marks in `visit_stamp` under the box
        // node ids, and runs before any search has sized the table.
        if self.visit_stamp.len() < boxes + 2 {
            self.visit_stamp.resize(boxes + 2, 0);
        }
        self.total_flow = 0;
        self.dead_pairs = 0;
        self.stamp += 1;

        self.round_slots.clear();
        for (pos, key) in keys.iter().enumerate() {
            let slot_idx = self.alloc_slot(*key, pos);
            self.set_candidates(slot_idx, candidates.row(pos), candidates.row_stamp(pos));
            self.round_slots.push(slot_idx);
        }
        self.rebuilds += 1;
        self.dirty = false;
        self.changed = true;
    }

    /// Compaction: rebuilds the arena without its dead edges but keeps the
    /// matching. Every surviving request whose previous box is still a
    /// candidate with capacity left gets its unit of flow pushed back, so
    /// the caller finishes warm instead of re-solving the round from zero.
    fn compact(&mut self, capacities: &[u32], keys: &[RequestKey], candidates: CandidateView<'_>) {
        let mut kept = std::mem::take(&mut self.kept_boxes);
        kept.clear();
        kept.extend(keys.iter().map(|key| {
            self.by_key
                .get(key)
                .map_or(NIL, |&idx| self.slots[idx].assigned_box)
        }));
        self.rebuild(capacities, keys, candidates);
        for (pos, &kept_box) in kept.iter().enumerate() {
            if kept_box == NIL {
                continue;
            }
            let source_edge = self.source_edges[kept_box as usize];
            if self.arena.residual(source_edge) == 0 {
                continue;
            }
            let slot_idx = self.round_slots[pos];
            let slot = &self.slots[slot_idx];
            let Some(&(_, edge)) = slot.cand_edges.iter().find(|&&(b, _)| b.0 == kept_box) else {
                continue;
            };
            self.arena.push(source_edge, 1);
            self.arena.push(edge, 1);
            self.arena.push(slot.sink_edge, 1);
            self.link(slot_idx, kept_box, edge);
            self.total_flow += 1;
        }
        self.kept_boxes = kept;
    }

    /// Diffs the incoming round against the tracked instance, patching the
    /// arena in place and repairing flow validity.
    fn patch(&mut self, capacities: &[u32], keys: &[RequestKey], candidates: CandidateView<'_>) {
        self.stamp += 1;

        // Per-box capacity changes (rare: capacities are static per system).
        for (i, &cap) in capacities.iter().enumerate() {
            if cap != self.caps[i] {
                self.patch_box_capacity(i, cap);
            }
        }

        // Upsert this round's requests.
        self.round_slots.clear();
        let mut arrivals = false;
        for (pos, key) in keys.iter().enumerate() {
            let slot_idx = match self.by_key.get(key) {
                Some(&idx) => {
                    // A duplicate key in one round would silently alias two
                    // requests onto one flow slot; reject it outright.
                    assert_ne!(
                        self.slots[idx].stamp, self.stamp,
                        "duplicate request key {key:?} in one round"
                    );
                    self.slots[idx].stamp = self.stamp;
                    self.slots[idx].pos = pos;
                    idx
                }
                None => {
                    arrivals = true;
                    self.alloc_slot(*key, pos)
                }
            };
            self.set_candidates(slot_idx, candidates.row(pos), candidates.row_stamp(pos));
            self.round_slots.push(slot_idx);
        }

        // Sweep requests that disappeared this round. With no arrivals and
        // matching cardinality the tracked set is exactly the input set, so
        // the sweep can be skipped.
        if arrivals || self.by_key.len() != keys.len() {
            self.stale_keys.clear();
            for (key, &slot_idx) in &self.by_key {
                if self.slots[slot_idx].stamp != self.stamp {
                    self.stale_keys.push(*key);
                }
            }
            // `stale_keys` is a scratch field, so detach it while mutating.
            let mut stale = std::mem::take(&mut self.stale_keys);
            for key in stale.drain(..) {
                self.remove_request(key);
            }
            self.stale_keys = stale;
        }
    }

    /// Registers a new request under `key`, reusing a pooled slot (and its
    /// arena node plus edge list) when one is free.
    fn alloc_slot(&mut self, key: RequestKey, pos: usize) -> usize {
        let slot_idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                // The mirror links slots by `u32` index.
                assert!(self.slots.len() < NIL as usize, "request slot overflow");
                self.slots.push(RequestSlot::default());
                self.slots.len() - 1
            }
        };
        // A recycled slot keeps its node and sink edge if it has them from a
        // previous life in the *current* arena; otherwise create both.
        let needs_node = self.slots[slot_idx].node == 0;
        if needs_node {
            let node = self.arena.add_node();
            let sink_edge = self.arena.add_edge(node, self.sink, 1);
            let slot = &mut self.slots[slot_idx];
            slot.node = node;
            slot.sink_edge = sink_edge;
        } else {
            // Revive the recycled sink edge.
            let sink_edge = self.slots[slot_idx].sink_edge;
            if self.arena.edge(sink_edge).original_cap == 0 {
                self.arena.set_capacity(sink_edge, 1);
                self.dead_pairs -= 1;
            }
        }
        debug_assert_eq!(self.slots[slot_idx].assigned_box, NIL);
        self.slots[slot_idx].stamp = self.stamp;
        self.slots[slot_idx].pos = pos;
        self.slots[slot_idx].given_valid = false;
        let previous = self.by_key.insert(key, slot_idx);
        assert!(
            previous.is_none(),
            "duplicate request key {key:?} in one round"
        );
        self.changed = true;
        slot_idx
    }

    /// Patches the slot's candidate edges to match `cands`: revives or
    /// creates edges for current candidates, de-capacitates edges for
    /// dropped ones (cancelling their flow first).
    fn set_candidates(&mut self, slot_idx: usize, cands: &[BoxId], stamp: u64) {
        // Fastest path: the producer's change stamp proves the row unchanged
        // since the last sync of this slot — no comparison needed at all
        // (the engine's candidate-index diffs handed down as precomputed
        // deltas).
        if self.slots[slot_idx].given_valid
            && stamp != NO_STAMP
            && self.slots[slot_idx].given_stamp == stamp
        {
            debug_assert_eq!(self.slots[slot_idx].given, *cands, "stale change stamp");
            return;
        }
        // Fast path: identical raw candidate list → active edges already
        // match, nothing to diff.
        if self.slots[slot_idx].given_valid && self.slots[slot_idx].given == *cands {
            self.slots[slot_idx].given_stamp = stamp;
            return;
        }
        // Mark-array diff: O(row), no sort, no order assumption on the
        // producer. The marks live in `visit_stamp` under the box node ids
        // (a diff and a search never interleave, and the epoch only grows):
        // `wanted` marks the boxes of `cands`, `synced` those whose edge is
        // in place, so duplicate ids in the row collapse.
        let boxes = self.caps.len();
        let (wanted, synced) = (self.visit_epoch + 1, self.visit_epoch + 2);
        self.visit_epoch = synced;
        for b in cands.iter().filter(|b| b.index() < boxes) {
            self.visit_stamp[1 + b.index()] = wanted;
        }
        for i in 0..self.slots[slot_idx].cand_edges.len() {
            let (edge_box, edge) = self.slots[slot_idx].cand_edges[i];
            let mark = &mut self.visit_stamp[1 + edge_box.index()];
            if *mark == wanted {
                *mark = synced;
                if self.arena.edge(edge).original_cap == 0 {
                    self.arena.set_capacity(edge, 1);
                    self.dead_pairs -= 1;
                    self.changed = true;
                }
            } else {
                self.deactivate_cand_edge(slot_idx, edge);
            }
        }
        // Boxes still marked `wanted` have no edge yet. Create them in
        // ascending box order, whatever order the producer listed them in,
        // so the arena's adjacency order does not depend on the producer.
        let mut added = std::mem::take(&mut self.added_cands);
        added.clear();
        for &b in cands.iter().filter(|b| b.index() < boxes) {
            let mark = &mut self.visit_stamp[1 + b.index()];
            if *mark == wanted {
                *mark = synced;
                added.push(b);
            }
        }
        added.sort_unstable();
        let node = self.slots[slot_idx].node;
        for &cand_box in &added {
            let edge = self.arena.add_edge(1 + cand_box.index(), node, 1);
            self.slots[slot_idx].cand_edges.push((cand_box, edge));
            self.changed = true;
        }
        self.added_cands = added;
        // Remember the raw list (and the stamp it was captured under) for
        // next round's fast paths.
        let slot = &mut self.slots[slot_idx];
        slot.given.clear();
        slot.given.extend_from_slice(cands);
        slot.given_valid = true;
        slot.given_stamp = stamp;
    }

    /// De-capacitates one candidate edge, cancelling its flow first.
    fn deactivate_cand_edge(&mut self, slot_idx: usize, edge: usize) {
        if self.arena.edge(edge).original_cap == 0 {
            return; // already inactive
        }
        let slot = &self.slots[slot_idx];
        if slot.assigned_box != NIL && slot.assigned_edge == edge {
            self.cancel_assignment(slot_idx);
        }
        self.arena.set_capacity(edge, 0);
        self.dead_pairs += 1;
        self.changed = true;
    }

    /// Records that `slot_idx` is served by `box_idx` along `edge`: pushes
    /// the slot onto the front of the box's matched list.
    fn link(&mut self, slot_idx: usize, box_idx: u32, edge: usize) {
        let head = self.box_head[box_idx as usize];
        let slot = &mut self.slots[slot_idx];
        debug_assert_eq!(slot.assigned_box, NIL, "slot is already linked");
        slot.assigned_box = box_idx;
        slot.assigned_edge = edge;
        slot.prev = NIL;
        slot.next = head;
        if head != NIL {
            self.slots[head as usize].prev = slot_idx as u32;
        }
        self.box_head[box_idx as usize] = slot_idx as u32;
    }

    /// Takes `slot_idx` off its box's matched list and marks it unserved.
    fn unlink(&mut self, slot_idx: usize) {
        let slot = &mut self.slots[slot_idx];
        let (box_idx, prev, next) = (slot.assigned_box, slot.prev, slot.next);
        debug_assert_ne!(box_idx, NIL, "slot is not linked");
        slot.assigned_box = NIL;
        if prev == NIL {
            self.box_head[box_idx as usize] = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Cancels the slot's unit of flow (source → box → request → sink).
    fn cancel_assignment(&mut self, slot_idx: usize) {
        let slot = &self.slots[slot_idx];
        let (box_idx, cand_edge, sink_edge) =
            (slot.assigned_box, slot.assigned_edge, slot.sink_edge);
        debug_assert_eq!(self.arena.flow_on(cand_edge), 1);
        self.arena.push(cand_edge, -1);
        self.arena.push(self.source_edges[box_idx as usize], -1);
        self.arena.push(sink_edge, -1);
        self.unlink(slot_idx);
        self.total_flow -= 1;
    }

    /// Applies a changed per-box capacity, evicting assignments off the
    /// box's matched list while its load is above the new capacity (the
    /// search or the warm solve re-routes them elsewhere).
    fn patch_box_capacity(&mut self, box_idx: usize, new_cap: u32) {
        let source_edge = self.source_edges[box_idx];
        let excess = self.arena.flow_on(source_edge) - new_cap as i64;
        for _ in 0..excess {
            self.cancel_assignment(self.box_head[box_idx] as usize);
        }
        self.arena.set_capacity(source_edge, new_cap as i64);
        self.caps[box_idx] = new_cap;
        self.changed = true;
    }

    /// Removes a tracked request: cancels its flow and de-capacitates its
    /// sink edge, returning the slot to the pool.
    ///
    /// Candidate edges are left active: with the sink edge at capacity 0 no
    /// flow can route through the request node, so they are harmless, and a
    /// recycled slot often reuses them directly (its next `set_candidates`
    /// diff deactivates only the ones the new request does not need).
    fn remove_request(&mut self, key: RequestKey) {
        let slot_idx = self.by_key.remove(&key).expect("request is tracked");
        if self.slots[slot_idx].assigned_box != NIL {
            self.cancel_assignment(slot_idx);
        }
        let sink_edge = self.slots[slot_idx].sink_edge;
        if self.arena.edge(sink_edge).original_cap != 0 {
            self.arena.set_capacity(sink_edge, 0);
            self.dead_pairs += 1;
        }
        self.free_slots.push(slot_idx);
        self.changed = true;
    }

    /// Runs the solver on the arena as it stands (cold after a rebuild,
    /// warm-started on the residual otherwise) and re-reads the mirror, which
    /// the solver does not maintain.
    fn solve(&mut self) {
        self.total_flow += self.solver.max_flow(&mut self.arena, 0, self.sink);
        self.resync_assignments();
    }

    /// Re-reads the mirror from the arena after a solver call, the only
    /// place flow moves without the matcher's own bookkeeping. A slot whose
    /// remembered edge still carries its flow costs one look; only a slot
    /// the solver re-routed rescans its candidate edges.
    fn resync_assignments(&mut self) {
        for i in 0..self.round_slots.len() {
            let slot_idx = self.round_slots[i];
            let slot = &self.slots[slot_idx];
            let linked = slot.assigned_box != NIL;
            if linked && self.arena.flow_on(slot.assigned_edge) == 1 {
                continue;
            }
            let carrying = (self.arena.flow_on(slot.sink_edge) == 1).then(|| {
                slot.cand_edges
                    .iter()
                    .copied()
                    .find(|&(_, e)| self.arena.flow_on(e) == 1)
                    .expect("served request has a flow-carrying candidate edge")
            });
            if linked {
                self.unlink(slot_idx);
            }
            if let Some((edge_box, edge)) = carrying {
                self.link(slot_idx, edge_box.0, edge);
            }
        }
    }

    /// Number of this round's requests currently carrying no flow.
    fn count_unserved(&self) -> usize {
        self.round_slots
            .iter()
            .filter(|&&slot_idx| self.slots[slot_idx].assigned_box == NIL)
            .count()
    }

    /// Attempts one augmenting path per unserved request of this round.
    ///
    /// Visit stamps persist across *failed* searches (the residual graph is
    /// unchanged by a failure, so nodes proven unable to reach the source
    /// stay unreachable) and are refreshed after every successful augment.
    fn augment_unserved(&mut self) {
        // Stale stamps can stay: the epoch is monotonic, so marks from
        // earlier rounds never collide with the current epoch.
        self.visit_stamp.resize(self.arena.node_count(), 0);
        self.visit_epoch += 1;
        for i in 0..self.round_slots.len() {
            let slot_idx = self.round_slots[i];
            if self.slots[slot_idx].assigned_box != NIL {
                continue;
            }
            self.search.round.searches += 1;
            if self.try_augment(slot_idx) {
                self.search.round.augmented += 1;
                self.total_flow += 1;
                self.visit_epoch += 1;
            }
        }
        let (round, total) = (self.search.round, &mut self.search.total);
        total.searches += round.searches;
        total.augmented += round.augmented;
        total.edges_scanned += round.edges_scanned;
        total.longest_path = total.longest_path.max(round.longest_path);
    }

    /// Searches an alternating path from the unserved request `slot_idx` to
    /// a box with a spare slot and, when found, pushes one unit along it.
    /// Returns whether the request is now served.
    ///
    /// The walk alternates two kinds of frame. A request frame walks the
    /// request node's arena adjacency for active candidate edges carrying no
    /// flow; a box with spare source capacity ends the search at once
    /// (without this shortcut the walk would wander through the box's
    /// alternating tree first). A saturated box's frame walks only the
    /// box's matched list — the ≤ `cap` requests whose flow could be moved
    /// elsewhere — not its adjacency list.
    fn try_augment(&mut self, slot_idx: usize) -> bool {
        let root = self.slots[slot_idx].node;
        if self.visit_stamp[root] == self.visit_epoch {
            return false; // proven unreachable earlier this epoch
        }
        self.visit_stamp[root] = self.visit_epoch;
        self.dfs_stack.clear();
        self.dfs_stack.push(Frame::Request {
            slot: slot_idx as u32,
            cursor: self.arena.first_edge(root),
        });

        while let Some(top) = self.dfs_stack.len().checked_sub(1) {
            let descend = match self.dfs_stack[top] {
                Frame::Request { slot, mut cursor } => {
                    let mut descend = None;
                    while let Some(idx) = cursor {
                        cursor = self.arena.next_edge(idx);
                        self.search.round.edges_scanned += 1;
                        // The row's entries are the twins of the candidate
                        // edges (plus the sink edge, which leads nowhere).
                        let cand_edge = idx ^ 1;
                        let box_node = self.arena.target(idx);
                        if box_node == self.sink
                            || self.visit_stamp[box_node] == self.visit_epoch
                            || self.arena.residual(cand_edge) == 0
                        {
                            continue;
                        }
                        let box_idx = box_node - 1;
                        if self.arena.residual(self.source_edges[box_idx]) > 0 {
                            self.push_path(box_idx, cand_edge);
                            return true;
                        }
                        self.visit_stamp[box_node] = self.visit_epoch;
                        descend = Some(Frame::Box {
                            via: cand_edge,
                            cursor: self.box_head[box_idx],
                        });
                        break;
                    }
                    self.dfs_stack[top] = Frame::Request { slot, cursor };
                    descend
                }
                Frame::Box { via, mut cursor } => {
                    let mut descend = None;
                    while cursor != NIL {
                        let matched = &self.slots[cursor as usize];
                        let slot = cursor;
                        cursor = matched.next;
                        self.search.round.edges_scanned += 1;
                        if self.visit_stamp[matched.node] != self.visit_epoch {
                            self.visit_stamp[matched.node] = self.visit_epoch;
                            descend = Some(Frame::Request {
                                slot,
                                cursor: self.arena.first_edge(matched.node),
                            });
                            break;
                        }
                    }
                    self.dfs_stack[top] = Frame::Box { via, cursor };
                    descend
                }
            };
            match descend {
                Some(frame) => self.dfs_stack.push(frame),
                None => {
                    self.dfs_stack.pop();
                }
            }
        }
        false
    }

    /// Pushes one unit along the path held in `dfs_stack`, completed by
    /// candidate edge `last_edge` into `free_box` (a box with a spare slot),
    /// and moves the mirror with it: every request on the path takes the box
    /// one step nearer the free end, the root gains its sink unit.
    fn push_path(&mut self, free_box: usize, last_edge: usize) {
        let path_len = self.dfs_stack.len() as u64;
        self.search.round.longest_path = self.search.round.longest_path.max(path_len);
        self.arena.push(self.source_edges[free_box], 1);
        let (mut new_box, mut new_edge) = (free_box as u32, last_edge);
        while let Some(frame) = self.dfs_stack.pop() {
            match frame {
                Frame::Request { slot, .. } => {
                    let slot_idx = slot as usize;
                    if self.slots[slot_idx].assigned_box == NIL {
                        // The root: the only unserved request on the path.
                        self.arena.push(self.slots[slot_idx].sink_edge, 1);
                    } else {
                        // Its old box's slot goes to the request one frame
                        // down, so that box's source edge is left alone.
                        self.arena.push(self.slots[slot_idx].assigned_edge, -1);
                        self.unlink(slot_idx);
                    }
                    self.arena.push(new_edge, 1);
                    self.link(slot_idx, new_box, new_edge);
                }
                Frame::Box { via, .. } => {
                    new_edge = via;
                    new_box = (self.arena.target(via ^ 1) - 1) as u32;
                }
            }
        }
    }

    /// Debug check: no augmenting path is left (every unserved request of
    /// the current round is unreachable from the source in the residual
    /// graph). Debug builds only; uses reusable scratch so it allocates
    /// nothing in steady state.
    fn flow_is_maximal(&mut self) -> bool {
        self.arena
            .residual_reachable_into(0, &mut self.dbg_seen, &mut self.dbg_stack);
        self.round_slots.iter().all(|&slot_idx| {
            let slot = &self.slots[slot_idx];
            self.arena.flow_on(slot.sink_edge) == 1 || !self.dbg_seen[slot.node]
        })
    }

    /// Writes the assignment for this round's requests into `out`.
    fn extract(&self, out: &mut Vec<Option<BoxId>>) {
        out.clear();
        out.extend(self.round_slots.iter().enumerate().map(|(pos, &slot_idx)| {
            let slot = &self.slots[slot_idx];
            debug_assert_eq!(slot.pos, pos);
            (slot.assigned_box != NIL).then_some(BoxId(slot.assigned_box))
        }));
    }

    /// Debug check: the arena's flow is a valid flow of value `total_flow`.
    fn flow_is_consistent(&self) -> bool {
        let mut source_out = 0;
        for &e in &self.source_edges {
            let flow = self.arena.flow_on(e);
            if flow < 0 || flow > self.arena.edge(e).original_cap {
                return false;
            }
            source_out += flow;
        }
        source_out == self.total_flow && self.arena.net_outflow(0) == self.total_flow
    }

    /// Debug check: the assignment mirror is exactly the arena's flow. Every
    /// box's matched list is well linked, holds as many slots as the box's
    /// source edge carries units, each along a flow-carrying candidate edge
    /// from that box to that slot's node; and a request of this round is
    /// linked exactly when its sink edge carries flow.
    fn mirror_matches_arena(&self) -> bool {
        for (box_idx, &head) in self.box_head.iter().enumerate() {
            let mut load = 0;
            let (mut prev, mut cursor) = (NIL, head);
            while cursor != NIL {
                let slot = &self.slots[cursor as usize];
                if slot.assigned_box as usize != box_idx
                    || slot.prev != prev
                    || self.arena.flow_on(slot.assigned_edge) != 1
                    || self.arena.target(slot.assigned_edge) != slot.node
                    || self.arena.target(slot.assigned_edge ^ 1) != 1 + box_idx
                {
                    return false;
                }
                load += 1;
                (prev, cursor) = (cursor, slot.next);
            }
            if load != self.arena.flow_on(self.source_edges[box_idx]) {
                return false;
            }
        }
        self.round_slots.iter().all(|&slot_idx| {
            let slot = &self.slots[slot_idx];
            (slot.assigned_box != NIL) == (self.arena.flow_on(slot.sink_edge) == 1)
        })
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

    fn schedule_relayed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: &vod_flow::RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        // Relay-blind (see `Scheduler::schedule_relayed`): stay on the
        // native view path instead of the allocating default bridge.
        let _ = relays;
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
            .field("tracked_requests", &self.by_key.len())
            .field("total_flow", &self.total_flow)
            .field("rebuilds", &self.rebuilds)
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::assignment_is_valid;
    use rand::rngs::StdRng;
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
            // Entirely fresh keys each round: worst case for edge garbage.
            let keys: Vec<RequestKey> = (0..6).map(|i| key(round * 10 + i, round % 5, 0)).collect();
            let cands: Vec<Vec<BoxId>> = (0..6u32)
                .map(|i| vec![b((round + i) % 8), b((round + i + 3) % 8)])
                .collect();
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
            assert_eq!(out.iter().flatten().count(), 6, "round {round}");
        }
        assert!(matcher.rebuilds() > 1, "compaction never kicked in");
        // The arena stays bounded: dead edges are reclaimed.
        assert!(matcher.arena_edge_count() < 4000);
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

    /// One keyed round, checked three ways: the assignment is valid, its
    /// size equals a cold solve of the same instance, and the mirror equals
    /// the arena (asserted here so release test builds check it too).
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
        assert!(matcher.flow_is_consistent(), "{what}");
        assert!(matcher.mirror_matches_arena(), "{what}");
    }

    fn random_row(rng: &mut StdRng, boxes: usize) -> Vec<BoxId> {
        let degree = rng.gen_range(0..=boxes.min(6));
        (0..degree)
            .map(|_| b(rng.gen_range(0..boxes) as u32))
            .collect()
    }

    /// A seeded script mixing arrivals, departures, candidate gains and
    /// losses, capacity cuts and restores and — every 40 rounds, by swapping
    /// in entirely fresh requests for a few rounds — enough dead edges to
    /// force compactions. Returns the matcher's rebuild count.
    fn run_script(solver: Box<dyn MaxFlowSolve>, boxes: usize, rounds: u32, seed: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<u32> = (0..boxes).map(|_| rng.gen_range(0u32..4)).collect();
        let mut caps = base.clone();
        let mut matcher = IncrementalMatcher::new(solver);
        let mut out = Vec::new();
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        let mut next_id = 0u32;
        for round in 0..rounds {
            if round % 40 >= 36 {
                live.clear();
            }
            for _ in 0..rng.gen_range(0..6) {
                live.push((key(next_id, next_id % 5, 0), random_row(&mut rng, boxes)));
                next_id += 1;
            }
            while live.len() > 3 * boxes.max(4) || (rng.gen_bool(0.2) && !live.is_empty()) {
                live.swap_remove(rng.gen_range(0..live.len()));
            }
            for _ in 0..rng.gen_range(0..3) {
                if !live.is_empty() {
                    let victim = rng.gen_range(0..live.len());
                    live[victim].1 = random_row(&mut rng, boxes);
                }
            }
            let box_idx = rng.gen_range(0..boxes);
            caps[box_idx] = match rng.gen_range(0..3) {
                0 => 0,
                1 => base[box_idx],
                _ => rng.gen_range(0u32..4),
            };
            let what = format!("{boxes} boxes, seed {seed}, round {round}");
            checked_round(&mut matcher, &caps, &live, &mut out, &what);
        }
        matcher.rebuilds()
    }

    #[test]
    fn mirror_equals_arena_through_a_seeded_script_under_every_solver() {
        let solvers: [fn() -> Box<dyn MaxFlowSolve>; 3] = [
            || Box::new(Dinic::new()),
            || Box::new(HopcroftKarpSolve::new()),
            || Box::new(PushRelabel::new()),
        ];
        for make_solver in solvers {
            let rebuilds = run_script(make_solver(), 12, 300, 2009);
            assert!(rebuilds > 1, "the script never forced a compaction");
        }
    }

    #[test]
    fn word_boundary_fleet_sizes() {
        for boxes in [1, 63, 64, 65] {
            run_script(Box::new(Dinic::new()), boxes, 60, boxes as u64);
        }
    }

    #[test]
    fn targeted_search_leaves_a_fat_box_along_matched_edges_only() {
        // Box 0 has 5 000 candidate edges and `cap` slots, all taken by the
        // first `cap` requests (box 1, their only alternative, starts
        // closed); every other request sits on box 2.
        let cap = 4u32;
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        for i in 0..5_000 {
            let alternative = if i < cap { b(1) } else { b(2) };
            live.push((key(i, 0, 0), vec![b(0), alternative]));
        }
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        checked_round(&mut matcher, &[cap, 0, 5_000], &live, &mut out, "setup");
        assert!(out[..cap as usize].iter().all(|a| *a == Some(b(0))));

        // Box 1 opens one slot and a request arrives that only box 0 can
        // serve: newcomer → box 0 → one of its four requests → box 1.
        live.push((key(5_000, 0, 0), vec![b(0)]));
        checked_round(&mut matcher, &[cap, 1, 5_000], &live, &mut out, "arrival");
        assert_eq!(out[5_000], Some(b(0)));
        let round = matcher.search_stats().round;
        assert_eq!((round.searches, round.augmented), (1, 1));
        assert_eq!(round.longest_path, 3);
        // The newcomer's row (one candidate + its sink edge), box 0's
        // matched list, one displaced request's row (two candidates + its
        // sink edge) — not box 0's 5 000-entry adjacency list.
        assert!(
            round.edges_scanned <= 2 + cap as u64 + 3,
            "scanned {} entries",
            round.edges_scanned
        );
        assert_eq!(matcher.search_stats().total, round);
        assert_eq!(matcher.rebuilds(), 1);
    }

    #[test]
    fn compaction_keeps_the_matching() {
        // Twenty-four long-lived requests fill boxes 0..12 (2 slots each);
        // eight short-lived ones a round rotate over boxes 12..24 (1 slot
        // each), and their departures fill the arena with dead edges.
        let mut caps = vec![2u32; 12];
        caps.extend([1; 12]);
        let stable: Vec<(RequestKey, Vec<BoxId>)> = (0..24)
            .map(|i| (key(i, 0, 0), vec![b(i % 12), b((i + 1) % 12)]))
            .collect();
        let mut matcher = IncrementalMatcher::default();
        let mut out = Vec::new();
        let mut before = Vec::new();
        let mut compactions = 0;
        for round in 0u32..200 {
            let mut live = stable.clone();
            for i in 0..8 {
                let id = 1_000 + round * 8 + i;
                live.push((key(id, 1, 0), vec![b(12 + id % 12), b(12 + (id + 5) % 12)]));
            }
            let rebuilds = matcher.rebuilds();
            let what = format!("round {round}");
            checked_round(&mut matcher, &caps, &live, &mut out, &what);
            assert_eq!(out[..24].iter().flatten().count(), 24, "{what}");
            if round > 0 && matcher.rebuilds() > rebuilds {
                compactions += 1;
                // The survivors kept their boxes, so only the eight
                // arrivals were searched for.
                assert_eq!(out[..24], before[..], "{what}");
                assert_eq!(matcher.search_stats().round.searches, 8, "{what}");
            }
            before = out[..24].to_vec();
        }
        assert!(compactions > 0, "compaction never kicked in");
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
        // slot: arrivals are placed before departures are swept) …
        let second = vec![(key(1, 0, 0), vec![b(0)])];
        checked_round(&mut matcher, &caps, &second, &mut out, "second");
        assert_eq!(out, vec![Some(b(0))]);
        // … and request 2 then inherits request 0's slot with its still
        // active edges to boxes 0 and 1, of which it wants only box 1.
        let third = vec![second[0].clone(), (key(2, 0, 0), vec![b(1), b(2)])];
        checked_round(&mut matcher, &caps, &third, &mut out, "third");
        assert_eq!(out.iter().flatten().count(), 2);
        assert_eq!(matcher.slots.len(), 2, "the freed slot was not reused");
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
        assert_eq!(matcher.arena_edge_count(), 2 * (2 + 2 + 3));
    }
}
