//! Hopcroft–Karp maximum bipartite matching.
//!
//! When every box can serve at most one request (or after splitting a box of
//! capacity `⌊u·c⌋` into that many unit sub-boxes — the paper uses the same
//! "elementary sub-box" trick in Theorem 2's proof) the connection-matching
//! problem becomes a plain bipartite matching, for which Hopcroft–Karp runs
//! in `O(E·√V)` with small constants. The simulator uses it as a fast path
//! and the property tests use it to cross-check the flow solvers.
//!
//! [`HopcroftKarpSolve`] wraps the matchers as a [`MaxFlowSolve`]
//! implementation over Lemma-1-shaped [`FlowArena`] networks
//! (`source → boxes → requests → sink` with unit box→request and
//! request→sink edges). Its default backend is the word-parallel
//! [`BitHopcroftKarp`], which matches against capacitated boxes directly
//! (no sub-box expansion, no per-call graph rebuild); the historical scalar
//! path — `Vec<Vec<usize>>` adjacency plus the elementary sub-box split from
//! Theorem 2's proof — stays available via [`HopcroftKarpSolve::scalar`] as
//! the benchmark baseline.

use crate::arena::FlowArena;
use crate::bitset::{BipartiteShape, BitAdjacency, BitSet, NONE};
use crate::dinic::Dinic;
use crate::graph::NodeId;
use crate::solver::MaxFlowSolve;
use std::collections::VecDeque;
use vod_obs::{Stage, TraceHandle};

const NIL: usize = usize::MAX;
const INF: u32 = u32::MAX;

/// Maximum bipartite matching between `left_count` left vertices and
/// `right_count` right vertices.
#[derive(Clone, Debug)]
pub struct HopcroftKarp {
    adj: Vec<Vec<usize>>,
    right_count: usize,
}

impl HopcroftKarp {
    /// Creates an empty bipartite graph.
    pub fn new(left_count: usize, right_count: usize) -> Self {
        HopcroftKarp {
            adj: vec![Vec::new(); left_count],
            right_count,
        }
    }

    /// Adds an edge between left vertex `l` and right vertex `r`.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.adj.len(), "left vertex out of range");
        assert!(r < self.right_count, "right vertex out of range");
        self.adj[l].push(r);
    }

    /// Computes a maximum matching. Returns `(size, pair_of_left)` where
    /// `pair_of_left[l]` is the right vertex matched to `l`, if any.
    pub fn solve(&self) -> (usize, Vec<Option<usize>>) {
        let pair_left = vec![NIL; self.adj.len()];
        let pair_right = vec![NIL; self.right_count];
        self.solve_seeded(pair_left, pair_right, 0)
    }

    /// Computes a maximum matching starting from an existing partial matching
    /// (`pair_left[l]` / `pair_right[r]` with `usize::MAX` meaning free,
    /// `initial` its size). The augmenting-path phases only grow a matching,
    /// so seeding warm-starts the search.
    pub fn solve_seeded(
        &self,
        mut pair_left: Vec<usize>,
        mut pair_right: Vec<usize>,
        initial: usize,
    ) -> (usize, Vec<Option<usize>>) {
        let n_left = self.adj.len();
        assert_eq!(pair_left.len(), n_left, "seed has wrong left size");
        assert_eq!(
            pair_right.len(),
            self.right_count,
            "seed has wrong right size"
        );
        let mut dist = vec![INF; n_left];
        let mut matching = initial;

        loop {
            // BFS phase: layer the free left vertices.
            let mut queue = VecDeque::new();
            for l in 0..n_left {
                if pair_left[l] == NIL {
                    dist[l] = 0;
                    queue.push_back(l);
                } else {
                    dist[l] = INF;
                }
            }
            let mut found_augmenting = false;
            while let Some(l) = queue.pop_front() {
                for &r in &self.adj[l] {
                    match pair_right[r] {
                        NIL => found_augmenting = true,
                        l2 => {
                            if dist[l2] == INF {
                                dist[l2] = dist[l] + 1;
                                queue.push_back(l2);
                            }
                        }
                    }
                }
            }
            if !found_augmenting {
                break;
            }
            // DFS phase: find vertex-disjoint augmenting paths.
            for l in 0..n_left {
                if pair_left[l] == NIL
                    && self.try_augment(l, &mut pair_left, &mut pair_right, &mut dist)
                {
                    matching += 1;
                }
            }
        }

        let pairs = pair_left
            .into_iter()
            .map(|r| if r == NIL { None } else { Some(r) })
            .collect();
        (matching, pairs)
    }

    fn try_augment(
        &self,
        l: usize,
        pair_left: &mut [usize],
        pair_right: &mut [usize],
        dist: &mut [u32],
    ) -> bool {
        for &r in &self.adj[l] {
            let candidate = pair_right[r];
            let advance = match candidate {
                NIL => true,
                l2 => dist[l2] == dist[l] + 1 && self.try_augment(l2, pair_left, pair_right, dist),
            };
            if advance {
                pair_left[l] = r;
                pair_right[r] = l;
                return true;
            }
        }
        dist[l] = INF;
        false
    }
}

/// Word-parallel Hopcroft–Karp over capacitated boxes.
///
/// Left vertices are requests (rows of a [`BitAdjacency`]), right vertices
/// are boxes (columns) with integer budgets, matched *directly*: a box of
/// budget `k` simply holds up to `k` mates, tracked in an intrusive
/// doubly-linked list, so the elementary sub-box expansion (and its per-call
/// edge duplication) disappears. The BFS layering scans each frontier
/// request's candidate row against the unvisited-box mask 64 boxes at a
/// time; the DFS probes `row & free_boxes` for an immediate augmentation
/// before walking mate lists. All state is pooled — repeated solves allocate
/// nothing in steady state.
#[derive(Clone, Debug, Default)]
pub struct BitHopcroftKarp {
    /// BFS layer per request (`u32::MAX` unreached).
    dist: Vec<u32>,
    /// Mates currently assigned per box.
    load: Vec<u32>,
    /// First mate of each box (request index, `u32::MAX` terminates).
    head: Vec<u32>,
    /// Intrusive mate-list links per request.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Boxes with spare budget.
    free_boxes: BitSet,
    /// Boxes reached by the current BFS.
    visited: BitSet,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    layer_boxes: Vec<u32>,
}

impl BitHopcroftKarp {
    /// Creates a matcher (all storage is grown lazily and pooled).
    pub fn new() -> Self {
        BitHopcroftKarp::default()
    }

    /// Computes a maximum matching of requests (rows of `adj`) onto boxes
    /// (columns) where box `b` accepts up to `caps[b]` requests.
    ///
    /// `match_of` maps each request to its box (`u32::MAX` = free) and is
    /// both the seed and the result: pre-matched pairs warm-start the
    /// search (they must be edges of `adj` and respect `caps`), and on
    /// return the slice holds the maximum matching. Returns the matching
    /// size.
    pub fn solve(&mut self, adj: &BitAdjacency, caps: &[u32], match_of: &mut [u32]) -> usize {
        self.solve_traced(adj, caps, match_of, &TraceHandle::off())
    }

    /// [`BitHopcroftKarp::solve`] with per-phase tracing: each BFS+DFS
    /// phase emits one [`Stage::HkPhase`] span whose payload is the number
    /// of augmenting paths the phase harvested (0 for the final BFS that
    /// proves maximality). An off handle makes this identical to `solve`.
    pub fn solve_traced(
        &mut self,
        adj: &BitAdjacency,
        caps: &[u32],
        match_of: &mut [u32],
        tracer: &TraceHandle,
    ) -> usize {
        let rows = adj.rows();
        let cols = adj.cols();
        assert_eq!(caps.len(), cols, "one budget per box");
        assert_eq!(match_of.len(), rows, "one slot per request");
        self.load.clear();
        self.load.resize(cols, 0);
        self.head.clear();
        self.head.resize(cols, NONE);
        self.next.clear();
        self.next.resize(rows, NONE);
        self.prev.clear();
        self.prev.resize(rows, NONE);
        self.dist.clear();
        self.dist.resize(rows, INF);

        let mut size = 0usize;
        for (x, &m) in match_of.iter().enumerate() {
            if m != NONE {
                let b = m as usize;
                debug_assert!(adj.contains(x, b), "seeded pair is not an edge");
                self.load[b] += 1;
                debug_assert!(self.load[b] <= caps[b], "seed exceeds box budget");
                let h = self.head[b];
                self.next[x] = h;
                if h != NONE {
                    self.prev[h as usize] = x as u32;
                }
                self.head[b] = x as u32;
                size += 1;
            }
        }
        self.free_boxes.reset(cols);
        for (b, (&load, &cap)) in self.load.iter().zip(caps).enumerate() {
            if load < cap {
                self.free_boxes.set(b);
            }
        }

        loop {
            let clock = tracer.begin();
            if !self.bfs(adj, caps, match_of) {
                tracer.end(clock, Stage::HkPhase, 0);
                break;
            }
            let mut augmented = 0u64;
            for x in 0..rows {
                if match_of[x] == NONE && self.try_augment(adj, caps, match_of, x) {
                    size += 1;
                    augmented += 1;
                }
            }
            tracer.end(clock, Stage::HkPhase, augmented);
            debug_assert!(augmented > 0, "BFS found a layer but DFS augmented nothing");
            if augmented == 0 {
                break;
            }
        }
        size
    }

    /// Layered BFS from the free requests; returns `true` when some free
    /// request reaches a box with spare budget (an augmenting path exists).
    fn bfs(&mut self, adj: &BitAdjacency, caps: &[u32], match_of: &[u32]) -> bool {
        self.dist.fill(INF);
        self.frontier.clear();
        for (x, &m) in match_of.iter().enumerate() {
            if m == NONE {
                self.dist[x] = 0;
                self.frontier.push(x as u32);
            }
        }
        self.visited.reset(adj.cols());
        let mut d = 0u32;
        while !self.frontier.is_empty() {
            self.layer_boxes.clear();
            // Scan the whole layer before deciding: stopping at the first
            // free box would truncate the layering mid-layer and leave the
            // DFS phase fewer vertex-disjoint paths to harvest (more phases
            // overall). A free box never joins `layer_boxes` — paths end
            // there, so its mates need no labels.
            let mut found_free = false;
            for i in 0..self.frontier.len() {
                let x = self.frontier[i] as usize;
                let row = adj.row(x);
                for (wi, &word) in row.iter().enumerate() {
                    let fresh = word & !self.visited.words()[wi];
                    if fresh == 0 {
                        continue;
                    }
                    self.visited.or_word(wi, fresh);
                    let mut bits = fresh;
                    while bits != 0 {
                        let b = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if self.load[b] < caps[b] {
                            found_free = true;
                        } else {
                            self.layer_boxes.push(b as u32);
                        }
                    }
                }
            }
            if found_free {
                return true;
            }
            self.next_frontier.clear();
            for i in 0..self.layer_boxes.len() {
                let b = self.layer_boxes[i] as usize;
                let mut x2 = self.head[b];
                while x2 != NONE {
                    if self.dist[x2 as usize] == INF {
                        self.dist[x2 as usize] = d + 1;
                        self.next_frontier.push(x2);
                    }
                    x2 = self.next[x2 as usize];
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            d += 1;
        }
        false
    }

    /// DFS for one augmenting path from request `x`: first probe
    /// `row & free_boxes` word-parallel, then displace mates one BFS layer
    /// down.
    fn try_augment(
        &mut self,
        adj: &BitAdjacency,
        caps: &[u32],
        match_of: &mut [u32],
        x: usize,
    ) -> bool {
        let row = adj.row(x);
        for (wi, &word) in row.iter().enumerate() {
            let w = word & self.free_boxes.words()[wi];
            if w != 0 {
                let b = wi * 64 + w.trailing_zeros() as usize;
                self.attach(caps, match_of, x, b);
                return true;
            }
        }
        let dx = self.dist[x];
        if dx == INF {
            return false;
        }
        for (wi, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut x2 = self.head[b];
                while x2 != NONE {
                    // The recursion relinks x2 on success, so save the next
                    // mate first; a successful call returns immediately, so
                    // the saved link can never go stale.
                    let nxt = self.next[x2 as usize];
                    if self.dist[x2 as usize] == dx + 1
                        && self.try_augment(adj, caps, match_of, x2 as usize)
                    {
                        self.attach(caps, match_of, x, b);
                        return true;
                    }
                    x2 = nxt;
                }
            }
        }
        self.dist[x] = INF;
        false
    }

    /// Assigns `x` to box `b`, unlinking `x` from its previous box first.
    fn attach(&mut self, caps: &[u32], match_of: &mut [u32], x: usize, b: usize) {
        let old = match_of[x];
        if old != NONE {
            self.detach(caps, x, old as usize);
        }
        match_of[x] = b as u32;
        self.load[b] += 1;
        debug_assert!(self.load[b] <= caps[b], "box over budget");
        if self.load[b] == caps[b] {
            self.free_boxes.unset(b);
        }
        let h = self.head[b];
        self.next[x] = h;
        self.prev[x] = NONE;
        if h != NONE {
            self.prev[h as usize] = x as u32;
        }
        self.head[b] = x as u32;
    }

    /// Unlinks `x` from box `b`'s mate list.
    fn detach(&mut self, caps: &[u32], x: usize, b: usize) {
        let p = self.prev[x];
        let n = self.next[x];
        if p != NONE {
            self.next[p as usize] = n;
        } else {
            self.head[b] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
        self.load[b] -= 1;
        if self.load[b] < caps[b] {
            self.free_boxes.set(b);
        }
    }
}

/// A [`MaxFlowSolve`] adapter running Hopcroft–Karp on Lemma-1-shaped
/// networks.
///
/// The arena must have the connection-matching layout produced by
/// [`crate::matching::ConnectionProblem::build_arena`]: every successor of
/// `source` is a *box* whose source-edge capacity is its stripe budget, every
/// predecessor of `sink` is a *request* with a unit sink edge, and every
/// box→request edge has unit capacity. The adapter seeds the matcher with
/// whatever flow the arena already carries, runs Hopcroft–Karp, and writes
/// the resulting flow back into the arena so extraction and obstruction code
/// behave exactly as with the flow solvers.
///
/// The default backend ([`HopcroftKarpSolve::new`]) is the word-parallel
/// capacitated [`BitHopcroftKarp`]: the Lemma-1 shape analysis (cached on
/// [`FlowArena::version`]) builds the bit rows, boxes keep their budgets,
/// and repeated solves allocate nothing in steady state.
/// [`HopcroftKarpSolve::scalar`] selects the historical scalar path — it
/// splits each box into elementary sub-boxes (the trick used in the proof of
/// Theorem 2) and rebuilds its `Vec<Vec<usize>>` matching graph (and
/// therefore allocates) on every call — kept as the benchmark baseline the
/// word-parallel kernels are measured against.
///
/// On any other arena — a relay network's two-hop paths, or a row class of
/// several requests, whose sink and candidate edges carry the member count —
/// both backends hand the solve to the scalar [`Dinic`] path, the way
/// [`Dinic::new`] itself falls back from its word-parallel levels.
#[derive(Clone, Debug, Default)]
pub struct HopcroftKarpSolve {
    use_scalar: bool,
    shape: BipartiteShape,
    core: BitHopcroftKarp,
    /// Solver for arenas that are not Lemma-1 shaped.
    general: Dinic,
    /// Per box column: budget (source-edge original capacity).
    caps: Vec<u32>,
    /// Per request row: matched box column (`u32::MAX` free).
    match_of: Vec<u32>,
    /// Matching seeded from the arena's flow, kept to write back only the
    /// per-row deltas the solve produced.
    seed: Vec<u32>,
    /// Span sink for shape analyses and matching phases (off by default).
    tracer: TraceHandle,
}

impl HopcroftKarpSolve {
    /// Creates the adapter with the word-parallel [`BitHopcroftKarp`]
    /// backend.
    pub fn new() -> Self {
        HopcroftKarpSolve::default()
    }

    /// Creates the adapter with the scalar sub-box-expansion backend (the
    /// pre-word-parallel implementation, kept as a benchmark baseline and
    /// cross-check).
    pub fn scalar() -> Self {
        HopcroftKarpSolve {
            use_scalar: true,
            general: Dinic::scalar(),
            ..HopcroftKarpSolve::default()
        }
    }

    /// Word-parallel path: shape analysis (cached on the arena version) +
    /// capacitated bit matching. `None` when the arena is not Lemma-1
    /// shaped (nothing has been touched then).
    fn bit_max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> Option<i64> {
        if self.shape.version != arena.version()
            || self.shape.source != source
            || self.shape.sink != sink
        {
            let clock = self.tracer.begin();
            if self.shape.analyze(arena, source, sink) && self.shape.unit_rows {
                // A request whose sink edge is de-capacitated (logically
                // removed) must never be matched: drop its candidate bits.
                // The analysis is cached, so this stays consistent until the
                // structure changes.
                for row in 0..self.shape.requests.len() {
                    let se = self.shape.sink_edge[row];
                    if se == NONE || arena.edge(se as usize).original_cap == 0 {
                        self.shape.adj.clear_row(row);
                    }
                }
            }
            self.tracer.end(
                clock,
                Stage::SolverAnalyze,
                self.shape.requests.len() as u64,
            );
        }
        if !(self.shape.valid && self.shape.unit_rows) {
            return None;
        }

        let cols = self.shape.boxes.len();
        let rows = self.shape.requests.len();
        self.caps.clear();
        for col in 0..cols {
            let e = self.shape.source_edge[col];
            let cap = if e == NONE {
                0
            } else {
                arena.edge(e as usize).original_cap
            };
            self.caps
                .push(u32::try_from(cap).expect("box budget fits in u32"));
        }
        self.match_of.clear();
        self.match_of.resize(rows, NONE);
        let mut initial = 0usize;
        for row in 0..rows {
            let col = self.shape.matched_col(arena, row);
            if col != NONE {
                self.match_of[row] = col;
                initial += 1;
            }
        }

        self.seed.clear();
        self.seed.extend_from_slice(&self.match_of);

        let size = self.core.solve_traced(
            &self.shape.adj,
            &self.caps,
            &mut self.match_of,
            &self.tracer,
        );

        // Write back only the rows the solve changed. The arena's flow is a
        // conserved unit flow, so before the solve it encodes exactly the
        // seeded matching; augmentation only rematches or newly matches a
        // request, never frees one.
        let cand_edge = |shape: &BipartiteShape, row: usize, col: u32| -> usize {
            shape
                .cands(row)
                .find(|&(c, _)| c == col)
                .map(|(_, e)| e as usize)
                .expect("matched pair must come from a candidate edge")
        };
        // Release every slot a row gave up before taking any: a row may
        // move onto a full box whose slot another row frees in this same
        // solve, and the arena checks each push against the edge's capacity.
        for row in 0..rows {
            let old = self.seed[row];
            if old != self.match_of[row] && old != NONE {
                arena.push(cand_edge(&self.shape, row, old), -1);
                arena.push(self.shape.source_edge[old as usize] as usize, -1);
            }
        }
        for row in 0..rows {
            let old = self.seed[row];
            let new = self.match_of[row];
            if old == new {
                continue;
            }
            debug_assert_ne!(new, NONE, "a solve never unmatches a request");
            if old == NONE {
                arena.push(self.shape.sink_edge[row] as usize, 1);
            }
            arena.push(cand_edge(&self.shape, row, new), 1);
            arena.push(self.shape.source_edge[new as usize] as usize, 1);
        }

        Some(size as i64 - initial as i64)
    }

    /// Scalar path: sub-box expansion into a plain bipartite matching.
    /// `None` when the arena is not Lemma-1 shaped (nothing has been touched
    /// then: the arena is only written once the matching is known).
    fn scalar_max_flow(arena: &mut FlowArena, source: NodeId, sink: NodeId) -> Option<i64> {
        let n = arena.node_count();

        // Discover the boxes (successors of the source) and their budgets.
        let mut box_index = vec![usize::MAX; n];
        // (box node, source edge, slot base) per box; slots are contiguous.
        let mut boxes: Vec<(NodeId, usize, usize)> = Vec::new();
        let mut total_slots = 0usize;
        let mut cursor = arena.first_edge(source);
        while let Some(idx) = cursor {
            if idx % 2 == 0 {
                let node = arena.target(idx);
                if box_index[node] != usize::MAX {
                    return None; // parallel source edges
                }
                box_index[node] = boxes.len();
                boxes.push((node, idx, total_slots));
                total_slots += arena.edge(idx).original_cap as usize;
            }
            cursor = arena.next_edge(idx);
        }

        // Discover the requests (predecessors of the sink).
        let mut left_index = vec![usize::MAX; n];
        // (request node, sink edge) per request.
        let mut requests: Vec<(NodeId, usize)> = Vec::new();
        let mut cursor = arena.first_edge(sink);
        while let Some(idx) = cursor {
            if idx % 2 == 1 {
                let forward = idx ^ 1;
                let node = arena.target(idx);
                // Zero-capacity sink edges are structurally absent (an
                // incremental arena de-capacitates edges instead of removing
                // them).
                if arena.edge(forward).original_cap != 0 {
                    if arena.edge(forward).original_cap != 1 || left_index[node] != usize::MAX {
                        return None; // a capacitated row, or parallel sink edges
                    }
                    left_index[node] = requests.len();
                    requests.push((node, forward));
                }
            }
            cursor = arena.next_edge(idx);
        }

        // Candidate edges per request, the sub-box expansion, and the seed
        // matching recovered from the arena's current flow.
        let mut cand_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); requests.len()];
        let mut hk = HopcroftKarp::new(requests.len(), total_slots);
        let mut slot_owner = vec![usize::MAX; total_slots];
        let mut next_free: Vec<usize> = boxes.iter().map(|&(_, _, base)| base).collect();
        let mut pair_left = vec![usize::MAX; requests.len()];
        let mut pair_right = vec![usize::MAX; total_slots];
        let mut initial = 0usize;

        for (bi, &(node, _, base)) in boxes.iter().enumerate() {
            let slots = arena.edge(boxes[bi].1).original_cap as usize;
            for s in 0..slots {
                slot_owner[base + s] = bi;
            }
            let mut cursor = arena.first_edge(node);
            while let Some(idx) = cursor {
                // Skip residual twins, de-capacitated (absent) edges, and
                // edges whose target request is itself absent (a removed
                // request keeps its candidate edges but loses its sink edge).
                if idx % 2 == 0
                    && arena.edge(idx).original_cap != 0
                    && left_index[arena.target(idx)] != usize::MAX
                {
                    let to = arena.target(idx);
                    if arena.edge(idx).original_cap != 1 {
                        return None; // a capacitated row
                    }
                    let l = left_index[to];
                    cand_edges[l].push((bi, idx));
                    for s in 0..slots {
                        hk.add_edge(l, base + s);
                    }
                    if arena.flow_on(idx) == 1 {
                        let slot = next_free[bi];
                        debug_assert!(slot < base + slots, "box over its budget");
                        next_free[bi] += 1;
                        pair_left[l] = slot;
                        pair_right[slot] = l;
                        initial += 1;
                    }
                }
                cursor = arena.next_edge(idx);
            }
        }

        let (size, pairs) = hk.solve_seeded(pair_left, pair_right, initial);

        // Write the matching back into the arena as a flow.
        arena.reset_flow();
        for (l, slot) in pairs.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let bi = slot_owner[*slot];
            let (_, source_edge, _) = boxes[bi];
            let (_, sink_edge) = requests[l];
            let cand = cand_edges[l]
                .iter()
                .find(|&&(b, _)| b == bi)
                .expect("matched pair must come from a candidate edge");
            arena.push(source_edge, 1);
            arena.push(cand.1, 1);
            arena.push(sink_edge, 1);
        }

        Some(size as i64 - initial as i64)
    }
}

impl MaxFlowSolve for HopcroftKarpSolve {
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64 {
        assert_ne!(source, sink, "source and sink must differ");
        let matched = if self.use_scalar {
            Self::scalar_max_flow(arena, source, sink)
        } else {
            self.bit_max_flow(arena, source, sink)
        };
        matched.unwrap_or_else(|| self.general.max_flow(arena, source, sink))
    }

    fn name(&self) -> &'static str {
        if self.use_scalar {
            "hopcroft-karp-scalar"
        } else {
            "hopcroft-karp"
        }
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.tracer = tracer.clone();
        self.general.attach_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_on_identity() {
        let mut hk = HopcroftKarp::new(4, 4);
        for i in 0..4 {
            hk.add_edge(i, i);
        }
        let (size, pairs) = hk.solve();
        assert_eq!(size, 4);
        for (l, p) in pairs.iter().enumerate() {
            assert_eq!(*p, Some(l));
        }
    }

    #[test]
    fn unmatchable_vertices_stay_unmatched() {
        let mut hk = HopcroftKarp::new(3, 2);
        hk.add_edge(0, 0);
        hk.add_edge(1, 0);
        hk.add_edge(2, 1);
        let (size, pairs) = hk.solve();
        assert_eq!(size, 2);
        assert_eq!(pairs.iter().filter(|p| p.is_none()).count(), 1);
    }

    #[test]
    fn augmenting_path_is_found() {
        // Greedy matching could match 0-0 and block 1; HK must find size 2.
        let mut hk = HopcroftKarp::new(2, 2);
        hk.add_edge(0, 0);
        hk.add_edge(0, 1);
        hk.add_edge(1, 0);
        let (size, pairs) = hk.solve();
        assert_eq!(size, 2);
        assert_eq!(pairs[1], Some(0));
        assert_eq!(pairs[0], Some(1));
    }

    #[test]
    fn empty_graph_has_empty_matching() {
        let hk = HopcroftKarp::new(3, 3);
        let (size, pairs) = hk.solve();
        assert_eq!(size, 0);
        assert!(pairs.iter().all(Option::is_none));
    }

    #[test]
    fn matching_is_a_valid_injection() {
        // Random-ish dense instance; check no right vertex is used twice.
        let mut hk = HopcroftKarp::new(6, 5);
        for l in 0..6 {
            for r in 0..5 {
                if (l + r) % 2 == 0 || l == r {
                    hk.add_edge(l, r);
                }
            }
        }
        let (size, pairs) = hk.solve();
        let mut used = [false; 5];
        let mut count = 0;
        for p in pairs.iter().flatten() {
            assert!(!used[*p], "right vertex matched twice");
            used[*p] = true;
            count += 1;
        }
        assert_eq!(count, size);
        assert_eq!(size, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut hk = HopcroftKarp::new(1, 1);
        hk.add_edge(0, 5);
    }

    fn bit_adj(rows: usize, cols: usize, edges: &[(usize, usize)]) -> BitAdjacency {
        let mut adj = BitAdjacency::new();
        adj.reset(rows, cols);
        for &(r, c) in edges {
            adj.set(r, c);
        }
        adj
    }

    #[test]
    fn bit_matcher_finds_augmenting_path() {
        // Greedy could match 0→0 and strand 1; the matcher must reach 2.
        let adj = bit_adj(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let mut m = vec![u32::MAX; 2];
        let size = BitHopcroftKarp::new().solve(&adj, &[1, 1], &mut m);
        assert_eq!(size, 2);
        assert_eq!(m, vec![1, 0]);
    }

    #[test]
    fn bit_matcher_respects_capacities() {
        // One box of budget 2 plus one of budget 1, four requests.
        let adj = bit_adj(4, 2, &[(0, 0), (1, 0), (2, 0), (3, 1), (2, 1)]);
        let mut m = vec![u32::MAX; 4];
        let size = BitHopcroftKarp::new().solve(&adj, &[2, 1], &mut m);
        assert_eq!(size, 3);
        let mut load = [0u32; 2];
        for &b in &m {
            if b != u32::MAX {
                load[b as usize] += 1;
            }
        }
        assert!(load[0] <= 2 && load[1] <= 1);
    }

    #[test]
    fn bit_matcher_displaces_across_capacitated_boxes() {
        // Box 0 (budget 1) serves requests 0 and 1; request 1 can also use
        // box 1. Seeding 1→box0 forces a displacement to serve request 0.
        let adj = bit_adj(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let mut m = vec![u32::MAX, 0];
        let size = BitHopcroftKarp::new().solve(&adj, &[1, 1], &mut m);
        assert_eq!(size, 2);
        assert_eq!(m, vec![0, 1]);
    }

    #[test]
    fn bit_matcher_spans_multiple_words() {
        // 130 boxes so rows span three words; request i only likes box
        // 129 - i, forcing high-word scans.
        let edges: Vec<(usize, usize)> = (0..130).map(|i| (i, 129 - i)).collect();
        let adj = bit_adj(130, 130, &edges);
        let mut m = vec![u32::MAX; 130];
        let caps = vec![1u32; 130];
        let size = BitHopcroftKarp::new().solve(&adj, &caps, &mut m);
        assert_eq!(size, 130);
        for (i, &b) in m.iter().enumerate() {
            assert_eq!(b as usize, 129 - i);
        }
    }

    #[test]
    fn bit_matcher_seed_counts_toward_size() {
        let adj = bit_adj(2, 1, &[(0, 0), (1, 0)]);
        let mut m = vec![0, u32::MAX];
        let size = BitHopcroftKarp::new().solve(&adj, &[1], &mut m);
        assert_eq!(size, 1);
        assert_eq!(m, vec![0, u32::MAX]);
    }

    /// Lemma-1 arena: 2 boxes (budgets 2 and 1), 4 requests.
    fn lemma1_arena() -> (FlowArena, usize, usize) {
        let mut a = FlowArena::new();
        a.clear(8);
        let source = 0;
        let sink = 7;
        a.add_edge(source, 1, 2);
        a.add_edge(source, 2, 1);
        for (b, r) in [(1, 3), (1, 4), (2, 4), (1, 5), (2, 6)] {
            a.add_edge(b, r, 1);
        }
        for r in 3..=6 {
            a.add_edge(r, sink, 1);
        }
        (a, source, sink)
    }

    #[test]
    fn bit_and_scalar_adapters_agree() {
        let (mut a, s, t) = lemma1_arena();
        let (mut b, _, _) = lemma1_arena();
        let fa = HopcroftKarpSolve::new().max_flow(&mut a, s, t);
        let fb = HopcroftKarpSolve::scalar().max_flow(&mut b, s, t);
        assert_eq!(fa, fb);
        assert_eq!(fa, 3);
        // Both leave a valid flow behind: conservation at inner nodes.
        for v in 1..=6 {
            assert_eq!(a.net_outflow(v), 0, "node {v}");
            assert_eq!(b.net_outflow(v), 0, "node {v}");
        }
    }

    #[test]
    fn bit_adapter_warm_start_returns_delta() {
        let (mut a, s, t) = lemma1_arena();
        let mut solver = HopcroftKarpSolve::new();
        let first = solver.max_flow(&mut a, s, t);
        assert_eq!(first, 3);
        // Re-solving the solved arena adds nothing.
        assert_eq!(solver.max_flow(&mut a, s, t), 0);
        assert_eq!(a.net_outflow(s), 3);
    }

    #[test]
    fn bit_adapter_warm_start_moves_a_row_onto_a_box_freed_in_the_same_solve() {
        // Two gadgets of two unit boxes: the narrow request (one candidate)
        // is unserved because the wide one sits on its box, and the only
        // fix is wide → other box, narrow → freed box. The gadgets list
        // narrow and wide in opposite orders, so whichever order the
        // write-back visits rows in, one narrow row comes before its wide.
        let mut a = FlowArena::new();
        a.clear(10);
        let (source, sink) = (0, 9);
        let source_edges: Vec<usize> = (1..=4).map(|b| a.add_edge(source, b, 1)).collect();
        let narrow_first = a.add_edge(1, 5, 1);
        let wide_first = a.add_edge(1, 6, 1);
        a.add_edge(2, 6, 1);
        let wide_second = a.add_edge(3, 7, 1);
        a.add_edge(4, 7, 1);
        let narrow_second = a.add_edge(3, 8, 1);
        let sink_edges: Vec<usize> = (5..=8).map(|r| a.add_edge(r, sink, 1)).collect();
        for (box_edge, cand, request_edge) in [
            (source_edges[0], wide_first, sink_edges[1]),
            (source_edges[2], wide_second, sink_edges[2]),
        ] {
            a.push(box_edge, 1);
            a.push(cand, 1);
            a.push(request_edge, 1);
        }
        assert_eq!(HopcroftKarpSolve::new().max_flow(&mut a, source, sink), 2);
        assert_eq!(a.flow_on(narrow_first), 1);
        assert_eq!(a.flow_on(narrow_second), 1);
        for v in 1..=8 {
            assert_eq!(a.net_outflow(v), 0, "node {v}");
        }
    }

    #[test]
    fn two_hop_chain_falls_back_to_the_general_solver() {
        // source → box → relay → request → sink is not Lemma-1 shaped (an
        // extra node layer); the word-parallel adapter used to panic on it.
        let mut a = FlowArena::new();
        a.clear(5);
        a.add_edge(0, 1, 2);
        a.add_edge(1, 2, 1);
        let last_hop = a.add_edge(2, 3, 1);
        a.add_edge(3, 4, 1);
        let mut solver = HopcroftKarpSolve::new();
        assert_eq!(solver.max_flow(&mut a, 0, 4), 1);
        assert_eq!(a.flow_on(last_hop), 1);
        assert_eq!(solver.max_flow(&mut a, 0, 4), 0, "already maximum");
    }

    #[test]
    fn capacitated_row_falls_back_to_the_general_solver() {
        // A row class of three requests: sink capacity 3 and candidate edges
        // of capacity 3 from boxes of budget 2 and 2, next to a plain unit
        // request on the second box. Both backends must route 3 + 1 units.
        let build = |a: &mut FlowArena| {
            a.clear(6);
            a.add_edge(0, 1, 2);
            a.add_edge(0, 2, 2);
            a.add_edge(1, 3, 3);
            a.add_edge(2, 3, 3);
            a.add_edge(2, 4, 1);
            let class_sink = a.add_edge(3, 5, 3);
            a.add_edge(4, 5, 1);
            class_sink
        };
        let solvers: [fn() -> HopcroftKarpSolve; 2] =
            [HopcroftKarpSolve::new, HopcroftKarpSolve::scalar];
        for make in solvers {
            let mut a = FlowArena::new();
            let class_sink = build(&mut a);
            let mut solver = make();
            assert_eq!(solver.max_flow(&mut a, 0, 5), 4, "{}", solver.name());
            assert_eq!(a.flow_on(class_sink), 3, "{}", solver.name());
            for v in 1..=4 {
                assert_eq!(a.net_outflow(v), 0, "{}: node {v}", solver.name());
            }
        }
    }

    #[test]
    fn adapter_names_distinguish_backends() {
        assert_eq!(HopcroftKarpSolve::new().name(), "hopcroft-karp");
        assert_eq!(HopcroftKarpSolve::scalar().name(), "hopcroft-karp-scalar");
    }
}
