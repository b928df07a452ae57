//! Hopcroft–Karp maximum bipartite matching.
//!
//! When every box can serve at most one request (or after splitting a box of
//! capacity `⌊u·c⌋` into that many unit sub-boxes — the paper uses the same
//! "elementary sub-box" trick in Theorem 2's proof) the connection-matching
//! problem becomes a plain bipartite matching, for which Hopcroft–Karp runs
//! in `O(E·√V)` with small constants. The plain [`HopcroftKarp`] over that
//! sub-box split is the tests' independent reference for the flow solvers.
//!
//! [`HopcroftKarpSolve`] wraps the word-parallel [`BitHopcroftKarp`] as a
//! [`MaxFlowSolve`] over Lemma-1-shaped [`FlowArena`] networks
//! (`source → boxes → requests → sink` with unit box→request and
//! request→sink edges). It matches against capacitated boxes directly — no
//! sub-box expansion, no per-call graph rebuild — and writes the matching
//! back into the arena as a flow.

use crate::arena::{FlowArena, NodeId};
use crate::bitset::{BipartiteShape, BitAdjacency, BitSet, NONE};
use crate::dinic::Dinic;
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
        let n_left = self.adj.len();
        let mut pair_left = vec![NIL; n_left];
        let mut pair_right = vec![NIL; self.right_count];
        let mut dist = vec![INF; n_left];
        let mut matching = 0;

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
    /// On return `match_of` maps each request to its box (`u32::MAX` =
    /// unmatched); its contents on entry are ignored. Returns the matching
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
        match_of.fill(NONE);
        self.free_boxes.reset(cols);
        for (b, &cap) in caps.iter().enumerate() {
            if cap > 0 {
                self.free_boxes.set(b);
            }
        }

        let mut size = 0usize;
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
/// On an arena with the connection-matching layout produced by
/// [`crate::matching::ConnectionProblem::build_arena`] — every successor of
/// `source` is a *box* whose source-edge capacity is its stripe budget, every
/// predecessor of `sink` is a *request* with a unit sink edge, and every
/// box→request edge has unit capacity — the Lemma-1 shape analysis builds
/// the bit rows, the capacitated [`BitHopcroftKarp`] matches them with the
/// boxes keeping their budgets, and the matching is written into the arena
/// as a flow, so extraction and obstruction code behave exactly as with the
/// flow solvers. Repeated solves allocate nothing once the buffers have
/// grown.
///
/// On any other arena — a relay network's two-hop paths, or a row class of
/// several requests, whose sink and candidate edges carry the member count —
/// the adapter hands the solve to [`Dinic`], the way [`Dinic::new`] itself
/// falls back from its word-parallel levels.
#[derive(Clone, Debug, Default)]
pub struct HopcroftKarpSolve {
    shape: BipartiteShape,
    core: BitHopcroftKarp,
    /// Solver for arenas that are not Lemma-1 shaped.
    general: Dinic,
    /// Per box column: budget (source-edge original capacity).
    caps: Vec<u32>,
    /// Per request row: matched box column (`u32::MAX` free).
    match_of: Vec<u32>,
    /// Span sink for shape analyses and matching phases (off by default).
    tracer: TraceHandle,
}

impl HopcroftKarpSolve {
    /// Creates the adapter.
    pub fn new() -> Self {
        HopcroftKarpSolve::default()
    }

    /// Word-parallel path: shape analysis + capacitated bit matching,
    /// written into the arena as a flow. `None` when the arena is not a
    /// Lemma-1 shape with unit rows (nothing has been touched then).
    fn bit_max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> Option<i64> {
        let clock = self.tracer.begin();
        let matchable = self.shape.analyze(arena, source, sink) && self.shape.unit_rows;
        self.tracer.end(
            clock,
            Stage::SolverAnalyze,
            self.shape.requests.len() as u64,
        );
        if !matchable {
            return None;
        }

        self.caps.clear();
        for &e in &self.shape.source_edge {
            let cap = if e == NONE {
                0
            } else {
                arena.edge(e as usize).original_cap
            };
            self.caps
                .push(u32::try_from(cap).expect("box budget fits in u32"));
        }
        self.match_of.resize(self.shape.requests.len(), NONE);
        let size = self.core.solve_traced(
            &self.shape.adj,
            &self.caps,
            &mut self.match_of,
            &self.tracer,
        );

        for (row, &col) in self.match_of.iter().enumerate() {
            if col == NONE {
                continue;
            }
            let (_, cand) = self
                .shape
                .cands(row)
                .find(|&(c, _)| c == col)
                .expect("matched pair must come from a candidate edge");
            arena.push(self.shape.source_edge[col as usize] as usize, 1);
            arena.push(cand as usize, 1);
            arena.push(self.shape.sink_edge[row] as usize, 1);
        }
        Some(size as i64)
    }
}

impl MaxFlowSolve for HopcroftKarpSolve {
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64 {
        assert_ne!(source, sink, "source and sink must differ");
        debug_assert!(
            !arena.carries_flow(),
            "a solve starts from an arena carrying no flow"
        );
        self.bit_max_flow(arena, source, sink)
            .unwrap_or_else(|| self.general.max_flow(arena, source, sink))
    }

    fn name(&self) -> &'static str {
        "hopcroft-karp"
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
        // Boxes 0 (budget 1) and 1 (budget 2): request 0 likes both and
        // takes box 0 first, so request 1, which likes only box 0, is served
        // by displacing request 0 onto box 1; request 2 fills box 1.
        let adj = bit_adj(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 1)]);
        let mut m = vec![7; 3];
        let size = BitHopcroftKarp::new().solve(&adj, &[1, 2], &mut m);
        assert_eq!(size, 3);
        assert_eq!(m, vec![1, 0, 1]);
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
        // The scalar reference: the plain matcher over the elementary
        // sub-box split of the same arena (box 1 → slots 0 and 1, box 2 →
        // slot 2; request node `r` is left vertex `r - 3`).
        let mut sub_boxes = HopcroftKarp::new(4, 3);
        for (x, slot) in [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
            (3, 2),
        ] {
            sub_boxes.add_edge(x, slot);
        }
        let (mut a, s, t) = lemma1_arena();
        let flow = HopcroftKarpSolve::new().max_flow(&mut a, s, t);
        assert_eq!(flow as usize, sub_boxes.solve().0);
        assert_eq!(flow, 3);
        // The bit adapter leaves a valid flow behind.
        assert_eq!(a.net_outflow(s), 3);
        for v in 1..=6 {
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
    }

    #[test]
    fn capacitated_row_falls_back_to_the_general_solver() {
        // A row class of three requests: sink capacity 3 and candidate edges
        // of capacity 3 from boxes of budget 2 and 2, next to a plain unit
        // request on the second box. The fallback must route 3 + 1 units.
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
        let mut a = FlowArena::new();
        let class_sink = build(&mut a);
        assert_eq!(HopcroftKarpSolve::new().max_flow(&mut a, 0, 5), 4);
        assert_eq!(a.flow_on(class_sink), 3);
        for v in 1..=4 {
            assert_eq!(a.net_outflow(v), 0, "node {v}");
        }
    }

    #[test]
    fn adapter_names_distinguish_backends() {
        // Reports name the adapter, whichever backend solved the arena.
        let adapter = HopcroftKarpSolve::new();
        assert_eq!(adapter.name(), "hopcroft-karp");
        assert_ne!(adapter.name(), adapter.general.name());
    }
}
