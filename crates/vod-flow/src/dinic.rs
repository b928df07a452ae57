//! Dinic's maximum-flow algorithm.
//!
//! Dinic runs in `O(V²E)` in general and `O(E·√V)` on the unit-capacity
//! bipartite networks produced by the connection-matching reduction, which is
//! why it is the default solver for the per-round scheduling problem. The
//! solver keeps its level and cursor buffers between calls, so solving a
//! rebuilt [`FlowArena`] allocates nothing once they have grown.
//!
//! The input decides the level BFS. On Lemma-1-shaped arenas (`source →
//! boxes → requests → sink`, rows of any demand; recognised by the shape
//! analysis in [`crate::bitset`], run once per solve) the per-phase level
//! BFS runs word-parallel over the request×box bit matrix instead of chasing
//! the edge linked lists. The levels it assigns are exactly the scalar BFS
//! distances for every node the blocking-flow DFS can usefully visit (nodes
//! past the sink's layer are left unlabelled, which only prunes provably
//! dead DFS branches), so the resulting flows are **bit-identical** to the
//! scalar path — the tests assert this edge by edge. Every other arena
//! (relay two-hop networks, the general textbook instances) takes the
//! scalar BFS.

use crate::arena::{FlowArena, NodeId};
use crate::bitset::{BipartiteShape, BitSet, NONE};
use crate::solver::MaxFlowSolve;
use std::collections::VecDeque;
use vod_obs::{Stage, TraceHandle};

/// Maximum-flow solver state (level graph + adjacency cursors), reusable
/// across solves.
#[derive(Clone, Debug, Default)]
pub struct Dinic {
    level: Vec<i32>,
    /// Per-node cursor into the adjacency list (edge index, `-1` exhausted).
    cursor: Vec<i64>,
    queue: VecDeque<NodeId>,
    /// Lemma-1 shape analysis of the arena being solved.
    shape: BipartiteShape,
    /// Per request row: CSR offsets into `flow_col`, the box columns its
    /// flow comes from this phase.
    flow_off: Vec<u32>,
    flow_col: Vec<u32>,
    /// Per request row: the box column whose candidate edge is saturated
    /// this phase (`u32::MAX` for none; at most one, as every candidate edge
    /// of a row has the row's whole demand as its capacity).
    sat_col: Vec<u32>,
    /// Box columns of the current BFS layer.
    box_frontier: Vec<u32>,
    /// Request rows of the current BFS layer.
    req_frontier: Vec<u32>,
    /// Request rows not yet labelled this phase.
    unvisited: Vec<u32>,
    /// Bit mask of the current box layer.
    frontier_mask: BitSet,
    /// Box columns labelled this phase.
    visited_boxes: BitSet,
    /// Span sink for shape analyses (off by default).
    tracer: TraceHandle,
}

impl Dinic {
    /// Creates a solver (word-parallel level BFS on Lemma-1-shaped arenas,
    /// scalar everywhere else).
    pub fn new() -> Self {
        Dinic::default()
    }

    /// Breadth-first construction of the level graph over residual edges.
    /// Returns `true` when the sink is still reachable.
    fn build_levels(&mut self, arena: &FlowArena, source: NodeId, sink: NodeId) -> bool {
        self.level.clear();
        self.level.resize(arena.node_count(), -1);
        self.level[source] = 0;
        self.queue.clear();
        self.queue.push_back(source);
        while let Some(v) = self.queue.pop_front() {
            let mut cursor = arena.first_edge(v);
            while let Some(idx) = cursor {
                let to = arena.target(idx);
                if arena.residual(idx) > 0 && self.level[to] < 0 {
                    self.level[to] = self.level[v] + 1;
                    self.queue.push_back(to);
                }
                cursor = arena.next_edge(idx);
            }
        }
        self.level[sink] >= 0
    }

    /// Word-parallel level BFS over a Lemma-1-shaped arena (`self.shape`
    /// must be a valid analysis of it).
    ///
    /// Produces exactly the scalar BFS distances for the source, every box
    /// and request on a shortest path prefix, and the sink; nodes strictly
    /// beyond the sink's layer stay at `-1`. The DFS can only dead-end on
    /// such nodes (every residual edge out of them leads to a level that can
    /// never reach the sink's), so the blocking flow — and therefore the
    /// final flow on every edge — is identical to the scalar path's.
    fn bit_build_levels(&mut self, arena: &FlowArena, source: NodeId, sink: NodeId) -> bool {
        self.level.clear();
        self.level.resize(arena.node_count(), -1);
        self.level[source] = 0;

        let rows = self.shape.requests.len();
        let cols = self.shape.boxes.len();
        // The boxes each row's flow comes from, from the arena's live flows
        // (they change between phases as the DFS pushes).
        self.flow_off.clear();
        self.flow_col.clear();
        self.sat_col.clear();
        for row in 0..rows {
            self.flow_off.push(self.flow_col.len() as u32);
            let mut saturated = NONE;
            for (col, edge) in self.shape.cands(row) {
                let e = arena.edge(edge as usize);
                if e.cap < e.original_cap {
                    self.flow_col.push(col);
                    if e.cap == 0 {
                        saturated = col;
                    }
                }
            }
            self.sat_col.push(saturated);
        }
        self.flow_off.push(self.flow_col.len() as u32);

        // Layer 1: boxes with residual source capacity.
        self.visited_boxes.reset(cols);
        self.box_frontier.clear();
        for col in 0..cols {
            let e = self.shape.source_edge[col];
            if e != NONE && arena.residual(e as usize) > 0 {
                self.level[self.shape.boxes[col] as usize] = 1;
                self.visited_boxes.set(col);
                self.box_frontier.push(col as u32);
            }
        }

        self.unvisited.clear();
        self.unvisited.extend(0..rows as u32);
        let mut d = 1i32; // level of the current box layer
        loop {
            if self.box_frontier.is_empty() {
                return false;
            }
            // Mask of the current box layer, then scan every unlabelled
            // request row against it 64 boxes at a time. A saturated
            // candidate edge has no residual, so its bit is skipped.
            self.frontier_mask.reset(cols);
            for i in 0..self.box_frontier.len() {
                self.frontier_mask.set(self.box_frontier[i] as usize);
            }
            self.req_frontier.clear();
            let mut i = 0;
            while i < self.unvisited.len() {
                let row = self.unvisited[i] as usize;
                let mask = self.frontier_mask.words();
                let adj_row = self.shape.adj.row(row);
                let m = self.sat_col[row];
                let mut reachable = false;
                for (wi, &word) in adj_row.iter().enumerate() {
                    let mut w = word & mask[wi];
                    if m != NONE && (m as usize) / 64 == wi {
                        w &= !(1u64 << (m % 64));
                    }
                    if w != 0 {
                        reachable = true;
                        break;
                    }
                }
                if reachable {
                    self.level[self.shape.requests[row] as usize] = d + 1;
                    self.req_frontier.push(row as u32);
                    self.unvisited.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if self.req_frontier.is_empty() {
                return false;
            }
            // Requests expand to the sink (via an unsaturated sink edge) and
            // to the boxes their flow comes from (via the residual
            // twins of the flow-carrying candidate edges).
            let mut sink_found = false;
            self.box_frontier.clear();
            for i in 0..self.req_frontier.len() {
                let row = self.req_frontier[i] as usize;
                if arena.residual(self.shape.sink_edge[row] as usize) > 0 {
                    sink_found = true;
                }
                let flows = self.flow_off[row] as usize..self.flow_off[row + 1] as usize;
                for &m in &self.flow_col[flows] {
                    if !self.visited_boxes.contains(m as usize) {
                        self.visited_boxes.set(m as usize);
                        self.level[self.shape.boxes[m as usize] as usize] = d + 2;
                        self.box_frontier.push(m);
                    }
                }
            }
            if sink_found {
                self.level[sink] = d + 2;
                return true;
            }
            d += 2;
        }
    }

    /// Depth-first blocking-flow augmentation along level-increasing edges.
    fn augment(&mut self, arena: &mut FlowArena, node: NodeId, sink: NodeId, limit: i64) -> i64 {
        if node == sink {
            return limit;
        }
        while self.cursor[node] >= 0 {
            let idx = self.cursor[node] as usize;
            let to = arena.target(idx);
            let cap = arena.residual(idx);
            if cap > 0 && self.level[node] + 1 == self.level[to] {
                let pushed = self.augment(arena, to, sink, limit.min(cap));
                if pushed > 0 {
                    arena.push(idx, pushed);
                    return pushed;
                }
            }
            self.cursor[node] = arena.next_edge(idx).map_or(-1, |e| e as i64);
        }
        0
    }
}

impl MaxFlowSolve for Dinic {
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64 {
        assert_ne!(source, sink, "source and sink must differ");
        debug_assert!(
            !arena.carries_flow(),
            "a solve starts from an arena carrying no flow"
        );
        // The word-parallel BFS applies only to Lemma-1 shapes.
        let clock = self.tracer.begin();
        let use_bits = self.shape.analyze(arena, source, sink);
        self.tracer.end(
            clock,
            Stage::SolverAnalyze,
            self.shape.requests.len() as u64,
        );
        let mut flow = 0;
        loop {
            let sink_reachable = if use_bits {
                self.bit_build_levels(arena, source, sink)
            } else {
                self.build_levels(arena, source, sink)
            };
            if !sink_reachable {
                break;
            }
            self.cursor.clear();
            self.cursor.extend(
                (0..arena.node_count()).map(|v| arena.first_edge(v).map_or(-1, |e| e as i64)),
            );
            loop {
                let pushed = self.augment(arena, source, sink, i64::MAX);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }

    fn name(&self) -> &'static str {
        "dinic"
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.tracer = tracer.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::{build, cut_capacity, TEXTBOOK};

    /// Solves the `n`-node network `edges` from node 0 to node `n - 1`.
    fn solve(n: usize, edges: &[(usize, usize, i64)]) -> (FlowArena, i64) {
        let mut arena = build(n, edges);
        let flow = Dinic::new().max_flow(&mut arena, 0, n - 1);
        (arena, flow)
    }

    #[test]
    fn single_edge() {
        assert_eq!(solve(2, &[(0, 1, 7)]).1, 7);
    }

    #[test]
    fn series_takes_minimum() {
        assert_eq!(solve(3, &[(0, 1, 5), (1, 2, 3)]).1, 3);
    }

    #[test]
    fn parallel_paths_add_up() {
        let edges = [(0, 1, 2), (0, 2, 3), (1, 3, 2), (2, 3, 3)];
        assert_eq!(solve(4, &edges).1, 5);
    }

    #[test]
    fn classic_textbook_network() {
        assert_eq!(solve(6, &TEXTBOOK).1, 23);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        assert_eq!(solve(4, &[(0, 1, 10), (2, 3, 10)]).1, 0);
    }

    #[test]
    fn flow_value_matches_min_cut() {
        let edges = [
            (0, 1, 4),
            (0, 2, 2),
            (1, 2, 1),
            (1, 3, 2),
            (2, 3, 3),
            (3, 4, 5),
        ];
        let (arena, f) = solve(5, &edges);
        let side = arena.residual_reachable(0);
        assert!(side[0] && !side[4]);
        assert_eq!(cut_capacity(&arena, &side), f);
    }

    #[test]
    fn flow_conservation_at_internal_nodes() {
        let edges = [
            (0, 1, 4),
            (0, 2, 2),
            (1, 3, 2),
            (2, 3, 3),
            (1, 2, 2),
            (3, 4, 5),
        ];
        let (arena, f) = solve(5, &edges);
        assert_eq!(arena.net_outflow(0), f);
        assert_eq!(arena.net_outflow(4), -f);
        for node in 1..4 {
            assert_eq!(arena.net_outflow(node), 0, "node {node}");
        }
    }

    #[test]
    fn rerun_after_reset_gives_same_value() {
        let edges = [(0, 1, 3), (1, 2, 2), (0, 2, 1), (2, 3, 5)];
        let mut solver = Dinic::new();
        let a = solver.max_flow(&mut build(4, &edges), 0, 3);
        let b = solver.max_flow(&mut build(4, &edges), 0, 3);
        assert_eq!((a, b), (3, 3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "carrying no flow")]
    fn an_arena_carrying_flow_is_refused() {
        let (mut arena, _) = solve(2, &[(0, 1, 7)]);
        Dinic::new().max_flow(&mut arena, 0, 1);
    }

    /// Solves the arena `network` makes twice — as built, and with a dangling
    /// edge out of the sink appended, which takes the arena out of the
    /// Lemma-1 shape and the solver onto its scalar BFS — and asserts that
    /// the bit path ran on the first, the scalar path on the second, and the
    /// two leave the same flow on every shared edge. Returns the flow and
    /// whether every row of the shape had demand 1.
    fn bit_and_scalar_flows_agree(
        network: impl Fn(&mut FlowArena, usize),
        nodes: usize,
        source: NodeId,
        sink: NodeId,
    ) -> (i64, bool) {
        let mut bit_arena = FlowArena::new();
        network(&mut bit_arena, nodes);
        let mut bit = Dinic::new();
        let fa = bit.max_flow(&mut bit_arena, source, sink);
        assert!(bit.shape.valid, "the bit path ran");

        let mut scalar_arena = FlowArena::new();
        network(&mut scalar_arena, nodes + 1);
        scalar_arena.add_edge(sink, nodes, 1);
        let mut scalar = Dinic::new();
        let fb = scalar.max_flow(&mut scalar_arena, source, sink);
        assert!(!scalar.shape.valid, "the scalar path ran");

        assert_eq!(fa, fb);
        for idx in 0..bit_arena.edge_count() {
            assert_eq!(
                bit_arena.residual(idx),
                scalar_arena.residual(idx),
                "edge {idx}"
            );
        }
        (fa, bit.shape.unit_rows)
    }

    #[test]
    fn bit_levels_give_flows_identical_to_scalar() {
        // Lemma-1 shape: 3 boxes (budgets 2,1,1), 5 requests with assorted
        // candidate sets; the bit path must leave exactly the same flow on
        // every edge as the scalar path.
        let network = |arena: &mut FlowArena, nodes: usize| {
            arena.clear(nodes);
            arena.add_edge(0, 1, 2);
            arena.add_edge(0, 2, 1);
            arena.add_edge(0, 3, 1);
            for (b, r) in [(1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (1, 8)] {
                arena.add_edge(b, r, 1);
            }
            for r in 4..=8 {
                arena.add_edge(r, 9, 1);
            }
        };
        assert_eq!(bit_and_scalar_flows_agree(network, 10, 0, 9), (4, true));
    }

    #[test]
    fn bit_levels_on_row_classes_give_flows_identical_to_scalar() {
        // Rows 5 and 6 are classes of three and two requests (demand on the
        // sink edge and on every candidate edge), row 7 a plain request;
        // boxes 1..=4 have budgets 2, 1, 2, 1. Supply equals demand, so
        // every unit must find a place past the edges earlier phases
        // saturated.
        let network = |arena: &mut FlowArena, nodes: usize| {
            arena.clear(nodes);
            for (i, budget) in [2, 1, 2, 1].into_iter().enumerate() {
                arena.add_edge(0, 1 + i, budget);
            }
            for (b, r, demand) in [(1, 5, 3), (2, 5, 3), (3, 5, 3), (3, 6, 2), (4, 6, 2)] {
                arena.add_edge(b, r, demand);
            }
            arena.add_edge(1, 7, 1);
            arena.add_edge(4, 7, 1);
            arena.add_edge(5, 8, 3);
            arena.add_edge(6, 8, 2);
            arena.add_edge(7, 8, 1);
        };
        assert_eq!(bit_and_scalar_flows_agree(network, 9, 0, 8), (6, false));
    }

    #[test]
    fn bit_shape_cache_refreshes_on_structure_change() {
        // One solver over three arenas of different structure: the shape is
        // analysed afresh for each, never reused from the last solve.
        let mut arena = FlowArena::new();
        let mut solver = Dinic::new();
        for budget in [1, 0, 1] {
            arena.clear(4);
            arena.add_edge(0, 1, budget);
            arena.add_edge(1, 2, 1);
            arena.add_edge(2, 3, 1);
            assert_eq!(solver.max_flow(&mut arena, 0, 3), budget);
        }
    }

    #[test]
    fn non_lemma1_graphs_fall_back_to_scalar_path() {
        // A diamond with an inner edge is not Lemma-1 shaped; Dinic::new()
        // must still solve it exactly (via the scalar fallback).
        let edges = [(0, 1, 2), (0, 2, 2), (1, 2, 1), (1, 3, 1), (2, 3, 2)];
        assert_eq!(solve(4, &edges).1, 3);
    }

    #[test]
    fn solver_reuse_across_arenas() {
        let mut solver = Dinic::new();
        let mut arena = FlowArena::new();
        for size in [3usize, 5, 4] {
            arena.clear(size);
            for v in 0..size - 1 {
                arena.add_edge(v, v + 1, 2);
            }
            assert_eq!(solver.max_flow(&mut arena, 0, size - 1), 2);
        }
    }
}
