//! Dinic's maximum-flow algorithm.
//!
//! Dinic runs in `O(V²E)` in general and `O(E·√V)` on the unit-capacity
//! bipartite networks produced by the connection-matching reduction, which is
//! why it is the default solver for the per-round scheduling problem. The
//! solver keeps its level and cursor buffers between calls, so repeated
//! solves over a reused [`FlowArena`] allocate nothing in steady state, and
//! it augments from whatever flow the arena already carries — warm-starting
//! from the previous round's matching is just calling it again.
//!
//! On Lemma-1-shaped arenas (`source → boxes → requests → sink`, rows of any
//! demand; detected by the shape analysis in [`crate::bitset`] and cached on
//! [`FlowArena::version`]) the per-phase level BFS runs word-parallel over
//! the request×box bit matrix instead of chasing the edge linked lists. The
//! levels it assigns are exactly the scalar BFS distances for every node the
//! blocking-flow DFS can usefully visit (nodes past the sink's layer are
//! left unlabelled, which only prunes provably dead DFS branches), so the
//! resulting flows are **bit-identical** to the scalar path — the property
//! tests assert this edge by edge. Non-Lemma-1 graphs (relay two-hop
//! networks, the general textbook instances) fall back to the scalar BFS
//! automatically; [`Dinic::scalar`] forces the fallback everywhere, as a
//! baseline for benchmarks and equivalence tests.

use crate::arena::FlowArena;
use crate::bitset::{BipartiteShape, BitSet, NONE};
use crate::graph::{FlowNetwork, NodeId};
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
    /// Forces the scalar level BFS even on Lemma-1-shaped arenas.
    force_scalar: bool,
    /// Cached Lemma-1 shape analysis (keyed on the arena version).
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

    /// Creates a solver that always uses the scalar level BFS — the
    /// pre-word-parallel behaviour, kept as a benchmark baseline and for
    /// bit-identity cross-checks.
    pub fn scalar() -> Self {
        Dinic {
            force_scalar: true,
            ..Dinic::default()
        }
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
    /// must be valid for the arena's current structure).
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
            // Requests expand to the sink (via a live, unsaturated sink
            // edge) and to the boxes their flow comes from (via the residual
            // twins of the flow-carrying candidate edges).
            let mut sink_found = false;
            self.box_frontier.clear();
            for i in 0..self.req_frontier.len() {
                let row = self.req_frontier[i] as usize;
                let se = self.shape.sink_edge[row];
                if se != NONE && arena.residual(se as usize) > 0 {
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
        // Refresh the cached shape analysis when the arena's structure
        // changed; the word-parallel BFS applies only to Lemma-1 shapes.
        let use_bits = !self.force_scalar && {
            if self.shape.version != arena.version()
                || self.shape.source != source
                || self.shape.sink != sink
            {
                let clock = self.tracer.begin();
                self.shape.analyze(arena, source, sink);
                self.tracer.end(
                    clock,
                    Stage::SolverAnalyze,
                    self.shape.requests.len() as u64,
                );
            }
            self.shape.valid
        };
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

/// Convenience wrapper: runs Dinic on a [`FlowNetwork`] and returns the flow
/// value, leaving the network's residual capacities updated. Allocates a
/// temporary arena — reuse a [`FlowArena`] plus a [`Dinic`] instance directly
/// on hot paths.
pub fn max_flow(graph: &mut FlowNetwork, source: NodeId, sink: NodeId) -> i64 {
    let mut arena = FlowArena::new();
    arena.rebuild_from(graph);
    let flow = Dinic::new().max_flow(&mut arena, source, sink);
    graph.sync_flows_from(&arena);
    flow
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = FlowNetwork::with_nodes(2);
        g.add_edge(0, 1, 7);
        assert_eq!(max_flow(&mut g, 0, 1), 7);
    }

    #[test]
    fn series_takes_minimum() {
        let mut g = FlowNetwork::with_nodes(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 3);
        assert_eq!(max_flow(&mut g, 0, 2), 3);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut g = FlowNetwork::with_nodes(4);
        g.add_edge(0, 1, 2);
        g.add_edge(0, 2, 3);
        g.add_edge(1, 3, 2);
        g.add_edge(2, 3, 3);
        assert_eq!(max_flow(&mut g, 0, 3), 5);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS figure 26.1-style network, max flow 23.
        let mut g = FlowNetwork::with_nodes(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 2, 10);
        g.add_edge(2, 1, 4);
        g.add_edge(1, 3, 12);
        g.add_edge(3, 2, 9);
        g.add_edge(2, 4, 14);
        g.add_edge(4, 3, 7);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 5, 4);
        assert_eq!(max_flow(&mut g, 0, 5), 23);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut g = FlowNetwork::with_nodes(4);
        g.add_edge(0, 1, 10);
        g.add_edge(2, 3, 10);
        assert_eq!(max_flow(&mut g, 0, 3), 0);
    }

    #[test]
    fn flow_value_matches_min_cut() {
        let mut g = FlowNetwork::with_nodes(5);
        g.add_edge(0, 1, 4);
        g.add_edge(0, 2, 2);
        g.add_edge(1, 2, 1);
        g.add_edge(1, 3, 2);
        g.add_edge(2, 3, 3);
        g.add_edge(3, 4, 5);
        let f = max_flow(&mut g, 0, 4);
        let side = g.residual_reachable(0);
        assert!(side[0] && !side[4]);
        assert_eq!(g.cut_capacity(&side), f);
    }

    #[test]
    fn flow_conservation_at_internal_nodes() {
        let mut g = FlowNetwork::with_nodes(5);
        g.add_edge(0, 1, 4);
        g.add_edge(0, 2, 2);
        g.add_edge(1, 3, 2);
        g.add_edge(2, 3, 3);
        g.add_edge(1, 2, 2);
        g.add_edge(3, 4, 5);
        let f = max_flow(&mut g, 0, 4);
        assert_eq!(g.net_outflow(0), f);
        assert_eq!(g.net_outflow(4), -f);
        for node in 1..4 {
            assert_eq!(g.net_outflow(node), 0, "node {node}");
        }
    }

    #[test]
    fn rerun_after_reset_gives_same_value() {
        let mut g = FlowNetwork::with_nodes(4);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 2, 2);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 3, 5);
        let a = max_flow(&mut g, 0, 3);
        g.reset();
        let b = max_flow(&mut g, 0, 3);
        assert_eq!(a, b);
        assert_eq!(a, 3);
    }

    #[test]
    fn warm_start_on_partial_flow_reaches_the_same_maximum() {
        let mut arena = FlowArena::new();
        arena.clear(4);
        let a01 = arena.add_edge(0, 1, 2);
        let a13 = arena.add_edge(1, 3, 2);
        arena.add_edge(0, 2, 3);
        arena.add_edge(2, 3, 3);
        // Pre-push one unit along 0 → 1 → 3, then warm-start.
        arena.push(a01, 1);
        arena.push(a13, 1);
        let pushed = Dinic::new().max_flow(&mut arena, 0, 3);
        assert_eq!(pushed + 1, 5);
    }

    #[test]
    fn bit_levels_give_flows_identical_to_scalar() {
        // Lemma-1 shape: 3 boxes (budgets 2,1,1), 5 requests with assorted
        // candidate sets; solved twice from scratch, the bit path must leave
        // exactly the same flow on every edge as the scalar path.
        let build = |arena: &mut FlowArena| {
            arena.clear(10);
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
        let mut a = FlowArena::new();
        let mut b = FlowArena::new();
        build(&mut a);
        build(&mut b);
        let fa = Dinic::new().max_flow(&mut a, 0, 9);
        let fb = Dinic::scalar().max_flow(&mut b, 0, 9);
        assert_eq!(fa, fb);
        for idx in 0..a.edge_count() {
            assert_eq!(a.residual(idx), b.residual(idx), "edge {idx}");
        }
    }

    #[test]
    fn bit_path_warm_start_matches_scalar_warm_start() {
        let build = |arena: &mut FlowArena| {
            arena.clear(7);
            let s0 = arena.add_edge(0, 1, 1);
            arena.add_edge(0, 2, 1);
            let c0 = arena.add_edge(1, 3, 1);
            arena.add_edge(1, 4, 1);
            arena.add_edge(2, 4, 1);
            let t0 = arena.add_edge(3, 6, 1);
            arena.add_edge(4, 6, 1);
            arena.add_edge(5, 6, 1); // request with no candidates
                                     // Warm flow: box 1 already serves request 3.
            arena.push(s0, 1);
            arena.push(c0, 1);
            arena.push(t0, 1);
        };
        let mut a = FlowArena::new();
        let mut b = FlowArena::new();
        build(&mut a);
        build(&mut b);
        let fa = Dinic::new().max_flow(&mut a, 0, 6);
        let fb = Dinic::scalar().max_flow(&mut b, 0, 6);
        assert_eq!(fa, fb);
        assert_eq!(fa, 1, "one additional unit on top of the warm one");
        for idx in 0..a.edge_count() {
            assert_eq!(a.residual(idx), b.residual(idx), "edge {idx}");
        }
    }

    #[test]
    fn bit_levels_on_row_classes_give_flows_identical_to_scalar() {
        // Rows 5 and 6 are classes of three and two requests (demand on the
        // sink edge and on every candidate edge), row 7 a plain request;
        // boxes 1..=4 have budgets 2, 1, 2, 1. Warm: box 1 already sends
        // both its units to row 5 and box 3 saturates its edge to row 6, so
        // the phases have flow to move and a saturated edge to skip.
        let build = |arena: &mut FlowArena| {
            arena.clear(9);
            let sources: Vec<usize> = [2, 1, 2, 1]
                .iter()
                .enumerate()
                .map(|(i, &budget)| arena.add_edge(0, 1 + i, budget))
                .collect();
            let to_big = arena.add_edge(1, 5, 3);
            arena.add_edge(2, 5, 3);
            arena.add_edge(3, 5, 3);
            let to_small = arena.add_edge(3, 6, 2);
            arena.add_edge(4, 6, 2);
            arena.add_edge(1, 7, 1);
            arena.add_edge(4, 7, 1);
            let big_sink = arena.add_edge(5, 8, 3);
            let small_sink = arena.add_edge(6, 8, 2);
            arena.add_edge(7, 8, 1);
            for (source, cand, sink) in [
                (sources[0], to_big, big_sink),
                (sources[2], to_small, small_sink),
            ] {
                arena.push(source, 2);
                arena.push(cand, 2);
                arena.push(sink, 2);
            }
        };
        let mut a = FlowArena::new();
        let mut b = FlowArena::new();
        build(&mut a);
        build(&mut b);
        let mut bit = Dinic::new();
        let fa = bit.max_flow(&mut a, 0, 8);
        assert!(bit.shape.valid && !bit.shape.unit_rows);
        let fb = Dinic::scalar().max_flow(&mut b, 0, 8);
        assert_eq!((fa, fb), (2, 2));
        for idx in 0..a.edge_count() {
            assert_eq!(a.residual(idx), b.residual(idx), "edge {idx}");
        }
    }

    #[test]
    fn bit_shape_cache_refreshes_on_structure_change() {
        let mut arena = FlowArena::new();
        let mut solver = Dinic::new();
        arena.clear(4);
        let s = arena.add_edge(0, 1, 1);
        arena.add_edge(1, 2, 1);
        arena.add_edge(2, 3, 1);
        assert_eq!(solver.max_flow(&mut arena, 0, 3), 1);
        // De-capacitate the source edge (structure change) and re-solve from
        // scratch: the cached shape must refresh, not reuse stale budgets.
        arena.reset_flow();
        arena.set_capacity(s, 0);
        assert_eq!(solver.max_flow(&mut arena, 0, 3), 0);
        arena.set_capacity(s, 1);
        assert_eq!(solver.max_flow(&mut arena, 0, 3), 1);
    }

    #[test]
    fn non_lemma1_graphs_fall_back_to_scalar_path() {
        // A diamond with an inner edge is not Lemma-1 shaped; Dinic::new()
        // must still solve it exactly (via the scalar fallback).
        let build = |arena: &mut FlowArena| {
            arena.clear(4);
            arena.add_edge(0, 1, 2);
            arena.add_edge(0, 2, 2);
            arena.add_edge(1, 2, 1);
            arena.add_edge(1, 3, 1);
            arena.add_edge(2, 3, 2);
        };
        let mut a = FlowArena::new();
        build(&mut a);
        assert_eq!(Dinic::new().max_flow(&mut a, 0, 3), 3);
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
