//! FIFO push–relabel maximum-flow algorithm.
//!
//! The third solver family next to Dinic and Hopcroft–Karp: the tests
//! cross-check the three, and `exp_solvers` times them. The implementation
//! is the classic FIFO variant with the gap heuristic, `O(V³)`, plus the
//! *global-relabel* heuristic: periodically (and once right after
//! initialisation) heights are reset to exact residual BFS distances — a
//! backward BFS from the sink, then one from the source for the nodes the
//! sink cannot see (their excess must travel home, so they are lifted to
//! `n + dist-to-source`). Without it, the adversarial expander shapes (many
//! requests competing for saturated budgets) force the FIFO discharge loop
//! to lift nodes one level at a time through `Θ(n)` heights; with it, every
//! height jumps straight to its true distance in one `O(E)` sweep. The
//! solver reuses its height/excess/queue/BFS buffers across calls.

use crate::arena::{FlowArena, NodeId};
use crate::bitset::BitSet;
use crate::solver::MaxFlowSolve;
use std::collections::VecDeque;
use vod_obs::{Stage, TraceHandle};

/// Distance sentinel for the global-relabel BFS passes.
const UNREACHED: u32 = u32::MAX;

/// FIFO push–relabel solver state, reusable across solves.
#[derive(Debug)]
pub struct PushRelabel {
    height: Vec<usize>,
    excess: Vec<i64>,
    in_queue: Vec<bool>,
    height_count: Vec<usize>,
    queue: VecDeque<NodeId>,
    /// Relabel operations since the last global relabel.
    relabels_since: usize,
    /// Number of global relabels performed over this solver's lifetime
    /// (observability for benchmarks).
    global_relabels: u64,
    /// BFS distances to the sink (pooled scratch).
    dist_sink: Vec<u32>,
    /// BFS distances to the source (pooled scratch).
    dist_src: Vec<u32>,
    /// BFS visited marks over the residual view.
    visited: BitSet,
    /// BFS queue scratch.
    bfs_queue: Vec<NodeId>,
    /// Span sink for global-relabel passes (off by default).
    tracer: TraceHandle,
}

impl Default for PushRelabel {
    fn default() -> Self {
        PushRelabel::new()
    }
}

impl PushRelabel {
    /// Creates a solver with the gap and global-relabel heuristics enabled.
    pub fn new() -> Self {
        PushRelabel {
            height: Vec::new(),
            excess: Vec::new(),
            in_queue: Vec::new(),
            height_count: Vec::new(),
            queue: VecDeque::new(),
            relabels_since: 0,
            global_relabels: 0,
            dist_sink: Vec::new(),
            dist_src: Vec::new(),
            visited: BitSet::new(),
            bfs_queue: Vec::new(),
            tracer: TraceHandle::off(),
        }
    }

    /// Global relabels performed so far (benchmark observability).
    pub fn global_relabel_count(&self) -> u64 {
        self.global_relabels
    }

    /// Backward BFS from `start` over the residual view, writing into
    /// `dist`: `dist[v]` becomes the length of the shortest residual path
    /// *from* `v` *to* `start` ([`UNREACHED`] when none). Residual edges are
    /// walked backwards — edge `j` leaving a frontier node is matched with
    /// its twin `j ^ 1`, an edge *into* the frontier node; residual capacity
    /// on the twin means its source can push towards `start`.
    fn backward_bfs(
        dist: &mut [u32],
        visited: &mut BitSet,
        queue: &mut Vec<NodeId>,
        arena: &FlowArena,
        start: NodeId,
    ) {
        visited.reset(dist.len());
        visited.set(start);
        dist[start] = 0;
        queue.clear();
        queue.push(start);
        let mut at = 0;
        while at < queue.len() {
            let u = queue[at];
            at += 1;
            let du = dist[u];
            let mut cursor = arena.first_edge(u);
            while let Some(idx) = cursor {
                if arena.residual(idx ^ 1) > 0 {
                    let v = arena.target(idx);
                    if !visited.contains(v) {
                        visited.set(v);
                        dist[v] = du + 1;
                        queue.push(v);
                    }
                }
                cursor = arena.next_edge(idx);
            }
        }
    }

    /// Global relabel: set every height to its exact residual BFS distance.
    /// Sink-reachable nodes get `dist-to-sink`; the rest get
    /// `n + dist-to-source` (their excess can only flow home, and a
    /// residual path from a sink-unreachable node can never pass through a
    /// sink-reachable one, so the two BFS passes are independent); nodes
    /// reaching neither are parked at `2n` — they hold no excess and can
    /// never receive flow again, since pushing into height `2n` would need
    /// height `2n + 1`, which no active node attains. Source and sink keep
    /// their fixed heights (`n` and `0`). Exact distances never *lower* a
    /// height: labels are lower bounds on residual distances throughout the
    /// algorithm, so the label-validity invariant is preserved.
    fn do_global_relabel(&mut self, arena: &FlowArena, source: NodeId, sink: NodeId) {
        let clock = self.tracer.begin();
        let n = arena.node_count();
        self.dist_sink.clear();
        self.dist_sink.resize(n, UNREACHED);
        self.dist_src.clear();
        self.dist_src.resize(n, UNREACHED);
        Self::backward_bfs(
            &mut self.dist_sink,
            &mut self.visited,
            &mut self.bfs_queue,
            arena,
            sink,
        );
        Self::backward_bfs(
            &mut self.dist_src,
            &mut self.visited,
            &mut self.bfs_queue,
            arena,
            source,
        );

        for v in 0..n {
            if v == source || v == sink {
                continue;
            }
            self.height[v] = if self.dist_sink[v] != UNREACHED {
                self.dist_sink[v] as usize
            } else if self.dist_src[v] != UNREACHED {
                n + self.dist_src[v] as usize
            } else {
                2 * n
            };
        }
        self.height_count.iter_mut().for_each(|c| *c = 0);
        for v in 0..n {
            self.height_count[self.height[v]] += 1;
        }
        self.relabels_since = 0;
        self.global_relabels += 1;
        self.tracer
            .end(clock, Stage::GlobalRelabel, self.global_relabels);
    }
}

impl MaxFlowSolve for PushRelabel {
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64 {
        assert_ne!(source, sink, "source and sink must differ");
        debug_assert!(
            !arena.carries_flow(),
            "a solve starts from an arena carrying no flow"
        );
        let n = arena.node_count();
        self.height.clear();
        self.height.resize(n, 0);
        self.excess.clear();
        self.excess.resize(n, 0);
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        self.height_count.clear();
        self.height_count.resize(2 * n + 1, 0);
        self.queue.clear();

        self.height[source] = n;
        self.height_count[0] = n - 1;
        self.height_count[n] += 1;

        // Saturate every residual edge out of the source.
        let mut cursor = arena.first_edge(source);
        while let Some(idx) = cursor {
            let cap = arena.residual(idx);
            if cap > 0 {
                let to = arena.target(idx);
                arena.push(idx, cap);
                self.excess[to] += cap;
                self.excess[source] -= cap;
                if to != sink && to != source && !self.in_queue[to] {
                    self.in_queue[to] = true;
                    self.queue.push_back(to);
                }
            }
            cursor = arena.next_edge(idx);
        }

        // Start from exact distances, then refresh them every ~n relabels:
        // one O(E) sweep replaces Θ(n) single-step lifts on shapes (like the
        // adversarial expanders) where whole layers must climb past n.
        let relabel_period = n.max(16);
        self.do_global_relabel(arena, source, sink);

        while let Some(v) = self.queue.pop_front() {
            self.in_queue[v] = false;
            // Discharge v.
            'discharge: while self.excess[v] > 0 {
                let mut pushed_any = false;
                let mut cursor = arena.first_edge(v);
                while let Some(idx) = cursor {
                    if self.excess[v] == 0 {
                        break;
                    }
                    let to = arena.target(idx);
                    let cap = arena.residual(idx);
                    if cap > 0 && self.height[v] == self.height[to] + 1 {
                        let amount = self.excess[v].min(cap);
                        arena.push(idx, amount);
                        self.excess[v] -= amount;
                        self.excess[to] += amount;
                        pushed_any = true;
                        if to != source && to != sink && !self.in_queue[to] {
                            self.in_queue[to] = true;
                            self.queue.push_back(to);
                        }
                    }
                    cursor = arena.next_edge(idx);
                }
                if self.excess[v] == 0 {
                    break 'discharge;
                }
                if !pushed_any {
                    // Relabel v to one more than the lowest admissible
                    // neighbour.
                    let old_height = self.height[v];
                    let mut min_neighbour = usize::MAX;
                    let mut cursor = arena.first_edge(v);
                    while let Some(idx) = cursor {
                        if arena.residual(idx) > 0 {
                            min_neighbour = min_neighbour.min(self.height[arena.target(idx)]);
                        }
                        cursor = arena.next_edge(idx);
                    }
                    if min_neighbour == usize::MAX {
                        // No residual edge at all: v can never get rid of its
                        // excess; drop it (its excess stays out of the flow
                        // value).
                        break 'discharge;
                    }
                    self.height_count[old_height] -= 1;
                    self.height[v] = min_neighbour + 1;
                    self.height_count[self.height[v]] += 1;
                    // Gap heuristic: if no node remains at old_height, every
                    // node above it (except the source) can be lifted past n.
                    if self.height_count[old_height] == 0 && old_height < n {
                        for u in 0..n {
                            if u != source && self.height[u] > old_height && self.height[u] <= n {
                                self.height_count[self.height[u]] -= 1;
                                self.height[u] = n + 1;
                                self.height_count[self.height[u]] += 1;
                            }
                        }
                    }
                    // Periodic global relabel: reset every height to its
                    // exact residual distance.
                    self.relabels_since += 1;
                    if self.relabels_since >= relabel_period {
                        self.do_global_relabel(arena, source, sink);
                    }
                }
            }
        }

        self.excess[sink]
    }

    fn name(&self) -> &'static str {
        "push-relabel"
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.tracer = tracer.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::{build, TEXTBOOK};
    use crate::dinic::Dinic;

    /// Push–relabel and Dinic values of the `n`-node network `edges` from
    /// node 0 to node `n - 1`.
    fn solve_both(n: usize, edges: &[(usize, usize, i64)]) -> (i64, i64) {
        let pr = PushRelabel::new().max_flow(&mut build(n, edges), 0, n - 1);
        let dinic = Dinic::new().max_flow(&mut build(n, edges), 0, n - 1);
        (pr, dinic)
    }

    #[test]
    fn single_edge() {
        assert_eq!(solve_both(2, &[(0, 1, 9)]).0, 9);
    }

    #[test]
    fn series_takes_minimum() {
        assert_eq!(solve_both(3, &[(0, 1, 5), (1, 2, 3)]).0, 3);
    }

    #[test]
    fn classic_textbook_network() {
        assert_eq!(solve_both(6, &TEXTBOOK).0, 23);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        assert_eq!(solve_both(4, &[(0, 1, 10), (2, 3, 10)]).0, 0);
    }

    #[test]
    fn agrees_with_dinic_on_a_bipartite_instance() {
        // 3 boxes (capacity 2 each) serving 5 requests, some unreachable.
        let mut edges: Vec<(usize, usize, i64)> = (1..=3).map(|b| (0, b, 2)).collect();
        for (b, r) in [(1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7)] {
            edges.push((b, r, 1));
        }
        edges.extend((4..=8).map(|r| (r, 9, 1)));
        let (pr, dinic) = solve_both(10, &edges);
        assert_eq!(pr, dinic);
    }

    #[test]
    fn unsaturable_excess_does_not_inflate_flow() {
        // Source pushes 10 into node 1, but only 1 can reach the sink.
        assert_eq!(solve_both(3, &[(0, 1, 10), (1, 2, 1)]).0, 1);
    }

    /// Deterministic congruential stream for building pseudo-random graphs.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_edges(seed: u64, n: usize, edges: usize) -> Vec<(usize, usize, i64)> {
        let mut s = seed;
        let mut out = Vec::new();
        for _ in 0..edges {
            let from = (lcg(&mut s) as usize) % (n - 1);
            let to = 1 + (lcg(&mut s) as usize) % (n - 1);
            if from != to {
                out.push((from, to, (lcg(&mut s) % 7 + 1) as i64));
            }
        }
        out
    }

    #[test]
    fn global_relabel_agrees_with_dinic() {
        for seed in 0..12u64 {
            let edges = random_edges(0xC0FFEE ^ seed, 24, 80);
            let (pr, dinic) = solve_both(24, &edges);
            assert_eq!(pr, dinic, "seed {seed}");
        }
    }

    #[test]
    fn global_relabel_fires_and_is_counted() {
        // A long chain forces heights to climb far past their initial values,
        // so periodic relabels trigger beyond the initial sweep.
        let n = 64;
        let edges: Vec<(usize, usize, i64)> = (0..n - 1).map(|v| (v, v + 1, 2)).collect();
        let mut solver = PushRelabel::new();
        assert_eq!(solver.max_flow(&mut build(n, &edges), 0, n - 1), 2);
        assert!(solver.global_relabel_count() >= 1);
    }

    #[test]
    fn adversarial_tight_bipartite_matches_dinic() {
        // Every box sees every request, capacities sum exactly to the demand:
        // the final rounds of augmentation leave almost no slack, which is
        // where inexact heights hurt the most.
        let boxes = 20;
        let requests = 40;
        let n = boxes + requests + 2;
        let mut edges: Vec<(usize, usize, i64)> = (0..boxes).map(|b| (0, 1 + b, 2)).collect();
        for b in 0..boxes {
            for r in 0..requests {
                edges.push((1 + b, 1 + boxes + r, 1));
            }
        }
        edges.extend((0..requests).map(|r| (1 + boxes + r, n - 1, 1)));
        let (pr, dinic) = solve_both(n, &edges);
        assert_eq!(pr, dinic);
        assert_eq!(pr, (boxes * 2) as i64);
    }
}
