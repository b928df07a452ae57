//! The connection-matching problem (Section 2.2).
//!
//! At each round the system must wire every pending stripe request to a box
//! that possesses the required data, such that no box serves more than
//! `⌊u_b·c⌋` stripes. The paper models this as a maximum-flow problem on the
//! bipartite graph `G` linking requests to the boxes in `B(x)`:
//!
//! ```text
//!   source ──(⌊u_b·c⌋)──▶ box b ──(1)──▶ request x ──(1)──▶ sink
//! ```
//!
//! (capacities are scaled by `c` so one unit of flow is one stripe
//! connection). The matching exists iff the max flow saturates every request
//! edge, which by Lemma 1 is equivalent to the Hall-type condition
//! `U_{B(X)} ≥ |X|/c` for every request subset `X`.
//!
//! Solving is parameterized by the [`MaxFlowSolve`] trait: pass any solver
//! ([`Dinic`], [`crate::push_relabel::PushRelabel`],
//! [`crate::hopcroft_karp::HopcroftKarpSolve`]) to [`ConnectionProblem::solve_with`],
//! or reuse a caller-owned [`FlowArena`] through
//! [`ConnectionProblem::solve_in`] to avoid per-round allocation.

use crate::arena::{FlowArena, NodeId};
use crate::dinic::Dinic;
use crate::solver::MaxFlowSolve;
use vod_core::BoxId;

/// One round's connection-matching instance.
#[derive(Clone, Debug)]
pub struct ConnectionProblem {
    /// Upload capacity of each box, in stripe connections per round
    /// (`⌊u_b·c⌋`, possibly reduced by compensation reservations).
    box_capacity: Vec<u32>,
    /// For each request, the candidate boxes `B(x)` that possess its data.
    candidates: Vec<Vec<BoxId>>,
}

impl ConnectionProblem {
    /// Creates a problem over boxes with the given per-box stripe capacities.
    pub fn new(box_capacity: Vec<u32>) -> Self {
        ConnectionProblem {
            box_capacity,
            candidates: Vec::new(),
        }
    }

    /// Number of boxes.
    pub fn box_count(&self) -> usize {
        self.box_capacity.len()
    }

    /// Number of requests added so far.
    pub fn request_count(&self) -> usize {
        self.candidates.len()
    }

    /// Capacity (in stripe connections) of box `b`.
    pub fn capacity_of(&self, b: BoxId) -> u32 {
        self.box_capacity[b.index()]
    }

    /// Adds a request with its candidate supplier set `B(x)` and returns the
    /// request index. Candidates outside the box range are ignored.
    pub fn add_request(&mut self, candidates: impl IntoIterator<Item = BoxId>) -> usize {
        let n = self.box_capacity.len();
        let mut list: Vec<BoxId> = candidates.into_iter().filter(|b| b.index() < n).collect();
        list.sort();
        list.dedup();
        self.candidates.push(list);
        self.candidates.len() - 1
    }

    /// The candidate supplier set of request `x`.
    pub fn candidates_of(&self, request: usize) -> &[BoxId] {
        &self.candidates[request]
    }

    /// Total upload capacity (stripe connections) over all boxes.
    pub fn total_capacity(&self) -> u64 {
        self.box_capacity.iter().map(|&c| c as u64).sum()
    }

    /// Builds the flow network of Lemma 1 into a reusable [`FlowArena`],
    /// reusing the arena's allocations. Returns `(source, sink)`.
    ///
    /// Node layout: `0` = source, `1..=B` = boxes, `B+1..=B+R` = requests,
    /// `B+R+1` = sink.
    pub fn build_arena(&self, arena: &mut FlowArena) -> (NodeId, NodeId) {
        let b = self.box_count();
        let source = 0usize;
        let sink = b + self.request_count() + 1;
        arena.clear(sink + 1);
        for (i, &cap) in self.box_capacity.iter().enumerate() {
            if cap > 0 {
                arena.add_edge(source, 1 + i, cap as i64);
            }
        }
        for (x, cands) in self.candidates.iter().enumerate() {
            let request_node = 1 + b + x;
            for &cand in cands {
                arena.add_edge(1 + cand.index(), request_node, 1);
            }
            arena.add_edge(request_node, sink, 1);
        }
        (source, sink)
    }

    /// Solves the matching with the default solver (Dinic).
    pub fn solve(&self) -> ConnectionMatching {
        self.solve_with(&mut Dinic::new())
    }

    /// Solves the matching with an explicit solver, allocating a temporary
    /// arena. Reuse an arena through [`ConnectionProblem::solve_in`] on hot
    /// paths.
    pub fn solve_with(&self, solver: &mut dyn MaxFlowSolve) -> ConnectionMatching {
        let mut arena = FlowArena::new();
        self.solve_in(&mut arena, solver)
    }

    /// Solves the matching inside a caller-owned arena (rebuilt in place, so
    /// no allocation happens once the arena has grown to the working-set
    /// size) and extracts the assignment.
    pub fn solve_in(
        &self,
        arena: &mut FlowArena,
        solver: &mut dyn MaxFlowSolve,
    ) -> ConnectionMatching {
        let (source, sink) = self.build_arena(arena);
        let flow = solver.max_flow(arena, source, sink);
        self.extract(arena, flow)
    }

    /// True when every request can be served this round.
    pub fn is_feasible(&self) -> bool {
        self.solve().is_complete()
    }

    /// Reads the assignment out of a solved Lemma-1 arena.
    pub(crate) fn extract(&self, arena: &FlowArena, flow: i64) -> ConnectionMatching {
        let b = self.box_count();
        let mut assignment = vec![None; self.request_count()];
        // Walk the box→request edges carrying flow.
        for box_idx in 0..b {
            let node = 1 + box_idx;
            let mut cursor = arena.first_edge(node);
            while let Some(edge) = cursor {
                cursor = arena.next_edge(edge);
                if edge % 2 != 0 {
                    continue; // residual twin
                }
                let to = arena.target(edge);
                if to > b && to <= b + self.request_count() && arena.flow_on(edge) > 0 {
                    let request = to - b - 1;
                    assignment[request] = Some(BoxId(box_idx as u32));
                }
            }
        }
        ConnectionMatching {
            assignment,
            flow: flow as u64,
            total_requests: self.request_count(),
        }
    }
}

/// The result of solving a [`ConnectionProblem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectionMatching {
    /// For each request, the box assigned to serve it (if any).
    pub assignment: Vec<Option<BoxId>>,
    /// The maximum-flow value (number of requests served).
    pub flow: u64,
    /// Total number of requests in the problem.
    pub total_requests: usize,
}

impl ConnectionMatching {
    /// Number of requests served.
    pub fn served(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Indices of the requests left unserved.
    pub fn unserved(&self) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_none().then_some(i))
            .collect()
    }

    /// True when every request is served (the round is feasible).
    pub fn is_complete(&self) -> bool {
        self.served() == self.total_requests
    }

    /// Per-box load: how many stripe connections each box carries.
    pub fn box_loads(&self, box_count: usize) -> Vec<u32> {
        let mut loads = vec![0u32; box_count];
        for a in self.assignment.iter().flatten() {
            loads[a.index()] += 1;
        }
        loads
    }

    /// Checks the matching against the problem it came from: every
    /// assignment must be a declared candidate and no box may exceed its
    /// capacity. Returns `false` on any violation.
    pub fn is_valid_for(&self, problem: &ConnectionProblem) -> bool {
        if self.assignment.len() != problem.request_count() {
            return false;
        }
        for (x, a) in self.assignment.iter().enumerate() {
            if let Some(b) = a {
                if !problem.candidates_of(x).contains(b) {
                    return false;
                }
            }
        }
        let loads = self.box_loads(problem.box_count());
        loads
            .iter()
            .enumerate()
            .all(|(i, &load)| load <= problem.box_capacity[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp::HopcroftKarpSolve;
    use crate::push_relabel::PushRelabel;

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    #[test]
    fn simple_feasible_instance() {
        // 2 boxes with capacity 2 each, 3 requests all servable by both.
        let mut p = ConnectionProblem::new(vec![2, 2]);
        for _ in 0..3 {
            p.add_request([b(0), b(1)]);
        }
        let m = p.solve();
        assert!(m.is_complete());
        assert!(m.is_valid_for(&p));
        assert_eq!(m.flow, 3);
    }

    #[test]
    fn capacity_limits_are_respected() {
        // 1 box with capacity 1, 2 requests.
        let mut p = ConnectionProblem::new(vec![1]);
        p.add_request([b(0)]);
        p.add_request([b(0)]);
        let m = p.solve();
        assert!(!m.is_complete());
        assert_eq!(m.served(), 1);
        assert_eq!(m.unserved().len(), 1);
        assert!(m.is_valid_for(&p));
    }

    #[test]
    fn request_with_no_candidate_is_unserved() {
        let mut p = ConnectionProblem::new(vec![5, 5]);
        p.add_request([b(0)]);
        p.add_request(Vec::<BoxId>::new());
        let m = p.solve();
        assert_eq!(m.served(), 1);
        assert_eq!(m.unserved(), vec![1]);
    }

    #[test]
    fn all_three_solvers_agree() {
        // Structured instance where greedy choices matter.
        let mut p = ConnectionProblem::new(vec![1, 1, 2]);
        p.add_request([b(0), b(1)]);
        p.add_request([b(0)]);
        p.add_request([b(1), b(2)]);
        p.add_request([b(2)]);
        p.add_request([b(2)]);
        let a = p.solve_with(&mut Dinic::new());
        let c = p.solve_with(&mut PushRelabel::new());
        let h = p.solve_with(&mut HopcroftKarpSolve::new());
        assert_eq!(a.flow, c.flow);
        assert_eq!(a.flow, h.flow);
        assert_eq!(a.flow, 4);
        assert!(a.is_valid_for(&p));
        assert!(c.is_valid_for(&p));
        assert!(h.is_valid_for(&p));
    }

    #[test]
    fn solve_in_reuses_one_arena_across_instances() {
        let mut arena = FlowArena::new();
        let mut solver = Dinic::new();
        for extra in 0..4u32 {
            let mut p = ConnectionProblem::new(vec![2, 1 + extra]);
            p.add_request([b(0), b(1)]);
            p.add_request([b(1)]);
            let m = p.solve_in(&mut arena, &mut solver);
            assert!(m.is_complete());
            assert!(m.is_valid_for(&p));
        }
    }

    #[test]
    fn zero_capacity_boxes_never_serve() {
        let mut p = ConnectionProblem::new(vec![0, 3]);
        p.add_request([b(0), b(1)]);
        p.add_request([b(0)]);
        let m = p.solve();
        assert_eq!(m.assignment[0], Some(b(1)));
        assert_eq!(m.assignment[1], None);
    }

    #[test]
    fn out_of_range_candidates_are_ignored() {
        let mut p = ConnectionProblem::new(vec![1]);
        p.add_request([b(0), b(7)]);
        assert_eq!(p.candidates_of(0), &[b(0)]);
        assert!(p.solve().is_complete());
    }

    #[test]
    fn duplicate_candidates_collapse() {
        let mut p = ConnectionProblem::new(vec![1]);
        p.add_request([b(0), b(0), b(0)]);
        assert_eq!(p.candidates_of(0).len(), 1);
    }

    #[test]
    fn hall_condition_example_from_paper_shape() {
        // Homogeneous u' c = 2: a set X of 5 requests whose B(X) has only 2
        // boxes (capacity 2 each = 4 connections) cannot be fully served.
        let mut p = ConnectionProblem::new(vec![2, 2, 2]);
        for _ in 0..5 {
            p.add_request([b(0), b(1)]);
        }
        let m = p.solve();
        assert_eq!(m.served(), 4);
        assert!(!m.is_complete());
        // Adding the third box to the candidate sets makes it feasible.
        let mut p2 = ConnectionProblem::new(vec![2, 2, 2]);
        for _ in 0..5 {
            p2.add_request([b(0), b(1), b(2)]);
        }
        assert!(p2.is_feasible());
    }

    #[test]
    fn box_loads_accounting() {
        let mut p = ConnectionProblem::new(vec![2, 1]);
        p.add_request([b(0)]);
        p.add_request([b(0)]);
        p.add_request([b(1)]);
        let m = p.solve();
        let loads = m.box_loads(2);
        assert_eq!(loads, vec![2, 1]);
    }
}
