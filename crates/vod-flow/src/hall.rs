//! Obstruction extraction (Lemma 1's Hall-type condition and its violators).
//!
//! A *request obstruction* is a subset `X` of requests whose candidate boxes
//! cannot collectively serve it: `U_{B(X)} < |X|/c` (equivalently, in scaled
//! units, `Σ_{b ∈ B(X)} ⌊u_b·c⌋ < |X|`). Lemma 1 states a connection matching
//! exists iff no obstruction exists. This module extracts the offending set
//! from the minimum cut of a fresh Dinic solve — the same object the paper's
//! probabilistic analysis counts. It is the reference the simulator's own
//! cut (read off each failing round's assignment, with no flow network) is
//! checked against.

use crate::arena::FlowArena;
use crate::dinic::Dinic;
use crate::matching::ConnectionProblem;
use crate::solver::MaxFlowSolve;
use vod_core::BoxId;

/// A witness that a round is infeasible: a request set whose neighbourhood
/// has insufficient upload capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obstruction {
    /// Indices of the requests in the deficient set `X`.
    pub requests: Vec<usize>,
    /// The boxes in `B(X)` (union of the candidate sets of `X`).
    pub boxes: Vec<BoxId>,
    /// Total capacity of `B(X)` in stripe connections (`Σ ⌊u_b·c⌋`).
    pub capacity: u64,
}

impl Obstruction {
    /// The Hall deficiency `|X| − U_{B(X)}` (how many requests cannot be
    /// served no matter how connections are wired).
    pub fn deficiency(&self) -> u64 {
        (self.requests.len() as u64).saturating_sub(self.capacity)
    }

    /// True when this is genuinely an obstruction (`U_{B(X)} < |X|`).
    pub fn is_violating(&self) -> bool {
        self.capacity < self.requests.len() as u64
    }
}

/// Checks the Hall condition for an explicit request subset: returns the
/// capacity of its neighbourhood and whether the subset is an obstruction.
pub fn check_subset(problem: &ConnectionProblem, subset: &[usize]) -> Obstruction {
    let mut boxes: Vec<BoxId> = subset
        .iter()
        .flat_map(|&x| problem.candidates_of(x).iter().copied())
        .collect();
    boxes.sort();
    boxes.dedup();
    let capacity = boxes.iter().map(|&b| problem.capacity_of(b) as u64).sum();
    Obstruction {
        requests: subset.to_vec(),
        boxes,
        capacity,
    }
}

/// Extracts an obstruction from an infeasible problem, or returns `None` when
/// the problem is feasible.
///
/// Follows the construction in the proof of Lemma 1: after computing a
/// maximum flow, let `A` be the source side of the minimum cut (nodes
/// reachable in the residual graph); the obstruction is the set `X` of
/// requests on the sink side whose candidate boxes all lie on the sink side
/// as well. Those requests are exactly the ones that can never be reached by
/// additional flow, and `U_{B(X)} < |X|` is guaranteed.
pub fn find_obstruction(problem: &ConnectionProblem) -> Option<Obstruction> {
    let mut arena = FlowArena::new();
    let (source, sink) = problem.build_arena(&mut arena);
    let flow = Dinic::new().max_flow(&mut arena, source, sink);
    if flow as usize == problem.request_count() {
        return None;
    }
    let reachable = arena.residual_reachable(source);
    let b = problem.box_count();

    let mut requests = Vec::new();
    for x in 0..problem.request_count() {
        let node = 1 + b + x;
        if reachable[node] {
            continue; // on the source side: it is served
        }
        // All candidates must be on the sink side too.
        let all_sink_side = problem
            .candidates_of(x)
            .iter()
            .all(|cand| !reachable[1 + cand.index()]);
        if all_sink_side {
            requests.push(x);
        }
    }
    let obstruction = check_subset(problem, &requests);
    debug_assert!(
        obstruction.is_violating(),
        "min-cut construction must yield a Hall violator"
    );
    Some(obstruction)
}

/// Verifies Lemma 1 on a problem instance: the matching is complete iff no
/// obstruction exists. Returns `Ok(feasible)` when the two agree, `Err` with
/// a description otherwise. Used by property tests and the simulator's
/// self-checks.
pub fn verify_lemma1(problem: &ConnectionProblem) -> Result<bool, String> {
    let feasible = problem.is_feasible();
    match (feasible, find_obstruction(problem)) {
        (true, None) => Ok(true),
        (false, Some(ob)) if ob.is_violating() => Ok(false),
        (true, Some(ob)) => Err(format!(
            "matching complete but obstruction of {} requests / capacity {} found",
            ob.requests.len(),
            ob.capacity
        )),
        (false, None) => Err("matching incomplete but no obstruction extracted".into()),
        (false, Some(ob)) => Err(format!(
            "extracted set is not a violator: |X| = {}, capacity = {}",
            ob.requests.len(),
            ob.capacity
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    #[test]
    fn feasible_problem_has_no_obstruction() {
        let mut p = ConnectionProblem::new(vec![2, 2]);
        p.add_request([b(0)]);
        p.add_request([b(1)]);
        p.add_request([b(0), b(1)]);
        assert!(find_obstruction(&p).is_none());
        assert_eq!(verify_lemma1(&p), Ok(true));
    }

    #[test]
    fn overloaded_box_yields_obstruction() {
        let mut p = ConnectionProblem::new(vec![1, 10]);
        // Three requests all depending on box 0 only.
        for _ in 0..3 {
            p.add_request([b(0)]);
        }
        // One request on box 1 (feasible, must not appear in the obstruction).
        p.add_request([b(1)]);
        let ob = find_obstruction(&p).expect("infeasible");
        assert!(ob.is_violating());
        assert_eq!(ob.boxes, vec![b(0)]);
        assert_eq!(ob.requests.len(), 3);
        assert_eq!(ob.capacity, 1);
        assert_eq!(ob.deficiency(), 2);
        assert_eq!(verify_lemma1(&p), Ok(false));
    }

    #[test]
    fn requestless_candidates_do_not_confuse_extraction() {
        let mut p = ConnectionProblem::new(vec![0]);
        p.add_request([b(0)]);
        let ob = find_obstruction(&p).unwrap();
        assert_eq!(ob.capacity, 0);
        assert_eq!(ob.requests, vec![0]);
    }

    #[test]
    fn check_subset_reports_capacity() {
        let mut p = ConnectionProblem::new(vec![2, 3]);
        p.add_request([b(0)]);
        p.add_request([b(0), b(1)]);
        let ob = check_subset(&p, &[0, 1]);
        assert_eq!(ob.capacity, 5);
        assert!(!ob.is_violating());
        assert_eq!(ob.deficiency(), 0);
    }

    #[test]
    fn empty_request_candidate_set_is_an_obstruction_of_size_one() {
        let mut p = ConnectionProblem::new(vec![4]);
        p.add_request(Vec::<BoxId>::new());
        let ob = find_obstruction(&p).unwrap();
        assert_eq!(ob.requests, vec![0]);
        assert_eq!(ob.capacity, 0);
        assert!(ob.is_violating());
    }

    #[test]
    fn obstruction_capacity_below_size() {
        // 3 boxes capacity 1; 5 requests over boxes {0,1}; 1 request over {2}.
        let mut p = ConnectionProblem::new(vec![1, 1, 1]);
        for _ in 0..5 {
            p.add_request([b(0), b(1)]);
        }
        p.add_request([b(2)]);
        let ob = find_obstruction(&p).unwrap();
        assert!(ob.is_violating());
        // The min-cut construction is not minimal (it may absorb the box-2
        // cluster once the source is fully saturated), but the Hall
        // deficiency must at least cover the three requests that genuinely
        // cannot be served.
        assert!(ob.requests.len() >= 3);
        assert!(ob.capacity < ob.requests.len() as u64);
        assert!(ob.deficiency() >= 3);
    }
}
