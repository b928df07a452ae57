//! A textbook maximum matching, for checking the real one.
//!
//! Kuhn's augmenting-path algorithm over `Vec`-of-`Vec` state rebuilt on
//! every call: no pooling, no stamps, no warm start, and nothing from
//! `vod-flow`. It implements [`Scheduler::schedule`] and nothing else, so
//! the engine reaches it through the trait's default view → vecs → keyed
//! bridges. Lemma 1 asks only how many requests a round can serve; any
//! maximum matching answers that, and this one is too small to be wrong.
//! Test scale only: about 30 ms a round on the `flash-crowd` shape at
//! n = 1 024, where [`super::MaxFlowScheduler`] takes 0.13.

use super::Scheduler;
use vod_core::BoxId;

/// Reference scheduler: Kuhn's algorithm, requests in input order.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveScheduler;

impl NaiveScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        NaiveScheduler
    }
}

/// One call's matching: `on_box[b]` lists the requests box `b` serves.
struct Matching<'a> {
    capacities: &'a [u32],
    candidates: &'a [Vec<BoxId>],
    on_box: Vec<Vec<usize>>,
    assignment: Vec<Option<BoxId>>,
}

impl Matching<'_> {
    /// Serves `x` from the first candidate with a spare slot, or from one
    /// whose slot frees up by re-routing a request it serves. `seen` marks
    /// the boxes this outer request has already tried.
    fn augment(&mut self, x: usize, seen: &mut [bool]) -> bool {
        let candidates = self.candidates;
        for &b in &candidates[x] {
            let i = b.index();
            if i >= self.capacities.len() || std::mem::replace(&mut seen[i], true) {
                continue;
            }
            let spare = self.on_box[i].len() < self.capacities[i] as usize
                || (0..self.on_box[i].len()).any(|slot| {
                    let y = self.on_box[i][slot];
                    self.augment(y, seen)
                });
            if spare {
                // Leave the old box (only a re-routed request has one).
                if let Some(old) = self.assignment[x].replace(b) {
                    self.on_box[old.index()].retain(|&y| y != x);
                }
                self.on_box[i].push(x);
                return true;
            }
        }
        false
    }
}

impl Scheduler for NaiveScheduler {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        let mut matching = Matching {
            capacities,
            candidates,
            on_box: vec![Vec::new(); capacities.len()],
            assignment: vec![None; candidates.len()],
        };
        for x in 0..candidates.len() {
            matching.augment(x, &mut vec![false; capacities.len()]);
        }
        matching.assignment
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::assignment_is_valid;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vod_flow::ConnectionProblem;

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    fn served(a: &[Option<BoxId>]) -> usize {
        a.iter().flatten().count()
    }

    #[test]
    fn finds_the_augmenting_assignment_greedy_would_miss() {
        // Request 0 takes box 0 first; request 1 can only use box 0, so
        // request 0 has to be re-routed to box 1.
        let caps = vec![1, 1];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let a = NaiveScheduler::new().schedule(&caps, &cands);
        assert_eq!(a, vec![Some(b(1)), Some(b(0))]);
    }

    #[test]
    fn zero_capacity_boxes_empty_rows_and_duplicate_ids() {
        // Box 0 has no slots; request 1 has no candidates; request 2 names
        // box 1 twice; request 3 names a box outside the capacity table.
        let caps = vec![0, 2];
        let cands = vec![vec![b(0), b(1)], vec![], vec![b(1), b(1)], vec![b(0), b(7)]];
        let a = NaiveScheduler::new().schedule(&caps, &cands);
        assert_eq!(a, vec![Some(b(1)), None, Some(b(1)), None]);
        assert!(NaiveScheduler::new().schedule(&[], &[]).is_empty());
    }

    #[test]
    fn a_re_routed_chain_frees_exactly_one_slot() {
        // 0 → box 0, 1 → box 1, 2 → box 2; request 3 only knows box 0, so
        // the chain 3 → 0, 0 → 1, 1 → 2, 2 → 3 shifts every request along.
        let caps = vec![1, 1, 1, 1];
        let cands = vec![
            vec![b(0), b(1)],
            vec![b(1), b(2)],
            vec![b(2), b(3)],
            vec![b(0)],
        ];
        let a = NaiveScheduler::new().schedule(&caps, &cands);
        assert_eq!(a, vec![Some(b(1)), Some(b(2)), Some(b(3)), Some(b(0))]);
    }

    /// The shapes of `tests/flow_properties.rs`' `random_instance`: small
    /// dense instances with zero-capacity boxes, empty rows and repeats.
    #[test]
    fn matches_the_cold_solve_on_random_instances() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x4B55 ^ seed);
            let boxes = rng.gen_range(2usize..8);
            let caps: Vec<u32> = (0..boxes).map(|_| rng.gen_range(0u32..4)).collect();
            let cands: Vec<Vec<BoxId>> = (0..rng.gen_range(1usize..20))
                .map(|_| {
                    (0..rng.gen_range(0usize..boxes))
                        .map(|_| b(rng.gen_range(0usize..boxes) as u32))
                        .collect()
                })
                .collect();
            let mut problem = ConnectionProblem::new(caps.clone());
            for row in &cands {
                problem.add_request(row.iter().copied());
            }
            let a = NaiveScheduler::new().schedule(&caps, &cands);
            assert!(assignment_is_valid(&a, &caps, &cands), "seed {seed}");
            assert_eq!(served(&a), problem.solve().served(), "seed {seed}");
        }
    }
}
