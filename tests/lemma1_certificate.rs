//! The engine's Lemma-1 cut against the flow-network reference.
//!
//! A failing round's obstruction is read off the round's own assignment
//! ([`HallCut`]: one alternating search, augmenting first when the
//! assignment is not maximum). Its reference is [`find_obstruction`], which
//! solves a fresh Lemma-1 network with Dinic and reads the residual graph.
//! Every maximum flow leaves the same residual-reachable set, so the two
//! must name the same request set `X` and the same capacity of `B(X)`,
//! whichever scheduler produced the assignment; and the cut's deficiency is
//! what a maximum matching leaves unserved.
//!
//! The instances are seeded: fleets of 1, 2, 63, 64, 65 and 128 boxes
//! (either side of a 64-bit word), zero-capacity boxes and whole fleets at
//! capacity 0, empty rows, duplicate entries and entries outside the fleet.
//! The assignments come from `MaxFlowScheduler` (the engine's keyed path, a
//! cold round), `GreedyScheduler`, `RandomScheduler` and the empty
//! assignment, so the augmenting branch runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vod_core::{BoxId, StripeId, VideoId};
use vod_flow::{find_obstruction, CandidateBuf, ConnectionProblem};
use vod_sim::scheduler::assignment_is_valid;
use vod_sim::{GreedyScheduler, HallCut, MaxFlowScheduler, RandomScheduler, RequestKey, Scheduler};

const FLEETS: [usize; 6] = [1, 2, 63, 64, 65, 128];
const SEEDS_PER_FLEET: u64 = 400;

struct Instance {
    caps: Vec<u32>,
    /// The rows as the cut and the reference see them.
    rows: Vec<Vec<BoxId>>,
    /// The same rows without out-of-range entries, for the baselines (which
    /// index their capacity table by every entry).
    in_range: Vec<Vec<BoxId>>,
}

fn instance(boxes: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let caps: Vec<u32> = match rng.gen_range(0..8) {
        0 => vec![0; boxes],
        1 => vec![1; boxes],
        _ => (0..boxes)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    0
                } else {
                    rng.gen_range(1u32..4)
                }
            })
            .collect(),
    };
    // A third of the instances draw their rows from a small hot set of
    // boxes, so that Hall violators are common; the rest from the whole
    // fleet.
    let hot = if rng.gen_bool(0.3) {
        rng.gen_range(1..=boxes.div_ceil(4))
    } else {
        boxes
    };
    // An empty row alone makes a round infeasible: a quarter of the
    // instances have some.
    let empty_rows = if rng.gen_bool(0.25) { 0.05 } else { 0.0 };
    let requests = rng.gen_range(0..=boxes + 4);
    let mut rows = Vec::with_capacity(requests);
    for _ in 0..requests {
        let mut row = Vec::new();
        if !rng.gen_bool(empty_rows) {
            for _ in 0..rng.gen_range(1usize..=5) {
                row.push(BoxId(rng.gen_range(0..hot) as u32));
            }
        }
        if !row.is_empty() && rng.gen_bool(0.1) {
            let again = row[rng.gen_range(0..row.len())];
            row.push(again);
        }
        if rng.gen_bool(0.1) {
            row.push(BoxId((boxes + rng.gen_range(0usize..3)) as u32));
        }
        rows.push(row);
    }
    let in_range = rows
        .iter()
        .map(|row| row.iter().copied().filter(|b| b.index() < boxes).collect())
        .collect();
    Instance {
        caps,
        rows,
        in_range,
    }
}

/// The engine's scheduler on a cold round, through its keyed entry point.
fn max_flow_assignment(inst: &Instance) -> Vec<Option<BoxId>> {
    let keys: Vec<RequestKey> = (0..inst.rows.len())
        .map(|x| RequestKey {
            viewer: BoxId(x as u32),
            stripe: StripeId::new(VideoId(0), 0),
        })
        .collect();
    let mut out = Vec::new();
    MaxFlowScheduler::new().schedule_keyed(&inst.caps, &keys, &inst.rows, &mut out);
    out
}

#[test]
fn the_cut_read_off_any_assignment_is_the_min_cut_of_a_fresh_solve() {
    let mut cut = HallCut::new();
    let mut view = CandidateBuf::new();
    let (mut instances, mut infeasible) = (0, 0);
    // Augmenting paths flipped, per assignment source.
    let mut augmented = [0usize; 4];
    for (f, &boxes) in FLEETS.iter().enumerate() {
        for seed in 0..SEEDS_PER_FLEET {
            let seed = 1_000 * f as u64 + seed;
            let inst = instance(boxes, seed);
            let mut problem = ConnectionProblem::new(inst.caps.clone());
            for row in &inst.rows {
                problem.add_request(row.iter().copied());
            }
            let reference = find_obstruction(&problem);
            let max_served = problem.solve().served();
            view.fill_from_slices(&inst.rows);
            instances += 1;
            infeasible += reference.is_some() as usize;

            let sources = [
                ("max-flow", max_flow_assignment(&inst)),
                (
                    "greedy",
                    GreedyScheduler::new().schedule(&inst.caps, &inst.in_range),
                ),
                (
                    "random",
                    RandomScheduler::new(seed).schedule(&inst.caps, &inst.in_range),
                ),
                ("empty", vec![None; inst.rows.len()]),
            ];
            for (s, (name, assignment)) in sources.iter().enumerate() {
                let what = format!("n = {boxes}, seed {seed}, {name}");
                assert!(
                    assignment_is_valid(assignment, &inst.caps, &inst.rows),
                    "{what}"
                );
                let served = assignment.iter().flatten().count();
                let deficit = cut.read(&inst.caps, view.view(), assignment);
                assert_eq!(cut.augmented(), max_served - served, "{what}");
                augmented[s] += cut.augmented();
                match (&reference, deficit) {
                    (None, None) => assert!(cut.requests().is_empty(), "{what}"),
                    (Some(ob), Some(deficit)) => {
                        assert_eq!(cut.requests(), ob.requests, "{what}");
                        assert_eq!(deficit.size, ob.requests.len(), "{what}");
                        assert_eq!(deficit.capacity, ob.capacity, "{what}");
                        // König–Egerváry: the deficiency is the shortfall of
                        // a maximum matching.
                        assert_eq!(
                            deficit.size as u64 - deficit.capacity,
                            (inst.rows.len() - max_served) as u64,
                            "{what}"
                        );
                    }
                    (reference, deficit) => {
                        panic!("{what}: reference {reference:?}, cut {deficit:?}")
                    }
                }
            }
        }
    }
    assert!(instances >= 2_000);
    assert!(
        infeasible * 4 > instances && infeasible * 4 < 3 * instances,
        "{infeasible} of {instances} infeasible: the generator is lopsided"
    );
    assert_eq!(augmented[0], 0, "a maximum matching needs no augmentation");
    for (s, name) in [(1, "greedy"), (2, "random"), (3, "empty")] {
        assert!(augmented[s] > 0, "{name} never took the augmenting branch");
    }
}

#[test]
fn a_fleet_at_capacity_zero_puts_every_request_in_the_cut() {
    let caps = [0u32; 3];
    let rows = vec![
        vec![BoxId(0)],
        Vec::new(),
        vec![BoxId(2), BoxId(2), BoxId(7)],
    ];
    let mut view = CandidateBuf::new();
    view.fill_from_slices(&rows);
    let mut cut = HallCut::new();
    let deficit = cut
        .read(&caps, view.view(), &[None, None, None])
        .expect("nothing can be served");
    assert_eq!((deficit.size, deficit.capacity), (3, 0));
    assert_eq!(cut.requests(), [0, 1, 2]);
    assert_eq!(cut.augmented(), 0);
}

#[test]
fn a_non_maximum_assignment_is_augmented_before_the_cut_is_read() {
    // Request 0 can use boxes 0 and 1, request 1 only box 0 (one slot each).
    // Serving request 0 from box 0 blocks request 1; one flip serves both.
    let caps = [1u32, 1];
    let rows = vec![vec![BoxId(0), BoxId(1)], vec![BoxId(0)]];
    let mut view = CandidateBuf::new();
    view.fill_from_slices(&rows);
    let mut cut = HallCut::new();
    assert_eq!(cut.read(&caps, view.view(), &[Some(BoxId(0)), None]), None);
    assert_eq!(cut.augmented(), 1);
    assert!(cut.requests().is_empty());
}
