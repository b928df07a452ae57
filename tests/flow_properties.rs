//! Property-based tests of the max-flow / matching substrate: three-way
//! solver agreement (Dinic, push–relabel, Hopcroft–Karp) against an
//! independent sub-box matching reference, max-flow = min-cut, Lemma 1
//! (matching exists iff no obstruction), validity of
//! extracted matchings, warm-started incremental solves matching cold
//! solves under random perturbations, and obstruction-witness validation:
//! every Hall violator returned is re-checked against the Hall condition
//! `U_{B(X)} < |X|/c` by an independent brute-force verifier.
//!
//! Instances are generated from seeded RNG loops (the environment has no
//! proptest), so every failure is reproducible from the printed seed.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use vod_flow::{bitset::for_each_set_bit, hopcroft_karp::HopcroftKarp, BitAdjacency, BitSet};
use vod_sim::IncrementalMatcher;

const CASES: u64 = 64;

/// Random connection-matching instance: box capacities and per-request
/// candidate lists.
fn random_instance(rng: &mut StdRng) -> (Vec<u32>, Vec<Vec<BoxId>>) {
    let boxes = rng.gen_range(2usize..8);
    let requests = rng.gen_range(1usize..20);
    let caps: Vec<u32> = (0..boxes).map(|_| rng.gen_range(0u32..4)).collect();
    let cands: Vec<Vec<BoxId>> = (0..requests)
        .map(|_| {
            let degree = rng.gen_range(0usize..boxes);
            (0..degree)
                .map(|_| BoxId(rng.gen_range(0usize..boxes) as u32))
                .collect()
        })
        .collect();
    (caps, cands)
}

/// Random flow network over `n` nodes with source 0 and sink n-1.
fn random_network(rng: &mut StdRng) -> (usize, Vec<(usize, usize, i64)>) {
    let n = rng.gen_range(4usize..10);
    let m = rng.gen_range(1usize..40);
    let edges = (0..m)
        .map(|_| {
            (
                rng.gen_range(0usize..n),
                rng.gen_range(0usize..n),
                rng.gen_range(0i64..20),
            )
        })
        .collect();
    (n, edges)
}

fn build_network(n: usize, edges: &[(usize, usize, i64)]) -> FlowArena {
    let mut arena = FlowArena::new();
    arena.clear(n);
    for &(a, b, cap) in edges {
        if a != b {
            arena.add_edge(a, b, cap);
        }
    }
    arena
}

/// Sum of the capacities of the forward edges crossing from `side` to its
/// complement: the capacity of the cut `side` defines.
fn cut_capacity(arena: &FlowArena, side: &[bool]) -> i64 {
    (0..arena.edge_count())
        .step_by(2)
        .filter(|&idx| side[arena.target(idx ^ 1)] && !side[arena.target(idx)])
        .map(|idx| arena.edge(idx).original_cap)
        .sum()
}

fn build_problem(caps: &[u32], cands: &[Vec<BoxId>]) -> ConnectionProblem {
    let mut p = ConnectionProblem::new(caps.to_vec());
    for list in cands {
        p.add_request(list.iter().copied());
    }
    p
}

/// Dinic and push-relabel compute the same max-flow value on arbitrary
/// networks, and that value equals the capacity of the residual min cut.
#[test]
fn maxflow_solvers_agree_and_match_min_cut() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, edges) = random_network(&mut rng);
        let mut g1 = build_network(n, &edges);
        let mut g2 = build_network(n, &edges);
        let source = 0;
        let sink = n - 1;
        let f1 = Dinic::new().max_flow(&mut g1, source, sink);
        let f2 = PushRelabel::new().max_flow(&mut g2, source, sink);
        assert_eq!(f1, f2, "seed {seed}: Dinic {f1} vs push-relabel {f2}");

        let side = g1.residual_reachable(source);
        assert!(side[source], "seed {seed}");
        assert!(!side[sink], "seed {seed}");
        assert_eq!(cut_capacity(&g1, &side), f1, "seed {seed}");

        // Flow conservation at internal nodes.
        for v in 1..n - 1 {
            assert_eq!(g1.net_outflow(v), 0, "seed {seed} node {v}");
        }
        assert_eq!(g1.net_outflow(source), f1, "seed {seed}");
    }
}

/// All three solvers behind the `MaxFlowSolve` trait return the same
/// max-flow value and a valid matching on random bipartite instances.
#[test]
fn cross_solver_equivalence_on_connection_instances() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let (caps, cands) = random_instance(&mut rng);
        let problem = build_problem(&caps, &cands);
        let a = problem.solve_with(&mut Dinic::new());
        let b = problem.solve_with(&mut PushRelabel::new());
        let c = problem.solve_with(&mut HopcroftKarpSolve::new());
        assert_eq!(a.flow, b.flow, "seed {seed}: dinic vs push-relabel");
        assert_eq!(a.flow, c.flow, "seed {seed}: dinic vs hopcroft-karp");
        assert_eq!(a.served(), b.served(), "seed {seed}");
        assert_eq!(a.served(), c.served(), "seed {seed}");
        assert!(a.is_valid_for(&problem), "seed {seed}");
        assert!(b.is_valid_for(&problem), "seed {seed}");
        assert!(c.is_valid_for(&problem), "seed {seed}");
    }
}

/// On unit-capacity instances the flow matching equals raw Hopcroft–Karp.
#[test]
fn unit_capacity_matching_equals_hopcroft_karp() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let requests = rng.gen_range(1usize..14);
        let cands: Vec<Vec<usize>> = (0..requests)
            .map(|_| {
                let degree = rng.gen_range(0usize..6);
                (0..degree).map(|_| rng.gen_range(0usize..6)).collect()
            })
            .collect();
        let caps = vec![1u32; 6];
        let boxed: Vec<Vec<BoxId>> = cands
            .iter()
            .map(|list| list.iter().map(|&i| BoxId(i as u32)).collect())
            .collect();
        let problem = build_problem(&caps, &boxed);
        let flow_match = problem.solve();

        let mut hk = HopcroftKarp::new(cands.len(), 6);
        for (x, list) in cands.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for &b in list {
                if seen.insert(b) {
                    hk.add_edge(x, b);
                }
            }
        }
        let (hk_size, _) = hk.solve();
        assert_eq!(flow_match.served(), hk_size, "seed {seed}");
    }
}

/// Lemma 1: the connection matching is complete iff no obstruction exists,
/// and any extracted obstruction is a genuine Hall violator.
#[test]
fn lemma1_matching_iff_no_obstruction() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        let (caps, cands) = random_instance(&mut rng);
        let problem = build_problem(&caps, &cands);
        assert!(verify_lemma1(&problem).is_ok(), "seed {seed}");
        if let Some(ob) = find_obstruction(&problem) {
            assert!(ob.capacity < ob.requests.len() as u64, "seed {seed}");
            // Re-checking the subset explicitly gives the same capacity.
            let recheck = vod_flow::check_subset(&problem, &ob.requests);
            assert_eq!(recheck.capacity, ob.capacity, "seed {seed}");
        }
    }
}

/// Solved matchings are always valid, and adding upload capacity never
/// reduces the number of requests served.
#[test]
fn matchings_valid_and_monotone_in_capacity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4_000 + seed);
        let (caps, cands) = random_instance(&mut rng);
        let problem = build_problem(&caps, &cands);
        let matching = problem.solve();
        assert!(matching.is_valid_for(&problem), "seed {seed}");

        let boosted: Vec<u32> = caps.iter().map(|c| c + 1).collect();
        let boosted_problem = build_problem(&boosted, &cands);
        let boosted_matching = boosted_problem.solve();
        assert!(
            boosted_matching.served() >= matching.served(),
            "seed {seed}"
        );
    }
}

/// Independent brute-force evaluation of the Hall condition for a request
/// subset: recomputes `B(X)` and `U_{B(X)}` from the raw capacity and
/// candidate lists, with none of the flow machinery involved.
fn brute_force_hall(
    caps: &[u32],
    cands: &[Vec<BoxId>],
    subset: &[usize],
) -> (std::collections::BTreeSet<BoxId>, u64) {
    let mut neighbourhood = std::collections::BTreeSet::new();
    for &x in subset {
        for &b in &cands[x] {
            if b.index() < caps.len() {
                neighbourhood.insert(b);
            }
        }
    }
    let capacity = neighbourhood.iter().map(|b| caps[b.index()] as u64).sum();
    (neighbourhood, capacity)
}

/// Every obstruction extracted from an infeasible global instance is a
/// genuine Hall violator under independent re-evaluation: its re-derived
/// neighbourhood capacity matches the witness and satisfies
/// `U_{B(X)} < |X|` (the scaled form of `U_{B(X)} < |X|/c`).
#[test]
fn global_obstruction_witnesses_survive_brute_force_recheck() {
    let mut infeasible_seen = 0;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6_000 + seed);
        let (caps, cands) = random_instance(&mut rng);
        let problem = build_problem(&caps, &cands);
        if let Some(ob) = find_obstruction(&problem) {
            infeasible_seen += 1;
            let (neighbourhood, capacity) = brute_force_hall(&caps, &cands, &ob.requests);
            assert_eq!(capacity, ob.capacity, "seed {seed}: capacity mismatch");
            assert_eq!(
                neighbourhood.iter().copied().collect::<Vec<_>>(),
                ob.boxes,
                "seed {seed}: neighbourhood mismatch"
            );
            assert!(
                capacity < ob.requests.len() as u64,
                "seed {seed}: witness is not a Hall violator"
            );
            // The violator is tight evidence: the instance really cannot
            // serve everything.
            assert!(!problem.is_feasible(), "seed {seed}");
        }
    }
    assert!(infeasible_seen > CASES / 4, "generator too benign");
}

/// Warm-started incremental solves match cold solves after random
/// perturbations of the instance (request arrivals/departures, candidate
/// churn, per-box capacity cuts and restores) — for every solver behind the
/// trait. Debug builds also check the matcher's assignment mirror against
/// the arena after every round.
#[test]
fn warm_started_incremental_matches_cold_solves() {
    let solvers: [fn() -> Box<dyn MaxFlowSolve>; 3] = [
        || Box::new(Dinic::new()),
        || Box::new(PushRelabel::new()),
        || Box::new(HopcroftKarpSolve::new()),
    ];
    for (si, make_solver) in solvers.iter().enumerate() {
        for seed in 0..CASES / 2 {
            let mut rng = StdRng::seed_from_u64(5_000 + seed);
            let boxes = rng.gen_range(3usize..8);
            let base: Vec<u32> = (0..boxes).map(|_| rng.gen_range(0u32..4)).collect();
            let mut caps = base.clone();
            let mut matcher = IncrementalMatcher::new(make_solver());
            let mut out = Vec::new();

            // A pool of keyed requests that arrive, churn, and depart.
            let mut live: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
            let mut next_id = 0u32;
            for round in 0..12u64 {
                // Arrivals.
                for _ in 0..rng.gen_range(0usize..4) {
                    let key = RequestKey {
                        viewer: BoxId(next_id),
                        stripe: StripeId::new(VideoId(0), 0),
                    };
                    next_id += 1;
                    let degree = rng.gen_range(0usize..boxes);
                    let cands: Vec<BoxId> = (0..degree)
                        .map(|_| BoxId(rng.gen_range(0usize..boxes) as u32))
                        .collect();
                    live.push((key, cands));
                }
                // Departures.
                while live.len() > 10 || (rng.gen_bool(0.3) && !live.is_empty()) {
                    let victim = rng.gen_range(0usize..live.len());
                    live.remove(victim);
                }
                // Candidate churn on a random survivor.
                if !live.is_empty() && rng.gen_bool(0.7) {
                    let victim = rng.gen_range(0usize..live.len());
                    let degree = rng.gen_range(0usize..boxes);
                    live[victim].1 = (0..degree)
                        .map(|_| BoxId(rng.gen_range(0usize..boxes) as u32))
                        .collect();
                }
                // A capacity cut (evicting the box's load) or its restore.
                if rng.gen_bool(0.4) {
                    let b = rng.gen_range(0usize..boxes);
                    caps[b] = if caps[b] == base[b] {
                        base[b] / 2
                    } else {
                        base[b]
                    };
                }

                let keys: Vec<RequestKey> = live.iter().map(|(k, _)| *k).collect();
                let cands: Vec<Vec<BoxId>> = live.iter().map(|(_, c)| c.clone()).collect();
                matcher.schedule_keyed(&caps, &keys, &cands, &mut out);

                let cold = build_problem(&caps, &cands).solve();
                let warm_served = out.iter().flatten().count();
                assert_eq!(
                    warm_served,
                    cold.served(),
                    "solver {si} seed {seed} round {round}: warm {warm_served} vs cold {}",
                    cold.served()
                );
                // The warm assignment is valid for the current instance.
                let problem = build_problem(&caps, &cands);
                let warm = ConnectionMatching {
                    assignment: out.clone(),
                    flow: warm_served as u64,
                    total_requests: keys.len(),
                };
                assert!(warm.is_valid_for(&problem), "solver {si} seed {seed}");
            }
        }
    }
}

/// Random relay attribution over a random instance: a subset of requests
/// forwards through random relays, and each box gets a random reservation.
fn random_relays(
    boxes: usize,
    requests: usize,
    rng: &mut StdRng,
) -> (Vec<Option<BoxId>>, Vec<u32>) {
    let relay_of = (0..requests)
        .map(|_| {
            rng.gen_bool(0.4)
                .then(|| BoxId(rng.gen_range(0usize..boxes) as u32))
        })
        .collect();
    let reserved = (0..boxes).map(|_| rng.gen_range(0u32..4)).collect();
    (relay_of, reserved)
}

/// The two-hop relay network never changes the download-leg matching (its
/// supply side serves exactly the plain Lemma-1 maximum), and no relay's
/// reservation is ever oversubscribed: per relay, forwarding equals
/// `min(reserved, demand)` exactly.
#[test]
fn relay_network_preserves_supply_and_never_oversubscribes() {
    let mut net = RelayNetwork::new();
    let mut solver = Dinic::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(13_000 + seed);
        let (caps, cands) = random_instance(&mut rng);
        let (relay_of, reserved) = random_relays(caps.len(), cands.len(), &mut rng);
        net.build(
            &caps,
            &cands,
            &RelayView {
                relay_of: &relay_of,
                reserved: &reserved,
            },
        );
        let matching = net.solve_in(&mut solver);
        let plain = build_problem(&caps, &cands).solve();
        assert_eq!(
            matching.supply_served(),
            plain.served(),
            "seed {seed}: relay structure changed the supply matching"
        );
        // Reservation invariant: forwarded ≤ reserved, and the maximum flow
        // forwards exactly min(reserved, demand) per relay.
        for (relay, forwarded, demand) in matching.relay_loads() {
            let cap = reserved[relay.index()];
            assert!(
                forwarded <= cap,
                "seed {seed}: relay {relay} oversubscribed ({forwarded} > {cap})"
            );
            assert_eq!(
                forwarded,
                demand.min(cap),
                "seed {seed}: relay {relay} under-forwarded"
            );
        }
        // The supply assignment is a valid matching of the plain problem.
        let as_matching = ConnectionMatching {
            assignment: matching.assignment.clone(),
            flow: matching.supply_served() as u64,
            total_requests: cands.len(),
        };
        assert!(
            as_matching.is_valid_for(&build_problem(&caps, &cands)),
            "seed {seed}"
        );
    }
}

/// Relay-network obstruction witnesses survive independent rechecks: the
/// supply side is a brute-force-verified Hall violator, and every starved
/// reservation genuinely has `demand > reserved`, names the right relay,
/// and lists exactly the requests the forwarding flow left unserved.
#[test]
fn relay_obstruction_witnesses_survive_recheck() {
    let mut net = RelayNetwork::new();
    let mut solver = Dinic::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(14_000 + seed);
        let (caps, cands) = random_instance(&mut rng);
        let (relay_of, reserved) = random_relays(caps.len(), cands.len(), &mut rng);
        net.build(
            &caps,
            &cands,
            &RelayView {
                relay_of: &relay_of,
                reserved: &reserved,
            },
        );
        let matching = net.solve_in(&mut solver);
        match net.obstruction(&matching) {
            None => {
                assert!(matching.is_complete(), "seed {seed}: witness missing");
            }
            Some(witness) => {
                assert!(!matching.is_complete(), "seed {seed}: spurious witness");
                if !witness.requests.is_empty() {
                    // The supply-side set is a genuine Hall violator on the
                    // plain instance.
                    let recheck =
                        vod_flow::check_subset(&build_problem(&caps, &cands), &witness.requests);
                    assert!(
                        recheck.is_violating(),
                        "seed {seed}: supply witness is not a violator"
                    );
                    assert_eq!(recheck.capacity, witness.capacity, "seed {seed}");
                }
                for starved in &witness.starved {
                    assert!(
                        starved.demand > starved.reserved,
                        "seed {seed}: relay {} not genuinely starved",
                        starved.relay
                    );
                    assert_eq!(
                        starved.reserved,
                        reserved[starved.relay.index()],
                        "seed {seed}"
                    );
                    let demand = relay_of
                        .iter()
                        .filter(|r| **r == Some(starved.relay))
                        .count() as u32;
                    assert_eq!(starved.demand, demand, "seed {seed}");
                    assert_eq!(
                        starved.requests.len() as u32,
                        starved.demand - starved.reserved,
                        "seed {seed}: starved request list size"
                    );
                }
            }
        }
    }
}

/// The word-parallel set primitives behave exactly like a naive boolean
/// model under random set/unset/clear sequences: membership, popcount, and
/// bit iteration over raw words all agree, including across the word
/// boundary at bit 64 and after `reset` to a different length.
#[test]
fn bitset_kernels_match_naive_model() {
    let mut set = BitSet::new();
    let mut adj = BitAdjacency::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(17_000 + seed);

        // --- BitSet vs Vec<bool> ---
        let len = rng.gen_range(1usize..200);
        set.reset(len);
        let mut model = vec![false; len];
        for _ in 0..300 {
            let i = rng.gen_range(0usize..len);
            match rng.gen_range(0u32..3) {
                0 => {
                    set.set(i);
                    model[i] = true;
                }
                1 => {
                    set.unset(i);
                    model[i] = false;
                }
                _ => assert_eq!(set.contains(i), model[i], "seed {seed} bit {i}"),
            }
        }
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(set.contains(i), m, "seed {seed} bit {i}");
        }
        let expected_ones = model.iter().filter(|&&b| b).count();
        assert_eq!(set.count_ones(), expected_ones, "seed {seed}");
        let mut iterated = Vec::new();
        for_each_set_bit(set.words(), |i| iterated.push(i));
        let model_ones: Vec<usize> = (0..len).filter(|&i| model[i]).collect();
        assert_eq!(iterated, model_ones, "seed {seed}: bit iteration order");
        set.clear_all();
        assert_eq!(set.count_ones(), 0, "seed {seed}");

        // --- BitAdjacency vs Vec<Vec<bool>> ---
        let rows = rng.gen_range(1usize..12);
        let cols = rng.gen_range(1usize..150);
        adj.reset(rows, cols);
        let mut grid = vec![vec![false; cols]; rows];
        for _ in 0..300 {
            let r = rng.gen_range(0usize..rows);
            let c = rng.gen_range(0usize..cols);
            if rng.gen_bool(0.8) {
                adj.set(r, c);
                grid[r][c] = true;
            } else {
                adj.clear_row(r);
                grid[r].fill(false);
            }
        }
        for (r, row) in grid.iter().enumerate() {
            let mut got = Vec::new();
            for_each_set_bit(adj.row(r), |c| got.push(c));
            let want: Vec<usize> = (0..cols).filter(|&c| row[c]).collect();
            assert_eq!(got, want, "seed {seed} row {r}");
            for (c, &m) in row.iter().enumerate() {
                assert_eq!(adj.contains(r, c), m, "seed {seed} ({r},{c})");
            }
        }
    }
}

/// Adversarial tight bipartite instance: an overloaded complete (or
/// near-complete) bipartite graph where demand exceeds capacity, so every
/// solver is forced deep into its augmentation/relabel machinery.
fn adversarial_tight_instance(rng: &mut StdRng) -> (Vec<u32>, Vec<Vec<BoxId>>) {
    let boxes = rng.gen_range(3usize..9);
    let caps: Vec<u32> = (0..boxes).map(|_| rng.gen_range(1u32..3)).collect();
    let capacity: u32 = caps.iter().sum();
    // Demand ~1.5x capacity guarantees an infeasible, tight instance.
    let requests = (capacity as usize * 3 / 2).max(capacity as usize + 1);
    let cands: Vec<Vec<BoxId>> = (0..requests)
        .map(|_| {
            // Mostly complete rows, occasionally a sparse one.
            if rng.gen_bool(0.8) {
                (0..boxes).map(|b| BoxId(b as u32)).collect()
            } else {
                let degree = rng.gen_range(1usize..boxes);
                (0..degree)
                    .map(|_| BoxId(rng.gen_range(0usize..boxes) as u32))
                    .collect()
            }
        })
        .collect();
    (caps, cands)
}

/// Constructor of one boxed solver.
type MakeSolver = fn() -> Box<dyn MaxFlowSolve>;

/// The number of requests a maximum matching serves, computed with none of
/// the flow machinery: Theorem 2's elementary boxes — each box of capacity
/// `k` split into `k` unit sub-boxes, a request adjacent to every sub-box of
/// each of its candidates — matched by the plain scalar Hopcroft–Karp.
fn sub_box_reference(caps: &[u32], cands: &[Vec<BoxId>]) -> usize {
    let mut first_slot = Vec::with_capacity(caps.len());
    let mut slots = 0usize;
    for &cap in caps {
        first_slot.push(slots);
        slots += cap as usize;
    }
    let mut hk = HopcroftKarp::new(cands.len(), slots);
    for (x, list) in cands.iter().enumerate() {
        let distinct: BTreeSet<usize> = list
            .iter()
            .map(|b| b.index())
            .filter(|&b| b < caps.len())
            .collect();
        for b in distinct {
            for slot in first_slot[b]..first_slot[b] + caps[b] as usize {
                hk.add_edge(x, slot);
            }
        }
    }
    hk.solve().0
}

/// The three solver families — the word-parallel Dinic and Hopcroft–Karp
/// paths and the scalar push–relabel — serve exactly what the scalar
/// sub-box reference serves, with a valid matching, on both random and
/// adversarially tight instances.
#[test]
fn bit_and_scalar_solver_variants_agree_cold() {
    let families: [(&str, MakeSolver); 3] = [
        ("dinic", || Box::new(Dinic::new())),
        ("hopcroft-karp", || Box::new(HopcroftKarpSolve::new())),
        ("push-relabel", || Box::new(PushRelabel::new())),
    ];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(18_000 + seed);
        for adversarial in [false, true] {
            let (caps, cands) = if adversarial {
                adversarial_tight_instance(&mut rng)
            } else {
                random_instance(&mut rng)
            };
            let problem = build_problem(&caps, &cands);
            let reference = sub_box_reference(&caps, &cands);
            for (name, make) in &families {
                let got = problem.solve_with(make().as_mut());
                assert_eq!(
                    got.flow, reference as u64,
                    "seed {seed} adversarial={adversarial}: {name} flow"
                );
                assert_eq!(
                    got.served(),
                    reference,
                    "seed {seed} adversarial={adversarial}: {name} served"
                );
                assert!(
                    got.is_valid_for(&problem),
                    "seed {seed} adversarial={adversarial}: {name} invalid matching"
                );
            }
            if adversarial {
                // Tight instances must saturate: flow = min(capacity, demand),
                // reached whenever every row is complete (the common case);
                // sparse rows can only lower it, never raise it.
                let capacity = caps.iter().map(|&c| c as usize).sum::<usize>();
                assert!(
                    reference <= capacity.min(cands.len()),
                    "seed {seed}: flow exceeds trivial bound"
                );
                if cands.iter().all(|c| c.len() == caps.len()) {
                    assert_eq!(
                        reference,
                        capacity.min(cands.len()),
                        "seed {seed}: complete bipartite instance not saturated"
                    );
                }
            }
        }
    }
}

/// The global-relabel + gap push-relabel agrees with Dinic on raw random
/// flow networks (not just Lemma-1 shapes) — the heuristics change only the
/// work schedule, never the flow value.
#[test]
fn global_relabel_push_relabel_matches_on_raw_networks() {
    // One solver throughout: its buffers carry over between instances.
    let mut solver = PushRelabel::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(20_000 + seed);
        let (n, edges) = random_network(&mut rng);
        let (source, sink) = (0, n - 1);
        let reference = Dinic::new().max_flow(&mut build_network(n, &edges), source, sink);
        let pr = solver.max_flow(&mut build_network(n, &edges), source, sink);
        assert_eq!(pr, reference, "seed {seed}: push-relabel vs dinic");
    }
}
