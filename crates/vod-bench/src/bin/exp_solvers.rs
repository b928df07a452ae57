//! E14 — The three solver families on cold instances.
//!
//! A solver runs on one call only: the one-shot [`Scheduler::schedule`].
//! Keyed rounds never reach it — the [`vod_sim::IncrementalMatcher`]
//! routes every keyed round by its own targeted search, the cold round
//! after a reset (first round, fleet-size change) from the empty matching —
//! so replaying a script keyed through each backend would step the matcher
//! three times over. This experiment therefore solves every round of
//! identical scripts **cold**, through [`MaxFlowScheduler::schedule`] wired
//! to each [`vod_flow::MaxFlowSolve`] family, and compares what they serve:
//! `dinic` (word-parallel level BFS on Lemma-1 shapes), `hopcroft-karp`
//! (capacitated word-parallel matcher) and `push-relabel` (gap +
//! global-relabel heuristics).
//!
//! Five instance shapes cover the regimes the schedulers meet in the
//! simulator: multi-swarm churn (many small blocks), a flash crowd (one
//! dense block), an adversarial capacity-tight overload (long augmenting
//! paths, the relabel stress case), a heterogeneous-relay shape (a few
//! high-`u` superboxes carrying most of the load, as produced by
//! `u*`-compensation), and a threshold-trial shape sized like one trial of
//! the paper's E1 sweep (`n = 128`, `c = 4`, `k = 4`, `u = 1`).
//!
//! The run is a CI determinism gate: every family must produce an
//! identical per-round served sequence on every workload (they are all
//! exact maximum-flow algorithms), and the run exits non-zero on any
//! divergence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vod_analysis::Table;
use vod_bench::{multi_swarm_script, print_header, RoundScript, Scale};
use vod_core::{BoxId, StripeId, VideoId};
use vod_flow::{Dinic, HopcroftKarpSolve, MaxFlowSolve, PushRelabel};
use vod_sim::{MaxFlowScheduler, RequestKey, Scheduler};

struct Shape {
    label: &'static str,
    script: RoundScript,
}

/// Adversarial capacity-tight overload: uniform low capacities, demand ~1.3x
/// the total capacity, and heavily overlapping candidate sets drawn from the
/// whole box pool. Nearly every augmenting path must displace existing
/// flow, which is where inexact push–relabel heights (and shallow BFS
/// layers) cost the most.
fn adversarial_script(boxes: usize, requests: usize, rounds: usize, seed: u64) -> RoundScript {
    let mut rng = StdRng::seed_from_u64(seed);
    let caps: Vec<u32> = (0..boxes).map(|_| rng.gen_range(1u32..3)).collect();
    let mut script = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut keys = Vec::with_capacity(requests);
        let mut cands = Vec::with_capacity(requests);
        for r in 0..requests {
            keys.push(RequestKey {
                viewer: BoxId(r as u32),
                stripe: StripeId::new(VideoId(0), (r % 4) as u16),
            });
            let degree = rng.gen_range(2usize..6);
            let mut list: Vec<BoxId> = (0..degree)
                .map(|_| BoxId(rng.gen_range(0usize..boxes) as u32))
                .collect();
            list.sort();
            list.dedup();
            cands.push(list);
        }
        script.push((keys, cands));
    }
    RoundScript {
        caps,
        rounds: script,
    }
}

/// Heterogeneous-relay shape: a handful of high-capacity superboxes (the
/// compensating relays of the heterogeneous `u*` model) plus a sea of weak
/// boxes. Every request sees one superbox and a few weak alternatives, so
/// most flow funnels through the wide nodes.
fn relay_script(boxes: usize, requests: usize, rounds: usize, seed: u64) -> RoundScript {
    let mut rng = StdRng::seed_from_u64(seed);
    let supers = (boxes / 16).max(2);
    let caps: Vec<u32> = (0..boxes)
        .map(|b| {
            if b < supers {
                rng.gen_range(24u32..40)
            } else {
                rng.gen_range(1u32..3)
            }
        })
        .collect();
    let mut script = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut keys = Vec::with_capacity(requests);
        let mut cands = Vec::with_capacity(requests);
        for r in 0..requests {
            keys.push(RequestKey {
                viewer: BoxId(r as u32),
                stripe: StripeId::new(VideoId(1), (r % 4) as u16),
            });
            let mut list = vec![BoxId(rng.gen_range(0usize..supers) as u32)];
            for _ in 0..rng.gen_range(2usize..5) {
                list.push(BoxId(rng.gen_range(supers..boxes) as u32));
            }
            list.sort();
            list.dedup();
            cands.push(list);
        }
        script.push((keys, cands));
    }
    RoundScript {
        caps,
        rounds: script,
    }
}

/// One trial of the E1 threshold sweep at `u = 1`: 128 boxes of `⌊u·c⌋ = 4`
/// slots, every box viewing (`c = 4` stripe requests each), each stripe held
/// by `k = 4` random boxes. Demand equals supply, so the solve is tight.
fn threshold_script(rounds: usize, seed: u64) -> RoundScript {
    const N: usize = 128;
    const C: usize = 4;
    const K: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut keys = Vec::with_capacity(N * C);
        let mut cands = Vec::with_capacity(N * C);
        for viewer in 0..N {
            let video = VideoId(rng.gen_range(0u32..N as u32));
            for stripe in 0..C {
                keys.push(RequestKey {
                    viewer: BoxId(viewer as u32),
                    stripe: StripeId::new(video, stripe as u16),
                });
                let mut list: Vec<BoxId> = (0..K)
                    .map(|_| BoxId(rng.gen_range(0usize..N) as u32))
                    .collect();
                list.sort();
                list.dedup();
                cands.push(list);
            }
        }
        script.push((keys, cands));
    }
    RoundScript {
        caps: vec![C as u32; N],
        rounds: script,
    }
}

fn shapes(scale: Scale) -> Vec<Shape> {
    let (boxes, viewers, rounds) = scale.pick((96usize, 56usize, 20usize), (256, 150, 40));
    let requests = viewers * 4;
    vec![
        Shape {
            label: "churn",
            script: multi_swarm_script(boxes, 12, viewers, 4, rounds, 0x5A),
        },
        Shape {
            label: "flash-crowd",
            script: multi_swarm_script(boxes, 1, viewers, 4, rounds, 0xF1),
        },
        Shape {
            label: "adversarial",
            script: adversarial_script(boxes / 3, requests, rounds, 0xAD),
        },
        Shape {
            label: "hetero-relay",
            script: relay_script(boxes, requests, rounds, 0xE7),
        },
        Shape {
            label: "threshold-trial",
            script: threshold_script(rounds, 0xE1),
        },
    ]
}

/// Constructor of one boxed solver backend.
type MakeSolver = fn() -> Box<dyn MaxFlowSolve>;

/// The solver line-up: one constructor per family.
const FAMILIES: [MakeSolver; 3] = [
    || Box::new(Dinic::new()),
    || Box::new(HopcroftKarpSolve::new()),
    || Box::new(PushRelabel::new()),
];

/// One replay, every round solved cold: the per-round served counts.
fn served_per_round(script: &RoundScript, make: MakeSolver) -> Vec<usize> {
    let mut scheduler = MaxFlowScheduler::with_solver(make());
    script
        .rounds
        .iter()
        .map(|(_, cands)| {
            scheduler
                .schedule(&script.caps, cands)
                .iter()
                .flatten()
                .count()
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E14 exp_solvers — solver kernels on cold instances",
        "all three max-flow families serve identical per-round sequences (Lemma 1 has a unique optimum value) on a one-shot Scheduler::schedule call, the one entry point that still reaches a solver",
        scale,
    );

    let mut diverged = false;
    let mut table = Table::new(
        "Cold solves (identical served sequences required)",
        &["workload", "solver", "served"],
    );

    for shape in shapes(scale) {
        let mut reference: Option<(&str, Vec<usize>)> = None;
        for make in FAMILIES {
            let per_round = served_per_round(&shape.script, make);
            let series = make().name();
            // Determinism gate: every family must serve the same sequence.
            match &reference {
                None => reference = Some((series, per_round.clone())),
                Some((ref_name, expected)) if *expected != per_round => {
                    eprintln!(
                        "FAIL: {} — {series} served sequence diverged from {ref_name}",
                        shape.label
                    );
                    diverged = true;
                }
                Some(_) => {}
            }
            table.push_row(vec![
                shape.label.to_string(),
                series.to_string(),
                per_round.iter().sum::<usize>().to_string(),
            ]);
        }
    }

    println!("{}", table.to_markdown());

    if diverged {
        eprintln!("FAIL: solver families disagreed on a served sequence");
        std::process::exit(1);
    }
    println!("all three families served identical per-round sequences");
}
