//! Criterion bench: connection-matching solvers (Dinic vs push-relabel vs
//! the Hopcroft–Karp adapter) on random bipartite instances of increasing
//! size, plus the head-to-head the incremental scheduler is built around:
//! rebuild-every-round cold solving vs `IncrementalMatcher` warm-started
//! patching over a churned round sequence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::Duration;
use vod_core::{BoxId, StripeId, VideoId};
use vod_flow::{
    ConnectionProblem, Dinic, FlowArena, HopcroftKarp, HopcroftKarpSolve, MaxFlowSolve, PushRelabel,
};
use vod_sim::{IncrementalMatcher, RequestKey};

/// A random connection-matching instance: `boxes` boxes of capacity `cap`,
/// `requests` requests each with `degree` random candidates.
fn instance(
    boxes: usize,
    cap: u32,
    requests: usize,
    degree: usize,
    seed: u64,
) -> ConnectionProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut problem = ConnectionProblem::new(vec![cap; boxes]);
    for _ in 0..requests {
        let cands: Vec<BoxId> = (0..degree)
            .map(|_| BoxId(rng.gen_range(0..boxes) as u32))
            .collect();
        problem.add_request(cands);
    }
    problem
}

fn bench_matching(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("connection-matching");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for &n in &[64usize, 256, 1024] {
        // Roughly the per-round instance of an n-box system with c = 8.
        let problem = instance(n, 8, n * 4, 6, 7);
        let mut arena = FlowArena::new();
        let mut dinic = Dinic::new();
        group.bench_with_input(BenchmarkId::new("dinic", n), &n, |b, _| {
            b.iter(|| problem.solve_in(&mut arena, &mut dinic).served())
        });
        let mut push_relabel = PushRelabel::new();
        group.bench_with_input(BenchmarkId::new("push-relabel", n), &n, |b, _| {
            b.iter(|| problem.solve_in(&mut arena, &mut push_relabel).served())
        });
        let mut hk_adapter = HopcroftKarpSolve::new();
        group.bench_with_input(BenchmarkId::new("hopcroft-karp-adapter", n), &n, |b, _| {
            b.iter(|| problem.solve_in(&mut arena, &mut hk_adapter).served())
        });
        // Unit-capacity variant for the raw Hopcroft–Karp comparison.
        let unit = instance(n, 1, n, 4, 9);
        group.bench_with_input(BenchmarkId::new("hopcroft-karp-unit", n), &n, |b, _| {
            b.iter(|| {
                let mut hk = HopcroftKarp::new(unit.request_count(), n);
                for x in 0..unit.request_count() {
                    for cand in unit.candidates_of(x) {
                        hk.add_edge(x, cand.index());
                    }
                }
                hk.solve().0
            })
        });
        group.bench_with_input(BenchmarkId::new("dinic-unit", n), &n, |b, _| {
            b.iter(|| unit.solve_in(&mut arena, &mut dinic).served())
        });
    }

    // One trial of the threshold sweep at u = 1 (128 boxes of c = 4 slots,
    // c stripe requests per box, k = 4 candidates each): the tight cold
    // solve every sweep trial pays, under each solver family.
    let trial = instance(128, 4, 128 * 4, 4, 13);
    let mut arena = FlowArena::new();
    let families: [Box<dyn MaxFlowSolve>; 3] = [
        Box::new(Dinic::new()),
        Box::new(HopcroftKarpSolve::new()),
        Box::new(PushRelabel::new()),
    ];
    for mut solver in families {
        let id = BenchmarkId::new(solver.name(), "threshold-trial");
        group.bench_function(id, |b| {
            b.iter(|| trial.solve_in(&mut arena, solver.as_mut()).served())
        });
    }
    group.finish();
}

/// One churned round sequence: per-round request windows over `boxes` boxes
/// where `churn_pct`% of the requests change identity (and candidates) each
/// round, mimicking arrivals/departures in the simulator.
fn churn_rounds(
    boxes: usize,
    requests: usize,
    churn_pct: usize,
    rounds: usize,
    seed: u64,
) -> Vec<(Vec<RequestKey>, Vec<Vec<BoxId>>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u32;
    let fresh = |rng: &mut StdRng, next_id: &mut u32| {
        let key = RequestKey {
            viewer: BoxId(*next_id),
            stripe: StripeId::new(VideoId(0), 0),
        };
        *next_id += 1;
        let cands: Vec<BoxId> = (0..6)
            .map(|_| BoxId(rng.gen_range(0..boxes) as u32))
            .collect();
        (key, cands)
    };
    let mut window: Vec<(RequestKey, Vec<BoxId>)> = (0..requests)
        .map(|_| fresh(&mut rng, &mut next_id))
        .collect();
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let churn = (requests * churn_pct) / 100;
        for _ in 0..churn {
            let victim = rng.gen_range(0..window.len());
            window[victim] = fresh(&mut rng, &mut next_id);
        }
        out.push((
            window.iter().map(|(k, _)| *k).collect(),
            window.iter().map(|(_, c)| c.clone()).collect(),
        ));
    }
    out
}

fn bench_incremental_vs_rebuild(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("round-sequence");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    // Feasible operating regime (the simulator aborts on infeasible rounds,
    // so sustained scheduling happens below saturation): 2 requests per box
    // against capacity 8. Per-round churn in the simulator is bounded by
    // roughly 1/T (playback turnover), i.e. 3–10% for realistic durations.
    for &(boxes, churn_pct) in &[(256usize, 5usize), (256, 10), (1024, 5)] {
        let rounds = churn_rounds(boxes, boxes * 2, churn_pct, 16, 11);
        let caps: Vec<u32> = vec![8; boxes];
        let label = format!("{boxes}x{churn_pct}pct");

        group.bench_with_input(
            BenchmarkId::new("rebuild-every-round", &label),
            &boxes,
            |b, _| {
                let mut arena = FlowArena::new();
                let mut solver = Dinic::new();
                b.iter(|| {
                    let mut served = 0usize;
                    for (_, cands) in &rounds {
                        let mut problem = ConnectionProblem::new(caps.clone());
                        for c in cands {
                            problem.add_request(c.iter().copied());
                        }
                        served += problem.solve_in(&mut arena, &mut solver).served();
                    }
                    served
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental-warm", &label),
            &boxes,
            |b, _| {
                b.iter(|| {
                    let mut matcher = IncrementalMatcher::default();
                    let mut out = Vec::new();
                    let mut served = 0usize;
                    for (keys, cands) in &rounds {
                        matcher.schedule_keyed(&caps, keys, cands, &mut out);
                        served += out.iter().flatten().count();
                    }
                    served
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_matching, bench_incremental_vs_rebuild);
criterion_main!(benches);
