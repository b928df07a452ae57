//! Criterion bench: full round-based simulation throughput (rounds of the
//! complete protocol per second) for the max-flow and greedy schedulers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use vod_analysis::TrialSpec;
use vod_bench::build_system;
use vod_sim::{GreedyScheduler, MaxFlowScheduler, Scheduler, SimConfig, Simulator};
use vod_workloads::{NextVideoPolicy, SequentialViewing};

fn spec(n: usize) -> TrialSpec {
    TrialSpec {
        n,
        u: 2.0,
        d: 8,
        c: 4,
        k: 4,
        mu: 1.3,
        duration: 20,
        rounds: 30,
        catalog: None,
    }
}

fn run(spec: &TrialSpec, scheduler: Box<dyn Scheduler>) -> f64 {
    let system = build_system(spec, 11);
    let mut gen =
        SequentialViewing::new(spec.n, system.m(), NextVideoPolicy::RoundRobin, spec.mu, 3);
    let report = Simulator::with_scheduler(
        &system,
        SimConfig::new(spec.rounds).continue_on_failure(),
        scheduler,
    )
    .run(&mut gen);
    report.service_ratio()
}

fn bench_simulation(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("simulation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    for &n in &[16usize, 32, 64] {
        let s = spec(n);
        group.bench_with_input(BenchmarkId::new("maxflow-30-rounds", n), &n, |b, _| {
            b.iter(|| run(&s, Box::new(MaxFlowScheduler::new())))
        });
        group.bench_with_input(BenchmarkId::new("greedy-30-rounds", n), &n, |b, _| {
            b.iter(|| run(&s, Box::new(GreedyScheduler::new())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
