//! E9 — Optimal max-flow matching vs greedy and random schedulers.
//!
//! Lemma 1's machinery assumes connections are rewired optimally each round.
//! This ablation measures how much that optimality matters: near the capacity
//! threshold the greedy and random schedulers start stalling before the
//! max-flow matching does.

use vod_analysis::{Table, TrialSpec};
use vod_bench::{base_spec, build_system, print_header, Scale};
use vod_sim::{
    GreedyScheduler, MaxFlowScheduler, RandomScheduler, Scheduler, SimConfig, Simulator,
};
use vod_workloads::{NextVideoPolicy, SequentialViewing};

fn run_with(spec: &TrialSpec, scheduler: Box<dyn Scheduler>, seed: u64) -> (bool, f64) {
    let system = build_system(spec, seed);
    let mut gen = SequentialViewing::new(
        spec.n,
        system.m(),
        NextVideoPolicy::RoundRobin,
        spec.mu,
        seed,
    );
    let report = Simulator::with_scheduler(
        &system,
        SimConfig::new(spec.rounds).continue_on_failure(),
        scheduler,
    )
    .run(&mut gen);
    (report.all_rounds_feasible(), report.service_ratio())
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E9 exp_scheduler_baselines — matching quality ablation",
        "optimal per-round matching (Lemma 1) vs greedy / uncoordinated-random source selection",
        scale,
    );
    let spec = base_spec(scale);

    let mut table = Table::new(
        "Service ratio under full-occupancy viewing",
        &[
            "u",
            "max-flow feasible / service",
            "greedy feasible / service",
            "random feasible / service",
        ],
    );
    for &u in &[1.05, 1.1, 1.2, 1.35, 1.5, 2.0] {
        let point = TrialSpec { u, k: 2, ..spec };
        let (f_mf, s_mf) = run_with(&point, Box::new(MaxFlowScheduler::new()), 21);
        let (f_gr, s_gr) = run_with(&point, Box::new(GreedyScheduler::new()), 21);
        let (f_rd, s_rd) = run_with(&point, Box::new(RandomScheduler::new(9)), 21);
        table.push_row(vec![
            format!("{u:.2}"),
            format!("{} / {:.4}", f_mf, s_mf),
            format!("{} / {:.4}", f_gr, s_gr),
            format!("{} / {:.4}", f_rd, s_rd),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "(n = {}, d = {}, c = {}, k = 2, µ = {}, {} rounds, sequential full occupancy)",
        spec.n, spec.d, spec.c, spec.mu, spec.rounds
    );
}
