//! Flash-crowd scenario: a popular release attracts viewers at the maximal
//! swarm growth rate and the swarm must become self-sustaining through
//! swarming (playback-cache exchange) rather than the k allocation replicas.
//!
//! ```text
//! cargo run --release --example flash_crowd
//! cargo run --release --example flash_crowd -- <n> [rounds]
//! ```
//!
//! Without arguments it narrates a 96-box crowd. With `<n>` it times one
//! whole-population crowd of `n` boxes (u = 2, c = 6, k = 4, µ = 1.5,
//! T = 40; 100 rounds unless `rounds` says otherwise) — the single-crowd
//! scale ladder of ROADMAP's first open item — printing ms/round, the worst
//! round and the peak resident set, and exits non-zero unless every round
//! is fully served.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed: Result<Vec<u64>, _> = args.iter().map(|arg| arg.parse::<u64>()).collect();
    match parsed.as_deref() {
        Ok([]) => {
            narrate();
            ExitCode::SUCCESS
        }
        Ok([n]) if *n > 0 => ladder_step(*n as usize, 100),
        Ok([n, rounds]) if *n > 0 => ladder_step(*n as usize, *rounds),
        _ => {
            eprintln!("usage: flash_crowd [<n> [rounds]]");
            ExitCode::from(2)
        }
    }
}

/// One step of the scale ladder: a crowd of the whole population, timed.
fn ladder_step(n: usize, rounds: u64) -> ExitCode {
    let mu = 1.5;
    let params = SystemParams::new(n, 2.0, 8, 6, 4, mu, 40);
    let mut rng = StdRng::seed_from_u64(11);
    let system = VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng)
        .expect("allocation fits");
    let mut crowd = FlashCrowd::single(VideoId(0), n, system.m(), mu, 5);
    let mut sim = Simulator::new(&system, SimConfig::new(rounds).continue_on_failure());

    let mut step_ms = Vec::with_capacity(rounds as usize);
    let mut all_served = true;
    for _ in 0..rounds {
        let clock = Instant::now();
        all_served &= sim.step(&mut crowd);
        step_ms.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    let report = sim.into_report();
    let (worst_round, worst_ms) = step_ms
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));
    let peak_requests = report.rounds.iter().map(|r| r.active_requests).max();

    println!("n = {n}, u = 2, c = 6, k = 4, µ = {mu}, T = 40, {rounds} rounds");
    println!("  viewers absorbed : {} / {n}", report.total_demands);
    println!("  peak requests    : {}", peak_requests.unwrap_or(0));
    println!(
        "  ms/round         : {:.3}",
        step_ms.iter().sum::<f64>() / step_ms.len().max(1) as f64
    );
    println!("  worst round      : {worst_ms:.3} ms (round {worst_round})");
    match peak_rss_mb() {
        Some(mb) => println!("  VmHWM            : {mb:.1} MB"),
        None => println!("  VmHWM            : not available on this platform"),
    }
    println!("  every round fully served: {all_served}");
    if all_served {
        ExitCode::SUCCESS
    } else {
        let failure = &report.failures[0];
        eprintln!(
            "round {} left {} requests unserved",
            failure.round, failure.unserved
        );
        ExitCode::FAILURE
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The narrated 96-box demo.
fn narrate() {
    let n = 96;
    let mu = 1.5;
    let params = SystemParams::new(n, 1.6, 8, 8, 4, mu, 80);
    let mut rng = StdRng::seed_from_u64(11);
    let system = VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng)
        .expect("allocation fits");

    println!(
        "System: n = {}, u = {:.1}, c = {}, k = 4, catalog = {} videos, µ = {}",
        n,
        system.average_upload(),
        system.c(),
        system.m(),
        mu
    );
    println!(
        "Premiere video v0 is stored on only {} boxes before the crowd arrives.",
        system.holders_of(StripeId::new(VideoId(0), 0)).len()
    );

    // The whole fleet piles onto video 0 as fast as the growth bound allows.
    let mut crowd = FlashCrowd::single(VideoId(0), n, system.m(), mu, 5);
    let report = Simulator::new(&system, SimConfig::new(120)).run(&mut crowd);

    println!("\nRound-by-round ramp-up (first 12 rounds):");
    println!("round  new  viewers  requests  served  from-cache  util");
    for r in report.rounds.iter().take(12) {
        println!(
            "{:>5}  {:>3}  {:>7}  {:>8}  {:>6}  {:>10}  {:.2}",
            r.round,
            r.new_demands,
            r.viewers,
            r.active_requests,
            r.served,
            r.served_from_cache,
            r.utilization()
        );
    }

    println!("\nOutcome:");
    println!("  all rounds feasible : {}", report.all_rounds_feasible());
    println!("  service ratio       : {:.4}", report.service_ratio());
    println!("  swarming share      : {:.3}", report.swarming_share());
    println!("  peak utilization    : {:.3}", report.peak_utilization());
    println!("  viewers absorbed    : {} / {}", report.total_demands, n);

    if let Some(failure) = report.failures.first() {
        println!(
            "  first failure at round {} ({} unserved, obstruction of {:?} requests)",
            failure.round, failure.unserved, failure.obstruction_size
        );
    } else {
        println!(
            "  the crowd of {} viewers was absorbed without a single stall —",
            report.total_demands
        );
        println!("  late joiners were fed by the playback caches of earlier joiners.");
    }
}
