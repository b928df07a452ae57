//! Fleet-size ladder: a mostly idle fleet of `n` boxes, timed.
//!
//! ```text
//! cargo run --release --example fleet_scale -- <n> [rounds]
//! ```
//!
//! The benchmark's `sparse-fleet` shape (u = 2, d = 4, c = 4, k = 3,
//! µ = 1.3, T = 16, Zipf(0.8) demand with 32 arrivals per round) at a fleet
//! size of your choice — the first rung of ROADMAP's scale ladder. The
//! viewer count settles near 32·T whatever `n` is, so what grows with `n` is
//! set-up (allocation, `Simulator::new`), memory per box and whatever the
//! round still walks per box. Prints the set-up seconds, the peak resident
//! set, bytes per box and ms/round (100 rounds unless `rounds` says
//! otherwise), and exits non-zero unless every round is fully served and,
//! from [`GATED_FROM`] boxes on, the peak resident set stays within
//! [`MAX_BYTES_PER_BOX`].

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// The memory ceiling: peak resident bytes per box (the scale ladder's
/// target for 2^20 boxes).
const MAX_BYTES_PER_BOX: f64 = 600.0;

/// The smallest fleet the ceiling holds for: below it the process's fixed
/// resident set is a large share of the peak.
const GATED_FROM: usize = 1 << 17;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed: Result<Vec<u64>, _> = args.iter().map(|arg| arg.parse::<u64>()).collect();
    match parsed.as_deref() {
        Ok([n]) if *n > 0 => ladder_step(*n as usize, 100),
        Ok([n, rounds]) if *n > 0 => ladder_step(*n as usize, *rounds),
        _ => {
            eprintln!("usage: fleet_scale <n> [rounds]");
            ExitCode::from(2)
        }
    }
}

/// One rung of the ladder: build, run, report.
fn ladder_step(n: usize, rounds: u64) -> ExitCode {
    let mu = 1.3;
    let params = SystemParams::new(n, 2.0, 4, 4, 3, mu, 16);
    let mut rng = StdRng::seed_from_u64(2009);

    let clock = Instant::now();
    let system = VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(3), &mut rng)
        .expect("allocation fits");
    let build_s = clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let mut sim = Simulator::new(&system, SimConfig::new(rounds).continue_on_failure());
    let sim_new_s = clock.elapsed().as_secs_f64();

    let mut demand = ZipfDemand::new(system.m(), 0.8, 32, mu, 7);
    let mut step_ms = Vec::with_capacity(rounds as usize);
    let mut all_served = true;
    for _ in 0..rounds {
        let clock = Instant::now();
        all_served &= sim.step(&mut demand);
        step_ms.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    let report = sim.into_report();
    let peak_viewers = report.rounds.iter().map(|r| r.viewers).max();
    let mean_ms = step_ms.iter().sum::<f64>() / step_ms.len().max(1) as f64;
    step_ms.sort_by(f64::total_cmp);
    let median_ms = step_ms.get(step_ms.len() / 2).copied().unwrap_or(0.0);

    println!("n = {n}, u = 2, d = 4, c = 4, k = 3, µ = {mu}, T = 16, {rounds} rounds");
    println!("  catalog          : {} videos", system.m());
    println!("  system build     : {build_s:.3} s");
    println!("  Simulator::new   : {sim_new_s:.3} s");
    println!("  peak viewers     : {}", peak_viewers.unwrap_or(0));
    println!("  ms/round         : {mean_ms:.3} (median {median_ms:.3})");
    let mut within_ceiling = true;
    match peak_rss_mb() {
        Some(mb) => {
            let per_box = mb * 1024.0 * 1024.0 / n as f64;
            println!("  VmHWM            : {mb:.1} MB");
            println!("  bytes per box    : {per_box:.0} (ceiling {MAX_BYTES_PER_BOX:.0})");
            within_ceiling = n < GATED_FROM || per_box <= MAX_BYTES_PER_BOX;
        }
        None => println!("  VmHWM            : not available on this platform"),
    }
    println!("  every round fully served: {all_served}");
    if !all_served {
        let failure = &report.failures[0];
        eprintln!(
            "round {} left {} requests unserved",
            failure.round, failure.unserved
        );
    }
    if !within_ceiling {
        eprintln!("peak resident set over {MAX_BYTES_PER_BOX:.0} bytes per box");
    }
    if all_served && within_ceiling {
        ExitCode::SUCCESS
    } else {
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
