//! E6 — Heterogeneous systems, upload compensation and relaying (Theorem 2).
//!
//! Part 1 sweeps the fraction of poor (deficient-upload) boxes in a
//! two-class fleet and reports the necessary condition u > 1 + Δ(1)/n,
//! whether the fleet can be u*-upload-compensated, and how the relayed
//! system fares against the poor-boxes-pile-on adversary, compared with the
//! same fleet without relaying.
//!
//! Part 2 is the **relay series**: the same heterogeneous fleet driven by
//! a poor-box-prioritized multi-swarm churn workload (relay edges crossing
//! swarms), replayed through the max-flow scheduler and the textbook
//! `NaiveScheduler`. Both must serve exactly the same number of requests
//! every round — the run **exits non-zero on any divergence**, so it
//! doubles as the CI smoke gate for relayed scheduling — and the run closes
//! with the relay subsystem's utilization profile (per-relay reserved
//! capacity vs observed forwarding load, saturation).

use rand::rngs::StdRng;
use rand::SeedableRng;
use vod_analysis::{theorem2, Table};
use vod_bench::{print_header, Scale};
use vod_core::{
    compensate, Bandwidth, BoxId, Catalog, RandomPermutationAllocator, SystemParams, VideoId,
    VideoSystem,
};
use vod_sim::{
    MaxFlowScheduler, NaiveScheduler, Scheduler, SimConfig, SimulationReport, Simulator,
};
use vod_workloads::{MultiSwarmChurn, PoorBoxesSameVideo};

const U_STAR: f64 = 1.2;
const STRIPES: u16 = 8;

/// Builds a two-class fleet (`poor u = 0.6`, rich boxes at `rich_upload`)
/// as a `u*`-balanced system, or `None` when it is not compensable.
fn build_fleet(
    poor_count: usize,
    rich_count: usize,
    rich_upload: f64,
    relay: bool,
    duration: u32,
) -> Option<VideoSystem> {
    let c = STRIPES;
    let mut uploads = vec![0.6f64; poor_count];
    uploads.extend(vec![rich_upload; rich_count]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let avg_u = boxes.average_upload();
    let k = 3u32;
    let catalog_size = ((d_avg * n as f64) / k as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, duration, c);
    let params = SystemParams::new(n, avg_u, d_avg.round().max(1.0) as u32, c, k, 1.2, duration);
    let mut rng = StdRng::seed_from_u64(2009);
    VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        relay.then(|| Bandwidth::from_streams(U_STAR)),
        &mut rng,
    )
    .ok()
}

/// Runs the pile-on attack on a two-class fleet: whether every round was
/// feasible and the service ratio, or `None` when the fleet is not built
/// (not compensable).
fn run_fleet(
    poor_count: usize,
    rich_count: usize,
    relay: bool,
    scale: Scale,
) -> Option<(bool, f64)> {
    let duration = scale.pick(32, 48);
    let system = build_fleet(poor_count, rich_count, 2.6, relay, duration)?;
    let u_star = Bandwidth::from_streams(U_STAR);
    let poor = system.boxes().poor_ids(u_star);
    let rich = system.boxes().rich_ids(u_star);
    let mut attack = PoorBoxesSameVideo::new(
        poor,
        rich,
        VideoId(0),
        system.placement(),
        system.catalog(),
        1.2,
    );
    let rounds = scale.pick(60u64, 120);
    let report = Simulator::new(&system, SimConfig::new(rounds)).run(&mut attack);
    Some((report.all_rounds_feasible(), report.service_ratio()))
}

/// A `run_fleet` cell: "feasible / service", or "not built".
fn fleet_cell(outcome: Option<(bool, f64)>) -> String {
    match outcome {
        Some((feasible, service)) => format!("{feasible} / {service:.3}"),
        None => "not built".to_string(),
    }
}

/// One relay-series replay: simulate the churn workload under the given
/// scheduler.
fn replay(
    system: &VideoSystem,
    poor: &[BoxId],
    rounds: u64,
    scheduler: Box<dyn Scheduler>,
) -> SimulationReport {
    let mut gen = MultiSwarmChurn::new(system.m(), 6, 8, 1.2, 5)
        .with_rotation(6)
        .with_priority_boxes(poor.to_vec());
    let sim = Simulator::with_scheduler(
        system,
        SimConfig::new(rounds).continue_on_failure(),
        scheduler,
    );
    sim.run(&mut gen)
}

/// Asserts per-round equivalence of a replay against the reference;
/// exits non-zero on divergence (the CI gate).
fn check_equivalent(label: &str, reference: &SimulationReport, candidate: &SimulationReport) {
    if reference.round_count() != candidate.round_count() {
        eprintln!(
            "DIVERGENCE [{label}]: {} rounds vs {} in the reference",
            candidate.round_count(),
            reference.round_count()
        );
        std::process::exit(1);
    }
    for (a, b) in candidate.rounds.iter().zip(&reference.rounds) {
        if a.served != b.served || a.unserved != b.unserved {
            eprintln!(
                "DIVERGENCE [{label}] round {}: served {} / unserved {} vs reference {} / {}",
                a.round, a.served, a.unserved, b.served, b.unserved
            );
            std::process::exit(1);
        }
    }
}

fn relay_series(scale: Scale, total: usize) {
    // Richer relays (u = 4.2, headroom 3.0) host several poor boxes each,
    // so one relay's forwarding demand spans several swarms at once.
    let poor_count = total * 2 / 3;
    let duration = scale.pick(24, 40);
    let system = build_fleet(poor_count, total - poor_count, 4.2, true, duration)
        .expect("two-thirds-poor fleet is u*-compensable with u = 4.2 relays");
    let poor = system.boxes().poor_ids(Bandwidth::from_streams(U_STAR));
    let rounds = scale.pick(40u64, 160);

    println!(
        "\n## Relay series — {} boxes ({} poor), {} videos, {} rounds of poor-first multi-swarm churn\n",
        system.n(),
        poor.len(),
        system.m(),
        rounds
    );

    let report = replay(&system, &poor, rounds, Box::new(MaxFlowScheduler::new()));
    let naive_report = replay(&system, &poor, rounds, Box::new(NaiveScheduler::new()));
    check_equivalent("max-flow vs naive", &naive_report, &report);

    let mut table = Table::new(
        "Heterogeneous fleet under relayed churn (identical schedules enforced)",
        &["scheduler", "served", "forwarded", "fwd starved"],
    );
    for (label, report) in [("max-flow", &report), ("naive (reference)", &naive_report)] {
        table.push_row(vec![
            label.to_string(),
            report.total_served().to_string(),
            report.total_forwarded().to_string(),
            report.total_forward_starved().to_string(),
        ]);
    }
    println!("{}", table.to_markdown());

    // Relay utilization profile.
    let mut profile = Table::new(
        "Relay utilization (reserved forwarding capacity vs observed load)",
        &[
            "relay",
            "reserved slots",
            "assigned poor",
            "peak load",
            "forwards",
            "saturated rounds",
            "oversubscribed rounds",
        ],
    );
    for util in report.relays.iter().take(12) {
        profile.push_row(vec![
            util.relay.to_string(),
            util.reserved_slots.to_string(),
            util.assigned_poor.to_string(),
            util.peak_load.to_string(),
            util.forwards.to_string(),
            util.saturated_rounds.to_string(),
            util.oversubscribed_rounds.to_string(),
        ]);
    }
    println!("{}", profile.to_markdown());
    if report.relays.len() > 12 {
        println!("({} more relays elided)", report.relays.len() - 12);
    }
    println!(
        "equivalence: max-flow and naive served identical per-round counts across {} rounds ✓",
        rounds
    );
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E6 exp_heterogeneous — u*-balanced heterogeneous fleets (Theorem 2)",
        "u*-balanced systems scale via relaying; u > 1 + Δ(1)/n is necessary (Sec. 4)",
        scale,
    );
    let total = scale.pick(32usize, 64);

    let mut table = Table::new(
        "Two-class fleet (poor u = 0.6, rich u = 2.6) under the pile-on attack",
        &[
            "poor fraction",
            "avg u",
            "1 + Δ(1)/n",
            "compensable at u*=1.2",
            "relayed: feasible / service",
            "no relay: feasible / service",
        ],
    );

    for &poor_fraction in &[0.25, 0.5, 0.625, 0.75, 0.875] {
        let poor_count = (total as f64 * poor_fraction).round() as usize;
        let rich_count = total - poor_count;
        let c: u16 = STRIPES;
        let mut uploads = vec![0.6f64; poor_count];
        uploads.extend(vec![2.6f64; rich_count]);
        let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
        let (avg_u, necessary) = theorem2::necessary_condition(&boxes);
        let compensable = compensate(&boxes, Bandwidth::from_streams(U_STAR)).is_ok();

        table.push_row(vec![
            format!("{poor_fraction:.3}"),
            format!("{avg_u:.2}"),
            format!("{necessary:.2}"),
            compensable.to_string(),
            fleet_cell(run_fleet(poor_count, rich_count, true, scale)),
            fleet_cell(run_fleet(poor_count, rich_count, false, scale)),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("(n = {total}, storage/upload ratio 6, u* = {U_STAR}, k = 3, µ = 1.2)");

    relay_series(scale, total);
}
