//! E18 — Fault injection and delivery reliability: flaky uploads,
//! retry/timeout/backoff, and graceful degradation under sustained
//! infeasibility.
//!
//! The paper's threshold guarantees assume every scheduled connection
//! delivers; this experiment measures what the guarantees cost to keep
//! when connections are flaky and whole regions stall:
//!
//! * **fault-free identity** — the same at-threshold system is run plain
//!   and with a zero-rate fault model attached (delivery tracker and all).
//!   Every round's served/unserved counts and every state signature must
//!   be bit-identical: the fault path must cost nothing when faults are
//!   off. The run **exits non-zero on any mismatch**;
//! * **outage recovery** — a mid-run outage stalls a quarter of the fleet
//!   for a window, on top of a sustained connection-drop hazard. With
//!   retry/backoff and the graceful-degradation controller, post-outage
//!   service must recover to ≥ 95% of the fault-free baseline; the
//!   no-retry baseline (abandon on first drop) must end measurably worse
//!   — the gap is the experiment's headline number;
//! * **pipeline equivalence under faults** — a fully loaded fault model
//!   (degradation windows, flapping, drop/timeout hazards, drop surges)
//!   plus retry and degradation is replayed under the incremental matcher
//!   and under the textbook `NaiveScheduler`. Served, unserved, delivery,
//!   and degradation stats must be identical; the run **exits non-zero on
//!   any divergence**, extending
//!   the CI determinism gates to faulted state.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vod_analysis::Table;
use vod_bench::{print_header, Scale};
use vod_core::{BoxId, RandomPermutationAllocator, SystemParams, VideoSystem};
use vod_sim::{
    DegradationConfig, DeliveryPolicy, NaiveScheduler, SimConfig, SimulationReport, Simulator,
};
use vod_workloads::{FaultEvent, FaultModel, NextVideoPolicy, SequentialViewing};

/// A homogeneous at-threshold system with enough slack that the fault-free
/// run serves every request (the recovery gate needs a clean baseline).
fn fault_system(scale: Scale) -> VideoSystem {
    let n = scale.pick(32, 64);
    let duration = scale.pick(12, 16);
    let params = SystemParams::new(n, 2.0, 4, 4, 3, 1.3, duration);
    let catalog = (4 * n / 3) * 3 / 5;
    let mut rng = StdRng::seed_from_u64(0x2009);
    VideoSystem::homogeneous_with_catalog(
        params,
        catalog,
        &RandomPermutationAllocator::new(3),
        &mut rng,
    )
    .expect("fault system must allocate")
}

/// The scripted mid-run outage: three quarters of the fleet stalls for
/// `width` rounds starting at `start` — a deterministic correlated outage
/// deep enough to make the rounds genuinely infeasible and push the
/// degradation window past its entry threshold.
fn outage_events(sys: &VideoSystem, start: u64, width: u64) -> Vec<FaultEvent> {
    (0..sys.n() * 3 / 4)
        .map(|idx| FaultEvent::Stalled {
            box_id: BoxId(idx as u32),
            until: start + width,
        })
        .collect()
}

/// One scenario run on the default (incremental + global max-flow)
/// pipeline: an optional drop hazard (via a zero-event fault model), an
/// optional retry policy, an optional degradation controller, and an
/// optional scripted outage window.
fn run(
    sys: &VideoSystem,
    rounds: u64,
    drop_ppm: u32,
    policy: Option<DeliveryPolicy>,
    degradation: Option<DegradationConfig>,
    outage: Option<(u64, u64)>,
) -> SimulationReport {
    let mut sim = Simulator::new(sys, SimConfig::new(rounds).continue_on_failure());
    if drop_ppm > 0 {
        sim.attach_faults(FaultModel::new(sys.boxes(), 0xFA17).with_drop_rate(drop_ppm, 0));
    }
    if let Some(policy) = policy {
        sim.attach_delivery(policy);
    }
    if let Some(config) = degradation {
        sim.attach_degradation(config);
    }
    let mut gen = SequentialViewing::new(sys.n(), sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
    for _ in 0..rounds {
        if let Some((outage_start, width)) = outage {
            if sim.round() == outage_start {
                for event in outage_events(sys, outage_start, width) {
                    sim.apply_fault(event);
                }
            }
        }
        sim.step(&mut gen);
    }
    sim.into_report()
}

/// A plain run, or one with a zero-rate fault model attached (tracker
/// attached, every hazard off), with every round's state signature.
fn signed_run(sys: &VideoSystem, rounds: u64, idle_faults: bool) -> (SimulationReport, Vec<u64>) {
    let mut sim = Simulator::new(sys, SimConfig::new(rounds).continue_on_failure());
    if idle_faults {
        sim.attach_faults(FaultModel::new(sys.boxes(), 0xFA17));
    }
    let mut gen = SequentialViewing::new(sys.n(), sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
    let signatures = (0..rounds)
        .map(|_| {
            sim.step(&mut gen);
            sim.state_signature()
        })
        .collect();
    (sim.into_report(), signatures)
}

/// Served requests in the post-outage segment (rounds ≥ `from`).
fn served_after(report: &SimulationReport, from: u64) -> u64 {
    report
        .rounds
        .iter()
        .filter(|r| r.round >= from)
        .map(|r| r.served as u64)
        .sum()
}

/// The fully loaded fault model of the pipeline-equivalence gate:
/// transient degradation windows, flapping boxes, drop/timeout hazards,
/// and drop surges, all from one seed.
fn gate_model(sys: &VideoSystem) -> FaultModel {
    FaultModel::new(sys.boxes(), 0xFA17)
        .with_degradation(0.04, vec![25, 50], 1, 3)
        .with_flapping(0.02, 1, 2)
        .with_drop_rate(40_000, 15_000)
        .with_drop_surges(0.04, 150_000, 1, 3)
}

/// Per-round comparison unit of the equivalence gate: served, unserved,
/// and the full delivery / degradation stat rows.
type RoundTrace = Vec<(usize, usize, String, String)>;

/// Replays the faulted scenario through one pipeline, returning its
/// per-round trace.
fn pipeline_trace<'a>(
    sys: &'a VideoSystem,
    rounds: u64,
    make: impl FnOnce(SimConfig) -> Simulator<'a>,
) -> RoundTrace {
    let config = SimConfig::new(rounds).continue_on_failure();
    let mut sim = make(config);
    sim.attach_faults(gate_model(sys));
    sim.attach_degradation(DegradationConfig::default());
    let mut gen = SequentialViewing::new(sys.n(), sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
    for _ in 0..rounds {
        sim.step(&mut gen);
    }
    sim.report_so_far()
        .rounds
        .iter()
        .map(|r| {
            (
                r.served,
                r.unserved,
                format!("{:?}", r.delivery.expect("tracker attached")),
                format!("{:?}", r.degradation.expect("controller attached")),
            )
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E18 exp_faults — fault injection: flaky uploads, retry/backoff, graceful degradation",
        "with retry and degradation the Theorem 1 service level survives outages and flaky delivery; without retry abandonment makes it measurably worse",
        scale,
    );
    let mut failed = false;

    let sys = fault_system(scale);
    let rounds = scale.pick(80u64, 200);

    // ---- Part 1: fault-free identity (the zero-cost gate) ----
    let plain = signed_run(&sys, rounds, false);
    let idle = signed_run(&sys, rounds, true);
    if plain.1 != idle.1 {
        let round = plain.1.iter().zip(&idle.1).position(|(a, b)| a != b);
        eprintln!(
            "FAIL: zero-rate fault model diverged from the plain engine (first at round {round:?})"
        );
        std::process::exit(1);
    }
    for (a, b) in plain.0.rounds.iter().zip(&idle.0.rounds) {
        if (a.served, a.unserved) != (b.served, b.unserved) {
            eprintln!(
                "FAIL: zero-rate fault model changed the schedule at round {}",
                a.round
            );
            std::process::exit(1);
        }
    }
    println!(
        "identity: zero-rate fault model is bit-identical to the plain engine across {rounds} rounds ✓\n"
    );

    // ---- Part 2: outage recovery — retry + degradation vs no-retry ----
    let outage_start = rounds / 3;
    let outage_width = scale.pick(6u64, 10);
    let outage = Some((outage_start, outage_width));
    // Grace after the window: the controller's exit dwell plus backlog.
    let recover_from = outage_start + outage_width + scale.pick(8u64, 12);
    let drop_ppm = 20_000; // 2% of connections drop, sustained
    let baseline = run(&sys, rounds, 0, None, None, None);
    let resilient = run(
        &sys,
        rounds,
        drop_ppm,
        Some(DeliveryPolicy::default()),
        Some(DegradationConfig::default()),
        outage,
    );
    let fragile = run(
        &sys,
        rounds,
        drop_ppm,
        Some(DeliveryPolicy::no_retry()),
        Some(DegradationConfig::default()),
        outage,
    );

    let base_post = served_after(&baseline, recover_from);
    let mut table = Table::new(
        "Outage recovery (identical demand seeds; outage stalls 3n/4 boxes)",
        &[
            "scenario",
            "served",
            "post-outage served",
            "vs baseline",
            "dropped",
            "retries",
            "abandoned",
            "degraded rounds",
        ],
    );
    let mut push = |label: &str, report: &SimulationReport| {
        let delivery = report.delivery.unwrap_or_default();
        let post = served_after(report, recover_from);
        table.push_row(vec![
            label.to_string(),
            report.total_served().to_string(),
            post.to_string(),
            format!("{:.1}%", post as f64 / base_post.max(1) as f64 * 100.0),
            delivery.dropped.to_string(),
            delivery.retries.to_string(),
            delivery.abandoned.to_string(),
            delivery.degraded_rounds.to_string(),
        ]);
    };
    push("fault-free baseline", &baseline);
    push("retry + degradation", &resilient);
    push("no-retry", &fragile);
    println!("{}", table.to_markdown());
    println!(
        "(n = {}, {drop_ppm} ppm drop hazard, outage rounds {outage_start}..{}, recovery measured from round {recover_from})",
        sys.n(),
        outage_start + outage_width
    );
    let degraded = resilient.delivery.map(|d| d.degraded_rounds).unwrap_or(0);
    if degraded == 0 {
        eprintln!(
            "FAIL: the outage never pushed the degradation controller into degraded mode — the shed path went untested"
        );
        failed = true;
    }
    // Failure attribution: infeasible rounds during the outage window are
    // charged to the fault overlay, not to the allocation.
    let fault_attributed = resilient
        .failures
        .iter()
        .filter(|f| f.cause() == "fault-degraded")
        .count();
    let allocation_attributed = resilient.failures.len() - fault_attributed;
    println!(
        "failure attribution: {fault_attributed} fault-degraded, {allocation_attributed} allocation (of {} infeasible rounds)",
        resilient.failures.len()
    );
    if fault_attributed == 0 && !resilient.failures.is_empty() {
        eprintln!("FAIL: outage-window failures were not attributed to the fault overlay");
        failed = true;
    }

    let resilient_post = served_after(&resilient, recover_from);
    let fragile_post = served_after(&fragile, recover_from);
    let recovery = resilient_post as f64 / base_post.max(1) as f64;
    if recovery < 0.95 {
        eprintln!(
            "FAIL: retry + degradation recovered only {:.1}% of the baseline post-outage (need ≥ 95%)",
            recovery * 100.0
        );
        failed = true;
    }
    if fragile_post >= resilient_post {
        eprintln!(
            "FAIL: disabling retries did not degrade post-outage service ({fragile_post} vs {resilient_post})"
        );
        failed = true;
    }
    let resilient_delivery = resilient.delivery.unwrap_or_default();
    if resilient_delivery.retries == 0 || resilient_delivery.dropped == 0 {
        eprintln!("FAIL: the drop hazard never fired or never retried — the gate tested nothing");
        failed = true;
    }

    // ---- Part 3: pipeline equivalence under faults (the CI gate) ----
    let gate_rounds = scale.pick(40u64, 80);
    let reference = pipeline_trace(&sys, gate_rounds, |config| Simulator::new(&sys, config));
    let naive = pipeline_trace(&sys, gate_rounds, |config| {
        Simulator::with_scheduler(&sys, config, Box::new(NaiveScheduler::new()))
    });
    if naive != reference {
        let round = reference
            .iter()
            .zip(&naive)
            .position(|(a, b)| a != b)
            .unwrap_or(reference.len().min(naive.len()));
        eprintln!(
            "DIVERGENCE [naive] under faults at round {round}: {:?} vs reference {:?}",
            naive.get(round),
            reference.get(round)
        );
        std::process::exit(1);
    }
    println!(
        "equivalence: incremental and naive pipelines agree on served, unserved, delivery, and degradation stats across {gate_rounds} faulted rounds ✓"
    );

    if failed {
        eprintln!("\nexp_faults: FAILED");
        std::process::exit(1);
    }
    println!("\nexp_faults: identity, recovery, and equivalence checks passed");
}
