//! Fault-tolerance properties of the delivery-reliability subsystem:
//! retry/backoff discipline never oversubscribes the per-round `⌊u_b·c⌋`
//! upload budgets or the repair budget, the degradation controller's
//! hysteresis never flaps round-to-round, reports serialized before the
//! fault-era fields existed still parse, and an outage's failures are
//! charged to it and its lost service is won back by retry and
//! degradation.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn homogeneous(n: usize, u: f64, c: u16, k: u32, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, u, 8, c, k, 1.3, duration);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(k), &mut rng).unwrap()
}

/// Under injected faults with retries and a repair planner attached, no
/// round ever schedules more connections than the (fault-reduced) upload
/// slots allow, repair never exceeds its budget, and retry re-entries are
/// conserved: every retry and every abandonment traces back to a prior
/// drop or timeout.
#[test]
fn retries_and_repair_never_oversubscribe_round_capacity() {
    let repair_budget = 2u32;
    for seed in [11u64, 29, 47] {
        let sys = homogeneous(24, 2.0, 4, 3, 12, seed);
        let mut sim = Simulator::new(&sys, SimConfig::new(50).continue_on_failure());
        sim.attach_faults(
            FaultModel::new(sys.boxes(), seed ^ 0xFA17)
                .with_degradation(0.08, vec![25, 50], 1, 3)
                .with_flapping(0.04, 1, 2)
                .with_drop_rate(90_000, 30_000)
                .with_drop_surges(0.05, 200_000, 1, 2),
        );
        sim.attach_delivery(DeliveryPolicy::default());
        sim.attach_repair(RepairPlanner::for_system(&sys, repair_budget));
        let mut gen = SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.3, seed);
        let report = sim.run(&mut gen);

        let mut failures = 0u64;
        let mut retries = 0u64;
        let mut abandoned = 0u64;
        for m in &report.rounds {
            let d = m.delivery.as_ref().expect("delivery tracker attached");
            assert!(
                d.scheduled as u64 <= m.upload_slots_available,
                "seed {seed} round {}: scheduled {} connections with only {} upload slots",
                m.round,
                d.scheduled,
                m.upload_slots_available
            );
            assert_eq!(
                d.delivered + d.dropped + d.timed_out,
                d.scheduled,
                "seed {seed} round {}: every scheduled connection resolves exactly once",
                m.round
            );
            failures += (d.dropped + d.timed_out) as u64;
            retries += d.retries as u64;
            abandoned += d.abandoned as u64;
            assert!(
                retries <= failures,
                "seed {seed} round {}: {retries} retries cannot exceed {failures} failures",
                m.round
            );
            assert!(
                abandoned <= failures,
                "seed {seed} round {}: {abandoned} abandonments cannot exceed {failures} failures",
                m.round
            );
            if let Some(r) = &m.repair {
                assert!(
                    r.budget_slots <= repair_budget,
                    "seed {seed} round {}: repair spent {} slots with budget {repair_budget}",
                    m.round,
                    r.budget_slots
                );
            }
        }
        let summary = report.delivery.as_ref().expect("delivery summary present");
        assert!(
            summary.dropped + summary.timed_out > 0,
            "seed {seed}: the hazard rates must actually exercise failures"
        );
    }
}

/// Against a 100%-drop hazard, the tracker's backoff waits follow
/// `min(2^(k-1), cap)` exactly (a failed stream is suppressed for one round
/// fewer than its wait, then re-enters as a retry), and every stream is
/// abandoned after at most `max_attempts + 1` failures within the deadline
/// horizon — retries can never live forever.
#[test]
fn backoff_waits_double_to_the_cap_and_abandonment_is_bounded() {
    for (max_attempts, backoff_cap, deadline) in [(3u32, 4u64, 60u64), (6, 8, 24), (5, 2, 40)] {
        let policy = DeliveryPolicy {
            max_attempts,
            backoff_cap,
            deadline,
        };
        let mut t = DeliveryTracker::new(policy);
        t.set_hazards(0xBEEF, 1_000_000, 0); // every resolution drops
        let (v, s) = (BoxId(0), StripeId::new(VideoId(0), 0));

        let mut gaps: Vec<u64> = Vec::new();
        let mut suppressed_since_attempt = 0u64;
        let mut failures = 0u32;
        let mut abandoned = 0usize;
        let mut now = 0u64;
        let horizon = 4 * (deadline + backoff_cap * (max_attempts as u64 + 2));
        while abandoned == 0 {
            assert!(
                now < horizon,
                "policy ({max_attempts},{backoff_cap},{deadline}): stream not abandoned after {now} rounds"
            );
            t.begin_round(now);
            match t.admit(v, s, now) {
                Admission::Emit | Admission::Retry => {
                    if failures > 0 {
                        gaps.push(suppressed_since_attempt);
                    }
                    suppressed_since_attempt = 0;
                    assert_eq!(t.resolve(v, s, now), DeliveryOutcome::Dropped);
                    failures += 1;
                }
                Admission::Suppress => suppressed_since_attempt += 1,
            }
            abandoned += t.round_stats().abandoned;
            now += 1;
        }
        assert!(
            failures <= max_attempts + 1,
            "policy ({max_attempts},{backoff_cap},{deadline}): {failures} failures before abandonment"
        );
        for (k, gap) in gaps.iter().enumerate() {
            let wait = (1u64 << k).min(backoff_cap);
            assert_eq!(
                *gap,
                wait - 1,
                "policy ({max_attempts},{backoff_cap},{deadline}): failure {} should wait {wait} rounds",
                k + 1
            );
        }
    }
}

/// An adversarial load that oscillates between total failure and perfect
/// service — the worst case for a threshold controller — never makes the
/// hysteresis flap: consecutive mode switches are always at least
/// `cooldown` rounds apart, for every configuration tried.
#[test]
fn degradation_hysteresis_never_flaps_under_oscillating_load() {
    for (enter_ppm, exit_ppm, window, cooldown) in [
        (100_000u32, 20_000u32, 1usize, 3u64),
        (150_000, 20_000, 2, 1),
        (400_000, 50_000, 2, 4),
    ] {
        let mut controller = DegradationController::new(DegradationConfig {
            enter_ppm,
            exit_ppm,
            window,
            cooldown,
            min_stripes: 0,
        });
        let mut was_degraded = controller.degraded();
        let mut last_switch: Option<u64> = None;
        for now in 0..400u64 {
            controller.begin_round(now);
            // Blocks of four all-unserved rounds then four perfect rounds:
            // the windowed ratio swings across both thresholds repeatedly.
            let unserved = if (now / 4) % 2 == 0 { 100 } else { 0 };
            controller.note_round(now, 100, unserved);
            if controller.degraded() != was_degraded {
                if let Some(prev) = last_switch {
                    assert!(
                        now - prev >= cooldown,
                        "config ({enter_ppm},{exit_ppm},{window},{cooldown}): \
                         switched at {prev} and again at {now}"
                    );
                }
                last_switch = Some(now);
                was_degraded = controller.degraded();
            }
        }
        assert!(
            controller.switches() >= 2,
            "config ({enter_ppm},{exit_ppm},{window},{cooldown}): \
             the oscillation must provoke both entry and exit"
        );
    }
}

/// A report serialized before the fault-era fields existed — no
/// `delivery`, no `degradation`, no `fault_slots_lost` — parses to the
/// same report with `None` / zero defaults. Verified by stripping exactly
/// those keys from a freshly serialized report and re-parsing.
#[test]
fn reports_serialized_before_fault_tracking_still_parse() {
    use p2p_vod::core::JsonCodec;
    use p2p_vod::sim::SimulationReport;

    // A starved plain run: failures are present (pinning the
    // `fault_slots_lost` default path) but no delivery tracker is attached.
    let sys = homogeneous(12, 0.5, 4, 2, 8, 5);
    let mut gen = SequentialViewing::new(12, sys.m(), NextVideoPolicy::RoundRobin, 1.3, 7);
    let report = Simulator::new(&sys, SimConfig::new(20).continue_on_failure()).run(&mut gen);
    assert!(!report.failures.is_empty(), "starved system must fail");
    assert!(report
        .failures
        .iter()
        .all(|f| f.cause() == "allocation" && f.fault_slots_lost == 0));
    assert!(report
        .rounds
        .iter()
        .all(|r| r.delivery.is_none() && r.degradation.is_none()));

    let text = report.to_json_string();
    let legacy = text
        .replace("\"delivery\":null,", "")
        .replace("\"degradation\":null,", "")
        .replace(",\"fault_slots_lost\":0", "");
    assert_ne!(text, legacy, "the fault-era keys must have been serialized");
    let parsed = SimulationReport::from_json_str(&legacy).expect("legacy report parses");
    assert_eq!(parsed, report, "defaults must reconstruct the same report");

    // And a faulted report round-trips unchanged with the fields present.
    let faulted_sys = homogeneous(16, 2.0, 4, 3, 10, 9);
    let mut sim = Simulator::new(&faulted_sys, SimConfig::new(30).continue_on_failure());
    sim.attach_faults(
        FaultModel::new(faulted_sys.boxes(), 0xFA17)
            .with_degradation(0.05, vec![25, 50], 1, 3)
            .with_drop_rate(80_000, 20_000),
    );
    sim.attach_delivery(DeliveryPolicy::default());
    sim.attach_degradation(DegradationConfig::default());
    let mut gen = SequentialViewing::new(16, faulted_sys.m(), NextVideoPolicy::RoundRobin, 1.3, 3);
    let faulted = sim.run(&mut gen);
    assert!(faulted.rounds.iter().all(|r| r.delivery.is_some()));
    let back = SimulationReport::from_json_str(&faulted.to_json_string()).unwrap();
    assert_eq!(
        back, faulted,
        "fault-era reports round-trip bit-identically"
    );
}

/// Failures caused by an injected outage are attributed to it: a system
/// that serves cleanly fault-free fails with `cause() == "fault-degraded"`
/// (and a positive `fault_slots_lost`) when a correlated stall window
/// removes most of its upload capacity mid-run.
#[test]
fn outage_failures_are_fault_attributed() {
    let sys = homogeneous(24, 2.0, 4, 3, 12, 17);
    let run = |outage: bool| {
        let mut sim = Simulator::new(&sys, SimConfig::new(30).continue_on_failure());
        let mut gen = SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
        for _ in 0..30 {
            if outage && sim.round() == 10 {
                for idx in 0..sys.n() * 3 / 4 {
                    sim.apply_fault(FaultEvent::Stalled {
                        box_id: BoxId(idx as u32),
                        until: 16,
                    });
                }
            }
            sim.step(&mut gen);
        }
        sim.into_report()
    };
    let clean = run(false);
    assert!(
        clean.failures.is_empty(),
        "the fleet must serve cleanly without the outage"
    );
    let faulted = run(true);
    assert!(
        !faulted.failures.is_empty(),
        "a 3/4-fleet stall must starve some round"
    );
    for f in &faulted.failures {
        assert!(
            (10..16).contains(&f.round),
            "failures only inside the outage window, got round {}",
            f.round
        );
        assert_eq!(f.cause(), "fault-degraded");
        assert!(f.fault_slots_lost > 0);
    }
}

/// Retry with backoff and the degradation controller bring service back
/// after a correlated outage: on an at-threshold system with storage
/// headroom (catalog at 3/5 of `⌊d·n/k⌋`), 3n/4 boxes stall for rounds
/// 26..32 on top of a sustained 2 % connection-drop hazard. The controller
/// must engage, the drop hazard must fire and be retried, and from round 40
/// on the retrying run must serve at least 95 % of what the fault-free run
/// serves, while the run that abandons on the first drop serves strictly
/// less.
#[test]
fn retry_and_degradation_recover_service_after_an_outage() {
    let n = 32;
    let params = SystemParams::new(n, 2.0, 4, 4, 3, 1.3, 12);
    let mut rng = StdRng::seed_from_u64(0x2009);
    let sys = VideoSystem::homogeneous_with_catalog(
        params,
        (4 * n / 3) * 3 / 5,
        &RandomPermutationAllocator::new(3),
        &mut rng,
    )
    .unwrap();
    let (rounds, outage_start, outage_end, recover_from) = (80, 26, 32, 40);
    let run = |policy: Option<DeliveryPolicy>| {
        let mut sim = Simulator::new(&sys, SimConfig::new(rounds).continue_on_failure());
        if let Some(policy) = policy {
            sim.attach_faults(FaultModel::new(sys.boxes(), 0xFA17).with_drop_rate(20_000, 0));
            sim.attach_delivery(policy);
            sim.attach_degradation(DegradationConfig::default());
        }
        let mut gen = SequentialViewing::new(n, sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
        for _ in 0..rounds {
            if policy.is_some() && sim.round() == outage_start {
                for idx in 0..n * 3 / 4 {
                    sim.apply_fault(FaultEvent::Stalled {
                        box_id: BoxId(idx as u32),
                        until: outage_end,
                    });
                }
            }
            sim.step(&mut gen);
        }
        let report = sim.into_report();
        let post: u64 = report
            .rounds
            .iter()
            .filter(|r| r.round >= recover_from)
            .map(|r| r.served as u64)
            .sum();
        (post, report.delivery.unwrap_or_default())
    };
    let (baseline, _) = run(None);
    let (resilient, delivery) = run(Some(DeliveryPolicy::default()));
    let (fragile, _) = run(Some(DeliveryPolicy::no_retry()));
    assert!(
        delivery.degraded_rounds > 0,
        "the outage never engaged the degradation controller"
    );
    assert!(
        delivery.dropped > 0 && delivery.retries > 0,
        "the drop hazard never fired or was never retried"
    );
    assert!(
        resilient as f64 >= 0.95 * baseline as f64,
        "retry + degradation recovered {resilient} of the baseline's {baseline} post-outage (need ≥ 95 %)"
    );
    assert!(
        fragile < resilient,
        "no-retry recovered {fragile}, not less than retry's {resilient}"
    );
}
