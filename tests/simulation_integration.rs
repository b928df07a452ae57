//! Cross-crate integration tests of the simulator: scheduler comparisons,
//! heterogeneous relaying, workload admissibility, and serialization of the
//! experiment artefacts.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn homogeneous(n: usize, u: f64, c: u16, k: u32, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, u, 8, c, k, 1.3, duration);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(k), &mut rng).unwrap()
}

/// The max-flow scheduler never serves fewer request-rounds than the greedy
/// or random baselines on the same system and demand seed.
#[test]
fn maxflow_scheduler_dominates_baselines() {
    let sys = homogeneous(24, 1.3, 4, 2, 24, 31);
    let run = |scheduler: Box<dyn Scheduler>| {
        let mut gen = SequentialViewing::new(24, sys.m(), NextVideoPolicy::RoundRobin, 1.3, 5);
        Simulator::with_scheduler(&sys, SimConfig::new(40).continue_on_failure(), scheduler)
            .run(&mut gen)
    };
    let mf = run(Box::new(MaxFlowScheduler::new()));
    let greedy = run(Box::new(GreedyScheduler::new()));
    let random = run(Box::new(RandomScheduler::new(1)));
    assert!(mf.total_served() >= greedy.total_served());
    assert!(mf.total_served() >= random.total_served());
    assert!(mf.service_ratio() >= greedy.service_ratio());
}

/// A u*-balanced heterogeneous fleet (poor DSL boxes + rich fibre boxes)
/// survives the poor-boxes-pile-on attack via relaying.
#[test]
fn heterogeneous_relaying_serves_pile_on_attack() {
    let c: u16 = 8;
    let mut uploads = vec![0.6f64; 12];
    uploads.extend(vec![2.6f64; 12]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let u_star = Bandwidth::from_streams(1.2);

    let catalog = Catalog::uniform(30, 40, c);
    let params = SystemParams::new(n, 1.6, d_avg.round() as u32, c, 3, 1.2, 40);
    let mut rng = StdRng::seed_from_u64(8);
    let system = VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(3),
        Some(u_star),
        &mut rng,
    )
    .unwrap();

    // Every poor box has a relay, and relays retain at least u* of open
    // capacity after reservations.
    let plan = system.compensation().unwrap();
    assert_eq!(plan.covered_poor(), 12);
    for (_, relay) in plan.assignments() {
        assert!(system.available_upload(relay) >= u_star);
    }

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
    let report = Simulator::new(&system, SimConfig::new(80)).run(&mut attack);
    assert!(
        report.all_rounds_feasible(),
        "relayed fleet failed: {:?}",
        report.failures.first()
    );
    // Poor boxes pay the doubled-time-scale start-up delay (5 rounds).
    assert!(report.max_startup_delay() >= 5);
}

/// Every demand trace produced by the built-in generators respects the swarm
/// growth bound they were configured with, and the simulator accepts at most
/// one concurrent video per box.
#[test]
fn generated_traces_are_admissible() {
    let n = 40;
    let mu = 1.4;
    let mut flash = FlashCrowd::single(VideoId(0), n, 50, mu, 3);
    let trace = DemandTrace::record(&mut flash, 30, n, 25);
    assert!(trace.verify_growth(mu).is_ok());

    let mut zipf = ZipfDemand::new(50, 0.9, 6, mu, 4);
    let trace = DemandTrace::record(&mut zipf, 30, n, 25);
    assert!(trace.verify_growth(mu).is_ok());

    let mut seq = SequentialViewing::new(n, 50, NextVideoPolicy::UniformRandom, mu, 5);
    let trace = DemandTrace::record(&mut seq, 30, n, 25);
    assert!(trace.verify_growth(mu).is_ok());
    // With duration 25 and 30 rounds, a box can start at most twice.
    let mut per_box = std::collections::HashMap::new();
    for d in trace.iter() {
        *per_box.entry(d.box_id).or_insert(0usize) += 1;
    }
    assert!(per_box.values().all(|&count| count <= 2));
}

/// Simulation reports and demand traces serialize to JSON and back without
/// loss (the experiment harness persists both).
#[test]
fn experiment_artefacts_json_round_trip() {
    let sys = homogeneous(12, 2.0, 4, 2, 15, 17);
    let mut gen = SequentialViewing::new(12, sys.m(), NextVideoPolicy::RoundRobin, 1.3, 2);
    let report = Simulator::new(&sys, SimConfig::new(25)).run(&mut gen);
    let json = report.to_json_string();
    let back = SimulationReport::from_json_str(&json).unwrap();
    assert_eq!(report, back);

    let mut flash = FlashCrowd::single(VideoId(1), 8, sys.m(), 1.3, 1);
    let trace = DemandTrace::record(&mut flash, 10, 12, 15);
    let json = trace.to_json_string();
    let back = DemandTrace::from_json_str(&json).unwrap();
    assert_eq!(trace, back);

    // The system itself (parameters + placement) round-trips too.
    let json = sys.to_json_string();
    let back = VideoSystem::from_json_str(&json).unwrap();
    assert_eq!(sys, back);
}

/// Monte-Carlo trials, the workload runner, and the analytic machinery agree
/// on an easy instance: zero observed failures, non-vacuous (or at least
/// consistent) first-moment behaviour as k grows.
#[test]
fn montecarlo_and_first_moment_bound_are_consistent() {
    let spec = TrialSpec {
        n: 20,
        u: 2.0,
        d: 8,
        c: 4,
        k: 4,
        mu: 1.3,
        duration: 20,
        rounds: 30,
        catalog: None,
    };
    let est = estimate_failure_probability(&spec, WorkloadKind::FlashCrowd, 4, 55, 2);
    assert_eq!(est.failures, 0);

    // The analytic bound is monotone in k on the same shape of system.
    let bound = |k: u32| {
        first_moment_bound(&BoundParams {
            n: 200,
            m: 100,
            c: 8,
            k,
            u: 2.0,
            mu: 1.3,
        })
    };
    assert!(bound(60) <= bound(20));
    assert!(bound(200) <= bound(60));
}

/// Churn + repair keeps an adversarially-usable allocation: after killing a
/// few boxes and draining the repair queue, every stripe that kept at least
/// one surviving replica is back at the target replication level.
#[test]
fn churn_repair_preserves_feasibility() {
    use rand::Rng;

    let params = SystemParams::new(30, 2.0, 8, 4, 3, 1.3, 25);
    let mut rng = StdRng::seed_from_u64(41);
    // Use a catalog below the storage-saturating d·n/k so the surviving boxes
    // have spare slots to absorb repaired replicas.
    let sys = VideoSystem::homogeneous_with_catalog(
        params,
        60,
        &RandomPermutationAllocator::new(3),
        &mut rng,
    )
    .unwrap();

    // Kill 4 distinct random boxes, stripping them from a live copy of the
    // allocation table and reporting the degraded stripes to the planner.
    let mut placement = sys.placement().clone();
    let mut alive = p2p_vod::flow::BitSet::ones(30);
    let mut planner = RepairPlanner::for_system(&sys, 8);
    let mut killed = 0;
    while killed < 4 {
        let b = BoxId(rng.gen_range(0..30u32));
        if !alive.contains(b.index()) {
            continue;
        }
        alive.unset(b.index());
        planner.note_lost(&placement.remove_box(b));
        killed += 1;
    }

    // Drain the queue under the per-round budget; sources are throttled by
    // their serving capacities exactly as in the engine loop.
    let caps: Vec<u32> = sys
        .boxes()
        .iter()
        .map(|b| b.upload.stripe_slots(4))
        .collect();
    loop {
        let stats = planner.plan_round(&placement, &alive, &caps);
        planner.commit(&mut placement);
        if stats.repaired == 0 {
            assert_eq!(stats.pending, 0, "queue stuck with work left");
            break;
        }
    }

    // Stripes that kept at least one surviving replica are restored to the
    // target level; only stripes that lost every copy land in the lost
    // ledger, and departed boxes hold nothing.
    for stripe in sys.catalog().stripes() {
        if planner.lost().contains(&stripe) {
            assert_eq!(placement.replica_count(stripe), 0);
        } else {
            assert!(placement.replica_count(stripe) >= 3);
        }
        for &holder in placement.holders_of(stripe) {
            assert!(
                alive.contains(holder.index()),
                "departed box still holds {stripe}"
            );
        }
    }
}

/// Relay churn driven *through the engine loop*: boxes leave, rejoin, and
/// change upload mid-run via [`Simulator::apply_churn`], and after every
/// event and every round the engine's slot table agrees with the broker's
/// reservation-adjusted capacities, every present poor box has a live rich
/// relay, and a mirror plan replaying the broker's deltas tracks the
/// broker's plan exactly.
#[test]
fn relay_churn_through_engine_keeps_slot_tables_consistent() {
    let c: u16 = 8;
    let mut uploads = vec![0.6f64; 3];
    uploads.extend(vec![2.6f64; 6]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let u_star = Bandwidth::from_streams(1.2);

    let catalog = Catalog::uniform(6, 30, c);
    let params = SystemParams::new(n, 1.6, d_avg.round() as u32, c, 3, 1.2, 30);
    let mut rng = StdRng::seed_from_u64(17);
    let system = VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(3),
        Some(u_star),
        &mut rng,
    )
    .unwrap();

    let rich_template = *system.boxes().get(BoxId(5));
    let mut sim = Simulator::new(&system, SimConfig::new(40).continue_on_failure());
    let mut gen = SequentialViewing::new(n, system.m(), NextVideoPolicy::RoundRobin, 1.2, 23);
    // Mirror plan: replays every emitted delta; must track the broker.
    let mut mirror = system.compensation().unwrap().clone();

    let check = |sim: &Simulator, mirror: &CompensationPlan, when: &str| {
        let broker = sim.relay_broker().expect("heterogeneous run has a broker");
        broker.validate().unwrap_or_else(|e| panic!("{when}: {e}"));
        assert_eq!(broker.plan(), mirror, "{when}: mirror plan diverged");
        for idx in 0..n {
            let b = BoxId(idx as u32);
            assert_eq!(
                sim.upload_slots(b),
                broker.open_upload_slots(b),
                "{when}: engine slot table stale for box {idx}"
            );
        }
        for (poor, relay) in broker.plan().assignments() {
            let node = broker
                .node(relay)
                .unwrap_or_else(|| panic!("{when}: poor {poor:?} relays via absent {relay:?}"));
            assert!(
                node.upload >= broker.u_star(),
                "{when}: relay {relay:?} is not rich"
            );
        }
        // Every re-plan succeeded: no present poor box is left uncovered.
        for idx in 0..n {
            let b = BoxId(idx as u32);
            if broker
                .node(b)
                .is_some_and(|node| node.upload < broker.u_star())
            {
                assert!(
                    broker.plan().relay(b).is_some(),
                    "{when}: poor {b:?} uncovered"
                );
            }
        }
    };

    let mut applied = 0usize;
    for round in 0..40u64 {
        sim.step(&mut gen);
        check(&sim, &mirror, &format!("after round {round}"));

        let event = match round {
            // A rich box sheds upload (still above u*): reservations must
            // survive on reduced headroom.
            5 => Some(ChurnEvent::UploadChanged(
                BoxId(4),
                Bandwidth::from_streams(1.8),
            )),
            // A relay leaves: its poor boxes migrate to surviving riches.
            12 => Some(ChurnEvent::Left(BoxId(5))),
            // It rejoins fatter and becomes assignable again.
            20 => Some(ChurnEvent::Joined(NodeBox {
                upload: Bandwidth::from_streams(3.0),
                ..rich_template
            })),
            // Another relay drains to poor-level upload: every poor box it
            // covered must migrate away.
            28 => Some(ChurnEvent::UploadChanged(
                BoxId(6),
                Bandwidth::from_streams(0.6),
            )),
            _ => None,
        };
        if let Some(event) = event {
            sim.apply_churn(event);
            for delta in sim.relay_broker().unwrap().last_deltas() {
                mirror.apply_delta(delta);
            }
            applied += 1;
            check(&sim, &mirror, &format!("after event at round {round}"));
        }
    }
    assert_eq!(applied, 4, "every scripted churn event must apply");
    let broker = sim.relay_broker().unwrap();
    assert!(
        broker.migrations() > 0,
        "churn script never exercised a migration"
    );
    // The drained box 6 fell below u* and is itself compensated now.
    assert_eq!(broker.plan().covered_poor(), 4);
}
