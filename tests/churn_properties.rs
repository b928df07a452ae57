//! Live-population properties: the churn model, the stripe repair planner,
//! and the engine loop that ties them together.
//!
//! The paper's threshold analysis assumes a static box population; the live
//! engine relaxes that with seeded churn and budgeted repair. These tests
//! pin the invariants the relaxation must keep:
//!
//! * **budget discipline** — repair upload never exceeds its per-round
//!   budget or the `⌊u_b·c⌋` Lemma-1 slot budgets it shares with serving
//!   traffic;
//! * **monotone recovery** — absent further departures, the set of
//!   under-replicated stripes only shrinks, round over round;
//! * **scheduler invariance** — the repair trajectory (stats, placement,
//!   totals) and every round's state signature are bit-identical across
//!   the engine under the matcher and under the textbook `NaiveScheduler`;
//! * **resilience** — with budgeted repair a churned run serves within 5 %
//!   of the static run, and without repair it serves less;
//! * **compensation validity** — after relays and poor boxes churn out, the
//!   broker's live plan still validates against the surviving population
//!   and the repaired placement stays within storage and liveness bounds.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn homogeneous(n: usize, u: f64, c: u16, k: u32, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, u, 8, c, k, 1.3, duration);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(k), &mut rng).unwrap()
}

fn viewing(sys: &VideoSystem, seed: u64) -> SequentialViewing {
    SequentialViewing::new(sys.n(), sys.m(), NextVideoPolicy::RoundRobin, 1.3, seed)
}

/// Repair upload obeys every budget at once: the per-round cap and the
/// static `⌊u_b·c⌋` slot budgets the scheduler shares — on every round of
/// a churned run.
#[test]
fn repair_never_oversubscribes_lemma1_budgets() {
    let sys = homogeneous(24, 2.0, 4, 3, 12, 11);
    let churn = ChurnModel::new(sys.boxes(), 5)
        .with_session(SessionLength::Geometric { leave_rate: 0.04 })
        .with_rejoin_delay(2, 5)
        .with_min_up(16);
    let round_budget = 3;
    let mut sim = Simulator::new(&sys, SimConfig::new(40).continue_on_failure());
    sim.attach_churn(churn);
    sim.attach_repair(RepairPlanner::for_system(&sys, round_budget));
    let mut gen = viewing(&sys, 11);
    let mut repaired_rounds = 0usize;
    for _ in 0..40 {
        sim.step(&mut gen);
        let stats = sim
            .report_so_far()
            .rounds
            .last()
            .and_then(|r| r.repair)
            .expect("repair attached: every round carries stats");
        assert!(stats.budget_slots <= round_budget, "round budget exceeded");
        assert_eq!(stats.budget_slots as usize, stats.repaired);
        let planner = sim.repair_planner().expect("attached");
        let egress_total: u32 = planner.egress().iter().sum();
        assert_eq!(egress_total, stats.budget_slots, "egress must equal plan");
        for (idx, &egress) in planner.egress().iter().enumerate() {
            assert!(
                egress <= sys.upload_slots(BoxId(idx as u32)),
                "box {idx} repairs beyond its ⌊u_b·c⌋ slots"
            );
        }
        if stats.repaired > 0 {
            repaired_rounds += 1;
        }
    }
    assert!(repaired_rounds > 0, "churn never triggered repair");
}

/// With departures scripted up-front and none afterwards, the pending queue
/// is monotonically non-increasing and drains to empty.
#[test]
fn under_replication_only_shrinks_absent_departures() {
    // Half the `⌊d·n/k⌋` catalog point: the default allocation saturates
    // storage, leaving repair nowhere to put replicas — recovery needs
    // spare slots on the survivors.
    let params = SystemParams::new(20, 2.0, 8, 4, 3, 1.3, 10);
    let mut rng = StdRng::seed_from_u64(23);
    let sys = VideoSystem::homogeneous_with_catalog(
        params,
        26,
        &RandomPermutationAllocator::new(3),
        &mut rng,
    )
    .unwrap();
    let mut sim = Simulator::new(&sys, SimConfig::new(30).continue_on_failure());
    sim.attach_repair(RepairPlanner::for_system(&sys, 2));
    for b in [3u32, 8, 14] {
        sim.apply_churn(ChurnEvent::Left(BoxId(b)));
    }
    let mut gen = viewing(&sys, 23);
    let mut last_pending = usize::MAX;
    for _ in 0..30 {
        sim.step(&mut gen);
        let stats = sim
            .report_so_far()
            .rounds
            .last()
            .and_then(|r| r.repair)
            .expect("repair attached");
        assert!(
            stats.pending <= last_pending,
            "pending grew {last_pending} → {} with no departure",
            stats.pending
        );
        last_pending = stats.pending;
    }
    assert_eq!(
        last_pending, 0,
        "budget 2 over 30 rounds must drain the queue"
    );
    // Every repairable stripe is back at target; only stripes whose last
    // replica departed (possible when duplicate allocator draws left them
    // thin) sit in the lost ledger, with nothing to copy from.
    let planner = sim.repair_planner().unwrap();
    let lost = planner.lost();
    for stripe in sys.catalog().stripes() {
        let replicas = sim.live_placement().replica_count(stripe);
        if lost.contains(&stripe) {
            assert_eq!(replicas, 0, "lost stripe {stripe} has survivors");
        } else {
            assert!(
                replicas >= 3,
                "stripe {stripe} stuck at {replicas} replicas"
            );
        }
    }
}

/// The repair trajectory is a pure function of scheduler-invariant state:
/// both schedulers (the matcher, naive) walk through identical
/// state signatures and produces identical per-round repair stats,
/// identical placements, and identical totals.
#[test]
fn repair_trajectory_is_identical_across_pipelines() {
    let sys = homogeneous(18, 2.2, 4, 3, 10, 31);
    let rounds = 30u64;
    let run = |mut sim: Simulator| {
        let churn = ChurnModel::new(sys.boxes(), 13)
            .with_session(SessionLength::Geometric { leave_rate: 0.05 })
            .with_crash_rate(0.01)
            .with_rejoin_delay(2, 4)
            .with_min_up(12);
        sim.attach_churn(churn);
        sim.attach_repair(RepairPlanner::for_system(&sys, 3));
        let mut gen = viewing(&sys, 31);
        let mut signatures = Vec::new();
        for _ in 0..rounds {
            sim.step(&mut gen);
            signatures.push(sim.state_signature());
        }
        let stats: Vec<RepairRoundStats> = sim
            .report_so_far()
            .rounds
            .iter()
            .map(|r| r.repair.expect("repair attached"))
            .collect();
        let total = sim.repair_planner().unwrap().repaired_total();
        (stats, sim.live_placement().clone(), total, signatures)
    };
    let config = SimConfig::new(rounds).continue_on_failure();
    let reference = run(Simulator::new(&sys, config));
    let naive = run(Simulator::with_scheduler(
        &sys,
        config,
        Box::new(NaiveScheduler::new()),
    ));
    assert_eq!(reference, naive, "naive scheduler drifts");
    assert!(reference.2 > 0, "the run must actually repair something");
}

/// Budgeted repair keeps the Theorem 1 service level under sustained
/// churn: on an at-threshold system with storage headroom (catalog at 3/5
/// of `⌊d·n/k⌋`, so repair has spare slots to re-replicate into), churn
/// with a repair budget of 8 serves at least 95 % of what the static
/// population serves, and the same churn without repair serves strictly
/// less, because its departures strip replicas for good. The churn is mild
/// (~1.5 % of the boxes leave a round and rejoin quickly), so demand stays
/// near the static run's and the comparison isolates replica erosion.
#[test]
fn repair_holds_service_within_five_percent_of_static() {
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
    let rounds = 80;
    let served = |churn: bool, repair: bool| {
        let mut sim = Simulator::new(&sys, SimConfig::new(rounds).continue_on_failure());
        if churn {
            sim.attach_churn(
                ChurnModel::new(sys.boxes(), 41)
                    .with_session(SessionLength::Geometric { leave_rate: 0.012 })
                    .with_crash_rate(0.003)
                    .with_rejoin_delay(1, 2)
                    .with_min_up(n - 4),
            );
        }
        if repair {
            sim.attach_repair(RepairPlanner::for_system(&sys, 8));
        }
        let mut gen = viewing(&sys, 41);
        for _ in 0..rounds {
            sim.step(&mut gen);
        }
        sim.into_report().total_served() as f64
    };
    let statik = served(false, false);
    let repaired = served(true, true) / statik;
    let unrepaired = served(true, false) / statik;
    assert!(
        repaired >= 0.95,
        "churn + repair served {:.1} % of the static run (need ≥ 95 %)",
        repaired * 100.0
    );
    assert!(
        unrepaired < repaired,
        "churn without repair served {:.1} %, not less than with repair ({:.1} %)",
        unrepaired * 100.0,
        repaired * 100.0
    );
}

/// After a relay and a poor box churn out of a u*-compensated fleet, the
/// broker's live plan still validates over the surviving population, and
/// the repaired placement respects storage capacity and liveness.
#[test]
fn post_repair_population_passes_compensation_validation() {
    // Rich spare is 3.6 − u* = 2.4: each relay can absorb two 1.0-stream
    // reservations, so one relay's departure leaves its client coverable.
    let c: u16 = 8;
    let mut uploads = vec![0.6f64; 12];
    uploads.extend(vec![3.6f64; 12]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let u_star = Bandwidth::from_streams(1.2);
    let catalog = Catalog::uniform(24, 40, c);
    let params = SystemParams::new(n, 1.6, d_avg.round() as u32, c, 3, 1.2, 40);
    let mut rng = StdRng::seed_from_u64(8);
    let sys = VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(3),
        Some(u_star),
        &mut rng,
    )
    .unwrap();

    let mut sim = Simulator::new(&sys, SimConfig::new(30).continue_on_failure());
    sim.attach_repair(RepairPlanner::for_system(&sys, 2));
    let mut gen = SequentialViewing::new(n, sys.m(), NextVideoPolicy::RoundRobin, 1.2, 8);
    for round in 0..30u64 {
        // Round 5: a rich relay leaves (its reservations must migrate).
        // Round 9: a poor box leaves (its reservation must be released).
        if round == 5 {
            sim.apply_churn(ChurnEvent::Left(BoxId(20)));
        }
        if round == 9 {
            sim.apply_churn(ChurnEvent::Left(BoxId(2)));
        }
        sim.step(&mut gen);
        let broker = sim.relay_broker().expect("heterogeneous system");
        let alive = sys.boxes().iter().copied().filter(|b| sim.is_alive(b.id));
        broker
            .plan()
            .validate_over(alive)
            .expect("live compensation plan must stay valid under churn");
    }
    // The repaired placement stays balanced: only alive holders, within
    // storage capacity, and never above the target replication level.
    let placement = sim.live_placement();
    for (stripe, holders) in placement.stripes() {
        assert!(
            holders.iter().all(|&b| sim.is_alive(b)),
            "stripe {stripe} kept a departed holder"
        );
        assert!(holders.len() <= 3, "stripe {stripe} over-replicated");
    }
    for b in sys.boxes().ids() {
        if sim.is_alive(b) {
            assert!(
                placement.box_load(b) as u32 <= sys.boxes().get(b).storage.slots(),
                "box {b} repaired beyond its storage"
            );
        } else {
            assert_eq!(
                placement.box_load(b),
                0,
                "departed box {b} still holds data"
            );
        }
    }
    assert!(
        sim.repair_planner().unwrap().repaired_total() > 0,
        "two departures must trigger repair"
    );
}

/// Legal extremes of churn and repair end every round with a report, not a
/// panic: a zero repair budget, survivors with no free storage slot, a
/// churn floor of `n` (nobody may leave), a first departure by a box that
/// caches nothing, a box that leaves, rejoins and leaves again inside one
/// cache window, and every box gone.
#[test]
fn extreme_churn_and_repair_inputs_end_in_reports() {
    let sys = homogeneous(24, 2.0, 4, 3, 12, 31);
    let n = sys.n();
    let last_repair = |sim: &Simulator| {
        sim.report_so_far()
            .rounds
            .last()
            .and_then(|r| r.repair)
            .expect("repair attached: every round carries stats")
    };
    let churn = |min_up: usize| {
        ChurnModel::new(sys.boxes(), 41)
            .with_session(SessionLength::Geometric { leave_rate: 0.05 })
            .with_rejoin_delay(1000, 1000)
            .with_min_up(min_up)
    };

    // A zero budget, and survivors whose storage is full (a departed box
    // rejoins empty, so none rejoins in the run): everything defers.
    let loads: Vec<u32> = (0..n)
        .map(|b| sys.placement().box_load(BoxId(b as u32)) as u32)
        .collect();
    for planner in [
        RepairPlanner::for_system(&sys, 0),
        RepairPlanner::new(loads, 3, 8),
    ] {
        let mut sim = Simulator::new(&sys, SimConfig::new(30).continue_on_failure());
        sim.attach_churn(churn(16));
        sim.attach_repair(planner);
        let mut gen = viewing(&sys, 41);
        let mut deferred = 0;
        for _ in 0..30 {
            sim.step(&mut gen);
            let stats = last_repair(&sim);
            assert_eq!((stats.repaired, stats.budget_slots), (0, 0));
            assert_eq!(stats.deferred, stats.pending);
            deferred += stats.deferred;
        }
        assert!(deferred > 0, "churn never left a stripe to defer");
    }

    // A floor of n: the most eager churn model removes nobody.
    let mut sim = Simulator::new(&sys, SimConfig::new(20).continue_on_failure());
    sim.attach_churn(
        ChurnModel::new(sys.boxes(), 43)
            .with_session(SessionLength::Geometric { leave_rate: 1.0 })
            .with_crash_rate(1.0)
            .with_min_up(n),
    );
    sim.attach_repair(RepairPlanner::for_system(&sys, 4));
    let mut gen = viewing(&sys, 43);
    for _ in 0..20 {
        sim.step(&mut gen);
        assert!((0..n).all(|b| sim.is_alive(BoxId(b as u32))));
        assert_eq!(last_repair(&sim).lost, 0);
    }

    // The run's first departure holds nothing; later a box leaves, rejoins
    // and leaves again while its cache entries are still in the window.
    let mut sim = Simulator::new(&sys, SimConfig::new(60).continue_on_failure());
    sim.attach_repair(RepairPlanner::for_system(&sys, 4));
    let mut gen = viewing(&sys, 47);
    sim.apply_churn(ChurnEvent::Left(BoxId(5)));
    sim.apply_churn(ChurnEvent::Joined(*sys.boxes().get(BoxId(5))));
    for _ in 0..4 {
        sim.step(&mut gen);
    }
    for _ in 0..3 {
        sim.apply_churn(ChurnEvent::Left(BoxId(7)));
        sim.step(&mut gen);
        sim.apply_churn(ChurnEvent::Joined(*sys.boxes().get(BoxId(7))));
        sim.step(&mut gen);
        sim.step(&mut gen);
    }
    assert!(sim.is_alive(BoxId(7)));
    assert!(sim.repair_planner().unwrap().repaired_total() > 0);

    // Every box leaves: each stripe's last replica goes and moves to `lost`.
    for b in 0..n {
        sim.apply_churn(ChurnEvent::Left(BoxId(b as u32)));
    }
    for _ in 0..3 {
        sim.step(&mut gen);
        let stats = last_repair(&sim);
        assert_eq!((stats.pending, stats.repaired), (0, 0));
        assert_eq!(stats.lost, sys.catalog().stripe_count());
    }
    assert_eq!(sim.live_placement().stripes().count(), 0);
}
