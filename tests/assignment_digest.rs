//! Every served assignment of five seeded runs, pinned as one digest each.
//!
//! The runs are the five benchmark shapes at reduced `n`: steady churn with
//! budgeted repair, back-to-back flash crowds, a sparse Zipf fleet, a
//! relayed two-class fleet under faults, delivery retries and partial-service
//! degradation (tail stripes suppressed, then re-emitted), and a handful of
//! threshold-search trials on both sides of `u = 1`. A pass-through
//! scheduler hashes each round's full assignment — every request's key and
//! supplier, in the order the engine collected them — and the run's
//! per-round `served_from_allocation` is folded in at the end.
//!
//! The digests were pinned before the candidate-row memo and the matcher
//! stopped probing hash maps per request: a change to how requests find
//! their class must leave every supplier where it was. A digest that moves
//! is a behaviour change, to be declared and re-pinned with its reason.

use std::cell::RefCell;
use std::rc::Rc;

use p2p_vod::prelude::*;
use p2p_vod::workloads::CrowdSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Passes every round to a [`MaxFlowScheduler`] and hashes what it returned.
struct DigestingScheduler {
    inner: MaxFlowScheduler,
    rounds: Rc<RefCell<Vec<u64>>>,
}

impl Scheduler for DigestingScheduler {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        self.inner.schedule(capacities, candidates)
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.inner
            .schedule_keyed_view(capacities, keys, candidates, out);
        self.rounds
            .borrow_mut()
            .push(p2p_vod::core::fx_hash(&(keys, &out[..])));
    }

    fn name(&self) -> &'static str {
        "digesting max-flow"
    }
}

/// What one run saw, besides its digest.
#[derive(Debug, Default)]
struct Run {
    digest: u64,
    requests: usize,
    served: usize,
    unserved: usize,
    retries: usize,
    suppressed: usize,
    repairs: usize,
}

/// Runs `rounds` rounds of `system` under `demand`, with `setup` attaching
/// the subsystems, and digests every round's assignment.
fn digest_run(
    system: &VideoSystem,
    rounds: u64,
    demand: &mut dyn DemandGenerator,
    setup: impl FnOnce(&mut Simulator<'_>),
) -> Run {
    let per_round = Rc::new(RefCell::new(Vec::new()));
    let scheduler = Box::new(DigestingScheduler {
        inner: MaxFlowScheduler::new(),
        rounds: Rc::clone(&per_round),
    });
    let config = SimConfig::new(rounds).continue_on_failure();
    let mut sim = Simulator::with_scheduler(system, config, scheduler);
    setup(&mut sim);
    for _ in 0..rounds {
        sim.step(demand);
    }
    let report = sim.report_so_far();
    let per_round = per_round.borrow();
    assert_eq!(
        per_round.len(),
        report.rounds.len(),
        "one schedule per round"
    );
    let from_allocation: Vec<usize> = report
        .rounds
        .iter()
        .map(|r| r.served_from_allocation)
        .collect();
    let mut run = Run {
        digest: p2p_vod::core::fx_hash(&(&per_round[..], &from_allocation)),
        ..Run::default()
    };
    for r in &report.rounds {
        run.requests += r.active_requests;
        run.served += r.served;
        run.unserved += r.unserved;
        run.retries += r.delivery.map_or(0, |d| d.retries);
        run.suppressed += r.degradation.map_or(0, |d| d.suppressed_stripes);
        run.repairs += r.repair.map_or(0, |s| s.repaired);
    }
    run
}

fn check(label: &str, run: &Run, pinned: u64) {
    assert_eq!(
        run.digest, pinned,
        "{label}: assignment digest {:#018x} ({run:?})",
        run.digest
    );
}

#[test]
fn steady_churn_assignments_are_pinned() {
    let n = 256;
    let params = SystemParams::new(n, 2.0, 4, 4, 3, 1.3, 16);
    let catalog = (4 * n / 3) * 3 / 5;
    let mut rng = StdRng::seed_from_u64(11);
    let system = VideoSystem::homogeneous_with_catalog(
        params,
        catalog,
        &RandomPermutationAllocator::new(3),
        &mut rng,
    )
    .unwrap();
    let mut demand = SequentialViewing::new(n, system.m(), NextVideoPolicy::RoundRobin, 1.3, 12);
    let run = digest_run(&system, 160, &mut demand, |sim| {
        sim.attach_churn(
            ChurnModel::new(system.boxes(), 13)
                .with_session(SessionLength::Geometric { leave_rate: 0.01 })
                .with_crash_rate(0.003)
                .with_rejoin_delay(1, 2)
                .with_min_up(n - n / 16),
        );
        sim.attach_repair(RepairPlanner::for_system(&system, (n / 4) as u32));
    });
    assert!(run.repairs > 0, "{run:?}");
    check("steady-churn", &run, STEADY_CHURN);
}

#[test]
fn flash_crowd_assignments_are_pinned() {
    let n = 192;
    let params = SystemParams::new(n, 2.0, 8, 6, 4, 1.5, 40);
    let mut rng = StdRng::seed_from_u64(21);
    let system =
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap();
    let crowds = (0..3u32)
        .map(|i| CrowdSpec {
            video: VideoId(i),
            start_round: i as u64 * 45,
            max_viewers: n / 3,
        })
        .collect();
    let mut demand = FlashCrowd::staggered(crowds, system.m(), 1.5, 22);
    let run = digest_run(&system, 145, &mut demand, |_| {});
    assert!(run.served > 0, "{run:?}");
    check("flash-crowd", &run, FLASH_CROWD);
}

#[test]
fn sparse_fleet_assignments_are_pinned() {
    let params = SystemParams::new(16_384, 2.0, 4, 4, 3, 1.3, 16);
    let mut rng = StdRng::seed_from_u64(31);
    let system =
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(3), &mut rng).unwrap();
    let mut demand = ZipfDemand::new(system.m(), 0.8, 32, 1.3, 32);
    let run = digest_run(&system, 96, &mut demand, |_| {});
    assert!(run.served > 0, "{run:?}");
    check("sparse-fleet", &run, SPARSE_FLEET);
}

#[test]
fn relayed_fleet_with_faults_retries_and_degradation_assignments_are_pinned() {
    let c: u16 = 8;
    let k = 3u32;
    let duration = 40;
    let mut uploads = vec![0.6f64; 64];
    uploads.extend(vec![3.6f64; 64]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let catalog = Catalog::uniform(
        ((d_avg * n as f64) / k as f64).floor() as usize,
        duration,
        c,
    );
    let params = SystemParams::new(
        n,
        boxes.average_upload(),
        d_avg.round().max(1.0) as u32,
        c,
        k,
        1.2,
        duration,
    );
    let mut rng = StdRng::seed_from_u64(41);
    let system = VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        Some(Bandwidth::from_streams(1.2)),
        &mut rng,
    )
    .unwrap();
    let poor = system.boxes().poor_ids(Bandwidth::from_streams(1.2));
    let mut demand = MultiSwarmChurn::new(system.m(), 8, 24, 1.2, 42)
        .with_rotation(6)
        .with_priority_boxes(poor);
    let run = digest_run(&system, 160, &mut demand, |sim| {
        sim.attach_faults(
            FaultModel::new(system.boxes(), 43)
                .with_degradation(0.2, vec![0, 25], 2, 8)
                .with_drop_rate(60_000, 20_000),
        );
        sim.attach_delivery(DeliveryPolicy::default());
        sim.attach_degradation(DegradationConfig {
            min_stripes: 2,
            ..DegradationConfig::default()
        });
    });
    assert!(run.retries > 0, "no delivery retry: {run:?}");
    assert!(run.suppressed > 0, "no stripe suppressed: {run:?}");
    check("relay-faults", &run, RELAY_FAULTS);
}

#[test]
fn threshold_search_trial_assignments_are_pinned() {
    let mut digests = Vec::new();
    for (i, &u) in [0.8, 1.0, 1.5].iter().enumerate() {
        for (f, family) in [
            WorkloadKind::NeverOwned,
            WorkloadKind::FlashCrowd,
            WorkloadKind::Sequential,
        ]
        .into_iter()
        .enumerate()
        {
            let seed = 50 + 10 * i as u64 + f as u64;
            let n = 64;
            let params = SystemParams::new(n, u, 8, 4, 4, 1.3, 24);
            let mut rng = StdRng::seed_from_u64(seed);
            let system = VideoSystem::homogeneous_with_catalog(
                params,
                params.catalog_size(),
                &RandomPermutationAllocator::new(4),
                &mut rng,
            )
            .unwrap();
            let mut demand: Box<dyn DemandGenerator> = match family {
                WorkloadKind::FlashCrowd => {
                    Box::new(FlashCrowd::single(VideoId(0), n, system.m(), 1.3, seed))
                }
                WorkloadKind::Sequential => Box::new(SequentialViewing::new(
                    n,
                    system.m(),
                    NextVideoPolicy::RoundRobin,
                    1.3,
                    seed,
                )),
                WorkloadKind::NeverOwned => Box::new(NeverOwnedAttack::new(
                    system.placement(),
                    system.catalog(),
                    1.3,
                )),
            };
            digests.push(digest_run(&system, 80, demand.as_mut(), |_| {}).digest);
        }
    }
    let digest = p2p_vod::core::fx_hash(&digests);
    assert_eq!(
        digest, THRESHOLD_SEARCH,
        "threshold-search digest {digest:#018x}"
    );
}

const STEADY_CHURN: u64 = 0x3f70_e71b_1c90_b749;
const FLASH_CROWD: u64 = 0x19c7_a589_b902_9068;
const SPARSE_FLEET: u64 = 0x03c8_b1f8_abb9_dfbd;
const RELAY_FAULTS: u64 = 0xe8af_cc8c_28bd_1c00;
const THRESHOLD_SEARCH: u64 = 0x41a8_cd6b_1d66_623e;
