//! Candidate-pipeline equivalence gate: the expiry-wheel [`CandidateIndex`]
//! and the flat CSR candidate plumbing must be *invisible* — bit-identical
//! candidate rows, schedules, and reports compared to the legacy full-rescan
//! pipeline and the legacy slice-of-vecs scheduler entry points.
//!
//! * seeded property loops drive the incremental index against a
//!   brute-force model of the legacy structures (per-box playback caches +
//!   full `retain` sweep) through churny rounds — joins, refreshes,
//!   evictions, far-future starts — asserting the per-stripe holder lists
//!   agree in content *and order* every round, and that the change-stamp
//!   contract holds (equal stamp ⇒ identical list);
//! * full-simulator runs compare [`CandidateMode::Rescan`] against the
//!   default incremental mode across workloads (sequential, flash crowd,
//!   multi-swarm churn) and schedulers (max-flow, the naive reference),
//!   including a heterogeneous fleet with relayed requesters —
//!   entire [`SimulationReport`]s must be equal (equality ignores only the
//!   candidate build wall-clock);
//! * the [`Scheduler`] trait's CSR entry points are checked against the
//!   slice-of-vecs forms: a bridged scheduler that only implements the
//!   legacy methods (exercising the default-impl bridge) schedules
//!   bit-identically to the native view path, and content-hash change
//!   stamps never alter an incremental matcher's schedule.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

const SEEDS: u64 = 8;

// ---------------------------------------------------------------------------
// Index vs brute-force model
// ---------------------------------------------------------------------------

/// The legacy candidate structures, maintained exactly like the
/// pre-incremental engine: per-box caches swept in full every round plus an
/// insertion-ordered per-stripe index with linear membership scans.
#[derive(Default)]
struct LegacyModel {
    caches: HashMap<u32, PlaybackCache>,
    index: HashMap<StripeId, Vec<BoxId>>,
}

impl LegacyModel {
    fn begin_round(&mut self, now: u64, window: u64) {
        for cache in self.caches.values_mut() {
            cache.evict_older_than(now, window);
        }
        let caches = &self.caches;
        self.index.retain(|stripe, boxes| {
            boxes.retain(|b| {
                caches
                    .get(&b.0)
                    .is_some_and(|cache| cache.start_of(*stripe).is_some())
            });
            !boxes.is_empty()
        });
    }

    fn insert(&mut self, stripe: StripeId, box_id: BoxId, start: u64) {
        self.caches
            .entry(box_id.0)
            .or_default()
            .insert(stripe, start);
        let entry = self.index.entry(stripe).or_default();
        if !entry.contains(&box_id) {
            entry.push(box_id);
        }
    }

    /// The holder list of `stripe` with current starts, in index order.
    fn holders(&self, stripe: StripeId) -> Vec<(BoxId, u64)> {
        self.index
            .get(&stripe)
            .map(|boxes| {
                boxes
                    .iter()
                    .map(|b| (*b, self.caches[&b.0].start_of(stripe).unwrap()))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn live_entries(&self) -> usize {
        self.caches.values().map(PlaybackCache::len).sum()
    }
}

/// The incremental index agrees with the brute-force legacy model on every
/// stripe's holder list — content and order — across churny rounds, and its
/// change stamps never claim "unchanged" across an actual change.
#[test]
fn index_matches_brute_force_recompute_under_churn() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xCA17D + seed);
        let window = rng.gen_range(3u64..12);
        let c = rng.gen_range(1u16..5);
        let videos = rng.gen_range(1u32..5);
        let boxes = rng.gen_range(2u32..10);
        let mut index = CandidateIndex::new(window, c);
        let mut model = LegacyModel::default();
        // Remembered (stamp, list) per stripe for the stamp contract.
        let mut last_seen: HashMap<StripeId, (u64, Vec<(BoxId, u64)>)> = HashMap::new();

        for now in 0u64..60 {
            index.begin_round(now);
            model.begin_round(now, window);

            // Random churn: joins (sometimes with future starts, mirroring
            // postponed/relayed activation), refreshes of existing entries.
            for _ in 0..rng.gen_range(0usize..6) {
                let stripe = StripeId::new(VideoId(rng.gen_range(0..videos)), rng.gen_range(0..c));
                let box_id = BoxId(rng.gen_range(0..boxes));
                let start = now + rng.gen_range(0u64..4);
                index.insert(stripe, box_id, start, now);
                model.insert(stripe, box_id, start);
            }

            // Bit-identical per-stripe lists, both ways.
            for video in 0..videos {
                for idx in 0..c {
                    let stripe = StripeId::new(VideoId(video), idx);
                    let incremental = index.candidates(stripe).to_vec();
                    let brute = model.holders(stripe);
                    assert_eq!(
                        incremental, brute,
                        "seed {seed} round {now} stripe {stripe:?}"
                    );

                    // Stamp contract: an unchanged stamp implies an
                    // unchanged list.
                    let stamp = index.stripe_stamp(stripe);
                    if let Some((old_stamp, old_list)) = last_seen.get(&stripe) {
                        if *old_stamp == stamp {
                            assert_eq!(
                                &incremental, old_list,
                                "seed {seed} round {now} stripe {stripe:?}: stamp lied"
                            );
                        }
                    }
                    last_seen.insert(stripe, (stamp, incremental));
                }
            }
            assert_eq!(
                index.live_entries(),
                model.live_entries(),
                "seed {seed} round {now}: live-entry count"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Full-simulator pipeline equivalence
// ---------------------------------------------------------------------------

fn homogeneous_system(n: usize, c: u16, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, 2.0, 8, c, 4, 1.5, duration);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap()
}

fn run_sim(
    system: &VideoSystem,
    config: SimConfig,
    scheduler: Box<dyn Scheduler>,
    make_gen: impl Fn() -> Box<dyn DemandGenerator>,
) -> SimulationReport {
    let mut gen = make_gen();
    Simulator::with_scheduler(system, config, scheduler).run(gen.as_mut())
}

/// Rescan vs incremental candidate pipelines produce identical reports
/// (schedules, metrics, failures, candidate counters) for every workload ×
/// scheduler combination, including stall-heavy infeasible runs.
#[test]
fn simulator_reports_identical_across_pipelines_workloads_and_schedulers() {
    let sys = homogeneous_system(28, 4, 16, 5);
    // u = 0.4 < 1 with a single replica: chronically infeasible, so the
    // failure path runs every round.
    let starved = {
        let params = SystemParams::new(12, 0.4, 8, 4, 1, 1.5, 16);
        let mut rng = StdRng::seed_from_u64(6);
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(1), &mut rng).unwrap()
    };
    type GenFactory = Box<dyn Fn() -> Box<dyn DemandGenerator>>;
    let m = sys.m();
    let workloads: Vec<(&str, GenFactory)> = vec![
        (
            "sequential",
            Box::new(move || {
                Box::new(SequentialViewing::new(
                    28,
                    m,
                    NextVideoPolicy::RoundRobin,
                    1.5,
                    7,
                ))
            }),
        ),
        (
            "flash-crowd",
            Box::new(move || Box::new(FlashCrowd::single(VideoId(0), 28, m, 1.5, 3))),
        ),
        (
            "multi-swarm churn",
            Box::new(move || Box::new(MultiSwarmChurn::new(m, 4, 5, 1.5, 11).with_rotation(5))),
        ),
    ];

    type SchedFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;
    let schedulers: Vec<(&str, SchedFactory)> = vec![
        ("max-flow", Box::new(|| Box::new(MaxFlowScheduler::new()))),
        ("naive", Box::new(|| Box::new(NaiveScheduler::new()))),
    ];

    for (wl_name, make_gen) in &workloads {
        for (sched_name, make_sched) in &schedulers {
            let config = SimConfig::new(40).continue_on_failure();
            let incremental = run_sim(&sys, config, make_sched(), make_gen);
            let rescan = run_sim(
                &sys,
                config.with_rescan_candidates(),
                make_sched(),
                make_gen,
            );
            assert_eq!(
                incremental, rescan,
                "pipeline divergence: workload {wl_name}, scheduler {sched_name}"
            );
        }
    }

    // A chronically starved system (stalls every round) exercises the
    // failure path — obstruction extraction reads the same CSR rows.
    let config = SimConfig::new(25).continue_on_failure();
    let make_gen = || -> Box<dyn DemandGenerator> {
        Box::new(SequentialViewing::new(
            12,
            starved.m(),
            NextVideoPolicy::RoundRobin,
            1.5,
            1,
        ))
    };
    let a = run_sim(
        &starved,
        config,
        Box::new(MaxFlowScheduler::new()),
        make_gen,
    );
    let b = run_sim(
        &starved,
        config.with_rescan_candidates(),
        Box::new(MaxFlowScheduler::new()),
        make_gen,
    );
    assert_eq!(a, b, "failure-path pipeline divergence");
    assert!(!a.all_rounds_feasible(), "starved run must stall");
}

/// Heterogeneous fleet (compensation plan, relayed requesters): pipeline
/// equality holds through the relay subsystem too, under the matcher and
/// under the naive reference, and the two serve the same counts.
#[test]
fn heterogeneous_relayed_runs_are_pipeline_invariant() {
    let c: u16 = 8;
    let mut uploads = vec![0.6f64; 6];
    uploads.extend(vec![2.6f64; 12]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let avg_u = boxes.average_upload();
    let u_star = Bandwidth::from_streams(1.2);
    let k = 3u32;
    let catalog_size = ((d_avg * n as f64) / k as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, 20, c);
    let params = SystemParams::new(n, avg_u, d_avg.round().max(1.0) as u32, c, k, 1.2, 20);
    let mut rng = StdRng::seed_from_u64(77);
    let system = VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        Some(u_star),
        &mut rng,
    )
    .expect("fleet is u*-compensable");
    let poor = system.boxes().poor_ids(u_star);

    let run = |config: SimConfig, scheduler: Box<dyn Scheduler>| {
        let mut gen = MultiSwarmChurn::new(system.m(), 3, 5, 1.2, 5)
            .with_rotation(6)
            .with_priority_boxes(poor.clone());
        Simulator::with_scheduler(&system, config, scheduler).run(&mut gen)
    };

    let config = SimConfig::new(25).continue_on_failure();
    let make: [fn() -> Box<dyn Scheduler>; 2] = [
        || Box::new(MaxFlowScheduler::new()),
        || Box::new(NaiveScheduler::new()),
    ];
    let [matcher, naive] = make.map(|make| {
        let incremental = run(config, make());
        let rescan = run(config.with_rescan_candidates(), make());
        assert_eq!(incremental, rescan, "pipeline divergence");
        assert!(
            incremental.rounds.iter().any(|r| r.relay.is_some()),
            "relay stats missing"
        );
        incremental
    });
    // The matcher agrees with the naive reference under the new pipeline.
    for (a, b) in naive.rounds.iter().zip(&matcher.rounds) {
        assert_eq!(a.served, b.served, "round {}", a.round);
        assert_eq!(a.unserved, b.unserved, "round {}", a.round);
    }
}

// ---------------------------------------------------------------------------
// CSR entry points vs slice-of-vecs forms
// ---------------------------------------------------------------------------

/// A scheduler that implements only the legacy slice-of-vecs methods, so
/// every engine call reaches it through the `Scheduler` trait's default
/// view→vecs bridge.
struct BridgedMaxFlow(MaxFlowScheduler);

impl Scheduler for BridgedMaxFlow {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        self.0.schedule(capacities, candidates)
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.0.schedule_keyed(capacities, keys, candidates, out);
    }

    fn name(&self) -> &'static str {
        "bridged-max-flow"
    }
}

/// External schedulers that never heard of CSR views keep working through
/// the default bridge — and schedule exactly like the native view path.
#[test]
fn default_view_bridge_matches_native_view_path() {
    let sys = homogeneous_system(24, 4, 14, 9);
    let config = SimConfig::new(35).continue_on_failure();
    let make_gen = || -> Box<dyn DemandGenerator> {
        Box::new(MultiSwarmChurn::new(sys.m(), 4, 5, 1.5, 13).with_rotation(4))
    };
    let native = run_sim(&sys, config, Box::new(MaxFlowScheduler::new()), make_gen);
    let bridged = run_sim(
        &sys,
        config,
        Box::new(BridgedMaxFlow(MaxFlowScheduler::new())),
        make_gen,
    );
    assert_eq!(native.round_count(), bridged.round_count());
    for (a, b) in native.rounds.iter().zip(&bridged.rounds) {
        assert_eq!(a.served, b.served, "round {}", a.round);
        assert_eq!(a.unserved, b.unserved, "round {}", a.round);
        assert_eq!(
            a.served_from_cache, b.served_from_cache,
            "round {}",
            a.round
        );
    }
    assert_eq!(native.failures, bridged.failures);
    assert_eq!(native.playbacks, bridged.playbacks);
}

fn row_hash(row: &[BoxId]) -> u64 {
    let mut hasher = vod_core::FxHasher64::default();
    row.hash(&mut hasher);
    // Stay clear of the NO_STAMP sentinel.
    hasher.finish() & (u64::MAX >> 1)
}

/// Change stamps are an optimization, never a semantic: an incremental
/// matcher fed content-hash stamps (equal stamp ⇔ equal row, so the skip
/// path triggers constantly) schedules bit-identically to one fed no
/// stamps, and to the slice-of-vecs entry point, under rolling churn.
#[test]
fn change_stamps_never_alter_schedules() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x57A4 + seed);
        let n = rng.gen_range(4usize..12);
        let caps: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..4)).collect();
        let mut stamped = IncrementalMatcher::default();
        let mut plain = IncrementalMatcher::default();
        let mut legacy = IncrementalMatcher::default();
        let mut live: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
        let mut next = 0u32;
        let (mut out_a, mut out_b, mut out_c) = (Vec::new(), Vec::new(), Vec::new());

        for round in 0..30 {
            // Rolling window churn with occasional in-place row changes.
            live.retain(|_| !rng.gen_bool(0.2));
            for _ in 0..rng.gen_range(0usize..4) {
                let video = rng.gen_range(0u32..3);
                let cands: Vec<BoxId> = (0..rng.gen_range(0usize..4))
                    .map(|_| BoxId(rng.gen_range(0..n as u32)))
                    .collect();
                live.push((
                    RequestKey {
                        viewer: BoxId(next),
                        stripe: StripeId::new(VideoId(video), 0),
                    },
                    cands,
                ));
                next += 1;
            }
            if !live.is_empty() && rng.gen_bool(0.5) {
                let victim = rng.gen_range(0..live.len());
                live[victim].1.push(BoxId(rng.gen_range(0..n as u32)));
            }

            let keys: Vec<RequestKey> = live.iter().map(|(k, _)| *k).collect();
            let rows: Vec<Vec<BoxId>> = live.iter().map(|(_, c)| c.clone()).collect();
            let mut buf = CandidateBuf::new();
            buf.fill_from_slices(&rows);
            let stamps: Vec<u64> = rows.iter().map(|row| row_hash(row)).collect();

            stamped.schedule_keyed_view(&caps, &keys, buf.view_with_stamps(&stamps), &mut out_a);
            plain.schedule_keyed_view(&caps, &keys, buf.view(), &mut out_b);
            legacy.schedule_keyed(&caps, &keys, &rows, &mut out_c);
            assert_eq!(
                out_a, out_b,
                "seed {seed} round {round}: stamps changed schedule"
            );
            assert_eq!(
                out_b, out_c,
                "seed {seed} round {round}: view path diverged"
            );
        }
    }
}
