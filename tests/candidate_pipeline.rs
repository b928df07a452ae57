//! The [`Scheduler`] trait's CSR entry points against the slice-of-vecs
//! forms: a bridged scheduler that only implements the slice-of-vecs
//! methods (exercising the default-impl bridge) schedules bit-identically
//! to the native view path, and content-hash change stamps never alter an
//! incremental matcher's schedule. The candidate rows themselves are
//! checked against a naive cache model in `tests/active_set.rs`.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};

const SEEDS: u64 = 8;

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
