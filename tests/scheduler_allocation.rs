//! Verifies the tentpole performance contract: once warmed up, the
//! max-flow scheduler performs **zero heap allocations per round** in steady
//! state, because the `IncrementalMatcher` reuses one `FlowArena`, its slot
//! pool, and every scratch buffer across rounds.
//!
//! A counting global allocator wraps `System`; the test drives the scheduler
//! through warm-up rounds (where buffers grow to the working-set size) and
//! then asserts that further rounds — including rounds that *patch* the
//! instance by swapping candidate sets back and forth — allocate nothing.
//!
//! Since the incremental candidate pipeline landed, the contract covers the
//! **whole engine round**: cache-index maintenance (expiry wheel), active-
//! request collection, CSR candidate construction, scheduling, and metric
//! recording together allocate nothing in steady state.

mod support;

use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{thread_allocations, CountingAllocator};
use vod_core::{BoxId, RandomPermutationAllocator, StripeId, SystemParams, VideoId, VideoSystem};
use vod_sim::{MaxFlowScheduler, RequestKey, Scheduler, SimConfig, Simulator};
use vod_workloads::{DemandGenerator, OccupancyView, VideoDemand};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn key(viewer: u32, index: u16) -> RequestKey {
    RequestKey {
        viewer: BoxId(viewer),
        stripe: StripeId::new(VideoId(0), index),
    }
}

fn b(i: u32) -> BoxId {
    BoxId(i)
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let caps: Vec<u32> = vec![2; 16];
    let keys: Vec<RequestKey> = (0..24).map(|i| key(i, (i % 4) as u16)).collect();
    // Two alternating candidate configurations: even rounds vs odd rounds
    // differ, so the matcher genuinely patches edges and re-augments flow
    // every round instead of finding nothing to do.
    let cands_a: Vec<Vec<BoxId>> = (0..24u32)
        .map(|i| vec![b(i % 16), b((i + 5) % 16)])
        .collect();
    let cands_b: Vec<Vec<BoxId>> = (0..24u32)
        .map(|i| vec![b(i % 16), b((i + 9) % 16)])
        .collect();

    let mut scheduler = MaxFlowScheduler::new();
    let mut out = Vec::new();

    // Warm-up: grow every buffer (arena, slots, scratch, out) to the
    // working-set size under both configurations.
    for round in 0..12 {
        let cands = if round % 2 == 0 { &cands_a } else { &cands_b };
        scheduler.schedule_keyed(&caps, &keys, cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 24, "warm-up round {round}");
    }
    let rebuilds_after_warmup = scheduler.matcher().rebuilds();

    let before = thread_allocations();
    for round in 0..10 {
        let cands = if round % 2 == 0 { &cands_a } else { &cands_b };
        scheduler.schedule_keyed(&caps, &keys, cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 24, "steady round {round}");
    }
    let after = thread_allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state rounds must not allocate (got {} allocations over 10 rounds)",
        after - before
    );
    // And the arena was never rebuilt once warm.
    assert_eq!(scheduler.matcher().rebuilds(), rebuilds_after_warmup);
}

#[test]
fn request_churn_reuses_pooled_slots_without_allocating() {
    let caps: Vec<u32> = vec![2; 8];
    let mut scheduler = MaxFlowScheduler::new();
    let mut out = Vec::new();
    let mut keys: Vec<RequestKey> = (0..10).map(|i| key(i, 0)).collect();
    let cands: Vec<Vec<BoxId>> = (0..10u32).map(|i| vec![b(i % 8), b((i + 3) % 8)]).collect();

    // Warm-up with a rotating window: requests 0..10, then 1..11, 2..12, …
    // so slot recycling paths are exercised. Rotate through enough distinct
    // keys that the key-map has seen its full working set.
    for round in 0u32..40 {
        for (j, k) in keys.iter_mut().enumerate() {
            *k = key((round + j as u32) % 20, 0);
        }
        scheduler.schedule_keyed(&caps, &keys, &cands, &mut out);
    }

    let before = thread_allocations();
    for round in 40u32..60 {
        for (j, k) in keys.iter_mut().enumerate() {
            *k = key((round + j as u32) % 20, 0);
        }
        scheduler.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out.len(), 10);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "slot-recycling rounds must not allocate (got {})",
        after - before
    );
}

/// Demands every box once at round 0 and stays silent afterwards, so
/// steady-state engine rounds take no generator-side allocation either.
struct OneShotCohort {
    n: u32,
    m: usize,
}

impl DemandGenerator for OneShotCohort {
    fn demands_at(&mut self, round: u64, _occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        if round != 0 {
            return Vec::new(); // Vec::new is allocation-free
        }
        (0..self.n)
            .map(|i| VideoDemand {
                box_id: BoxId(i),
                video: VideoId((i as usize % self.m) as u32),
                round,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "one-shot cohort"
    }
}

/// Full engine rounds are allocation-free in steady state: expiry-wheel
/// index maintenance, pooled request collection, flat CSR candidate rows,
/// stamped stall accounting, the warm incremental matcher, and per-round
/// metric recording all reuse their buffers.
#[test]
fn steady_state_engine_rounds_allocate_nothing() {
    // Duration longer than the simulated window: the cohort admitted at
    // round 0 keeps playing throughout, so measured rounds carry a full,
    // stable working set of active requests.
    let params = SystemParams::new(16, 2.5, 8, 4, 4, 1.5, 60);
    let mut rng = StdRng::seed_from_u64(3);
    let system =
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap();
    let mut gen = OneShotCohort {
        n: 16,
        m: system.m(),
    };
    let mut sim = Simulator::new(&system, SimConfig::new(50));
    for round in 0..20u64 {
        assert!(sim.step(&mut gen), "warm-up round {round} must be feasible");
    }

    let before = thread_allocations();
    for round in 20..40u64 {
        assert!(sim.step(&mut gen), "steady round {round} must be feasible");
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state engine rounds must not allocate (got {} over 20 rounds)",
        after - before
    );
}
