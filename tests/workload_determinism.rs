//! Seeded-determinism and admissibility tests for the demand generators.
//!
//! The equivalence and Monte-Carlo harnesses lean on two properties of
//! `vod-workloads`:
//!
//! * **determinism** — the demand sequence is a pure function of the
//!   constructor arguments (including the seed) and the occupancy history,
//!   so any failure reproduces from the printed seed;
//! * **admissibility** — generated demands respect the paper's constraints:
//!   at most one demand per box per round, demands only on free boxes, and
//!   per-video swarm growth bounded by `f(t+1) ≤ ⌈max{f(t),1}·µ⌉`.
//!
//! Both are checked for every stochastic generator (zipf, flash-crowd,
//! multi-swarm) and the adversarial ones (never-owned,
//! poor-boxes pile-on, sequential).

use p2p_vod::prelude::*;
use p2p_vod::workloads::{CrowdSpec, OccupancyView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const ROUNDS: u64 = 12;
const BOXES: usize = 24;

/// Replays a generator against an all-free occupancy, collecting each
/// round's demand batch.
fn replay(generator: &mut dyn DemandGenerator, rounds: u64, boxes: usize) -> Vec<Vec<VideoDemand>> {
    let free = vec![true; boxes];
    (0..rounds)
        .map(|r| generator.demands_at(r, &free))
        .collect()
}

/// Checks one demand sequence for admissibility: unique boxes per round and
/// µ-bounded per-video growth (under the no-departure replay, where swarm
/// sizes only grow).
fn assert_admissible(label: &str, mu: f64, sequence: &[Vec<VideoDemand>]) {
    let mut joins_per_video: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (round, batch) in sequence.iter().enumerate() {
        let mut boxes: Vec<BoxId> = batch.iter().map(|d| d.box_id).collect();
        boxes.sort();
        boxes.dedup();
        assert_eq!(
            boxes.len(),
            batch.len(),
            "{label}: duplicate box in round {round}"
        );
        for d in batch {
            joins_per_video
                .entry(d.video.0)
                .or_insert_with(|| vec![0; sequence.len()])[round] += 1;
        }
    }
    for (video, joins) in &joins_per_video {
        assert!(
            SwarmGrowthLimiter::verify(mu, joins).is_ok(),
            "{label}: video {video} violates µ = {mu}: {joins:?}"
        );
    }
}

/// Builds the two replays of `make` and asserts they are identical, then
/// checks admissibility. Returns the sequence for extra per-generator
/// checks.
fn check_generator(
    label: &str,
    mu: f64,
    mut make: impl FnMut() -> Box<dyn DemandGenerator>,
) -> Vec<Vec<VideoDemand>> {
    let first = replay(make().as_mut(), ROUNDS, BOXES);
    let second = replay(make().as_mut(), ROUNDS, BOXES);
    assert_eq!(first, second, "{label}: same seed, different sequence");
    assert_admissible(label, mu, &first);
    first
}

#[test]
fn zipf_demand_is_seed_deterministic_and_admissible() {
    let mu = 1.6;
    let sequence = check_generator("zipf", mu, || Box::new(ZipfDemand::new(30, 0.9, 5, mu, 42)));
    assert!(
        sequence.iter().any(|b| !b.is_empty()),
        "zipf emitted nothing"
    );
    // A different seed must (for this configuration) change the sequence.
    let other = replay(&mut ZipfDemand::new(30, 0.9, 5, mu, 43), ROUNDS, BOXES);
    assert_ne!(sequence, other, "zipf ignores its seed");
}

#[test]
fn flash_crowd_is_seed_deterministic_and_admissible() {
    let mu = 1.8;
    let sequence = check_generator("flash-crowd", mu, || {
        Box::new(FlashCrowd::single(VideoId(2), 20, 10, mu, 5))
    });
    let total: usize = sequence.iter().map(|b| b.len()).sum();
    assert_eq!(total, 20, "crowd must absorb its target");
    assert!(sequence.iter().flatten().all(|d| d.video == VideoId(2)));
}

#[test]
fn multi_swarm_churn_is_seed_deterministic_and_admissible() {
    let mu = 1.4;
    let sequence = check_generator("multi-swarm", mu, || {
        Box::new(MultiSwarmChurn::new(16, 4, 6, mu, 9).with_rotation(3))
    });
    let videos: std::collections::BTreeSet<u32> =
        sequence.iter().flatten().map(|d| d.video.0).collect();
    assert!(videos.len() > 1, "multi-swarm must populate several swarms");
}

#[test]
fn sequential_viewing_is_seed_deterministic_and_admissible() {
    let mu = 1.5;
    for policy in [NextVideoPolicy::RoundRobin, NextVideoPolicy::UniformRandom] {
        check_generator("sequential", mu, || {
            Box::new(SequentialViewing::new(BOXES, 12, policy, mu, 3))
        });
    }
}

#[test]
fn adversarial_generators_are_deterministic_and_admissible() {
    let params = SystemParams::new(BOXES, 2.0, 8, 4, 4, 1.5, 30);
    let mut rng = StdRng::seed_from_u64(21);
    let system =
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap();
    let mu = 1.5;

    check_generator("never-owned", mu, || {
        Box::new(NeverOwnedAttack::new(
            system.placement(),
            system.catalog(),
            mu,
        ))
    });

    let poor: Vec<BoxId> = (0..8u32).map(BoxId).collect();
    let rich: Vec<BoxId> = (8..BOXES as u32).map(BoxId).collect();
    check_generator("poor-boxes", mu, || {
        Box::new(PoorBoxesSameVideo::new(
            poor.clone(),
            rich.clone(),
            VideoId(0),
            system.placement(),
            system.catalog(),
            mu,
        ))
    });
}

fn churn_universe() -> BoxSet {
    BoxSet::homogeneous(
        BOXES,
        Bandwidth::from_streams(1.5),
        StorageSlots::from_slots(16),
    )
}

/// The churn model is a pure function of (universe, seed, config): two
/// models built alike emit identical event sequences, and a different seed
/// changes the sequence.
#[test]
fn churn_model_is_seed_deterministic() {
    let boxes = churn_universe();
    let make = |seed: u64| {
        ChurnModel::new(&boxes, seed)
            .with_session(SessionLength::Geometric { leave_rate: 0.06 })
            .with_crash_rate(0.02)
            .with_rejoin_delay(2, 5)
            .with_upload_churn(0.03, vec![0.5, 1.0, 2.0])
            .with_min_up(8)
    };
    let replay = |mut model: ChurnModel| -> Vec<Vec<ChurnEvent>> {
        (0..60).map(|r| model.events_at(r)).collect()
    };
    let first = replay(make(42));
    let second = replay(make(42));
    assert_eq!(first, second, "same seed, different churn sequence");
    assert!(
        first.iter().any(|batch| !batch.is_empty()),
        "churn model emitted nothing"
    );
    let other = replay(make(43));
    assert_ne!(first, other, "churn model ignores its seed");
}

/// Observed per-box per-round event rates converge on the configured
/// hazards over a long exposure (within a generous stochastic tolerance).
#[test]
fn churn_model_rates_match_configuration() {
    let boxes = churn_universe();
    let leave_rate = 0.05;
    let crash_rate = 0.02;
    let upload_rate = 0.04;
    let mut model = ChurnModel::new(&boxes, 7)
        .with_session(SessionLength::Geometric { leave_rate })
        .with_crash_rate(crash_rate)
        .with_rejoin_delay(1, 3)
        .with_upload_churn(upload_rate, vec![0.5, 2.0]);
    let mut events = Vec::new();
    for round in 0..4000 {
        model.events_into(round, &mut events);
        events.clear();
    }
    let counts = model.counts();
    assert!(counts.up_box_rounds > 10_000, "exposure too small to judge");
    let within = |observed: f64, target: f64| (observed - target).abs() <= target * 0.25;
    assert!(
        within(counts.leave_rate(), leave_rate),
        "leave rate {} vs configured {leave_rate}",
        counts.leave_rate()
    );
    assert!(
        within(counts.crash_rate(), crash_rate),
        "crash rate {} vs configured {crash_rate}",
        counts.crash_rate()
    );
    // A draw landing on the box's current scale emits nothing, so with two
    // scales the steady-state emission rate is half the configured hazard.
    let effective_upload = upload_rate * 0.5;
    assert!(
        within(counts.upload_change_rate(), effective_upload),
        "upload-change rate {} vs effective {effective_upload}",
        counts.upload_change_rate()
    );
    // Every departure eventually rejoins within the configured delay, so
    // joins track departures up to the boxes still down at the horizon.
    let departures = counts.leaves + counts.crashes;
    assert!(departures > 0 && counts.joins > 0);
    assert!(departures - counts.joins <= BOXES as u64);
}

/// The fault model is a pure function of (universe, seed, config): two
/// models built alike emit identical event sequences, and a different
/// seed changes the sequence.
#[test]
fn fault_model_is_seed_deterministic() {
    let boxes = churn_universe();
    let make = |seed: u64| {
        FaultModel::new(&boxes, seed)
            .with_degradation(0.05, vec![25, 50, 75], 1, 4)
            .with_flapping(0.02, 1, 3)
            .with_region_outages(0.01, 4, 2, 4)
            .with_drop_rate(50_000, 20_000)
            .with_drop_surges(0.02, 200_000, 1, 3)
    };
    let replay = |mut model: FaultModel| -> Vec<Vec<FaultEvent>> {
        (0..60).map(|r| model.events_at(r)).collect()
    };
    let first = replay(make(42));
    let second = replay(make(42));
    assert_eq!(first, second, "same seed, different fault sequence");
    assert!(
        first.iter().any(|batch| !batch.is_empty()),
        "fault model emitted nothing"
    );
    let other = replay(make(43));
    assert_ne!(first, other, "fault model ignores its seed");
    // The outcome-hash salt is derived from the seed, so it differs too.
    assert_ne!(make(42).salt(), make(43).salt());
}

/// Observed per-box per-round fault rates converge on the configured
/// hazards over a long exposure (within a generous stochastic tolerance).
#[test]
fn fault_model_rates_match_configuration() {
    let boxes = churn_universe();
    let degradation_rate = 0.04;
    let flap_rate = 0.02;
    let outage_rate = 0.01;
    let mut model = FaultModel::new(&boxes, 7)
        .with_degradation(degradation_rate, vec![25, 50], 1, 3)
        .with_flapping(flap_rate, 1, 2)
        .with_region_outages(outage_rate, 4, 1, 2);
    let mut events = Vec::new();
    for round in 0..4000 {
        model.events_into(round, &mut events);
        events.clear();
    }
    let counts = model.counts();
    assert!(
        counts.healthy_box_rounds > 10_000,
        "exposure too small to judge"
    );
    let within = |observed: f64, target: f64| (observed - target).abs() <= target * 0.25;
    assert!(
        within(counts.degradation_rate(), degradation_rate),
        "degradation rate {} vs configured {degradation_rate}",
        counts.degradation_rate()
    );
    assert!(
        within(counts.stall_rate(), flap_rate),
        "stall rate {} vs configured {flap_rate}",
        counts.stall_rate()
    );
    assert!(
        within(counts.region_outage_rate(), outage_rate),
        "region-outage rate {} vs configured {outage_rate}",
        counts.region_outage_rate()
    );
    // Regional outages stall whole box groups on top of the point events.
    assert!(counts.region_stalled_boxes >= counts.region_outages);
}

/// Uniform draw-at-join sessions end within their bounds: a box that
/// joined at round `j` leaves gracefully no earlier than `j + min` and no
/// later than `j + max` (unless a crash pre-empts the schedule).
#[test]
fn churn_session_bounds_are_respected() {
    let boxes = churn_universe();
    let mut model = ChurnModel::new(&boxes, 11)
        .with_session(SessionLength::Uniform { min: 4, max: 9 })
        .with_rejoin_delay(1, 2);
    let mut joined_at = [0u64; BOXES];
    for round in 0..200 {
        for event in model.events_at(round) {
            let b = event.box_id().index();
            match event {
                ChurnEvent::Joined(_) => joined_at[b] = round,
                ChurnEvent::Left(_) => {
                    let session = round - joined_at[b];
                    assert!(
                        (4..=9).contains(&session),
                        "box {b} session {session} outside [4, 9]"
                    );
                }
                _ => {}
            }
        }
    }
    assert!(model.counts().leaves > 0, "uniform sessions must end");
}

/// Occupancy is honoured: a generator never demands on a busy box, even
/// when the free set changes between rounds.
#[test]
fn generators_respect_occupancy() {
    let mut generators: Vec<Box<dyn DemandGenerator>> = vec![
        Box::new(ZipfDemand::new(10, 1.0, 8, 2.0, 1)),
        Box::new(FlashCrowd::single(VideoId(0), 50, 10, 2.0, 3)),
        Box::new(MultiSwarmChurn::new(10, 3, 8, 2.0, 4)),
        Box::new(SequentialViewing::new(
            12,
            10,
            NextVideoPolicy::RoundRobin,
            2.0,
            5,
        )),
    ];
    for generator in &mut generators {
        for round in 0..6u64 {
            // Alternate which half of the boxes is free.
            let free: Vec<bool> = (0..12)
                .map(|i| (i + round as usize).is_multiple_of(2))
                .collect();
            let demands = generator.demands_at(round, &free);
            for d in &demands {
                assert!(
                    free[d.box_id.index()],
                    "{}: demand on busy box {:?} in round {round}",
                    generator.name(),
                    d.box_id
                );
            }
        }
    }
}

/// How many demands each golden stream pins.
const GOLDEN: usize = 200;

/// Labelled demand generators.
type Generators = Vec<(&'static str, Box<dyn DemandGenerator>)>;

/// The generators that read the free list (`free_boxes_into`) and, except
/// `SequentialViewing`, shuffle it with their own RNG — at fixed seeds,
/// over `n` boxes and `m` videos.
fn golden_generators(n: usize, m: usize) -> Generators {
    let crowds = (0..16)
        .map(|i| CrowdSpec {
            video: VideoId(i),
            start_round: 3 * i as u64,
            max_viewers: n / 3,
        })
        .collect();
    vec![
        ("zipf", Box::new(ZipfDemand::new(m, 0.8, 5, 1.5, 2009))),
        (
            "flash-crowd",
            Box::new(FlashCrowd::staggered(crowds, m, 1.5, 2011)),
        ),
        (
            "sequential",
            Box::new(SequentialViewing::new(
                n,
                m,
                NextVideoPolicy::UniformRandom,
                1.5,
                2012,
            )),
        ),
    ]
}

/// Forwards to `inner` and logs every demand it emits.
struct Logged<'a> {
    inner: Box<dyn DemandGenerator>,
    log: &'a mut Vec<VideoDemand>,
}

impl DemandGenerator for Logged<'_> {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        let demands = self.inner.demands_at(round, occupancy);
        self.log.extend_from_slice(&demands);
        demands
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The first [`GOLDEN`] demands of each generator with their `fx_hash`,
/// against a `Vec<bool>` occupancy on which a demanded box stays busy for
/// five rounds (so every round's free list differs from the last one's).
fn golden_streams_over_vec_bool() -> Vec<(&'static str, u64, Vec<VideoDemand>)> {
    let (n, m) = (48usize, 30usize);
    golden_generators(n, m)
        .into_iter()
        .map(|(label, mut generator)| {
            let mut busy_until = vec![0u64; n];
            let mut stream = Vec::new();
            for round in 0.. {
                let free: Vec<bool> = busy_until.iter().map(|&until| until <= round).collect();
                for d in generator.demands_at(round, &free) {
                    busy_until[d.box_id.index()] = round + 5;
                    stream.push(d);
                }
                if stream.len() >= GOLDEN {
                    break;
                }
                assert!(round < 500, "{label}: stream dried up");
            }
            stream.truncate(GOLDEN);
            (label, vod_core::fx_hash(&stream), stream)
        })
        .collect()
}

/// [`golden_generators`] plus a rotating multi-swarm generator, the set
/// the multi-word engine stream pins.
fn multi_word_generators(n: usize, m: usize) -> Generators {
    let mut generators = golden_generators(n, m);
    generators.push((
        "multi-swarm",
        Box::new(MultiSwarmChurn::new(m, 8, 12, 1.5, 2013).with_rotation(5)),
    ));
    generators
}

/// The `generators` driven by a `Simulator` over `n` boxes, i.e. reading
/// the engine's own `OccupancyView` (playbacks of `T = 6` rounds keep the
/// free set moving).
fn golden_streams_through_engine(
    n: usize,
    generators: fn(usize, usize) -> Generators,
) -> Vec<(&'static str, u64, Vec<VideoDemand>)> {
    let params = SystemParams::new(n, 2.0, 8, 4, 4, 1.5, 6);
    let mut rng = StdRng::seed_from_u64(12);
    let system =
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap();
    generators(system.n(), system.m())
        .into_iter()
        .map(|(label, inner)| {
            let mut stream = Vec::new();
            let mut logged = Logged {
                inner,
                log: &mut stream,
            };
            let mut sim = Simulator::new(&system, SimConfig::new(500).continue_on_failure());
            while logged.log.len() < GOLDEN {
                assert!(sim.round() < 500, "{label}: stream dried up");
                sim.step(&mut logged);
            }
            stream.truncate(GOLDEN);
            (label, vod_core::fx_hash(&stream), stream)
        })
        .collect()
}

fn demand(box_id: u32, video: u32, round: u64) -> VideoDemand {
    VideoDemand::new(BoxId(box_id), VideoId(video), round)
}

/// Golden streams: the RNG draw order of the free-list generators (the full
/// Fisher–Yates shuffle included) is pinned demand by demand, so a change to
/// how the free list is produced or buffered cannot move it unnoticed. The
/// benchmark's `expected/*.json` totals depend on exactly these streams.
#[test]
fn generator_streams_match_their_golden_values() {
    let expected_vec_bool: [(&str, u64, [VideoDemand; 3]); 3] = [
        (
            "zipf",
            0xdc06_90a8_b00e_66a2,
            [demand(40, 16, 0), demand(16, 1, 0), demand(37, 5, 0)],
        ),
        (
            "flash-crowd",
            0x03ce_c7f2_d743_37a7,
            [demand(18, 0, 0), demand(0, 0, 0), demand(11, 0, 1)],
        ),
        (
            "sequential",
            0x66b1_fb8d_2f2e_ccb1,
            [demand(0, 0, 0), demand(1, 15, 0), demand(2, 5, 0)],
        ),
    ];
    let expected_engine: [(&str, u64, [VideoDemand; 3]); 3] = [
        (
            "zipf",
            0x2eec_4cf3_29c4_5605,
            [demand(40, 47, 0), demand(16, 3, 0), demand(37, 13, 0)],
        ),
        (
            "flash-crowd",
            0x71ab_e85f_796a_1f8e,
            [demand(18, 0, 0), demand(0, 0, 0), demand(11, 0, 1)],
        ),
        (
            "sequential",
            0x1a83_9e7e_69a8_013c,
            [demand(0, 0, 0), demand(1, 48, 0), demand(2, 16, 0)],
        ),
    ];
    for (occupancy, streams, expected) in [
        (
            "Vec<bool>",
            golden_streams_over_vec_bool(),
            expected_vec_bool,
        ),
        (
            "engine",
            golden_streams_through_engine(48, golden_generators),
            expected_engine,
        ),
    ] {
        for ((label, hash, stream), (want_label, want_hash, want_head)) in
            streams.into_iter().zip(expected)
        {
            assert_eq!(label, want_label);
            assert_eq!(stream.len(), GOLDEN, "{label} over {occupancy}");
            assert_eq!(
                (&stream[..3], hash),
                (&want_head[..], want_hash),
                "{label} over {occupancy}: the demand stream moved"
            );
        }
    }
}

/// The engine streams again at n = 200: three full 64-box words of the
/// free-box scan and an 8-box tail (n = 48 above sits inside one partial
/// word), with every generator's swarm limiter folding joins over many
/// rounds.
#[test]
fn multi_word_engine_streams_match_their_golden_values() {
    let expected: [(&str, u64, [VideoDemand; 3]); 4] = [
        (
            "zipf",
            0x3b27_9ea4_a753_01bd,
            [demand(14, 61, 0), demand(12, 25, 0), demand(168, 4, 0)],
        ),
        (
            "flash-crowd",
            0xdc9c_a7bb_905c_b7b0,
            [demand(126, 0, 0), demand(54, 0, 0), demand(96, 0, 1)],
        ),
        (
            "sequential",
            0x2f37_1ab9_071d_93b1,
            [demand(0, 2, 0), demand(1, 203, 0), demand(2, 69, 0)],
        ),
        (
            "multi-swarm",
            0xdca6_8e07_df14_5101,
            [demand(99, 0, 0), demand(69, 1, 0), demand(120, 2, 0)],
        ),
    ];
    let streams = golden_streams_through_engine(200, multi_word_generators);
    for ((label, hash, stream), (want_label, want_hash, want_head)) in
        streams.into_iter().zip(expected)
    {
        assert_eq!(label, want_label);
        assert_eq!(stream.len(), GOLDEN, "{label}");
        assert_eq!(
            (&stream[..3], hash),
            (&want_head[..], want_hash),
            "{label} at n = 200: the demand stream moved"
        );
    }
}
