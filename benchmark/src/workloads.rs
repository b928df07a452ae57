//! The five named workloads: what each one builds from the seed.
//!
//! Everything here goes through the production default path —
//! `Simulator::new` (or `Simulator::with_scheduler` for the traced rep, with
//! the same default scheduler inside a pass-through wrapper) plus the public
//! `attach_*` methods — so a later change of defaults is a measurable claim.
//! The reasons behind every parameter are in `README.md`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vod_analysis::{TrialSpec, WorkloadKind};
use vod_core::{
    Bandwidth, BoxId, Catalog, RandomPermutationAllocator, SystemParams, VideoId, VideoSystem,
};
use vod_sim::{DegradationConfig, DeliveryPolicy, RepairPlanner, Scheduler, SimConfig, Simulator};
use vod_workloads::{
    ChurnModel, CrowdSpec, DemandGenerator, FaultModel, FlashCrowd, MultiSwarmChurn,
    NextVideoPolicy, SequentialViewing, SessionLength, ZipfDemand,
};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyChurn,
    FlashCrowd,
    SparseFleet,
    RelayFaults,
    ThresholdSearch,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SteadyChurn,
        Workload::FlashCrowd,
        Workload::SparseFleet,
        Workload::RelayFaults,
        Workload::ThresholdSearch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyChurn => "steady-churn",
            Workload::FlashCrowd => "flash-crowd",
            Workload::SparseFleet => "sparse-fleet",
            Workload::RelayFaults => "relay-faults",
            Workload::ThresholdSearch => "threshold-search",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence on what the workload stresses (also in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SteadyChurn => "n=1024 under 0.2%/round churn with budgeted repair: the whole warm pipeline (repair plan, candidate maintain/fill, incremental patching); the solver is warm-started and does little",
            Workload::FlashCrowd => "n=1024, three maximal-growth crowds of n/3 boxes back to back, no warm-up: vod-flow and the candidate rows do nearly all the work; owns round_ms_p99",
            Workload::SparseFleet => "n=131072 with ~0.4% of boxes active: a 1024-box scheduler load, so the rest is the engine's and generator's O(n) walks; bypasses the solver; setup_s is allocation",
            Workload::RelayFaults => "n=512 two-class relayed fleet, 16 rotating swarms, faults, retries and degradation: the relayed entry point, RelayBroker, capacity overlays and retry traffic",
            Workload::ThresholdSearch => "the paper's E1 sweep: 198 short cold n=128 trials back to back, so allocation, cold solves and obstruction extraction instead of one long warm run",
        }
    }

    /// Rounds stepped before measurement starts (0 = the transient is the
    /// workload).
    pub fn warmup_rounds(self) -> u64 {
        match self {
            // At least 2T (T = 16): the first full cohort of playbacks has
            // ended and the candidate wheel has turned over once.
            Workload::SteadyChurn => 48,
            Workload::SparseFleet => 32,
            Workload::RelayFaults => 48,
            Workload::FlashCrowd | Workload::ThresholdSearch => 0,
        }
    }

    /// Instances pooled by an end-to-end run at full scale. Few on purpose:
    /// a run's time is instances x repeats, a timing only settles once it is
    /// the fastest of five or more repeats, and on this class of host the
    /// repeats steady a number more than the pooling does. Each count is the
    /// steadier of two or three tried in alternation (README, "How a run
    /// measures"); `flash-crowd`, a transient, needs the most instances for
    /// its tail and gets the fewest repeats.
    pub fn instances(self) -> usize {
        match self {
            Workload::SparseFleet | Workload::ThresholdSearch => 2,
            Workload::RelayFaults => 3,
            Workload::SteadyChurn | Workload::FlashCrowd => 4,
        }
    }

    /// Measured rounds per rep at full scale.
    pub fn measured_rounds(self) -> u64 {
        match self {
            Workload::SteadyChurn | Workload::SparseFleet | Workload::RelayFaults => 250,
            Workload::FlashCrowd => FLASH_ROUNDS,
            Workload::ThresholdSearch => 0,
        }
    }
}

/// Flash crowds per rep and the rounds between their starts. A crowd grows
/// by µ = 1.5 per round, so it is complete after ~15 rounds (the last three
/// are the 25-120 ms rounds), its viewers then all play for 25 rounds and
/// leave over the next 15, T = 40 after they joined. With starts 45 rounds
/// apart the crowds are back to back: one starts growing while the one
/// before it drains, and by round 145 the last has drained. Over half of
/// the rounds are then the plateau of one complete crowd playing, so the
/// median round sits on it. With starts 20 rounds apart (three overlapping
/// swarms) the median fell on the slope between two plateaus, where it
/// rose 3 % per percentile point and doubled whatever noise the host had.
const FLASH_CROWDS: u64 = 3;
const FLASH_STAGGER: u64 = 45;
const FLASH_ROUNDS: u64 = 145;

/// Sub-seeds: every random source of a rep is a pure function of `--seed`.
fn sub(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Builds the workload's video system (allocation included) from the seed.
pub fn build_system(w: Workload, seed: u64) -> VideoSystem {
    let mut rng = StdRng::seed_from_u64(sub(seed, 1));
    match w {
        Workload::SteadyChurn => {
            let n = 1024;
            let params = SystemParams::new(n, 2.0, 4, 4, 3, 1.3, 16);
            // 3/5 of the maximal catalog: the free slots are what the
            // repair planner re-replicates into.
            let catalog = (4 * n / 3) * 3 / 5;
            VideoSystem::homogeneous_with_catalog(
                params,
                catalog,
                &RandomPermutationAllocator::new(3),
                &mut rng,
            )
        }
        Workload::FlashCrowd => {
            let params = SystemParams::new(1024, 2.0, 8, 6, 4, 1.5, 40);
            VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng)
        }
        Workload::SparseFleet => {
            let params = SystemParams::new(131_072, 2.0, 4, 4, 3, 1.3, 16);
            VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(3), &mut rng)
        }
        Workload::RelayFaults => {
            let c: u16 = 8;
            let k = 3u32;
            let duration = 40;
            let mut uploads = vec![0.6f64; 256];
            uploads.extend(vec![3.6f64; 256]);
            let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
            let n = boxes.len();
            let d_avg = boxes.average_storage_videos(c);
            let catalog_size = ((d_avg * n as f64) / k as f64).floor() as usize;
            let catalog = Catalog::uniform(catalog_size, duration, c);
            let params = SystemParams::new(
                n,
                boxes.average_upload(),
                d_avg.round().max(1.0) as u32,
                c,
                k,
                1.2,
                duration,
            );
            VideoSystem::heterogeneous(
                params,
                boxes,
                catalog,
                &RandomPermutationAllocator::new(k),
                Some(Bandwidth::from_streams(RELAY_U_STAR)),
                &mut rng,
            )
        }
        Workload::ThresholdSearch => unreachable!("threshold-search builds one system per trial"),
    }
    .expect("benchmark system parameters are valid")
}

const RELAY_U_STAR: f64 = 1.2;

/// Builds the simulator on the production default path. `scheduler` is
/// `None` for end-to-end reps (`Simulator::new`) and the pass-through
/// wrapper for the traced rep (`Simulator::with_scheduler`).
pub fn build_sim<'a>(
    w: Workload,
    sys: &'a VideoSystem,
    seed: u64,
    rounds: u64,
    scheduler: Option<Box<dyn Scheduler>>,
) -> Simulator<'a> {
    let config = SimConfig::new(rounds).continue_on_failure();
    let mut sim = match scheduler {
        None => Simulator::new(sys, config),
        Some(s) => Simulator::with_scheduler(sys, config, s),
    };
    match w {
        Workload::SteadyChurn => {
            let n = sys.n();
            sim.attach_churn(
                ChurnModel::new(sys.boxes(), sub(seed, 3))
                    .with_session(SessionLength::Geometric { leave_rate: 0.0015 })
                    .with_crash_rate(0.0005)
                    .with_rejoin_delay(1, 2)
                    .with_min_up(n - n / 16),
            );
            sim.attach_repair(RepairPlanner::for_system(sys, (n / 4) as u32));
        }
        Workload::RelayFaults => {
            sim.attach_faults(
                FaultModel::new(sys.boxes(), sub(seed, 4))
                    .with_degradation(0.03, vec![25, 50, 75], 2, 6)
                    .with_drop_rate(12_000, 4_000),
            );
            sim.attach_delivery(DeliveryPolicy::default());
            sim.attach_degradation(DegradationConfig::default());
        }
        Workload::FlashCrowd | Workload::SparseFleet => {}
        Workload::ThresholdSearch => unreachable!("threshold-search runs through vod_analysis"),
    }
    sim
}

/// Builds the workload's demand generator.
pub fn build_generator(w: Workload, sys: &VideoSystem, seed: u64) -> Box<dyn DemandGenerator> {
    let gen_seed = sub(seed, 2);
    match w {
        Workload::SteadyChurn => Box::new(SequentialViewing::new(
            sys.n(),
            sys.m(),
            NextVideoPolicy::RoundRobin,
            1.3,
            gen_seed,
        )),
        Workload::FlashCrowd => {
            let crowds = (0..FLASH_CROWDS)
                .map(|i| CrowdSpec {
                    video: VideoId(i as u32),
                    start_round: i * FLASH_STAGGER,
                    max_viewers: sys.n() / FLASH_CROWDS as usize,
                })
                .collect();
            Box::new(FlashCrowd::staggered(crowds, sys.m(), 1.5, gen_seed))
        }
        Workload::SparseFleet => Box::new(ZipfDemand::new(sys.m(), 0.8, 32, 1.3, gen_seed)),
        Workload::RelayFaults => {
            let poor: Vec<BoxId> = sys.boxes().poor_ids(Bandwidth::from_streams(RELAY_U_STAR));
            Box::new(
                MultiSwarmChurn::new(sys.m(), 16, 24, 1.2, gen_seed)
                    .with_rotation(6)
                    .with_priority_boxes(poor),
            )
        }
        Workload::ThresholdSearch => unreachable!("threshold-search runs through vod_analysis"),
    }
}

/// The E1 sweep grid: 11 upload points across the u = 1 threshold.
pub const SWEEP_U: [f64; 11] = [0.6, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0];
pub const SWEEP_FAMILIES: [WorkloadKind; 3] = [
    WorkloadKind::NeverOwned,
    WorkloadKind::FlashCrowd,
    WorkloadKind::Sequential,
];
pub const SWEEP_TRIALS_PER_POINT: usize = 6;

/// One trial of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepTrial {
    pub spec: TrialSpec,
    pub family: WorkloadKind,
    pub seed: u64,
    /// Index into [`SWEEP_U`].
    pub u_index: usize,
}

/// The sweep's trials in grid order. `trials_per_point` is
/// [`SWEEP_TRIALS_PER_POINT`] at full scale.
pub fn sweep_trials(seed: u64, trials_per_point: usize) -> Vec<SweepTrial> {
    let template = TrialSpec {
        n: 128,
        u: 1.0,
        d: 8,
        c: 4,
        k: 4,
        mu: 1.3,
        duration: 24,
        rounds: 80,
        catalog: None,
    };
    let mut trials = Vec::new();
    for (u_index, &u) in SWEEP_U.iter().enumerate() {
        for (f, &family) in SWEEP_FAMILIES.iter().enumerate() {
            for t in 0..trials_per_point {
                trials.push(SweepTrial {
                    spec: TrialSpec { u, ..template },
                    family,
                    seed: sub(seed, 100 + f as u64 * 1000 + t as u64),
                    u_index,
                });
            }
        }
    }
    trials
}
