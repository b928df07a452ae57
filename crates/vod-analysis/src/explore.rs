//! Bounded exhaustive model-checking of the Theorem 1 threshold.
//!
//! Every equivalence gate in the repo checks that *schedulers agree with
//! each other*; this module checks the *theory exactly*. Theorem 1 claims
//! that when `c > (2µ²−1)/(u−1)` (and replication suffices), **every**
//! µ-admissible demand sequence is served — a universally quantified claim
//! that is exhaustively checkable on small systems. The explorer:
//!
//! * enumerates **all** µ-admissible demand sequences up to a horizon by
//!   branching the real engine ([`vod_sim::Simulator::fork_with`]) on every
//!   admissible per-round demand batch and checking Lemma-1 feasibility
//!   (an unserved request) at every round;
//! * canonicalizes states by order-insensitive signature hashing
//!   ([`vod_core::SortedSignature`] over playbacks, cache entries, swarm
//!   preload counters, capacities, and the relay plan), so converging
//!   histories — playbacks ended, caches expired — are explored once;
//! * doubles as a differential fuzz gate: every explored transition is
//!   stepped through the engine under the incremental matcher and under
//!   the textbook [`vod_sim::NaiveScheduler`], with
//!   bit-equality of the round metrics asserted, and any divergence is
//!   dumped as a replayable [`SeedFile`];
//! * shrinks failing demand sequences to minimal counterexamples
//!   (round-prefix/suffix deletion, then greedy per-demand deletion, each
//!   candidate re-checked for µ-admissibility and replayed);
//! * cross-checks the [`crate::obstruction`] first-moment failure bound
//!   against true exhaustive failure counts over random allocations.
//!
//! The `exp_verify` binary (vod-bench) drives all four modes; corpus seed
//! files under `tests/corpus/` are replayed forever by
//! [`replay_seed`] through both engine variants.

use crate::obstruction::{first_moment_bound, BoundParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::{
    Bandwidth, BoxId, Catalog, FxHasher64, RandomPermutationAllocator, SystemParams, VideoId,
    VideoSystem,
};
use vod_sim::{
    DegradationConfig, MaxFlowScheduler, NaiveScheduler, RepairPlanner, RoundMetrics, Scheduler,
    SimConfig, SimulationReport, Simulator,
};
use vod_workloads::{
    ChurnEvent, DemandGenerator, DemandTrace, FaultEvent, OccupancyView, TraceReplay, VideoDemand,
};

/// Heterogeneous population recipe: per-box uploads with proportional
/// storage (`d_b = u_b · storage_per_upload`) compensated at `u*`.
#[derive(Clone, Debug, PartialEq)]
pub struct HeteroSpec {
    /// Upload capacity of each box, in streams (`u_b`).
    pub uploads: Vec<f64>,
    /// Storage-to-upload ratio `d_b/u_b` (the balance condition wants it in
    /// `[2, d/u*]`).
    pub storage_per_upload: f64,
    /// The compensation threshold `u*`, in streams.
    pub u_star: f64,
}

impl JsonCodec for HeteroSpec {
    fn to_json(&self) -> Json {
        obj(vec![
            ("uploads", self.uploads.to_json()),
            ("storage_per_upload", self.storage_per_upload.to_json()),
            ("u_star", self.u_star.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(HeteroSpec {
            uploads: Vec::<f64>::from_json(json.field("uploads")?)?,
            storage_per_upload: f64::from_json(json.field("storage_per_upload")?)?,
            u_star: f64::from_json(json.field("u_star")?)?,
        })
    }
}

/// A reproducible system recipe: everything needed to rebuild the exact
/// [`VideoSystem`] a sequence was explored on (the allocation is a pure
/// function of the parameters and `alloc_seed`).
#[derive(Clone, Debug, PartialEq)]
pub struct SeedSystem {
    /// Number of boxes `n`.
    pub n: usize,
    /// Average upload `u`, in streams.
    pub u: f64,
    /// Per-box storage `d`, in videos.
    pub d: u32,
    /// Stripes per video `c`.
    pub c: u16,
    /// Replicas per stripe `k`.
    pub k: u32,
    /// Swarm growth bound `µ`.
    pub mu: f64,
    /// Video duration `T`, in rounds.
    pub duration: u32,
    /// Catalog size `m`.
    pub catalog: usize,
    /// Seed of the random stripe allocation.
    pub alloc_seed: u64,
    /// Heterogeneous population (homogeneous when `None`).
    pub hetero: Option<HeteroSpec>,
}

impl JsonCodec for SeedSystem {
    fn to_json(&self) -> Json {
        obj(vec![
            ("n", self.n.to_json()),
            ("u", self.u.to_json()),
            ("d", self.d.to_json()),
            ("c", self.c.to_json()),
            ("k", self.k.to_json()),
            ("mu", self.mu.to_json()),
            ("duration", self.duration.to_json()),
            ("catalog", self.catalog.to_json()),
            ("alloc_seed", self.alloc_seed.to_json()),
            ("hetero", self.hetero.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(SeedSystem {
            n: usize::from_json(json.field("n")?)?,
            u: f64::from_json(json.field("u")?)?,
            d: u32::from_json(json.field("d")?)?,
            c: u16::from_json(json.field("c")?)?,
            k: u32::from_json(json.field("k")?)?,
            mu: f64::from_json(json.field("mu")?)?,
            duration: u32::from_json(json.field("duration")?)?,
            catalog: usize::from_json(json.field("catalog")?)?,
            alloc_seed: u64::from_json(json.field("alloc_seed")?)?,
            hetero: Option::<HeteroSpec>::from_json(json.field("hetero")?)?,
        })
    }
}

impl SeedSystem {
    /// The bound-evaluation parameters of this recipe.
    pub fn bound_params(&self) -> BoundParams {
        BoundParams {
            n: self.n,
            m: self.catalog,
            c: self.c,
            k: self.k,
            u: self.u,
            mu: self.mu,
        }
    }

    /// Rebuilds the exact system: same parameters, same seeded allocation.
    ///
    /// # Panics
    /// Panics when the recipe is structurally invalid (the recipes shipped
    /// in corpus files and experiment configs are constructed valid).
    pub fn build(&self) -> VideoSystem {
        let params = SystemParams::new(
            self.n,
            self.u,
            self.d,
            self.c,
            self.k,
            self.mu,
            self.duration,
        );
        let allocator = RandomPermutationAllocator::new(self.k);
        let mut rng = StdRng::seed_from_u64(self.alloc_seed);
        match &self.hetero {
            None => {
                VideoSystem::homogeneous_with_catalog(params, self.catalog, &allocator, &mut rng)
                    .expect("seed recipe must describe a valid homogeneous system")
            }
            Some(h) => {
                let boxes =
                    VideoSystem::proportional_boxes(&h.uploads, h.storage_per_upload, self.c);
                let catalog = Catalog::uniform(self.catalog, self.duration, self.c);
                VideoSystem::heterogeneous(
                    params,
                    boxes,
                    catalog,
                    &allocator,
                    Some(Bandwidth::from_streams(h.u_star)),
                    &mut rng,
                )
                .expect("seed recipe must describe a valid heterogeneous system")
            }
        }
    }
}

/// One scripted churn transition of an explored path: before round `round`
/// is stepped, box `box_id` leaves the population (or rejoins it when
/// `rejoin` is set). A rejoining box is rebuilt from the seed recipe, so
/// the script stays a triple of integers and replays bit-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptedChurn {
    /// The engine round the event lands before (membership changes land
    /// ahead of admissions, exactly like the engine's churn drain).
    pub round: u64,
    /// The affected box.
    pub box_id: u32,
    /// `false` = the box leaves; `true` = it rejoins with its original
    /// capacities (and none of its old replicas).
    pub rejoin: bool,
}

impl ScriptedChurn {
    /// Materializes the engine event against the rebuilt `system`.
    pub fn event(&self, system: &VideoSystem) -> ChurnEvent {
        let b = BoxId(self.box_id);
        if self.rejoin {
            let node = *system
                .boxes()
                .iter()
                .nth(b.index())
                .unwrap_or_else(|| panic!("churn script names box {b} outside the universe"));
            ChurnEvent::Joined(node)
        } else {
            ChurnEvent::Left(b)
        }
    }
}

impl JsonCodec for ScriptedChurn {
    fn to_json(&self) -> Json {
        obj(vec![
            ("round", self.round.to_json()),
            ("box", self.box_id.to_json()),
            ("rejoin", self.rejoin.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(ScriptedChurn {
            round: u64::from_json(json.field("round")?)?,
            box_id: u32::from_json(json.field("box")?)?,
            rejoin: bool::from_json(json.field("rejoin")?)?,
        })
    }
}

/// One scripted fault window of an explored path: before round `round` is
/// stepped, box `box_id` degrades to `pct`% of its upload slots (`pct = 0`
/// is a full stall) for `duration` rounds, expiring on its own. The script
/// stays a quadruple of integers — fault windows are applied through the
/// engine's scheduler-invariant fault holds, so replays are
/// bit-identical on every pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptedFault {
    /// The engine round the window opens before (fault drains land ahead
    /// of admissions, exactly like the engine's fault drain).
    pub round: u64,
    /// The affected box.
    pub box_id: u32,
    /// Remaining upload percentage while the window is open (0 = stalled).
    pub pct: u8,
    /// Window length in rounds.
    pub duration: u64,
}

impl ScriptedFault {
    /// Materializes the engine event (`pct = 0` stalls, otherwise
    /// degrades), closing at `round + duration`.
    pub fn event(&self) -> FaultEvent {
        let box_id = BoxId(self.box_id);
        let until = self.round + self.duration;
        if self.pct == 0 {
            FaultEvent::Stalled { box_id, until }
        } else {
            FaultEvent::Degraded {
                box_id,
                pct: self.pct,
                until,
            }
        }
    }
}

impl JsonCodec for ScriptedFault {
    fn to_json(&self) -> Json {
        obj(vec![
            ("round", self.round.to_json()),
            ("box", self.box_id.to_json()),
            ("pct", (self.pct as u32).to_json()),
            ("duration", self.duration.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let pct = u32::from_json(json.field("pct")?)?;
        if pct > 100 {
            return Err(JsonError::new(format!("fault pct {pct} is above 100")));
        }
        Ok(ScriptedFault {
            round: u64::from_json(json.field("round")?)?,
            box_id: u32::from_json(json.field("box")?)?,
            pct: pct as u8,
            duration: u64::from_json(json.field("duration")?)?,
        })
    }
}

/// A replayable seed file: the fuzz-gate dump format and the regression
/// corpus format under `tests/corpus/`. Rebuild the system with
/// [`SeedSystem::build`], replay `demands` (interleaved with the `churn`
/// script, under a repair planner when `repair_budget` is set) for
/// `horizon` rounds.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedFile {
    /// The system recipe.
    pub system: SeedSystem,
    /// Rounds to simulate.
    pub horizon: u64,
    /// The demand sequence.
    pub demands: DemandTrace,
    /// Scripted churn events, applied before their round is stepped
    /// (empty for static-population seeds).
    pub churn: Vec<ScriptedChurn>,
    /// Scripted fault windows, applied before their round is stepped
    /// (empty for fault-free seeds).
    pub faults: Vec<ScriptedFault>,
    /// Per-round repair budget to attach (`None` = no repair planner).
    pub repair_budget: Option<u32>,
    /// Graceful-degradation controller to attach to every variant
    /// (`None` = no controller).
    pub degradation: Option<DegradationConfig>,
    /// Human-readable provenance (what this seed reproduces).
    pub note: String,
}

impl JsonCodec for SeedFile {
    fn to_json(&self) -> Json {
        obj(vec![
            ("system", self.system.to_json()),
            ("horizon", self.horizon.to_json()),
            ("demands", self.demands.to_json()),
            ("churn", self.churn.to_json()),
            ("faults", self.faults.to_json()),
            ("repair_budget", self.repair_budget.to_json()),
            ("degradation", self.degradation.to_json()),
            ("note", self.note.to_json()),
        ])
    }
    /// Also rejects scripts a replay could not apply: a churn or fault
    /// event on a box outside the universe, or a churn script at odds with
    /// the membership it produces (see `churn_script_valid`).
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let seed = SeedFile {
            system: SeedSystem::from_json(json.field("system")?)?,
            horizon: u64::from_json(json.field("horizon")?)?,
            demands: DemandTrace::from_json(json.field("demands")?)?,
            churn: Vec::from_json(json.field("churn")?)?,
            faults: Vec::from_json(json.field("faults")?)?,
            repair_budget: Option::from_json(json.field("repair_budget")?)?,
            degradation: Option::from_json(json.field("degradation")?)?,
            note: String::from_json(json.field("note")?)?,
        };
        let n = seed.system.n;
        let boxes = seed.churn.iter().map(|e| ("churn", e.box_id));
        let mut boxes = boxes.chain(seed.faults.iter().map(|f| ("fault", f.box_id)));
        if let Some((kind, b)) = boxes.find(|&(_, b)| b as usize >= n) {
            return Err(JsonError::new(format!(
                "{kind} script names box {b} outside the universe of {n} boxes"
            )));
        }
        if !churn_script_valid(&seed.churn, n) {
            return Err(JsonError::new(
                "churn script makes a departed box leave or a live box rejoin",
            ));
        }
        Ok(seed)
    }
}

impl SeedFile {
    /// Loads a seed file from disk.
    pub fn load(path: &std::path::Path) -> Result<SeedFile, JsonError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| JsonError::new(format!("{}: {e}", path.display())))?;
        SeedFile::from_json_str(&text)
    }

    /// Writes the seed file to disk (pretty-printed enough to diff).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string() + "\n")
    }
}

/// The engine variants the differential gate steps in lock-step: the
/// incremental reference and the textbook matching that shares no code
/// with `vod-flow`. (Both build their candidate rows in the one candidate
/// pipeline; `tests/active_set.rs` checks those rows against a naive cache
/// model.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineVariant {
    /// The max-flow scheduler's incremental matcher (reference).
    Incremental,
    /// [`NaiveScheduler`] (Kuhn's algorithm over `Vec`-of-`Vec` state,
    /// reached through the trait's default bridges).
    Naive,
}

impl EngineVariant {
    /// The differential gate's variant set (reference first).
    pub const GATE: [EngineVariant; 2] = [EngineVariant::Incremental, EngineVariant::Naive];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EngineVariant::Incremental => "incremental",
            EngineVariant::Naive => "naive",
        }
    }

    /// A fresh scheduler of this variant.
    fn scheduler(self) -> Box<dyn Scheduler> {
        match self {
            EngineVariant::Incremental => Box::new(MaxFlowScheduler::new()),
            EngineVariant::Naive => Box::new(NaiveScheduler::new()),
        }
    }

    /// Builds a fresh simulator of this variant over `system`.
    pub fn simulator<'a>(self, system: &'a VideoSystem, config: SimConfig) -> Simulator<'a> {
        Simulator::with_scheduler(system, config, self.scheduler())
    }

    /// Branches `sim` (which must be of this variant) with a fresh
    /// scheduler of the same kind.
    fn fork<'a>(self, sim: &Simulator<'a>) -> Simulator<'a> {
        sim.fork_with(self.scheduler())
    }
}

/// What to explore and how hard.
#[derive(Clone, Debug)]
pub struct ExploreSpec {
    /// The system recipe.
    pub seed: SeedSystem,
    /// Exploration depth in rounds (≤ 8 stays tractable).
    pub horizon: u64,
    /// Step every transition through all [`EngineVariant::GATE`] variants
    /// and assert bit-equality (2× the engine work; off = reference only).
    pub differential: bool,
    /// Stop at the first infeasible sequence instead of counting them all
    /// (counterexample search below the threshold).
    pub stop_on_failure: bool,
    /// Truncate after this many canonical states (`None` = exhaustive; a
    /// truncated run proves nothing universal and is flagged).
    pub max_states: Option<u64>,
    /// Maximum churn transitions (box leaves / rejoins) along any explored
    /// path (0 = static population). Each churn transition is a standalone
    /// edge: the event lands, then the engine steps one round with no new
    /// demands — interleaving membership changes with admissible demand
    /// batches exactly like the engine's churn drain.
    pub churn_budget: u32,
    /// Boxes eligible to churn: the ascending prefix `0..churn_boxes` of
    /// the universe, keeping the branching factor bounded.
    pub churn_boxes: usize,
    /// Maximum fault windows (stalls / upload degradations) along any
    /// explored path (0 = fault-free). Like churn, each fault transition
    /// is a standalone edge: the window opens, then the engine steps one
    /// round with no new demands — interleaving capacity faults with
    /// admissible demand batches exactly like the engine's fault drain.
    pub fault_budget: u32,
    /// Boxes eligible to fault: the ascending prefix `0..fault_boxes`.
    pub fault_boxes: usize,
    /// Per-round repair budget to attach to every variant (`None` = no
    /// repair; lost replicas stay lost).
    pub repair_budget: Option<u32>,
}

impl ExploreSpec {
    /// Exhaustive differential exploration of `seed` to `horizon`, with a
    /// static population (opt into churn via [`ExploreSpec::churn_budget`]).
    pub fn new(seed: SeedSystem, horizon: u64) -> Self {
        ExploreSpec {
            seed,
            horizon,
            differential: true,
            stop_on_failure: false,
            max_states: None,
            churn_budget: 0,
            churn_boxes: 0,
            fault_budget: 0,
            fault_boxes: 0,
            repair_budget: None,
        }
    }

    /// Enables bounded churn-event branching: up to `budget` leave/rejoin
    /// transitions per path over the first `boxes` boxes.
    pub fn with_churn(mut self, budget: u32, boxes: usize) -> Self {
        self.churn_budget = budget;
        self.churn_boxes = boxes;
        self
    }

    /// Enables bounded fault-window branching: up to `budget` stall /
    /// degradation windows per path over the first `boxes` boxes.
    pub fn with_faults(mut self, budget: u32, boxes: usize) -> Self {
        self.fault_budget = budget;
        self.fault_boxes = boxes;
        self
    }

    /// Attaches a repair planner with the given per-round budget to every
    /// explored variant.
    pub fn with_repair(mut self, budget: u32) -> Self {
        self.repair_budget = Some(budget);
        self
    }
}

/// What the explorer found.
#[derive(Clone, Debug, Default)]
pub struct ExploreOutcome {
    /// Unique canonical states visited (including the root).
    pub canonical_states: u64,
    /// Transitions that reached an already-visited canonical state.
    pub transpositions: u64,
    /// Transitions stepped through the engine.
    pub edges: u64,
    /// Infeasible sequences found (an unserved request — Lemma 1 fails).
    pub failures: u64,
    /// True when `max_states` cut the exploration short.
    pub truncated: bool,
    /// The first failing demand sequence, unshrunk
    /// ([`shrink_counterexample`] minimizes it).
    pub counterexample: Option<DemandTrace>,
    /// The churn script of the first failing path (empty when churn
    /// branching is off or the failure needed no churn) — replay the
    /// counterexample with [`replay_fails_scripted`] under this script.
    pub counterexample_churn: Vec<ScriptedChurn>,
    /// The fault script of the first failing path (empty when fault
    /// branching is off or the failure needed no faults).
    pub counterexample_faults: Vec<ScriptedFault>,
    /// Replayable dumps of any differential divergence (empty = gate green).
    pub divergences: Vec<SeedFile>,
}

impl ExploreOutcome {
    /// True when the run completed exhaustively (nothing truncated it) and
    /// every explored sequence was served by every engine variant.
    pub fn verified(&self) -> bool {
        !self.truncated && self.failures == 0 && self.divergences.is_empty()
    }

    /// Dedupe hit rate: transpositions over all state-producing edges.
    pub fn dedupe_rate(&self) -> f64 {
        let landings = self.canonical_states.saturating_sub(1) + self.transpositions;
        if landings == 0 {
            0.0
        } else {
            self.transpositions as f64 / landings as f64
        }
    }
}

/// One per-round demand batch: `(box, video)` assignments for the round.
type Batch = Vec<(BoxId, VideoId)>;

/// One-shot generator feeding exactly one batch at one round.
struct BatchGen<'b> {
    round: u64,
    batch: &'b [(BoxId, VideoId)],
}

impl DemandGenerator for BatchGen<'_> {
    fn demands_at(&mut self, round: u64, _occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        if round == self.round {
            self.batch
                .iter()
                .map(|&(b, v)| VideoDemand::new(b, v, round))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn name(&self) -> &'static str {
        "exhaustive-batch"
    }
}

/// µ-headroom of a swarm of post-departure size `f`: how many joins keep
/// `f(t+1) ≤ ⌈max{f(t),1}·µ⌉` (the paper's growth rule, matching the
/// engine's [`vod_sim::SwarmTracker`] semantics where departures free
/// capacity the same round).
fn mu_headroom(f: usize, mu: f64) -> usize {
    let cap = ((f.max(1) as f64) * mu).ceil() as usize;
    cap.saturating_sub(f)
}

/// Checks that `trace` is a clean µ-admissible demand sequence for an
/// `n`-box system with video duration `duration`: every demand targets a
/// free box (no box plays two videos at once) and every round's per-video
/// joins respect the growth rule relative to the live (post-departure)
/// swarm size. This is the demand-side mirror of the engine's admission.
pub fn is_admissible(trace: &DemandTrace, n: usize, duration: u64, mu: f64) -> bool {
    let Some(last) = trace.last_round() else {
        return true;
    };
    // playing[b] = (video, ends_at) while box b is busy.
    let mut playing: Vec<Option<(VideoId, u64)>> = vec![None; n];
    for round in 0..=last {
        for slot in playing.iter_mut() {
            if matches!(slot, Some((_, ends)) if *ends <= round) {
                *slot = None;
            }
        }
        let mut joins: std::collections::HashMap<VideoId, usize> = std::collections::HashMap::new();
        for demand in trace.at(round) {
            let idx = demand.box_id.index();
            if idx >= n || playing[idx].is_some() {
                return false;
            }
            playing[idx] = Some((demand.video, round + duration));
            *joins.entry(demand.video).or_default() += 1;
        }
        for (&video, &count) in &joins {
            let live = playing
                .iter()
                .flatten()
                .filter(|(v, ends)| *v == video && *ends > round)
                .count();
            // `live` already includes this round's joins.
            let before = live - count;
            if count > mu_headroom(before, mu) {
                return false;
            }
        }
    }
    true
}

/// Exploration context threaded through the recursion.
struct Ctx<'s> {
    spec: &'s ExploreSpec,
    visited: HashSet<(u64, u32, u32), BuildHasherDefault<FxHasher64>>,
    out: ExploreOutcome,
    /// Demand batches of the current DFS path, indexed by round.
    path: Vec<Batch>,
    /// Churn events of the current DFS path (each lands before its round).
    churn_path: Vec<ScriptedChurn>,
    /// Fault windows of the current DFS path (each opens before its round).
    fault_path: Vec<ScriptedFault>,
}

impl Ctx<'_> {
    /// True when nothing further may be explored.
    fn done(&self) -> bool {
        self.out.truncated
            || (self.spec.stop_on_failure && self.out.counterexample.is_some())
            || self.out.divergences.len() >= MAX_DIVERGENCE_DUMPS
    }

    fn path_trace(&self) -> DemandTrace {
        DemandTrace::from_demands(self.path.iter().enumerate().flat_map(|(round, batch)| {
            batch
                .iter()
                .map(move |&(b, v)| VideoDemand::new(b, v, round as u64))
        }))
    }
}

/// Divergence dumps are capped: one is already a gate failure, a handful
/// aids debugging, thousands would just burn disk and wall-clock.
const MAX_DIVERGENCE_DUMPS: usize = 4;

/// Enumerates every µ-admissible demand batch for the reference simulator's
/// current round, deterministically (free boxes ascending, idle before
/// videos ascending). The empty batch comes first, so pure-idle progress is
/// always explored.
fn admissible_batches(reference: &Simulator, system: &VideoSystem, mu: f64) -> Vec<Batch> {
    let now = reference.round();
    let n = system.n();
    let m = system.m();
    let mut free: Vec<BoxId> = Vec::new();
    let mut live = vec![0usize; m];
    for idx in 0..n {
        let b = BoxId(idx as u32);
        match reference.playback(b) {
            Some(st) if st.ends_at > now => live[st.video.index()] += 1,
            _ => free.push(b),
        }
    }
    let headroom: Vec<usize> = live.iter().map(|&f| mu_headroom(f, mu)).collect();

    let mut batches = Vec::new();
    let mut used = vec![0usize; m];
    let mut current: Batch = Vec::new();
    fn rec(
        i: usize,
        free: &[BoxId],
        headroom: &[usize],
        used: &mut Vec<usize>,
        current: &mut Batch,
        batches: &mut Vec<Batch>,
    ) {
        if i == free.len() {
            batches.push(current.clone());
            return;
        }
        // Box stays idle this round.
        rec(i + 1, free, headroom, used, current, batches);
        for v in 0..headroom.len() {
            if used[v] < headroom[v] {
                used[v] += 1;
                current.push((free[i], VideoId(v as u32)));
                rec(i + 1, free, headroom, used, current, batches);
                current.pop();
                used[v] -= 1;
            }
        }
    }
    rec(0, &free, &headroom, &mut used, &mut current, &mut batches);
    batches
}

/// Normalizes one round's metrics for cross-variant comparison: the rule
/// is [`RoundMetrics::normalized`].
pub fn normalize_round(metrics: &RoundMetrics) -> RoundMetrics {
    metrics.normalized()
}

/// Normalizes a whole report for cross-variant comparison (per-round
/// normalization; everything else compares exactly).
///
/// Against [`EngineVariant::Naive`] one more thing is the scheduler's
/// choice, for the same reason [`RoundMetrics::normalized`] blanks the
/// sourcing split: Lemma 1 fixes how many requests an infeasible round
/// leaves unserved, not whose. [`replay_seed`] therefore compares the
/// *sum* of [`vod_sim::PlaybackRecord::stalled_rounds`] over that pair of
/// reports (`pool_stalls`) rather than each record's count — on
/// `tests/corpus/below_threshold_counterexample.json` the two matchings
/// differ only in whether b1 or b3 carries the one stalled round.
pub fn normalize_report(report: &SimulationReport) -> SimulationReport {
    let mut r = report.clone();
    r.rounds = r.rounds.iter().map(normalize_round).collect();
    r
}

/// Blanks every playback's stall count and returns their sum (see
/// [`normalize_report`]).
fn pool_stalls(report: &mut SimulationReport) -> u64 {
    let stalls = report.playbacks.iter_mut();
    stalls.map(|p| std::mem::take(&mut p.stalled_rounds)).sum()
}

/// Runs the bounded exhaustive exploration described by `spec`.
pub fn explore(spec: &ExploreSpec) -> ExploreOutcome {
    let system = spec.seed.build();
    let config = SimConfig::new(spec.horizon);
    let variants: Vec<EngineVariant> = if spec.differential {
        EngineVariant::GATE.to_vec()
    } else {
        vec![EngineVariant::Incremental]
    };
    let mut bundle: Vec<Simulator> = variants
        .iter()
        .map(|v| v.simulator(&system, config))
        .collect();
    if let Some(budget) = spec.repair_budget {
        for sim in &mut bundle {
            sim.attach_repair(RepairPlanner::for_system(&system, budget));
        }
    }
    let mut ctx = Ctx {
        spec,
        visited: HashSet::default(),
        out: ExploreOutcome::default(),
        path: Vec::new(),
        churn_path: Vec::new(),
        fault_path: Vec::new(),
    };
    ctx.visited.insert((bundle[0].state_signature(), 0, 0));
    ctx.out.canonical_states = 1;
    expand(&mut ctx, &system, &variants, &bundle, 0);
    ctx.out
}

fn expand(
    ctx: &mut Ctx,
    system: &VideoSystem,
    variants: &[EngineVariant],
    bundle: &[Simulator],
    depth: u64,
) {
    if depth >= ctx.spec.horizon || ctx.done() {
        return;
    }
    let mu = ctx.spec.seed.mu;
    let batches = admissible_batches(&bundle[0], system, mu);
    for batch in batches {
        if ctx.done() {
            return;
        }
        step_edge(ctx, system, variants, bundle, depth, batch, None, None);
    }
    // Churn-event branches: standalone transitions — the membership change
    // lands (before admissions, like the engine's churn drain), then the
    // engine steps one round with no new demands. Bounded by the per-path
    // budget over the eligible box prefix.
    if (ctx.churn_path.len() as u32) < ctx.spec.churn_budget {
        let now = bundle[0].round();
        for idx in 0..ctx.spec.churn_boxes.min(system.n()) {
            if ctx.done() {
                return;
            }
            let b = BoxId(idx as u32);
            let rejoin = !bundle[0].is_alive(b);
            // Never drop the last live box — an empty population has no
            // behaviour left to verify.
            if !rejoin && bundle[0].alive_count() <= 1 {
                continue;
            }
            let event = ScriptedChurn {
                round: now,
                box_id: b.0,
                rejoin,
            };
            step_edge(
                ctx,
                system,
                variants,
                bundle,
                depth,
                Vec::new(),
                Some(event),
                None,
            );
        }
    }
    // Fault-window branches: like churn, each is a standalone transition —
    // the window opens (before admissions, like the engine's fault drain),
    // then the engine steps one round with no new demands. One stall and
    // one half-upload window per eligible box keeps branching bounded.
    if (ctx.fault_path.len() as u32) < ctx.spec.fault_budget {
        let now = bundle[0].round();
        for idx in 0..ctx.spec.fault_boxes.min(system.n()) {
            for pct in [0u8, 50] {
                if ctx.done() {
                    return;
                }
                let fault = ScriptedFault {
                    round: now,
                    box_id: idx as u32,
                    pct,
                    duration: 2,
                };
                step_edge(
                    ctx,
                    system,
                    variants,
                    bundle,
                    depth,
                    Vec::new(),
                    None,
                    Some(fault),
                );
            }
        }
    }
}

/// Steps one edge — an admissible demand batch, optionally preceded by a
/// scripted churn event or fault window — through every variant, runs the
/// differential gate on the landed round, and recurses into unvisited
/// states.
#[allow(clippy::too_many_arguments)]
fn step_edge(
    ctx: &mut Ctx,
    system: &VideoSystem,
    variants: &[EngineVariant],
    bundle: &[Simulator],
    depth: u64,
    batch: Batch,
    churn: Option<ScriptedChurn>,
    fault: Option<ScriptedFault>,
) {
    ctx.out.edges += 1;
    let mut children: Vec<Simulator> = variants
        .iter()
        .zip(bundle)
        .map(|(v, sim)| v.fork(sim))
        .collect();
    if let Some(event) = churn {
        for child in children.iter_mut() {
            child.apply_churn(event.event(system));
        }
    }
    if let Some(window) = fault {
        for child in children.iter_mut() {
            child.apply_fault(window.event());
        }
    }
    let feasible: Vec<bool> = children
        .iter_mut()
        .map(|child| {
            let mut gen = BatchGen {
                round: child.round(),
                batch: &batch,
            };
            child.step(&mut gen)
        })
        .collect();
    ctx.path.push(batch);
    if let Some(event) = churn {
        ctx.churn_path.push(event);
    }
    if let Some(window) = fault {
        ctx.fault_path.push(window);
    }
    let pop = |ctx: &mut Ctx| {
        ctx.path.pop();
        if churn.is_some() {
            ctx.churn_path.pop();
        }
        if fault.is_some() {
            ctx.fault_path.pop();
        }
    };

    if ctx.spec.differential {
        // The landed round, and the Lemma-1 cut of its failure record when
        // it failed (an expanded path has no earlier failure).
        let outcome = |sim: &Simulator| {
            let report = sim.report_so_far();
            let round = normalize_round(report.rounds.last().expect("just stepped"));
            let cut = report.failures.last().map(|f| {
                debug_assert_eq!(f.round + 1, sim.round(), "an expanded path failed earlier");
                (f.obstruction_size, f.obstruction_capacity)
            });
            (round, cut)
        };
        let reference = outcome(&children[0]);
        for (i, child) in children.iter().enumerate().skip(1) {
            if outcome(child) != reference || feasible[i] != feasible[0] {
                ctx.out.divergences.push(SeedFile {
                    system: ctx.spec.seed.clone(),
                    horizon: ctx.spec.horizon,
                    demands: ctx.path_trace(),
                    churn: ctx.churn_path.clone(),
                    faults: ctx.fault_path.clone(),
                    repair_budget: ctx.spec.repair_budget,
                    degradation: None,
                    note: format!(
                        "differential divergence at round {} between {} and {}",
                        children[0].round() - 1,
                        variants[0].label(),
                        variants[i].label()
                    ),
                });
                pop(ctx);
                return;
            }
        }
    }

    if !feasible[0] {
        ctx.out.failures += 1;
        if ctx.out.counterexample.is_none() {
            ctx.out.counterexample = Some(ctx.path_trace());
            ctx.out.counterexample_churn = ctx.churn_path.clone();
            ctx.out.counterexample_faults = ctx.fault_path.clone();
        }
    } else {
        // Transposition keys pair the state signature with the churn and
        // fault budget spent reaching it: two paths landing on the same
        // state with different budgets left must both be expanded, or the
        // one with budget to spare would be pruned out of its subtree.
        let key = (
            children[0].state_signature(),
            ctx.churn_path.len() as u32,
            ctx.fault_path.len() as u32,
        );
        if ctx.visited.insert(key) {
            ctx.out.canonical_states += 1;
            if ctx
                .spec
                .max_states
                .is_some_and(|cap| ctx.out.canonical_states >= cap)
            {
                ctx.out.truncated = true;
            } else {
                expand(ctx, system, variants, &children, depth + 1);
            }
        } else {
            ctx.out.transpositions += 1;
        }
    }
    pop(ctx);
}

/// Replays `trace` on a fresh reference simulator and reports whether some
/// round goes infeasible within `horizon` rounds.
pub fn replay_fails(seed: &SeedSystem, trace: &DemandTrace, horizon: u64) -> bool {
    replay_fails_scripted(seed, trace, &[], &[], None, horizon)
}

/// [`replay_fails`] with scripted churn and fault interleavings (and an
/// optional repair budget): each event lands before its round is stepped,
/// exactly as the explorer's churn and fault edges applied it.
pub fn replay_fails_scripted(
    seed: &SeedSystem,
    trace: &DemandTrace,
    churn: &[ScriptedChurn],
    faults: &[ScriptedFault],
    repair_budget: Option<u32>,
    horizon: u64,
) -> bool {
    let system = seed.build();
    let config = SimConfig::new(horizon).continue_on_failure();
    let mut generator = TraceReplay::new(trace.clone());
    let mut sim = EngineVariant::Incremental.simulator(&system, config);
    if let Some(budget) = repair_budget {
        sim.attach_repair(RepairPlanner::for_system(&system, budget));
    }
    while sim.round() < horizon {
        let now = sim.round();
        for event in churn.iter().filter(|e| e.round == now) {
            sim.apply_churn(event.event(&system));
        }
        for window in faults.iter().filter(|f| f.round == now) {
            sim.apply_fault(window.event());
        }
        sim.step(&mut generator);
    }
    !sim.report_so_far().failures.is_empty()
}

/// Shrinks a failing demand sequence to a locally minimal counterexample:
/// whole leading rounds, whole trailing rounds, then single demands are
/// greedily deleted while the sequence stays µ-admissible *and* still
/// fails on replay, to a fixpoint (no single deletion preserves failure).
pub fn shrink_counterexample(seed: &SeedSystem, trace: &DemandTrace, horizon: u64) -> DemandTrace {
    shrink_scripted(seed, trace, &[], &[], None, horizon).0
}

/// A churn script is replayable only while its events stay consistent with
/// the membership they produce: a box leaves only while alive and rejoins
/// only while departed. Deleting one event can strand a later one, so
/// shrink candidates are vetted here before replay.
fn churn_script_valid(churn: &[ScriptedChurn], n: usize) -> bool {
    let mut alive = vec![true; n];
    for event in churn {
        let idx = event.box_id as usize;
        if idx >= n || alive[idx] == event.rejoin {
            return false;
        }
        alive[idx] = event.rejoin;
    }
    true
}

/// [`shrink_counterexample`] under churn and fault scripts (and an
/// optional repair budget): greedily deletes demands, churn events, and
/// fault windows — any deletion that keeps the replay failing (and the
/// demands µ-admissible, and the churn script consistent) survives, to a
/// fixpoint. Returns the minimized `(demands, churn, faults)` scenario.
pub fn shrink_scripted(
    seed: &SeedSystem,
    trace: &DemandTrace,
    churn: &[ScriptedChurn],
    faults: &[ScriptedFault],
    repair_budget: Option<u32>,
    horizon: u64,
) -> (DemandTrace, Vec<ScriptedChurn>, Vec<ScriptedFault>) {
    let n = seed.n;
    let duration = seed.duration as u64;
    let mu = seed.mu;
    let still_failing =
        |demands: &DemandTrace, churn: &[ScriptedChurn], faults: &[ScriptedFault]| {
            !(demands.is_empty() && churn.is_empty() && faults.is_empty())
                && is_admissible(demands, n, duration, mu)
                && churn_script_valid(churn, n)
                && replay_fails_scripted(seed, demands, churn, faults, repair_budget, horizon)
        };

    let mut best = trace.clone();
    let mut best_churn = churn.to_vec();
    let mut best_faults = faults.to_vec();
    loop {
        let mut improved = false;
        // Script deletions first: they are few and cheap to try, and
        // removing a redundant event before demands shrink keeps the
        // demand minimization from growing a dependency on it.
        for skip in 0..best_faults.len() {
            let mut candidate = best_faults.clone();
            candidate.remove(skip);
            if still_failing(&best, &best_churn, &candidate) {
                best_faults = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            // Churn deletions next, keeping the script consistent.
            for skip in 0..best_churn.len() {
                let mut candidate = best_churn.clone();
                candidate.remove(skip);
                if still_failing(&best, &candidate, &best_faults) {
                    best_churn = candidate;
                    improved = true;
                    break;
                }
            }
        }
        if improved {
            continue;
        }
        let demands: Vec<VideoDemand> = best.iter().copied().collect();
        let rounds: Vec<u64> = {
            let mut r: Vec<u64> = demands.iter().map(|d| d.round).collect();
            r.dedup();
            r
        };
        // Whole-round deletions first (prefix, then suffix, then middle):
        // they cut the sequence fastest.
        let mut candidates: Vec<DemandTrace> = Vec::new();
        for &round in rounds.iter() {
            candidates.push(DemandTrace::from_demands(
                demands.iter().copied().filter(|d| d.round != round),
            ));
        }
        // Then every single-demand deletion.
        for skip in 0..demands.len() {
            candidates.push(DemandTrace::from_demands(
                demands
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, d)| *d),
            ));
        }
        for candidate in candidates {
            if candidate.len() < best.len() && still_failing(&candidate, &best_churn, &best_faults)
            {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best, best_churn, best_faults);
        }
    }
}

/// Replays a seed file through both [`EngineVariant::GATE`] variants and
/// checks the normalized reports are bit-identical, stalls pooled (see
/// [`normalize_report`]). Returns the reference
/// report, or a description of the first divergence. Seeds carrying churn
/// or fault scripts (or a repair budget, or a degradation controller)
/// replay them identically on every variant, each event landing before
/// its round is stepped.
pub fn replay_seed(seed: &SeedFile) -> Result<SimulationReport, String> {
    let system = seed.system.build();
    let config = SimConfig::new(seed.horizon).continue_on_failure();
    let run = |variant: EngineVariant| {
        let mut generator = TraceReplay::new(seed.demands.clone());
        let mut sim = variant.simulator(&system, config);
        if let Some(budget) = seed.repair_budget {
            sim.attach_repair(RepairPlanner::for_system(&system, budget));
        }
        if let Some(cfg) = seed.degradation {
            sim.attach_degradation(cfg);
        }
        while sim.round() < seed.horizon {
            let now = sim.round();
            for event in seed.churn.iter().filter(|e| e.round == now) {
                sim.apply_churn(event.event(&system));
            }
            for window in seed.faults.iter().filter(|f| f.round == now) {
                sim.apply_fault(window.event());
            }
            sim.step(&mut generator);
        }
        sim.into_report()
    };
    let reference = run(EngineVariant::Incremental);
    for variant in EngineVariant::GATE.into_iter().skip(1) {
        let mut normalized = normalize_report(&reference);
        let mut other = normalize_report(&run(variant));
        let stalls = (pool_stalls(&mut normalized), pool_stalls(&mut other));
        if other != normalized || stalls.0 != stalls.1 {
            let detail = normalized
                .rounds
                .iter()
                .zip(&other.rounds)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("first differing round: {a:?} vs {b:?}"))
                .unwrap_or_else(|| {
                    let (ours, theirs) = stalls;
                    format!("rounds equal; reports differ elsewhere, or in total stalled rounds: {ours} vs {theirs}")
                });
            return Err(format!(
                "replay of \"{}\" diverges: {} vs {} ({detail})",
                seed.note,
                EngineVariant::Incremental.label(),
                variant.label()
            ));
        }
    }
    Ok(reference)
}

/// Result of the first-moment cross-check: the analytic bound next to the
/// exhaustively decided failure fraction.
#[derive(Clone, Copy, Debug)]
pub struct FirstMomentCheck {
    /// The analytic upper bound on the failure probability (1.0 = vacuous).
    pub bound: f64,
    /// Exhaustively decided failure fraction over the allocation seeds.
    pub empirical: f64,
    /// Allocations admitting at least one failing admissible sequence.
    pub failing: usize,
    /// Allocation seeds tried.
    pub trials: usize,
}

impl FirstMomentCheck {
    /// The bound must upper-bound the truth (exhaustively decided, the
    /// empirical fraction *is* the truth over these allocations, modulo
    /// sampling of the allocation space).
    pub fn consistent(&self) -> bool {
        self.empirical <= self.bound + 1e-9
    }
}

/// Cross-checks the first-moment bound of [`crate::obstruction`] against
/// ground truth: for each allocation seed the explorer exhaustively decides
/// whether *any* µ-admissible sequence (up to `horizon`) fails, and the
/// failure fraction is compared against [`first_moment_bound`].
pub fn crosscheck_first_moment(base: &SeedSystem, horizon: u64, seeds: &[u64]) -> FirstMomentCheck {
    let mut failing = 0usize;
    for &alloc_seed in seeds {
        let mut seed = base.clone();
        seed.alloc_seed = alloc_seed;
        let spec = ExploreSpec {
            differential: false,
            stop_on_failure: true,
            ..ExploreSpec::new(seed, horizon)
        };
        if explore(&spec).failures > 0 {
            failing += 1;
        }
    }
    FirstMomentCheck {
        bound: first_moment_bound(&base.bound_params()),
        empirical: failing as f64 / seeds.len().max(1) as f64,
        failing,
        trials: seeds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_seed() -> SeedSystem {
        SeedSystem {
            n: 4,
            u: 3.0,
            d: 2,
            c: 2,
            k: 3,
            mu: 1.1,
            duration: 4,
            catalog: 2,
            alloc_seed: 7,
            hetero: None,
        }
    }

    #[test]
    fn seed_system_round_trips_and_rebuilds_identically() {
        let seed = tiny_seed();
        let json = seed.to_json_string();
        let back = SeedSystem::from_json_str(&json).unwrap();
        assert_eq!(seed, back);
        assert_eq!(seed.build(), back.build());
    }

    #[test]
    fn seed_file_round_trips() {
        let file = SeedFile {
            system: tiny_seed(),
            horizon: 6,
            demands: DemandTrace::from_demands([
                VideoDemand::new(BoxId(0), VideoId(0), 0),
                VideoDemand::new(BoxId(1), VideoId(1), 2),
            ]),
            churn: vec![
                ScriptedChurn {
                    round: 1,
                    box_id: 2,
                    rejoin: false,
                },
                ScriptedChurn {
                    round: 3,
                    box_id: 2,
                    rejoin: true,
                },
            ],
            faults: vec![ScriptedFault {
                round: 2,
                box_id: 0,
                pct: 50,
                duration: 2,
            }],
            repair_budget: Some(2),
            degradation: Some(DegradationConfig::default()),
            note: "unit".to_string(),
        };
        let back = SeedFile::from_json_str(&file.to_json_string()).unwrap();
        assert_eq!(file, back);
    }

    /// A scripted seed on the 4-box tiny system, for the malformed-file
    /// tests to break one way each.
    fn scripted_seed() -> SeedFile {
        SeedFile {
            system: tiny_seed(),
            horizon: 4,
            demands: DemandTrace::from_demands([VideoDemand::new(BoxId(0), VideoId(0), 0)]),
            churn: vec![ScriptedChurn {
                round: 1,
                box_id: 2,
                rejoin: false,
            }],
            faults: vec![ScriptedFault {
                round: 2,
                box_id: 1,
                pct: 50,
                duration: 2,
            }],
            repair_budget: None,
            degradation: None,
            note: "malformed".to_string(),
        }
    }

    /// Loading `seed` fails with an error naming `expected`.
    fn assert_rejected(seed: &SeedFile, expected: &str) {
        let err = SeedFile::from_json_str(&seed.to_json_string()).unwrap_err();
        assert!(err.to_string().contains(expected), "{err}");
    }

    #[test]
    fn a_fault_on_a_box_outside_the_universe_is_a_load_error() {
        let mut seed = scripted_seed();
        assert!(SeedFile::from_json_str(&seed.to_json_string()).is_ok());
        seed.faults[0].box_id = 9;
        assert_rejected(
            &seed,
            "fault script names box 9 outside the universe of 4 boxes",
        );
    }

    #[test]
    fn churn_on_a_box_outside_the_universe_is_a_load_error() {
        let mut seed = scripted_seed();
        seed.churn[0].box_id = 4;
        assert_rejected(
            &seed,
            "churn script names box 4 outside the universe of 4 boxes",
        );
    }

    #[test]
    fn a_fault_pct_above_100_is_a_load_error() {
        let mut seed = scripted_seed();
        seed.faults[0].pct = 150;
        assert_rejected(&seed, "fault pct 150 is above 100");
    }

    #[test]
    fn an_inconsistent_churn_script_is_a_load_error() {
        let mut seed = scripted_seed();
        // Box 2 leaves twice without rejoining in between.
        seed.churn.push(ScriptedChurn {
            round: 3,
            box_id: 2,
            rejoin: false,
        });
        assert_rejected(&seed, "churn script makes a departed box leave");
        // A live box cannot rejoin.
        seed.churn = vec![ScriptedChurn {
            round: 1,
            box_id: 0,
            rejoin: true,
        }];
        assert_rejected(&seed, "a live box rejoin");
    }

    #[test]
    fn admissibility_mirrors_growth_and_occupancy() {
        // An empty swarm admits ⌈1·µ⌉ joins: two for µ = 1.1, not three.
        let pair = DemandTrace::from_demands([
            VideoDemand::new(BoxId(0), VideoId(0), 0),
            VideoDemand::new(BoxId(1), VideoId(0), 0),
        ]);
        assert!(is_admissible(&pair, 4, 4, 1.1));
        let burst = DemandTrace::from_demands([
            VideoDemand::new(BoxId(0), VideoId(0), 0),
            VideoDemand::new(BoxId(1), VideoId(0), 0),
            VideoDemand::new(BoxId(2), VideoId(0), 0),
        ]);
        assert!(!is_admissible(&burst, 4, 4, 1.1));
        assert!(is_admissible(&burst, 4, 4, 3.0));
        // A busy box cannot demand again before its playback ends.
        let busy = DemandTrace::from_demands([
            VideoDemand::new(BoxId(0), VideoId(0), 0),
            VideoDemand::new(BoxId(0), VideoId(1), 2),
        ]);
        assert!(!is_admissible(&busy, 4, 4, 2.0));
        // …but may rejoin exactly when it frees (duration 4: free at round 4).
        let rejoin = DemandTrace::from_demands([
            VideoDemand::new(BoxId(0), VideoId(0), 0),
            VideoDemand::new(BoxId(0), VideoId(1), 4),
        ]);
        assert!(is_admissible(&rejoin, 4, 4, 2.0));
    }

    #[test]
    fn explorer_dedupes_converging_histories() {
        let spec = ExploreSpec {
            differential: false,
            ..ExploreSpec::new(tiny_seed(), 5)
        };
        let out = explore(&spec);
        assert!(out.canonical_states > 1);
        assert!(
            out.transpositions > 0,
            "idle chains after cache expiry must converge"
        );
        assert_eq!(
            out.edges,
            out.canonical_states - 1 + out.transpositions + out.failures
        );
    }

    #[test]
    fn well_provisioned_tiny_system_verifies_exhaustively() {
        // u = 3, c = 2, µ = 1.1: c > (2µ²−1)/(u−1) = 0.71 holds, k = n −
        // 1 replicates every stripe on 3 of 4 boxes.
        let spec = ExploreSpec::new(tiny_seed(), 4);
        let out = explore(&spec);
        assert!(
            out.verified(),
            "failures {} divergences {}",
            out.failures,
            out.divergences.len()
        );
        assert!(out.canonical_states > 10);
    }

    #[test]
    fn starved_system_yields_a_minimal_counterexample() {
        // u = 1.2 < 1 + (2µ²−1)/c for µ = 1.5, c = 2: far below the
        // threshold, and k = 1 leaves single points of contention.
        let seed = SeedSystem {
            n: 4,
            u: 1.2,
            d: 2,
            c: 2,
            k: 1,
            mu: 1.5,
            duration: 4,
            catalog: 2,
            alloc_seed: 3,
            hetero: None,
        };
        let spec = ExploreSpec {
            differential: false,
            stop_on_failure: true,
            ..ExploreSpec::new(seed.clone(), 6)
        };
        let out = explore(&spec);
        assert!(out.failures > 0, "below-threshold system never failed");
        let raw = out.counterexample.expect("failure recorded");
        assert!(replay_fails(&seed, &raw, 6));
        let minimal = shrink_counterexample(&seed, &raw, 6);
        assert!(minimal.len() <= raw.len());
        assert!(is_admissible(
            &minimal,
            seed.n,
            seed.duration as u64,
            seed.mu
        ));
        assert!(replay_fails(&seed, &minimal, 6));

        // Irrelevant scripted events shrink away too: pad the scenario
        // with a fault window and a leave/rejoin pair the failure never
        // needed, and the greedy deletion pass removes every one of them.
        let padding_faults = [ScriptedFault {
            round: 0,
            box_id: 0,
            pct: 50,
            duration: 1,
        }];
        let padding_churn = [
            ScriptedChurn {
                round: 0,
                box_id: 3,
                rejoin: false,
            },
            ScriptedChurn {
                round: 1,
                box_id: 3,
                rejoin: true,
            },
        ];
        if replay_fails_scripted(&seed, &raw, &padding_churn, &padding_faults, None, 6) {
            let (demands, churn, faults) =
                shrink_scripted(&seed, &raw, &padding_churn, &padding_faults, None, 6);
            assert!(faults.is_empty(), "redundant fault window kept: {faults:?}");
            assert!(churn.is_empty(), "redundant churn events kept: {churn:?}");
            assert!(replay_fails(&seed, &demands, 6));
        }
    }

    #[test]
    fn churn_branching_widens_the_state_space_and_stays_verified() {
        // k = 3 of 4 boxes per stripe tolerates one departure, so the
        // at-threshold guarantee must survive every interleaving of one
        // leave/rejoin (over the first two boxes) with admissible demands
        // — with both variants bit-identical on churned branches too.
        let static_out = explore(&ExploreSpec {
            differential: false,
            ..ExploreSpec::new(tiny_seed(), 4)
        });
        let churn_spec = ExploreSpec::new(tiny_seed(), 4)
            .with_churn(1, 2)
            .with_repair(2);
        let out = explore(&churn_spec);
        assert!(
            out.verified(),
            "failures {} divergences {}",
            out.failures,
            out.divergences.len()
        );
        assert!(
            out.canonical_states > static_out.canonical_states,
            "churn edges must add states: {} vs {}",
            out.canonical_states,
            static_out.canonical_states
        );
        assert!(out.counterexample.is_none());
        assert!(out.counterexample_churn.is_empty());
    }

    #[test]
    fn churn_transposition_keys_track_remaining_budget() {
        // The dedupe key carries the churn budget already spent, so a state
        // reached with budget left keeps expanding: raising the budget can
        // only grow the explored edge set, never shrink it. (Losing two of
        // four boxes may legitimately starve a stripe, so failures are
        // allowed here — only coverage is asserted.)
        let static_out = explore(&ExploreSpec {
            differential: false,
            ..ExploreSpec::new(tiny_seed(), 3)
        });
        let one = explore(
            &ExploreSpec {
                differential: false,
                ..ExploreSpec::new(tiny_seed(), 3)
            }
            .with_churn(1, 2)
            .with_repair(1),
        );
        let two = explore(
            &ExploreSpec {
                differential: false,
                ..ExploreSpec::new(tiny_seed(), 3)
            }
            .with_churn(2, 2)
            .with_repair(1),
        );
        assert!(one.edges > static_out.edges);
        assert!(two.edges > one.edges);
        assert_eq!(one.failures, 0, "one tolerated departure must stay served");
    }

    #[test]
    fn scripted_churn_replays_through_every_pipeline() {
        let seed = SeedFile {
            system: tiny_seed(),
            horizon: 6,
            demands: DemandTrace::from_demands([
                VideoDemand::new(BoxId(0), VideoId(0), 0),
                VideoDemand::new(BoxId(1), VideoId(1), 2),
            ]),
            churn: vec![
                ScriptedChurn {
                    round: 1,
                    box_id: 3,
                    rejoin: false,
                },
                ScriptedChurn {
                    round: 4,
                    box_id: 3,
                    rejoin: true,
                },
            ],
            faults: Vec::new(),
            repair_budget: Some(2),
            degradation: None,
            note: "unit scripted churn".to_string(),
        };
        let report = replay_seed(&seed).expect("pipelines agree under scripted churn");
        assert_eq!(report.round_count(), 6);
        assert!(report.failures.is_empty());
        let repaired: u64 = report
            .rounds
            .iter()
            .filter_map(|r| r.repair.as_ref())
            .map(|s| s.repaired as u64)
            .sum();
        assert!(
            repaired > 0,
            "the departed holder's stripes must re-replicate"
        );
    }

    #[test]
    fn replay_seed_agrees_across_pipelines() {
        let seed = SeedFile {
            system: tiny_seed(),
            horizon: 6,
            demands: DemandTrace::from_demands([
                VideoDemand::new(BoxId(0), VideoId(0), 0),
                VideoDemand::new(BoxId(1), VideoId(1), 1),
                VideoDemand::new(BoxId(2), VideoId(0), 2),
            ]),
            churn: Vec::new(),
            faults: Vec::new(),
            repair_budget: None,
            degradation: None,
            note: "unit replay".to_string(),
        };
        let report = replay_seed(&seed).expect("pipelines agree");
        assert_eq!(report.round_count(), 6);
    }

    #[test]
    fn fault_branching_widens_the_state_space_and_stays_verified() {
        // k = 3 of 4 boxes per stripe tolerates one stalled holder, so the
        // at-threshold guarantee must survive every interleaving of one
        // fault window (stall or half-upload, over the first two boxes)
        // with admissible demands — with both variants bit-identical on
        // faulted branches too.
        let static_out = explore(&ExploreSpec {
            differential: false,
            ..ExploreSpec::new(tiny_seed(), 4)
        });
        let fault_spec = ExploreSpec::new(tiny_seed(), 4).with_faults(1, 2);
        let out = explore(&fault_spec);
        assert!(
            out.verified(),
            "failures {} divergences {}",
            out.failures,
            out.divergences.len()
        );
        assert!(
            out.canonical_states > static_out.canonical_states,
            "fault edges must add states: {} vs {}",
            out.canonical_states,
            static_out.canonical_states
        );
        assert!(out.counterexample_faults.is_empty());
    }

    #[test]
    fn scripted_faults_replay_through_every_pipeline() {
        let seed = SeedFile {
            system: tiny_seed(),
            horizon: 6,
            demands: DemandTrace::from_demands([
                VideoDemand::new(BoxId(0), VideoId(0), 0),
                VideoDemand::new(BoxId(1), VideoId(1), 2),
            ]),
            churn: Vec::new(),
            faults: vec![
                ScriptedFault {
                    round: 1,
                    box_id: 2,
                    pct: 0,
                    duration: 2,
                },
                ScriptedFault {
                    round: 3,
                    box_id: 3,
                    pct: 50,
                    duration: 1,
                },
            ],
            repair_budget: None,
            degradation: Some(DegradationConfig::default()),
            note: "unit scripted faults".to_string(),
        };
        let report = replay_seed(&seed).expect("pipelines agree under scripted faults");
        assert_eq!(report.round_count(), 6);
        // The degradation controller was attached, so every round reports
        // its windowed stats — and the stall window must cost slots.
        assert!(report.rounds.iter().all(|r| r.degradation.is_some()));
    }

    #[test]
    fn first_moment_crosscheck_is_consistent() {
        let check = crosscheck_first_moment(&tiny_seed(), 3, &[1, 2, 3]);
        assert_eq!(check.trials, 3);
        assert!(
            check.consistent(),
            "empirical {} > bound {}",
            check.empirical,
            check.bound
        );
    }
}
