//! `threshold-search`: the paper's E1 sweep — many short cold simulations
//! through `vod_analysis`, each `run_trial` issued after the previous one
//! returns.

use crate::layers::TracedRun;
use crate::long_run::SimTotals;
use crate::timed::{SharedLog, TimedGenerator, TimedScheduler, SPAN_STEP, SPAN_TRIAL};
use crate::workloads::{SweepTrial, SWEEP_FAMILIES, SWEEP_U};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use vod_analysis::{run_trial, run_workload, TrialOutcome, WorkloadKind};
use vod_core::{RandomPermutationAllocator, SystemParams, VideoId, VideoSystem};
use vod_sim::{SimConfig, SimulationReport, Simulator, TraceHandle};
use vod_workloads::{
    DemandGenerator, FlashCrowd, NeverOwnedAttack, NextVideoPolicy, SequentialViewing,
};

/// Worker threads of the end-to-end sweep. One, not the issue's two: this
/// class of host has two virtual processors and now and then runs both on
/// one core for a whole run, which made a two-thread sweep 40 % slower in
/// one run of four (README, "Steadiness").
pub const SWEEP_THREADS: usize = 1;

/// Worker threads of the traced run's parallel pass, the one behind
/// `analysis.parallel_efficiency` (not gated).
pub const PARALLEL_THREADS: usize = 2;

/// One pass over the sweep through `run_trial`.
pub struct SweepPass {
    pub wall_s: f64,
    /// Host latency of each trial, by trial index.
    pub trial_ms: Vec<f64>,
    /// `None` = the trial returned `Err`.
    pub outcomes: Vec<Option<TrialOutcome>>,
}

/// Closed-loop fan-out: `threads` workers each take the next trial off a
/// shared counter once their previous one has returned. Results come back
/// in trial order.
fn fan_out<T: Send>(
    trials: &[SweepTrial],
    threads: usize,
    work: impl Fn(&SweepTrial) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(trial) = trials.get(index) else {
                            break;
                        };
                        done.push((index, work(trial)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sweep worker panicked"))
            .collect()
    });
    results.sort_by_key(|r| r.0);
    results.into_iter().map(|r| r.1).collect()
}

/// Runs every trial through `vod_analysis::run_trial` on `threads` threads.
pub fn run_sweep(trials: &[SweepTrial], threads: usize) -> SweepPass {
    let clock = Instant::now();
    let results = fan_out(trials, threads, |trial| {
        let clock = Instant::now();
        let outcome = run_trial(&trial.spec, trial.family, trial.seed).ok();
        (clock.elapsed().as_secs_f64() * 1e3, outcome)
    });
    SweepPass {
        wall_s: clock.elapsed().as_secs_f64(),
        trial_ms: results.iter().map(|r| r.0).collect(),
        outcomes: results.into_iter().map(|r| r.1).collect(),
    }
}

/// The system `run_trial` builds for a trial, through the same public
/// constructor and seeding.
fn trial_system(trial: &SweepTrial) -> Option<VideoSystem> {
    let s = &trial.spec;
    let params = SystemParams::new(s.n, s.u, s.d, s.c, s.k, s.mu, s.duration);
    let mut rng = StdRng::seed_from_u64(trial.seed);
    VideoSystem::homogeneous_with_catalog(
        params,
        s.catalog_size(),
        &RandomPermutationAllocator::new(s.k),
        &mut rng,
    )
    .ok()
}

/// What the benchmark keeps of one trial's `SimulationReport`.
pub struct TrialFacts {
    /// Rounds simulated before the trial finished or aborted.
    pub rounds: u64,
    pub feasible: bool,
    pub service_ratio: f64,
    pub totals: SimTotals,
    /// Every round satisfies `active = served + unserved`.
    pub consistent: bool,
}

impl TrialFacts {
    fn of(report: &SimulationReport) -> Self {
        let mut totals = SimTotals::default();
        let consistent = totals.absorb(report, 0);
        TrialFacts {
            rounds: report.rounds.len() as u64,
            feasible: report.all_rounds_feasible(),
            service_ratio: report.service_ratio(),
            totals,
            consistent,
        }
    }
}

/// What `run_trial` does not return — each trial's rounds, requests and
/// per-round fingerprint — from `homogeneous_with_catalog` + `run_workload`
/// on the same seeds. Each system and report is dropped by the worker that
/// made it, so this holds no more memory than the sweep itself.
pub fn run_facts(trials: &[SweepTrial], threads: usize) -> Vec<Option<TrialFacts>> {
    fan_out(trials, threads, |trial| {
        let system = trial_system(trial)?;
        let report = run_workload(&system, &trial.spec, trial.family, trial.seed);
        Some(TrialFacts::of(&report))
    })
}

/// The reference pass of the traced run: each trial's two halves —
/// `VideoSystem::homogeneous_with_catalog` and `run_workload` — timed
/// separately on one thread, keeping the systems and the full reports for
/// the traced pass to reuse and compare with.
pub struct ReferencePass {
    pub build_s: f64,
    pub run_s: f64,
    pub trial_ms: Vec<f64>,
    pub systems: Vec<Option<VideoSystem>>,
    pub reports: Vec<Option<SimulationReport>>,
}

impl ReferencePass {
    pub fn facts(&self) -> Vec<Option<TrialFacts>> {
        self.reports
            .iter()
            .map(|r| r.as_ref().map(TrialFacts::of))
            .collect()
    }
}

pub fn run_reference(trials: &[SweepTrial]) -> ReferencePass {
    let mut pass = ReferencePass {
        build_s: 0.0,
        run_s: 0.0,
        trial_ms: Vec::with_capacity(trials.len()),
        systems: Vec::with_capacity(trials.len()),
        reports: Vec::with_capacity(trials.len()),
    };
    for trial in trials {
        let clock = Instant::now();
        let system = trial_system(trial);
        let build_s = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let report = system
            .as_ref()
            .map(|sys| run_workload(sys, &trial.spec, trial.family, trial.seed));
        let run_s = clock.elapsed().as_secs_f64();
        pass.build_s += build_s;
        pass.run_s += run_s;
        pass.trial_ms.push((build_s + run_s) * 1e3);
        pass.systems.push(system);
        pass.reports.push(report);
    }
    pass
}

/// What the trials' facts say about the sweep.
pub struct SweepVerdict {
    pub totals: SimTotals,
    /// Rounds each trial simulated (0 for a trial that returned `Err`).
    pub rounds: Vec<u64>,
    pub errored: usize,
    /// Smallest grid `u` with no infeasible trial at or above it under any
    /// demand family, minus the paper's 1.0; `None` if even the top fails.
    pub threshold_gap: Option<f64>,
    pub violations: Vec<String>,
}

/// Checks the facts against `run_trial`'s outcomes and the paper's threshold
/// shape, and totals them in trial order.
pub fn verdict(
    trials: &[SweepTrial],
    facts: &[Option<TrialFacts>],
    outcomes: &[Option<TrialOutcome>],
) -> SweepVerdict {
    let mut v = SweepVerdict {
        totals: SimTotals::default(),
        rounds: Vec::with_capacity(trials.len()),
        errored: 0,
        threshold_gap: None,
        violations: Vec::new(),
    };
    let mut infeasible_at = [false; SWEEP_U.len()];
    let mut consistent = true;
    for (i, trial) in trials.iter().enumerate() {
        let (Some(facts), Some(outcome)) = (&facts[i], &outcomes[i]) else {
            v.errored += 1;
            v.rounds.push(0);
            continue;
        };
        consistent &= facts.consistent;
        v.totals.merge(&facts.totals);
        v.rounds.push(facts.rounds);
        let feasible = facts.feasible;
        if feasible != outcome.feasible || facts.service_ratio != outcome.service_ratio {
            v.violations.push(format!(
                "trial {i}: run_trial and build + run_workload disagree"
            ));
        }
        infeasible_at[trial.u_index] |= !feasible;
        let u = trial.spec.u;
        if trial.family == WorkloadKind::NeverOwned && u <= 0.95 && feasible {
            v.violations
                .push(format!("trial {i}: never-owned attack survived at u = {u}"));
        }
        if u >= 1.25 && !feasible {
            v.violations.push(format!(
                "trial {i}: {} infeasible at u = {u}",
                trial.family.label()
            ));
        }
    }
    if !consistent {
        v.violations
            .push("a round breaks active = served + unserved".into());
    }
    let first_clean = (0..SWEEP_U.len())
        .rev()
        .take_while(|&i| !infeasible_at[i])
        .last();
    v.threshold_gap = first_clean.map(|i| SWEEP_U[i] - 1.0);
    v
}

/// The generator `run_workload` drives for a family.
fn family_generator(trial: &SweepTrial, system: &VideoSystem) -> Box<dyn DemandGenerator> {
    let s = &trial.spec;
    match trial.family {
        WorkloadKind::FlashCrowd => Box::new(FlashCrowd::single(
            VideoId(0),
            s.n,
            system.m(),
            s.mu,
            trial.seed,
        )),
        WorkloadKind::Sequential => Box::new(SequentialViewing::new(
            s.n,
            system.m(),
            NextVideoPolicy::RoundRobin,
            s.mu,
            trial.seed,
        )),
        WorkloadKind::NeverOwned => Box::new(NeverOwnedAttack::new(
            system.placement(),
            system.catalog(),
            s.mu,
        )),
    }
}

/// The traced pass: every trial again, single-threaded, as `run_workload`
/// runs it but stepped from here with the pass-through wrappers and the
/// recorder on. Returns the traced data and how many reports differed from
/// the reference pass.
pub fn run_traced(trials: &[SweepTrial], reference: &ReferencePass) -> (TracedRun, usize) {
    let log = SharedLog::new();
    log.lock().recording = true;
    let mut traced: Option<TracedRun> = None;
    let mut mismatches = 0;
    for (i, trial) in trials.iter().enumerate() {
        let (Some(system), Some(expected)) = (&reference.systems[i], &reference.reports[i]) else {
            continue;
        };
        let trial_span = log.open(SPAN_TRIAL);
        let clock = Instant::now();
        let (scheduler, solver_timed) = TimedScheduler::new(log.clone());
        let mut sim = Simulator::with_scheduler(
            system,
            SimConfig::new(trial.spec.rounds),
            Box::new(scheduler),
        );
        sim.attach_tracer(TraceHandle::recording(1));
        let sim_new_s = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let mut generator = TimedGenerator::new(family_generator(trial, system), log.clone());
        let generator_new_s = clock.elapsed().as_secs_f64();
        // `Simulator::run` under the default abort policy.
        while sim.round() < trial.spec.rounds {
            log.lock().round = sim.round();
            let id = log.open(SPAN_STEP);
            let feasible = sim.step(&mut generator);
            log.close(id);
            if !feasible {
                break;
            }
        }
        let report = sim.into_report();
        log.close(trial_span);
        let same = report.rounds == expected.rounds
            && report.failures == expected.failures
            && report.playbacks == expected.playbacks
            && report.total_demands == expected.total_demands
            && report.rejected_demands == expected.rejected_demands;
        mismatches += usize::from(!same);
        let run = traced.get_or_insert_with(|| TracedRun::new(log.clone(), solver_timed));
        run.sims += 1;
        run.sim_new_s += sim_new_s;
        run.generator_new_s += generator_new_s;
        run.absorb_report(&report, 0);
    }
    let mut traced = traced.unwrap_or_else(|| TracedRun::new(log, false));
    traced.system_build_s = reference.build_s;
    (traced, mismatches)
}

/// Failures per grid point and family, for the printed table.
pub fn failure_table(trials: &[SweepTrial], outcomes: &[Option<TrialOutcome>]) -> Vec<[usize; 3]> {
    let mut table = vec![[0usize; 3]; SWEEP_U.len()];
    for (trial, outcome) in trials.iter().zip(outcomes) {
        let family = SWEEP_FAMILIES
            .iter()
            .position(|f| *f == trial.family)
            .expect("trial families come from SWEEP_FAMILIES");
        if outcome.is_some_and(|o| !o.feasible) {
            table[trial.u_index][family] += 1;
        }
    }
    table
}
