//! The two kinds of run of one workload: the end-to-end run (tracing off,
//! production default path) and the traced run (per-layer metrics).

use crate::json::{obj, text, Json};
use crate::layers::{layer_report, spans_jsonl, LayerValues};
use crate::long_run::{self, SimTotals};
use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, pool, samples_beyond};
use crate::sweep::{self, PARALLEL_THREADS, SWEEP_THREADS};
use crate::workloads::{
    sweep_trials, SweepTrial, Workload, SWEEP_FAMILIES, SWEEP_TRIALS_PER_POINT, SWEEP_U,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use vod_analysis::TrialOutcome;

/// The seed every `expected/<workload>.json` was recorded with.
pub const DEFAULT_SEED: u64 = 2009;

pub struct Options {
    pub seed: u64,
    /// How long to keep starting reps (or passes), in seconds.
    pub seconds: f64,
    /// A tenth of the rounds, one rep: a smoke test, numbers not comparable.
    pub quick: bool,
}

impl Options {
    fn measured_rounds(&self, w: Workload) -> u64 {
        if self.quick {
            (w.measured_rounds() / 10).max(8)
        } else {
            w.measured_rounds()
        }
    }

    fn trials(&self, seed: u64) -> Vec<SweepTrial> {
        sweep_trials(
            seed,
            if self.quick {
                1
            } else {
                SWEEP_TRIALS_PER_POINT
            },
        )
    }

    /// Instances per end-to-end run: sub-seeds of `--seed` whose samples are
    /// pooled, so that one unlucky allocation does not set the percentiles.
    fn instances(&self, w: Workload) -> usize {
        if self.quick {
            1
        } else {
            w.instances()
        }
    }

    /// Whether to start another rep: stop once the budget would be overrun
    /// by more than half a rep. `reserved` reps' worth of time is kept back
    /// for what follows the loop.
    fn another(&self, started: Instant, reps_done: usize, reserved: usize) -> bool {
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / reps_done as f64;
        !self.quick && elapsed + (0.5 + reserved as f64) * per_rep <= self.seconds
    }

    fn scale(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub metrics: Vec<Measured>,
    /// Operations issued: `Simulator::step` calls, or trials.
    pub attempted: u64,
    /// Operations whose result failed a check.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
    pub warnings: Vec<String>,
    pub notes: Vec<String>,
    /// Extra fields for the result file.
    pub detail: Vec<(&'static str, Json)>,
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn totals_json(t: &SimTotals) -> Json {
    obj(vec![
        ("rounds", Json::Num(t.rounds as f64)),
        ("attempted", Json::Num(t.attempted as f64)),
        ("served", Json::Num(t.served as f64)),
        ("unserved", Json::Num(t.unserved as f64)),
        ("delivery_failed", Json::Num(t.delivery_failed as f64)),
        ("checksum", text(t.checksum.hex())),
        ("max_startup_delay", Json::Num(t.max_startup_delay as f64)),
    ])
}

/// Checks the simulated totals against `expected/<workload>.json` (default
/// seed only). The totals are scheduler-invariant by Lemma 1 — the max-flow
/// value is unique — so any correct change to the solver or the pipeline
/// keeps them. A change that moves them on purpose pastes the observed
/// totals, which the failure prints, into that file and says why.
fn check_expected(
    dir: &Path,
    w: Workload,
    opts: &Options,
    totals: &SimTotals,
    violations: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    if opts.seed != DEFAULT_SEED {
        notes.push(format!(
            "seed {} is not the default {DEFAULT_SEED}: totals are not compared with expected/",
            opts.seed
        ));
        return;
    }
    let path = dir.join("expected").join(format!("{}.json", w.name()));
    let stored = std::fs::read_to_string(&path)
        .ok()
        .and_then(|file| Json::parse(&file).ok());
    let ours = totals_json(totals);
    if stored.as_ref().and_then(|j| j.get(opts.scale())) != Some(&ours) {
        violations.push(format!(
            "simulated totals differ from the `{}` entry of {}: observed {ours}",
            opts.scale(),
            path.display()
        ));
    }
}

/// One instance of a workload — its own sub-seed — and what its repeats
/// measured. Every repeat replays the identical rounds, and interference
/// from the host only ever adds time, so each timing keeps its minimum over
/// the repeats: on this class of host a minimum repeats to about 3 %, a
/// median to about 12 %.
struct Instance {
    repeats: usize,
    /// Entry `i`: the fastest observation of round (or trial) `i`.
    latency_ms: Vec<f64>,
    setup_s: f64,
}

impl Instance {
    fn new() -> Self {
        Instance {
            repeats: 0,
            latency_ms: Vec::new(),
            setup_s: f64::INFINITY,
        }
    }

    fn observe(&mut self, latency_ms: &[f64], setup_s: f64) {
        if self.repeats == 0 {
            self.latency_ms = latency_ms.to_vec();
        } else {
            for (best, &ms) in self.latency_ms.iter_mut().zip(latency_ms) {
                *best = best.min(ms);
            }
        }
        self.repeats += 1;
        self.setup_s = self.setup_s.min(setup_s);
    }
}

/// Every rep's own value of each timed metric, for the result file.
#[derive(Default)]
struct RepLog {
    setup_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    requests_per_s: Vec<f64>,
    trials_per_s: Vec<f64>,
    /// `VmHWM` when the rep ended.
    rss_mb: Vec<f64>,
    /// `VmHWM` after the run's first complete simulation.
    first_rss_mb: f64,
}

impl RepLog {
    fn push(
        &mut self,
        latency_ms: &[f64],
        setup_s: f64,
        requests_per_s: f64,
        trials_per_s: f64,
        rss_mb: f64,
    ) {
        let samples = pool([latency_ms]);
        self.setup_s.push(setup_s);
        self.p50_ms.push(percentile(&samples, 0.5));
        self.p99_ms.push(percentile(&samples, 0.99));
        self.requests_per_s.push(requests_per_s);
        self.trials_per_s.push(trials_per_s);
        if self.rss_mb.is_empty() {
            self.first_rss_mb = rss_mb;
        }
        self.rss_mb.push(rss_mb);
    }
}

/// The instance a rep belongs to: reps cycle through the instances, so each
/// has run once after the first `instances` reps.
fn instance_seed(seed: u64, instance: usize) -> u64 {
    seed ^ (instance as u64).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// What the instances' denoised timings add up to.
struct Timings {
    /// Latency samples of the measured operations, all instances pooled
    /// (ascending).
    samples_ms: Vec<f64>,
    /// Host seconds the measured operations took.
    measured_s: f64,
    /// Host seconds of complete simulations, set-up and warm-up included.
    whole_s: f64,
    /// Complete simulations in `whole_s`.
    trials: usize,
}

/// The end-to-end metrics of a run.
fn end_to_end_metrics(
    instances: &[Instance],
    timings: Timings,
    log: RepLog,
    attempted_requests: u64,
    failed_share: f64,
) -> (Vec<Measured>, Vec<String>, Vec<(&'static str, Json)>) {
    let samples = &timings.samples_ms;
    let setups: Vec<f64> = instances.iter().map(|i| i.setup_s).collect();
    let m = |name, value, reps| Measured::new(&END_TO_END, name, Some(value), reps);
    let beyond = samples_beyond(samples.len(), 0.99);
    let reps: usize = instances.iter().map(|i| i.repeats).sum();
    let mut notes = vec![format!(
        "{reps} reps over {} instances; {} latency samples (each the fastest of its instance's repeats), {beyond} beyond p99",
        instances.len(),
        samples.len()
    )];
    if beyond < 10 {
        notes.push(
            "fewer than 10 samples beyond p99: read round_ms_p99 as close to a maximum".into(),
        );
    }
    let detail = vec![
        ("reps", Json::Num(reps as f64)),
        ("instances", Json::Num(instances.len() as f64)),
        ("latency_samples", Json::Num(samples.len() as f64)),
        ("samples_beyond_p99", Json::Num(beyond as f64)),
        ("failed_share", Json::Num(failed_share)),
    ];
    let metrics = vec![
        m("setup_s", median(&setups), log.setup_s),
        m("round_ms_p50", percentile(samples, 0.5), log.p50_ms),
        m("round_ms_p99", percentile(samples, 0.99), log.p99_ms),
        m(
            "requests_per_s",
            attempted_requests as f64 / timings.measured_s,
            log.requests_per_s,
        ),
        m(
            "trials_per_s",
            timings.trials as f64 / timings.whole_s,
            log.trials_per_s,
        ),
        // The process's high-water mark when the last rep ended, and after
        // its first complete simulation: what one simulation needs in a fresh
        // process. The rest is what the allocator keeps from earlier reps,
        // which differs from run to run on the same seed.
        m(
            "peak_rss_mb",
            *log.rss_mb.last().expect("a run has at least one rep"),
            log.rss_mb,
        ),
        m("first_rep_rss_mb", log.first_rss_mb, Vec::new()),
        m("served_share", 1.0 - failed_share, Vec::new()),
    ];
    (metrics, notes, detail)
}

/// The end-to-end run of a simulator workload.
fn end_to_end_long(dir: &Path, w: Workload, opts: &Options) -> Outcome {
    let rounds = opts.measured_rounds(w);
    let count = opts.instances(w);
    let mut instances: Vec<Instance> = (0..count).map(|_| Instance::new()).collect();
    // Each instance's first totals: kept in place of the reports, which would
    // add to the resident set this run reports.
    let mut firsts: Vec<SimTotals> = Vec::with_capacity(count);
    let mut log = RepLog::default();
    let mut violations = Vec::new();
    let mut failed = 0;
    let mut reps = 0;
    let started = Instant::now();
    loop {
        let j = reps % count;
        let rep = long_run::run_plain(w, instance_seed(opts.seed, j), rounds);
        reps += 1;
        log.push(
            &rep.step_ms[rep.warmup..],
            rep.setup_s(),
            rep.totals.attempted as f64 / rep.measured_s,
            1.0 / rep.wall_s,
            vm_hwm_mb(),
        );
        instances[j].observe(&rep.step_ms, rep.setup_s());
        if !rep.rounds_consistent {
            violations
                .push("a round breaks active = served + unserved + dropped + timed out".into());
            failed += rounds;
        }
        match firsts.get(j) {
            None => firsts.push(rep.totals),
            Some(first) if *first != rep.totals => {
                violations.push(format!(
                    "rep {reps} differs from the first rep of instance {j}"
                ));
                failed += rounds;
            }
            Some(_) => {}
        }
        if reps >= count && !opts.another(started, reps, 0) {
            break;
        }
    }
    let mut totals = SimTotals::default();
    for first in &firsts {
        totals.merge(first);
    }
    let mut notes = Vec::new();
    check_expected(dir, w, opts, &totals, &mut violations, &mut notes);
    let warmup = w.warmup_rounds() as usize;
    let samples_ms = pool(instances.iter().map(|i| &i.latency_ms[warmup..]));
    let all_rounds_s = instances.iter().flat_map(|i| &i.latency_ms).sum::<f64>() / 1e3;
    let timings = Timings {
        measured_s: samples_ms.iter().sum::<f64>() / 1e3,
        samples_ms,
        whole_s: all_rounds_s + instances.iter().map(|i| i.setup_s).sum::<f64>(),
        trials: count,
    };
    let (metrics, timing_notes, mut detail) = end_to_end_metrics(
        &instances,
        timings,
        log,
        totals.attempted,
        totals.failed_share(),
    );
    notes.extend(timing_notes);
    detail.push(("simulated", totals_json(&totals)));
    Outcome {
        metrics,
        attempted: rounds * reps as u64,
        failed,
        violations,
        warnings: Vec::new(),
        notes,
        detail,
    }
}

fn sweep_table(trials: &[SweepTrial], outcomes: &[Option<TrialOutcome>]) -> Vec<String> {
    let per_point = trials.len() / (SWEEP_U.len() * SWEEP_FAMILIES.len());
    let mut lines = vec![format!(
        "instance 0, infeasible trials of {per_point} per (u, family): u | {}",
        SWEEP_FAMILIES.map(|f| f.label()).join(" | ")
    )];
    for (u, row) in SWEEP_U.iter().zip(sweep::failure_table(trials, outcomes)) {
        lines.push(format!(
            "  u = {u:<5} | {} | {} | {}",
            row[0], row[1], row[2]
        ));
    }
    lines
}

/// The end-to-end run of `threshold-search`.
fn end_to_end_sweep(dir: &Path, opts: &Options) -> Outcome {
    let count = opts.instances(Workload::ThresholdSearch);
    let sweeps: Vec<Vec<SweepTrial>> = (0..count)
        .map(|j| opts.trials(instance_seed(opts.seed, j)))
        .collect();
    let per_sweep = sweeps[0].len();
    let per_point = per_sweep / (SWEEP_U.len() * SWEEP_FAMILIES.len());
    let started = Instant::now();
    let mut instances: Vec<Instance> = (0..count).map(|_| Instance::new()).collect();
    let mut firsts: Vec<Vec<Option<TrialOutcome>>> = Vec::with_capacity(count);
    // (set-up seconds, VmHWM after the pass, the pass) per rep.
    let mut reps: Vec<(f64, f64, sweep::SweepPass)> = Vec::new();
    // VmHWM after the run's first complete simulations: the first rep's
    // warm-up trials.
    let mut first_rss_mb = None;
    let mut violations = Vec::new();
    let mut failed = 0;
    loop {
        let j = reps.len() % count;
        let trials = &sweeps[j];
        // Set-up: one untimed warm-up trial per demand family, at the top of
        // the grid (the trials that run all their rounds).
        let clock = Instant::now();
        for trial in trials
            .iter()
            .rev()
            .step_by(per_point)
            .take(SWEEP_FAMILIES.len())
        {
            std::hint::black_box(
                vod_analysis::run_trial(&trial.spec, trial.family, trial.seed).ok(),
            );
        }
        let setup_s = clock.elapsed().as_secs_f64();
        first_rss_mb.get_or_insert_with(vm_hwm_mb);
        let pass = sweep::run_sweep(trials, SWEEP_THREADS);
        instances[j].observe(&pass.trial_ms, setup_s);
        match firsts.get(j) {
            None => firsts.push(pass.outcomes.clone()),
            Some(first) if *first != pass.outcomes => {
                violations.push(format!(
                    "rep {} differs from the first rep of instance {j}",
                    reps.len()
                ));
                failed += per_sweep as u64;
            }
            Some(_) => {}
        }
        reps.push((setup_s, vm_hwm_mb(), pass));
        // One pass per instance is kept back for `run_facts`.
        if reps.len() >= count && !opts.another(started, reps.len(), count) {
            break;
        }
    }
    // Untimed, inside the time budget: what `run_trial` does not return —
    // each trial's rounds and requests, and the totals for expected/.
    let facts: Vec<_> = sweeps
        .iter()
        .map(|trials| sweep::run_facts(trials, SWEEP_THREADS))
        .collect();
    // A latency sample is a trial's ms per simulated round (system build
    // included); trials that simulated nothing drop out.
    let per_round = |trial_ms: &[f64], rounds: &[u64]| -> Vec<f64> {
        trial_ms
            .iter()
            .zip(rounds)
            .filter(|(_, &rounds)| rounds > 0)
            .map(|(ms, &rounds)| ms / rounds as f64)
            .collect()
    };
    let mut totals = SimTotals::default();
    let mut errored = 0;
    let mut samples_ms = Vec::with_capacity(count);
    let mut verdicts = Vec::with_capacity(count);
    let mut notes = sweep_table(&sweeps[0], &firsts[0]);
    for (j, trials) in sweeps.iter().enumerate() {
        let mut verdict = sweep::verdict(trials, &facts[j], &firsts[j]);
        failed += verdict.violations.len() as u64;
        violations.append(&mut verdict.violations);
        match verdict.threshold_gap {
            Some(gap) => notes.push(format!(
                "instance {j}: threshold_gap {gap} u (smallest clean grid u minus the paper's 1.0)"
            )),
            None => violations.push(format!("instance {j}: the top of the u grid is infeasible")),
        }
        samples_ms.push(per_round(&instances[j].latency_ms, &verdict.rounds));
        errored += verdict.errored;
        totals.merge(&verdict.totals);
        verdicts.push(verdict);
    }
    let mut log = RepLog::default();
    for (i, (setup_s, rss_mb, pass)) in reps.iter().enumerate() {
        let verdict = &verdicts[i % count];
        log.push(
            &per_round(&pass.trial_ms, &verdict.rounds),
            *setup_s,
            verdict.totals.attempted as f64 / pass.wall_s,
            per_sweep as f64 / pass.wall_s,
            *rss_mb,
        );
    }
    log.first_rss_mb = first_rss_mb.expect("a run has at least one rep");
    check_expected(
        dir,
        Workload::ThresholdSearch,
        opts,
        &totals,
        &mut violations,
        &mut notes,
    );
    let errored_share = errored as f64 / (per_sweep * count) as f64;
    // Each worker runs its trials back to back, so the sweep takes the
    // trials' latencies summed ÷ the workers.
    let sweep_s =
        instances.iter().flat_map(|i| &i.latency_ms).sum::<f64>() / 1e3 / SWEEP_THREADS as f64;
    let timings = Timings {
        samples_ms: pool(samples_ms.iter().map(Vec::as_slice)),
        measured_s: sweep_s,
        whole_s: sweep_s,
        trials: per_sweep * count,
    };
    let (metrics, timing_notes, mut detail) =
        end_to_end_metrics(&instances, timings, log, totals.attempted, errored_share);
    notes.extend(timing_notes);
    notes.push(
        "latency samples are trials: host ms per simulated round, system build included".into(),
    );
    detail.push(("simulated", totals_json(&totals)));
    Outcome {
        metrics,
        attempted: (per_sweep * reps.len()) as u64,
        failed,
        violations,
        warnings: Vec::new(),
        notes,
        detail,
    }
}

pub fn end_to_end(dir: &Path, w: Workload, opts: &Options) -> Outcome {
    match w {
        Workload::ThresholdSearch => end_to_end_sweep(dir, opts),
        _ => end_to_end_long(dir, w, opts),
    }
}

/// Per-pass layer values, reduced to one value per metric: the median over
/// passes, or absent if any pass lacks it.
fn merge_passes(passes: &[LayerValues]) -> Vec<Measured> {
    let mut by_name: BTreeMap<&str, Vec<Option<f64>>> = BTreeMap::new();
    for pass in passes {
        for (name, value) in pass {
            by_name.entry(name).or_default().push(*value);
        }
    }
    PER_LAYER
        .iter()
        .map(|def| {
            let values: Option<Vec<f64>> = by_name
                .get(def.name)
                .and_then(|vs| vs.iter().copied().collect());
            match values {
                Some(vs) => Measured::new(&PER_LAYER, def.name, Some(median(&vs)), vs),
                None => Measured::new(&PER_LAYER, def.name, None, Vec::new()),
            }
        })
        .collect()
}

fn write_spans(
    out_dir: &Path,
    w: Workload,
    jsonl: String,
    notes: &mut Vec<String>,
    violations: &mut Vec<String>,
) {
    let path = out_dir.join(format!("trace-{}.jsonl", w.name()));
    let lines = jsonl.lines().count();
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, jsonl)) {
        Ok(()) => notes.push(format!("{lines} spans -> {}", path.display())),
        Err(e) => violations.push(format!("cannot write {}: {e}", path.display())),
    }
}

/// The traced run of a simulator workload: pairs of an untraced and a traced
/// rep, the per-layer values of each pair, their medians.
fn traced_long(out_dir: &Path, w: Workload, opts: &Options) -> Outcome {
    let rounds = opts.measured_rounds(w);
    let mut passes = Vec::new();
    let mut violations = Vec::new();
    let (warnings, spans, failed_share);
    let mut steps = 0;
    let mut failed = 0;
    let started = Instant::now();
    loop {
        let plain = long_run::run_plain(w, opts.seed, rounds);
        let (rep, traced) = long_run::run_traced(w, opts.seed, rounds);
        if rep.report != plain.report {
            violations.push("the traced report differs from the untraced report".into());
            failed += rounds;
        }
        let untraced_step_ms = plain.step_ms[plain.warmup..].iter().sum::<f64>() / rounds as f64;
        let mut report = layer_report(&traced, untraced_step_ms);
        steps += report.steps;
        failed += report.invalid_assignments;
        violations.append(&mut report.violations);
        report
            .values
            .insert("failed_share".into(), Some(rep.totals.failed_share()));
        passes.push(report.values);
        if !opts.another(started, passes.len(), 0) {
            warnings = report.warnings;
            failed_share = rep.totals.failed_share();
            spans = spans_jsonl(&traced.log.lock());
            break;
        }
    }
    let mut notes = vec![format!(
        "{} traced reps of {rounds} rounds, each paired with an untraced rep",
        passes.len()
    )];
    write_spans(out_dir, w, spans, &mut notes, &mut violations);
    Outcome {
        metrics: merge_passes(&passes),
        attempted: steps,
        failed,
        violations,
        warnings,
        notes,
        detail: vec![("failed_share", Json::Num(failed_share))],
    }
}

/// The traced run of `threshold-search`.
fn traced_sweep(out_dir: &Path, opts: &Options) -> Outcome {
    let trials = opts.trials(opts.seed);
    let mut passes = Vec::new();
    let mut violations = Vec::new();
    let (warnings, spans, errored_share);
    let mut steps = 0;
    let mut failed = 0;
    let started = Instant::now();
    loop {
        let reference = sweep::run_reference(&trials);
        let parallel = sweep::run_sweep(&trials, PARALLEL_THREADS);
        let verdict = sweep::verdict(&trials, &reference.facts(), &parallel.outcomes);
        let (traced, mismatches) = sweep::run_traced(&trials, &reference);
        if mismatches > 0 {
            violations.push(format!(
                "{mismatches} traced reports differ from the untraced reports"
            ));
            failed += mismatches as u64;
        }
        failed += verdict.violations.len() as u64;
        violations.extend(verdict.violations);
        // `run_workload` also constructs the simulator and the generator;
        // the traced pass times those apart, so take them out.
        let untraced_run_s = reference.run_s - traced.sim_new_s - traced.generator_new_s;
        let untraced_step_ms = untraced_run_s * 1e3 / verdict.totals.rounds.max(1) as f64;
        let mut report = layer_report(&traced, untraced_step_ms);
        steps += report.steps;
        failed += report.invalid_assignments;
        violations.append(&mut report.violations);
        let trial_ms = crate::stats::sorted(reference.trial_ms.clone());
        let single_s = reference.build_s + reference.run_s;
        let errored = verdict.errored as f64 / trials.len() as f64;
        for (name, value) in [
            ("analysis.trial_ms_p50", Some(percentile(&trial_ms, 0.5))),
            ("analysis.trial_ms_p99", Some(percentile(&trial_ms, 0.99))),
            (
                "analysis.system_build_share",
                Some(reference.build_s / single_s),
            ),
            (
                "analysis.parallel_efficiency",
                Some(single_s / (PARALLEL_THREADS as f64 * parallel.wall_s)),
            ),
            ("failed_share", Some(errored)),
            ("threshold_gap", verdict.threshold_gap),
        ] {
            report.values.insert(name.into(), value);
        }
        passes.push(report.values);
        if !opts.another(started, passes.len(), 0) {
            warnings = report.warnings;
            errored_share = errored;
            spans = spans_jsonl(&traced.log.lock());
            break;
        }
    }
    let mut notes = vec![format!(
        "{} passes: reference (1 thread), run_trial ({PARALLEL_THREADS} threads), traced (1 thread), {} trials each",
        passes.len(),
        trials.len()
    )];
    write_spans(
        out_dir,
        Workload::ThresholdSearch,
        spans,
        &mut notes,
        &mut violations,
    );
    Outcome {
        metrics: merge_passes(&passes),
        attempted: steps,
        failed,
        violations,
        warnings,
        notes,
        detail: vec![("failed_share", Json::Num(errored_share))],
    }
}

pub fn traced(out_dir: &Path, w: Workload, opts: &Options) -> Outcome {
    match w {
        Workload::ThresholdSearch => traced_sweep(out_dir, opts),
        _ => traced_long(out_dir, w, opts),
    }
}
