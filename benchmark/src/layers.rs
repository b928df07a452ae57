//! Per-layer metrics of a traced run: span accounting over the benchmark's
//! own span log, the recorder's stage totals read by stage name, exact
//! counts from `RoundMetrics`, and the drills (direct timed calls into
//! vod-flow on inputs the scheduler wrapper captured).

use crate::stats::{median, percentile, sorted};
use crate::timed::{
    Capture, SharedLog, Span, SpanLog, SPAN_BENCH, SPAN_DEMAND, SPAN_SCHEDULE, SPAN_SOLVE,
    SPAN_STEP,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use vod_flow::{find_obstruction, ConnectionProblem};
use vod_sim::{RunProfile, SimulationReport, Stage};

/// Engine stages of one `Simulator::step`, by their `vod-obs` names, each
/// reported as `sim.stage.<name>_ms_per_round`. All of them sit outside the
/// schedule call, and none inside another except [`NESTED_STAGE`].
pub const REPORTED_STAGES: [&str; 14] = [
    "playback-end",
    "demand-intake",
    "request-collect",
    "candidate-maintain",
    "candidate-fill",
    "churn-drain",
    "repair-plan",
    "repair-commit",
    "fault-drain",
    "deliver",
    "degrade",
    "relay-account",
    "relay-replan",
    "failure-diagnose",
];

/// Runs inside `churn-drain`, so it is reported but not summed with the rest.
const NESTED_STAGE: &str = "relay-replan";

/// Everything a traced pass collected (one simulation, or all the trials of
/// a sweep folded together).
pub struct TracedRun {
    pub log: SharedLog,
    pub solver_timed: bool,
    /// Simulations folded in; the set-up parts below are sums over them.
    pub sims: u64,
    pub system_build_s: f64,
    pub sim_new_s: f64,
    pub generator_new_s: f64,
    /// Recorder totals by stage name; `None` = vod-obs has no such stage.
    stage_ns: BTreeMap<&'static str, Option<u64>>,
    rounds: u64,
    repair_transfers: u64,
    retries: u64,
    dropped: u64,
    forwarded: u64,
    index_entries: u64,
}

impl TracedRun {
    pub fn new(log: SharedLog, solver_timed: bool) -> Self {
        let stage_ns = REPORTED_STAGES
            .iter()
            .map(|&name| (name, Stage::from_name(name).ok().map(|_| 0)))
            .collect();
        TracedRun {
            log,
            solver_timed,
            sims: 0,
            system_build_s: 0.0,
            sim_new_s: 0.0,
            generator_new_s: 0.0,
            stage_ns,
            rounds: 0,
            repair_transfers: 0,
            retries: 0,
            dropped: 0,
            forwarded: 0,
            index_entries: 0,
        }
    }

    /// Folds in a traced simulation's report: the recorder's stage totals
    /// (looked up by name) and the exact counts of `rounds[skip..]`.
    pub fn absorb_report(&mut self, report: &SimulationReport, skip: usize) {
        if let Some(profile) = &report.profile {
            self.absorb_profile(profile);
        }
        for r in &report.rounds[skip.min(report.rounds.len())..] {
            self.rounds += 1;
            self.repair_transfers += r.repair.map_or(0, |s| s.repaired as u64);
            self.retries += r.delivery.map_or(0, |s| s.retries as u64);
            self.dropped += r.delivery.map_or(0, |s| (s.dropped + s.timed_out) as u64);
            self.forwarded += r.relay.map_or(0, |s| s.forwarded as u64);
            self.index_entries += r.candidates.map_or(0, |s| s.index_entries as u64);
        }
    }

    fn absorb_profile(&mut self, profile: &RunProfile) {
        for (name, total) in &mut self.stage_ns {
            if let (Some(total), Ok(stage)) = (total.as_mut(), Stage::from_name(name)) {
                *total += profile.stage(stage).total_ns;
            }
        }
    }
}

/// Span totals of a traced run, with the accounting violations found.
struct SpanTotals {
    steps: u64,
    /// Step time net of the wrapper's own validation and capture work.
    step_net_ns: u64,
    demand_ns: u64,
    schedule_ns: u64,
    solve_ns: u64,
    schedule_calls_ns: Vec<f64>,
    violations: Vec<String>,
}

fn account(spans: &[Span]) -> SpanTotals {
    let mut t = SpanTotals {
        steps: 0,
        step_net_ns: 0,
        demand_ns: 0,
        schedule_ns: 0,
        solve_ns: 0,
        schedule_calls_ns: Vec::new(),
        violations: Vec::new(),
    };
    // Spans are stored in opening order, so a parent precedes its children
    // and siblings appear in time order.
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_child_end = vec![0u64; spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let fits = span.start_ns >= p.start_ns.max(last_child_end[parent as usize])
                && span.end_ns <= p.end_ns;
            if !fits && t.violations.len() < 5 {
                t.violations.push(format!(
                    "round {}: span {} #{id} [{}, {}] does not fit inside {} #{parent} [{}, {}] after its siblings",
                    span.round, span.name, span.start_ns, span.end_ns, p.name, p.start_ns, p.end_ns
                ));
            }
            child_ns[parent as usize] += span.dur_ns();
            last_child_end[parent as usize] = span.end_ns;
        }
        match span.name {
            SPAN_DEMAND => t.demand_ns += span.dur_ns(),
            SPAN_SCHEDULE => {
                t.schedule_ns += span.dur_ns();
                t.schedule_calls_ns.push(span.dur_ns() as f64);
            }
            SPAN_SOLVE => t.solve_ns += span.dur_ns(),
            _ => {}
        }
    }
    let mut step_ns = 0u64;
    let mut bench_ns = 0u64;
    let mut step_self_ns = 0u64;
    for (id, span) in spans.iter().enumerate() {
        match span.name {
            SPAN_STEP => {
                t.steps += 1;
                step_ns += span.dur_ns();
                step_self_ns += span.dur_ns().saturating_sub(child_ns[id]);
            }
            SPAN_BENCH => bench_ns += span.dur_ns(),
            _ => {}
        }
    }
    t.step_net_ns = step_ns - bench_ns;
    // Self time + children must give the step back: a child outside its
    // step, or counted under two parents, breaks this.
    let rebuilt = step_self_ns + t.demand_ns + t.schedule_ns + bench_ns;
    if rebuilt.abs_diff(step_ns) as f64 > 0.01 * step_ns as f64 {
        t.violations.push(format!(
            "engine self {step_self_ns} + demand {} + schedule {} + wrapper {bench_ns} ns differs from step {step_ns} ns by more than 1%",
            t.demand_ns, t.schedule_ns
        ));
    }
    t
}

/// Results of the drills.
struct Drills {
    cold_peak_ms: Option<f64>,
    cold_median_ms: Option<f64>,
    obstruction_ms: Option<f64>,
    violations: Vec<String>,
}

fn problem_of(capture: &Capture) -> ConnectionProblem {
    let mut problem = ConnectionProblem::new(capture.capacities.clone());
    for row in &capture.rows {
        problem.add_request(row.iter().copied());
    }
    problem
}

/// `ConnectionProblem::solve()` from cold on a captured round, in ms. By
/// Lemma 1 the max-flow value is unique, so the cold solve must serve
/// exactly as many requests as the warm-started scheduler did.
fn cold_solve_ms(capture: &Capture, violations: &mut Vec<String>) -> f64 {
    let problem = problem_of(capture);
    let clock = Instant::now();
    let matching = std::hint::black_box(problem.solve());
    let ms = clock.elapsed().as_secs_f64() * 1e3;
    if matching.served() != capture.served {
        violations.push(format!(
            "round {}: cold solve serves {} requests, the warm scheduler served {}",
            capture.round,
            matching.served(),
            capture.served
        ));
    }
    ms
}

fn run_drills(log: &SpanLog) -> Drills {
    let mut violations = Vec::new();
    let cold_peak_ms = log
        .heaviest
        .as_ref()
        .map(|c| cold_solve_ms(c, &mut violations));
    let periodic: Vec<f64> = log
        .periodic
        .iter()
        .map(|c| cold_solve_ms(c, &mut violations))
        .collect();
    let obstruction: Vec<f64> = log
        .infeasible
        .iter()
        .map(|c| {
            let problem = problem_of(c);
            let clock = Instant::now();
            let found = std::hint::black_box(find_obstruction(&problem));
            let ms = clock.elapsed().as_secs_f64() * 1e3;
            if found.is_none() {
                violations.push(format!(
                    "round {}: infeasible round has no obstruction",
                    c.round
                ));
            }
            ms
        })
        .collect();
    Drills {
        cold_peak_ms,
        cold_median_ms: (!periodic.is_empty()).then(|| median(&periodic)),
        obstruction_ms: (!obstruction.is_empty()).then(|| median(&obstruction)),
        violations,
    }
}

/// Per-layer metrics of one traced pass: `None` marks a metric that does not
/// exist on this workload or in this build (reported absent, written as 0).
pub type LayerValues = BTreeMap<String, Option<f64>>;

pub struct LayerReport {
    pub values: LayerValues,
    pub violations: Vec<String>,
    pub warnings: Vec<String>,
    pub steps: u64,
    pub invalid_assignments: u64,
}

/// Derives the per-layer metrics. `untraced_step_ms` is the mean step
/// latency of the untraced rep of the same pass.
pub fn layer_report(run: &TracedRun, untraced_step_ms: f64) -> LayerReport {
    let log = run.log.lock();
    let t = account(&log.spans);
    let drills = run_drills(&log);
    let c = log.counters;
    let rounds = t.steps.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_round_ms = |ns: u64| ms(ns) / rounds;

    let mut violations = t.violations;
    violations.extend(drills.violations);
    if t.steps != run.rounds {
        violations.push(format!(
            "{} step spans recorded for {} measured rounds",
            t.steps, run.rounds
        ));
    }
    if c.invalid_assignments > 0 {
        violations.push(format!(
            "{} assignments failed assignment_is_valid_view",
            c.invalid_assignments
        ));
    }

    let engine_self_ns = t.step_net_ns.saturating_sub(t.demand_ns + t.schedule_ns);
    let mut v = LayerValues::new();
    let mut put = |name: &str, value: Option<f64>| {
        v.insert(name.to_string(), value);
    };
    put(
        "workloads.demand_ms_per_round",
        Some(per_round_ms(t.demand_ns)),
    );
    put(
        "workloads.demands_per_round",
        Some(c.demands as f64 / rounds),
    );
    put("sim.step_ms_per_round", Some(per_round_ms(t.step_net_ns)));
    put(
        "sim.engine_self_ms_per_round",
        Some(per_round_ms(engine_self_ns)),
    );
    put(
        "sim.engine_self_share",
        Some(engine_self_ns as f64 / t.step_net_ns.max(1) as f64),
    );
    for name in REPORTED_STAGES {
        let mut key = String::new();
        let _ = write!(key, "sim.stage.{name}_ms_per_round");
        put(&key, run.stage_ns[name].map(per_round_ms));
    }
    // The generator call sits inside the engine's demand-intake stage.
    let attributed_ns: u64 = REPORTED_STAGES
        .iter()
        .filter(|&&name| name != NESTED_STAGE)
        .filter_map(|name| run.stage_ns[name])
        .sum::<u64>()
        .saturating_sub(t.demand_ns);
    put(
        "sim.unattributed_share",
        Some((engine_self_ns as f64 - attributed_ns as f64) / t.step_net_ns.max(1) as f64),
    );
    put(
        "scheduler.schedule_ms_per_round",
        Some(per_round_ms(t.schedule_ns)),
    );
    let calls = sorted(t.schedule_calls_ns);
    put(
        "scheduler.schedule_ms_p99",
        (!calls.is_empty()).then(|| percentile(&calls, 0.99) / 1e6),
    );
    put(
        "scheduler.requests_per_round",
        Some(c.requests as f64 / rounds),
    );
    put(
        "scheduler.candidate_edges_per_round",
        Some(c.candidate_edges as f64 / rounds),
    );
    put(
        "flow.arena_edges_mean",
        Some(c.arena_edges as f64 / c.schedule_calls.max(1) as f64),
    );
    let timed = |value: f64| run.solver_timed.then_some(value);
    put(
        "scheduler.self_ms_per_round",
        timed(per_round_ms(t.schedule_ns.saturating_sub(t.solve_ns))),
    );
    put(
        "flow.warm_solve_ms_per_round",
        timed(per_round_ms(t.solve_ns)),
    );
    put(
        "flow.warm_solve_calls_per_round",
        timed(c.solve_calls as f64 / rounds),
    );
    put(
        "flow.augmented_per_round",
        timed(c.augmented as f64 / rounds),
    );
    put(
        "flow.augment_share",
        timed(c.augmented as f64 / c.requests.max(1) as f64),
    );
    put("flow.cold_solve_ms_peak", drills.cold_peak_ms);
    put("flow.cold_solve_ms_median", drills.cold_median_ms);
    put("flow.obstruction_ms", drills.obstruction_ms);
    let sims = run.sims.max(1) as f64;
    put("core.system_build_s", Some(run.system_build_s / sims));
    put("sim.new_s", Some(run.sim_new_s / sims));
    put(
        "workloads.generator_new_s",
        Some(run.generator_new_s / sims),
    );
    put(
        "repair.transfers_per_round",
        Some(run.repair_transfers as f64 / rounds),
    );
    put(
        "delivery.retries_per_round",
        Some(run.retries as f64 / rounds),
    );
    put(
        "delivery.dropped_per_round",
        Some(run.dropped as f64 / rounds),
    );
    put(
        "relay.forwarded_per_round",
        Some(run.forwarded as f64 / rounds),
    );
    put(
        "sim.candidate_index_entries_mean",
        Some(run.index_entries as f64 / rounds),
    );
    let overhead = per_round_ms(t.step_net_ns) / untraced_step_ms - 1.0;
    put("obs.trace_overhead_share", Some(overhead));

    let mut warnings = Vec::new();
    if overhead > 0.05 {
        warnings.push(format!(
            "obs.trace_overhead_share is {:.1}% (above 5%): per-layer times are inflated by about that much",
            overhead * 100.0
        ));
    }
    if !run.solver_timed {
        warnings.push(
            "the default solver's name is unknown to the benchmark: flow.warm_* and scheduler.self_ms_per_round are omitted rather than timing another solver".into(),
        );
    }
    LayerReport {
        values: v,
        violations,
        warnings,
        steps: t.steps,
        invalid_assignments: c.invalid_assignments,
    }
}

/// Writes the span log as JSON lines: id, name, start, end, parent, round.
pub fn spans_jsonl(log: &SpanLog) -> String {
    let mut out = String::with_capacity(log.spans.len() * 96);
    for (id, s) in log.spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
            s.name, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = writeln!(out, ", \"round\": {}}}", s.round);
    }
    out
}
