//! The named metrics: the same tables `BENCHMARK.json` carries (a unit test
//! keeps the two equal), plus what the comparison needs to know about each.

use crate::json::{nums, obj, text, Json};
use crate::stats::five_numbers;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may get worse.
    pub bound: f64,
    /// Simulated or counted: must repeat bit for bit on the same seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off, reported by every workload.
pub const END_TO_END: [MetricDef; 8] = [
    timed("setup_s", "s", Lower, 0.25),
    timed("round_ms_p50", "ms", Lower, 0.25),
    timed("round_ms_p99", "ms", Lower, 0.25),
    timed("requests_per_s", "1/s", Higher, 0.25),
    timed("trials_per_s", "1/s", Higher, 0.25),
    timed("peak_rss_mb", "MB", Lower, 0.25),
    timed("first_rep_rss_mb", "MB", Lower, 0.10),
    MetricDef {
        name: "served_share",
        unit: "ratio",
        better: Higher,
        bound: 0.01,
        exact: true,
    },
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: [MetricDef; 48] = [
    layer("workloads.demand_ms_per_round", "ms", Lower, false),
    layer("workloads.demands_per_round", "count", Higher, true),
    layer("sim.step_ms_per_round", "ms", Lower, false),
    layer("sim.engine_self_ms_per_round", "ms", Lower, false),
    layer("sim.engine_self_share", "ratio", Lower, false),
    layer("sim.stage.playback-end_ms_per_round", "ms", Lower, false),
    layer("sim.stage.demand-intake_ms_per_round", "ms", Lower, false),
    layer("sim.stage.request-collect_ms_per_round", "ms", Lower, false),
    layer(
        "sim.stage.candidate-maintain_ms_per_round",
        "ms",
        Lower,
        false,
    ),
    layer("sim.stage.candidate-fill_ms_per_round", "ms", Lower, false),
    layer("sim.stage.churn-drain_ms_per_round", "ms", Lower, false),
    layer("sim.stage.repair-plan_ms_per_round", "ms", Lower, false),
    layer("sim.stage.repair-commit_ms_per_round", "ms", Lower, false),
    layer("sim.stage.fault-drain_ms_per_round", "ms", Lower, false),
    layer("sim.stage.deliver_ms_per_round", "ms", Lower, false),
    layer("sim.stage.degrade_ms_per_round", "ms", Lower, false),
    layer("sim.stage.relay-account_ms_per_round", "ms", Lower, false),
    layer("sim.stage.relay-replan_ms_per_round", "ms", Lower, false),
    layer(
        "sim.stage.failure-diagnose_ms_per_round",
        "ms",
        Lower,
        false,
    ),
    layer("sim.unattributed_share", "ratio", Lower, false),
    layer("scheduler.schedule_ms_per_round", "ms", Lower, false),
    layer("scheduler.schedule_ms_p99", "ms", Lower, false),
    layer("scheduler.self_ms_per_round", "ms", Lower, false),
    layer("scheduler.requests_per_round", "count", Higher, true),
    layer("scheduler.candidate_edges_per_round", "count", Lower, true),
    layer("flow.warm_solve_ms_per_round", "ms", Lower, false),
    layer("flow.warm_solve_calls_per_round", "count", Lower, true),
    layer("flow.augmented_per_round", "count", Lower, true),
    layer("flow.augment_share", "ratio", Lower, true),
    layer("flow.arena_edges_mean", "count", Lower, true),
    layer("flow.cold_solve_ms_peak", "ms", Lower, false),
    layer("flow.cold_solve_ms_median", "ms", Lower, false),
    layer("flow.obstruction_ms", "ms", Lower, false),
    layer("core.system_build_s", "s", Lower, false),
    layer("sim.new_s", "s", Lower, false),
    layer("workloads.generator_new_s", "s", Lower, false),
    layer("analysis.trial_ms_p50", "ms", Lower, false),
    layer("analysis.trial_ms_p99", "ms", Lower, false),
    layer("analysis.system_build_share", "ratio", Lower, false),
    layer("analysis.parallel_efficiency", "ratio", Higher, false),
    layer("repair.transfers_per_round", "count", Higher, true),
    layer("delivery.retries_per_round", "count", Lower, true),
    layer("delivery.dropped_per_round", "count", Lower, true),
    layer("relay.forwarded_per_round", "count", Higher, true),
    layer("sim.candidate_index_entries_mean", "count", Lower, true),
    layer("obs.trace_overhead_share", "ratio", Lower, false),
    layer("failed_share", "ratio", Lower, true),
    layer("threshold_gap", "u", Lower, true),
];

/// One reported value. `value` is `None` when the metric does not exist on
/// this workload or in this build: printed as absent, written as 0.
pub struct Measured {
    pub def: &'static MetricDef,
    pub value: Option<f64>,
    /// The per-rep (or per-pass) values behind it, when there are any.
    pub reps: Vec<f64>,
}

impl Measured {
    pub fn new(
        table: &'static [MetricDef],
        name: &str,
        value: Option<f64>,
        reps: Vec<f64>,
    ) -> Self {
        let def = table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        Measured { def, value, reps }
    }

    /// `{"value": …, "unit": …}` for the result line.
    pub fn contract_json(&self) -> Json {
        obj(vec![
            ("value", Json::Num(self.value.unwrap_or(0.0))),
            ("unit", text(self.def.unit)),
        ])
    }

    /// The result-file entry: the value, whether it was absent, each rep's
    /// value and their min / quartiles / max.
    pub fn detail_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value.unwrap_or(0.0))),
            ("unit", text(self.def.unit)),
            ("better", text(self.def.better.as_str())),
            ("absent", Json::Bool(self.value.is_none())),
        ];
        if !self.reps.is_empty() {
            pairs.push(("reps", nums(&self.reps)));
            pairs.push(("min_q1_median_q3_max", nums(&five_numbers(&self.reps))));
        }
        obj(pairs)
    }

    pub fn print(&self, workload: &str) {
        match self.value {
            Some(v) => println!(
                "{workload:<17} {:<44} {v:>16.6} {}",
                self.def.name, self.def.unit
            ),
            None => println!(
                "{workload:<17} {:<44} {:>16} {}",
                self.def.name, "absent", self.def.unit
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, table, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let Some(Json::Arr(listed)) = json.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(
                    entry.get("name").and_then(|v| v.as_str().ok()),
                    Some(def.name)
                );
                assert_eq!(
                    entry.get("unit").and_then(|v| v.as_str().ok()),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(|v| v.as_str().ok()),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                if bounded {
                    assert_eq!(
                        entry.get("bound").and_then(|v| v.as_f64().ok()),
                        Some(def.bound),
                        "{}",
                        def.name
                    );
                }
            }
        }
        let Some(Json::Arr(workloads)) = json.get("workloads") else {
            panic!("BENCHMARK.json has no `workloads` list");
        };
        let listed: Vec<_> = workloads
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(|v| v.as_str().ok()),
                    w.get("why").and_then(|v| v.as_str().ok()),
                )
            })
            .collect();
        let ours: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| (Some(w.name()), Some(w.why())))
            .collect();
        assert_eq!(listed, ours);
    }
}
