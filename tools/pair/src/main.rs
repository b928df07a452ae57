//! `pair`: a paired comparison of two prebuilt `vod-benchmark` binaries.
//!
//! The host's speed drifts by 15–20 % over minutes, so two runs far apart
//! in time say little about two commits. This tool alternates the two
//! binaries, one *parent* and one *change* run per pair, swapping which one
//! goes first from pair to pair, on every workload of the benchmark spec,
//! and writes per workload and end-to-end metric the change/parent ratio of
//! every pair, its median and quartiles, the pairs the change won, and both
//! sides' raw values, median and quartiles. Two verdicts go with each
//! metric: `resolved` — the change won at least nine tenths of the pairs
//! and its median beats the parent's by more than the parent's
//! interquartile range, the rule a claimed gain must meet — and
//! `beyond_bound` — the median ratio is worse than 1 by more than the
//! metric's `bound` in the spec.
//!
//! ```text
//! pair --parent <vod-benchmark> --change <vod-benchmark> --out <file.json>
//!      [--runs 2009:10,7331:3] [--spec BENCHMARK.json] [--scratch <dir>]
//! ```
//!
//! `--runs` lists `seed:pairs` blocks (default `2009:10`); every run is
//! `<binary> --workload W --seed S --seconds N --trace 0 --out <scratch>`,
//! and its last stdout line is the benchmark's result object. The
//! workloads, the run length `N`, the metric names, each metric's better
//! direction and its bound come from the spec (`workloads`, `run_seconds`,
//! `end_to_end`).
//! The output file is rewritten after every pair, so an interrupted
//! comparison keeps what it measured. Passing the same binary on both
//! sides is an A/A run: its ratios are the host's noise band.

use std::path::{Path, PathBuf};
use std::process::Command;
use vod_core::json::obj;
use vod_core::Json;

/// One end-to-end metric of the spec.
struct Metric {
    name: String,
    lower_is_better: bool,
    /// The largest adverse change the spec lets a median ratio show, as a
    /// fraction (0.25: a quarter worse).
    bound: f64,
}

/// One workload of one seed block: each side's result per pair.
struct Block {
    workload: String,
    seed: u64,
    /// Per pair: whether the parent ran first.
    parent_first: Vec<bool>,
    parent: Vec<RunResult>,
    change: Vec<RunResult>,
}

/// What one benchmark run reported.
struct RunResult {
    correct: bool,
    /// Metric values in spec order (`None`: not reported).
    values: Vec<Option<f64>>,
}

struct Args {
    parent: PathBuf,
    change: PathBuf,
    out: PathBuf,
    runs: Vec<(u64, usize)>,
    spec: PathBuf,
    scratch: PathBuf,
}

/// What the benchmark spec says about a run.
struct Spec {
    workloads: Vec<String>,
    seconds: String,
    metrics: Vec<Metric>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pair --parent <bin> --change <bin> --out <file.json> [--runs SEED:PAIRS,...] \
         [--spec BENCHMARK.json] [--scratch DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        parent: PathBuf::new(),
        change: PathBuf::new(),
        out: PathBuf::new(),
        runs: vec![(2009, 10)],
        spec: "BENCHMARK.json".into(),
        scratch: std::env::temp_dir().join(format!("pair-{}", std::process::id())),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--parent" => args.parent = value.into(),
            "--change" => args.change = value.into(),
            "--out" => args.out = value.into(),
            "--runs" => args.runs = parse_runs(&value).unwrap_or_else(|| usage()),
            "--spec" => args.spec = value.into(),
            "--scratch" => args.scratch = value.into(),
            _ => usage(),
        }
    }
    if args.parent.as_os_str().is_empty()
        || args.change.as_os_str().is_empty()
        || args.out.as_os_str().is_empty()
    {
        usage();
    }
    args
}

/// `2009:10,7331:3` → `[(2009, 10), (7331, 3)]`.
fn parse_runs(text: &str) -> Option<Vec<(u64, usize)>> {
    text.split(',')
        .map(|block| {
            let (seed, pairs) = block.split_once(':')?;
            Some((seed.parse().ok()?, pairs.parse().ok()?))
        })
        .collect()
}

/// The spec's workload names, run length and end-to-end metrics.
fn read_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |json: &Json, key: &str| -> Result<String, String> {
        Ok(json
            .field(key)
            .and_then(Json::as_str)
            .map_err(|e| e.to_string())?
            .to_string())
    };
    let list = |key: &str| {
        spec.field(key)
            .and_then(Json::as_arr)
            .map_err(|e| e.to_string())
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m
                    .field("bound")
                    .and_then(Json::as_f64)
                    .map_err(|e| e.to_string())?,
            })
        })
        .collect::<Result<_, String>>()?;
    let seconds = spec
        .field("run_seconds")
        .and_then(Json::as_u64)
        .map_err(|e| e.to_string())?
        .to_string();
    Ok(Spec {
        workloads,
        seconds,
        metrics,
    })
}

/// Reads a benchmark's last stdout line.
fn parse_result(line: &str, metrics: &[Metric]) -> Result<RunResult, String> {
    let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let correct = json
        .field("correct")
        .and_then(Json::as_bool)
        .map_err(|e| e.to_string())?;
    let reported = json.field("metrics").map_err(|e| e.to_string())?;
    let values = metrics
        .iter()
        .map(|m| {
            reported
                .get(&m.name)
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64().ok())
        })
        .collect();
    Ok(RunResult { correct, values })
}

fn run_once(
    binary: &Path,
    workload: &str,
    seed: u64,
    spec: &Spec,
    scratch: &Path,
) -> Result<RunResult, String> {
    let output = Command::new(binary)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.seconds, "--trace", "0", "--out"])
        .arg(scratch)
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} --workload {workload} exited with {}: {}",
            binary.display(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no result line")?;
    parse_result(line, &spec.metrics)
}

/// The `q`-quantile of `values`, interpolated between order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median and quartiles.
fn spread(values: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| quantile(values, q))
}

fn num_list(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// One metric of one block: the per-pair ratios and both sides' values,
/// over the pairs where both sides reported it.
fn metric_json(block: &Block, index: usize, metric: &Metric) -> Option<Json> {
    let (parent, change): (Vec<f64>, Vec<f64>) = block
        .parent
        .iter()
        .zip(&block.change)
        .filter_map(|(p, c)| Some((p.values[index]?, c.values[index]?)))
        .unzip();
    if parent.is_empty() {
        return None;
    }
    let ratios: Vec<f64> = parent.iter().zip(&change).map(|(p, c)| c / p).collect();
    let wins = parent
        .iter()
        .zip(&change)
        .filter(|(p, c)| if metric.lower_is_better { c < p } else { c > p })
        .count();
    let [ratio_q1, ratio_median, ratio_q3] = spread(&ratios);
    let [parent_q1, parent_median, parent_q3] = spread(&parent);
    let [change_q1, change_median, change_q3] = spread(&change);
    let (better, gain, beyond_bound) = if metric.lower_is_better {
        let gain = parent_median - change_median;
        ("lower", gain, ratio_median > 1.0 + metric.bound)
    } else {
        let gain = change_median - parent_median;
        ("higher", gain, ratio_median < 1.0 - metric.bound)
    };
    let resolved = wins * 10 >= ratios.len() * 9 && gain > parent_q3 - parent_q1;
    Some(obj(vec![
        ("better", Json::Str(better.into())),
        ("bound", Json::Num(metric.bound)),
        ("pairs", Json::Num(ratios.len() as f64)),
        ("wins", Json::Num(wins as f64)),
        ("resolved", Json::Bool(resolved)),
        ("beyond_bound", Json::Bool(beyond_bound)),
        ("ratio_median", Json::Num(ratio_median)),
        ("ratio_q1", Json::Num(ratio_q1)),
        ("ratio_q3", Json::Num(ratio_q3)),
        ("parent_median", Json::Num(parent_median)),
        ("parent_q1", Json::Num(parent_q1)),
        ("parent_q3", Json::Num(parent_q3)),
        ("change_median", Json::Num(change_median)),
        ("change_q1", Json::Num(change_q1)),
        ("change_q3", Json::Num(change_q3)),
        ("ratios", num_list(&ratios)),
        ("parent", num_list(&parent)),
        ("change", num_list(&change)),
    ]))
}

fn block_json(block: &Block, metrics: &[Metric]) -> Json {
    let correct =
        |side: &[RunResult]| Json::Arr(side.iter().map(|r| Json::Bool(r.correct)).collect());
    let per_metric = metrics
        .iter()
        .enumerate()
        .filter_map(|(i, m)| Some((m.name.clone(), metric_json(block, i, m)?)))
        .collect();
    obj(vec![
        ("workload", Json::Str(block.workload.clone())),
        ("seed", Json::Num(block.seed as f64)),
        (
            "parent_first",
            Json::Arr(block.parent_first.iter().map(|&b| Json::Bool(b)).collect()),
        ),
        ("parent_correct", correct(&block.parent)),
        ("change_correct", correct(&block.change)),
        ("metrics", Json::Obj(per_metric)),
    ])
}

fn write_report(args: &Args, spec: &Spec, blocks: &[Block]) -> Result<(), String> {
    let report = obj(vec![
        ("parent", Json::Str(args.parent.display().to_string())),
        ("change", Json::Str(args.change.display().to_string())),
        ("seconds", Json::Str(spec.seconds.clone())),
        (
            "blocks",
            Json::Arr(
                blocks
                    .iter()
                    .map(|b| block_json(b, &spec.metrics))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&args.out, format!("{report}\n"))
        .map_err(|e| format!("{}: {e}", args.out.display()))
}

fn main() {
    let args = parse_args();
    let spec = read_spec(&args.spec).unwrap_or_else(|e| {
        eprintln!("pair: {e}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("pair: {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let mut blocks: Vec<Block> = Vec::new();
    for &(seed, pairs) in &args.runs {
        for workload in &spec.workloads {
            blocks.push(Block {
                workload: workload.clone(),
                seed,
                parent_first: Vec::new(),
                parent: Vec::new(),
                change: Vec::new(),
            });
            for pair in 0..pairs {
                let parent_first = pair % 2 == 0;
                let mut sides = [(&args.parent, true), (&args.change, false)];
                if !parent_first {
                    sides.reverse();
                }
                let block = blocks.last_mut().expect("pushed above");
                block.parent_first.push(parent_first);
                for (binary, is_parent) in sides {
                    let result = run_once(binary, workload, seed, &spec, &args.scratch)
                        .unwrap_or_else(|e| {
                            eprintln!("pair: {e}");
                            std::process::exit(1);
                        });
                    if is_parent {
                        block.parent.push(result);
                    } else {
                        block.change.push(result);
                    }
                }
                eprintln!(
                    "pair: {workload} seed {seed}: pair {}/{pairs} done",
                    pair + 1
                );
                if let Err(e) = write_report(&args, &spec, &blocks) {
                    eprintln!("pair: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    for block in &blocks {
        println!(
            "{} (seed {}, {} pairs)",
            block.workload,
            block.seed,
            block.parent.len()
        );
        for (i, metric) in spec.metrics.iter().enumerate() {
            let Some(json) = metric_json(block, i, metric) else {
                continue;
            };
            let get = |key: &str| {
                json.get(key)
                    .map_or(f64::NAN, |v| v.as_f64().unwrap_or(f64::NAN))
            };
            let flag = |key: &str| json.get(key).is_some_and(|v| v.as_bool().unwrap_or(false));
            println!(
                "  {:<18} ratio {:.3} [{:.3}, {:.3}]  wins {}/{}  resolved {}  beyond_bound {}",
                metric.name,
                get("ratio_median"),
                get("ratio_q1"),
                get("ratio_q3"),
                get("wins"),
                get("pairs"),
                flag("resolved"),
                flag("beyond_bound"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<Metric> {
        vec![
            Metric {
                name: "round_ms_p99".into(),
                lower_is_better: true,
                bound: 0.25,
            },
            Metric {
                name: "requests_per_s".into(),
                lower_is_better: false,
                bound: 0.25,
            },
        ]
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(spread(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(spread(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn runs_parse_as_seed_and_pair_blocks() {
        assert_eq!(
            parse_runs("2009:10,7331:3"),
            Some(vec![(2009, 10), (7331, 3)])
        );
        assert_eq!(parse_runs("2009"), None);
    }

    #[test]
    fn a_result_line_reads_its_metrics_in_spec_order() {
        let line = r#"{"correct":true,"metrics":{"requests_per_s":{"value":5,"unit":"1/s"}}}"#;
        let result = parse_result(line, &metrics()).unwrap();
        assert!(result.correct);
        assert_eq!(result.values, [None, Some(5.0)]);
    }

    #[test]
    fn wins_follow_each_metric_s_better_direction() {
        let run = |p99, rate| RunResult {
            correct: true,
            values: vec![Some(p99), Some(rate)],
        };
        let block = Block {
            workload: "w".into(),
            seed: 1,
            parent_first: vec![true, false, true],
            parent: vec![run(2.0, 10.0), run(2.0, 10.0), run(2.0, 10.0)],
            change: vec![run(1.0, 11.0), run(3.0, 9.0), run(1.5, 12.0)],
        };
        let metrics = metrics();
        let json = metric_json(&block, 0, &metrics[0]).unwrap();
        assert_eq!(json.get("wins").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(json.get("ratio_median").unwrap().as_f64().unwrap(), 0.75);
        let json = metric_json(&block, 1, &metrics[1]).unwrap();
        assert_eq!(json.get("wins").unwrap().as_f64().unwrap(), 2.0);
    }

    /// A block of one metric per side from per-pair `(parent, change)`
    /// values, both metrics reading the same numbers.
    fn block_of(pairs: &[(f64, f64)]) -> Block {
        let run = |v: f64| RunResult {
            correct: true,
            values: vec![Some(v), Some(v)],
        };
        Block {
            workload: "w".into(),
            seed: 1,
            parent_first: pairs.iter().enumerate().map(|(i, _)| i % 2 == 0).collect(),
            parent: pairs.iter().map(|&(p, _)| run(p)).collect(),
            change: pairs.iter().map(|&(_, c)| run(c)).collect(),
        }
    }

    /// `(resolved, beyond_bound)` of metric `index`.
    fn verdicts(block: &Block, index: usize) -> (bool, bool) {
        let json = metric_json(block, index, &metrics()[index]).unwrap();
        let flag = |key: &str| json.get(key).unwrap().as_bool().unwrap();
        (flag("resolved"), flag("beyond_bound"))
    }

    #[test]
    fn a_gain_is_resolved_by_nine_tenths_of_wins_beyond_the_parent_spread() {
        // Ten parents 10..=19 (quartiles 12.25 and 16.75: IQR 4.5).
        let parents: Vec<f64> = (10..20).map(f64::from).collect();
        // Every pair 5 lower: all wins, but the medians differ by 5 > 4.5.
        let big = block_of(&parents.iter().map(|&p| (p, p - 5.0)).collect::<Vec<_>>());
        assert_eq!(verdicts(&big, 0), (true, false));
        // Every pair 1 lower: all wins, a median gap inside the spread.
        let small = block_of(&parents.iter().map(|&p| (p, p - 1.0)).collect::<Vec<_>>());
        assert_eq!(verdicts(&small, 0), (false, false));
        // 8 of 10 wins, however large the gap.
        let mut mixed: Vec<(f64, f64)> = parents.iter().map(|&p| (p, p - 8.0)).collect();
        mixed[0].1 = 30.0;
        mixed[1].1 = 30.0;
        assert_eq!(verdicts(&block_of(&mixed), 0), (false, false));
        // 9 of 10 wins is enough.
        mixed[0].1 = 2.0;
        assert_eq!(verdicts(&block_of(&mixed), 0), (true, false));
    }

    #[test]
    fn beyond_bound_reads_the_adverse_direction_of_each_metric() {
        // Ratio 1.25 exactly: at the bound, not past it.
        let at = block_of(&[(4.0, 5.0); 3]);
        assert_eq!(verdicts(&at, 0), (false, false));
        let past = block_of(&[(4.0, 5.2); 3]);
        assert_eq!(verdicts(&past, 0), (false, true));
        // For a higher-is-better metric a rise is never adverse, a fall
        // past 1 − bound is.
        assert_eq!(verdicts(&past, 1), (true, false));
        let fall = block_of(&[(4.0, 2.9); 3]);
        assert_eq!(verdicts(&fall, 1), (false, true));
    }
}
