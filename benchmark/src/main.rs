//! `vod-benchmark`: end-to-end and per-layer benchmark of the round
//! pipeline. See `README.md` for the workloads, the metrics and how to read
//! the output.
//!
//! * `--workload <name> [--trace 0|1]` runs one workload in this process and
//!   prints, as the last line of standard output, one JSON object with the
//!   keys `correct`, `attempted`, `failed` and `metrics`.
//! * Without `--workload`, every workload is run — end to end, then traced —
//!   as a sequential child process of this binary, and the results are
//!   collected in `out/results.json`.
//! * `--check` does that twice, each run of the second set straight after
//!   the same run of the first, and compares the two sets.

mod json;
mod layers;
mod long_run;
mod metrics;
mod runs;
mod stats;
mod sweep;
mod timed;
mod workloads;

use json::{obj, pretty, text, Json};
use metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use runs::{Options, Outcome, DEFAULT_SEED};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str = "usage: vod-benchmark [--workload <name> [--trace 0|1]] [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]
       vod-benchmark --check [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]
workloads: steady-churn flash-crowd sparse-fleet relay-faults threshold-search";

/// Seconds each run keeps starting reps for, unless `--seconds` says
/// otherwise (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    workload: Option<Workload>,
    trace: bool,
    options: Options,
    out: Option<PathBuf>,
    /// Make every run twice and compare the two sets.
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: false,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            quick: false,
        },
        out: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--seed" => {
                args.options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.options.seconds = seconds;
            }
            "--quick" => args.options.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--check" => args.check = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.check && args.workload.is_some() {
        return Err("--check runs every workload: it takes no --workload".into());
    }
    Ok(args)
}

/// The crate's directory: where `expected/` is read and `out/` is written.
/// `cargo run` exports it; a binary started by hand falls back to the path
/// it was built from.
fn crate_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Runs one workload in this process, prints its metrics and the result
/// line, and writes its result file.
fn run_one(w: Workload, args: &Args, out_dir: &Path) -> bool {
    let opts = &args.options;
    let name = w.name();
    let kind = if args.trace { "traced" } else { "end-to-end" };
    println!(
        "# {name}: {kind} run, seed {}, {}",
        opts.seed,
        if opts.quick {
            "QUICK scale — a smoke test, numbers are not comparable with full runs".to_string()
        } else {
            format!("{} s of reps", opts.seconds)
        }
    );
    println!("# {}", w.why());
    println!("# closed loop: each step is issued after the previous one returns; one thread (the traced threshold-search run adds one 2-thread pass); {} hardware threads available", std::thread::available_parallelism().map_or(0, |n| n.get()));
    println!("# the model is not validated against external data: simulated values compare two versions of this repository, nothing else");
    let Outcome {
        metrics,
        attempted,
        failed,
        violations,
        warnings,
        notes,
        mut detail,
    } = if args.trace {
        runs::traced(out_dir, w, opts)
    } else {
        runs::end_to_end(&crate_dir(), w, opts)
    };
    for note in &notes {
        println!("# {note}");
    }
    for m in &metrics {
        m.print(name);
    }
    for warning in &warnings {
        println!("# WARNING: {warning}");
    }
    for violation in &violations {
        println!("# CHECK FAILED: {violation}");
    }
    let correct = violations.is_empty();
    let failed = if correct { 0 } else { failed.max(1) };
    let strings = |items: &[String]| Json::Arr(items.iter().map(text).collect());
    let mut file = vec![
        ("workload", text(name)),
        ("run", text(kind)),
        ("seed", Json::Num(opts.seed as f64)),
        ("quick", Json::Bool(opts.quick)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
    ];
    file.append(&mut detail);
    file.push(("notes", strings(&notes)));
    file.push(("warnings", strings(&warnings)));
    file.push(("violations", strings(&violations)));
    file.push((
        "metrics",
        obj(metrics
            .iter()
            .map(|m| (m.def.name, m.detail_json()))
            .collect()),
    ));
    let path = out_dir.join(format!("{name}-{kind}.json"));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, pretty(&obj(file))))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            obj(metrics
                .iter()
                .map(|m| (m.def.name, m.contract_json()))
                .collect()),
        ),
    ]);
    println!("{line}");
    correct
}

/// Runs one workload as a child process of this binary, echoing what it
/// prints, and returns its result line.
fn run_child(w: Workload, trace: bool, args: &Args, out_dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let opts = &args.options;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &opts.seed.to_string()])
    .args(["--seconds", &opts.seconds.to_string()])
    .arg("--out")
    .arg(out_dir)
    .stdout(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = Json::parse(&last).map_err(|e| format!("{}: no result line ({e})", w.name()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", w.name()));
    }
    Ok(result)
}

/// Runs every workload, end to end then traced, one child process at a time,
/// and returns each set's results (`None` if a run failed). With `--check`
/// there are two sets: each run is made twice back to back and the second
/// goes to set 2, because the host's speed drifts by 20 % over minutes and
/// two sets are only comparable run by run, seconds apart.
fn run_all(args: &Args, out_dir: &Path) -> Option<Vec<Json>> {
    let set_dirs: Vec<PathBuf> = if args.check {
        vec![out_dir.join("set-1"), out_dir.join("set-2")]
    } else {
        vec![out_dir.to_path_buf()]
    };
    let mut ok = true;
    let mut sets: Vec<Vec<(&str, Json)>> = vec![Vec::new(); set_dirs.len()];
    for w in Workload::ALL {
        let mut entries: Vec<Vec<(&str, Json)>> = vec![Vec::new(); set_dirs.len()];
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            for (dir, entry) in set_dirs.iter().zip(&mut entries) {
                match run_child(w, trace, args, dir) {
                    Ok(result) => entry.push((key, result)),
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        ok = false;
                    }
                }
                println!();
            }
        }
        for (set, entry) in sets.iter_mut().zip(entries) {
            set.push((w.name(), obj(entry)));
        }
    }
    let mut results = Vec::with_capacity(sets.len());
    for (dir, workloads) in set_dirs.iter().zip(sets) {
        let set = obj(vec![
            ("seed", Json::Num(args.options.seed as f64)),
            ("quick", Json::Bool(args.options.quick)),
            ("correct", Json::Bool(ok)),
            ("workloads", obj(workloads)),
        ]);
        let path = dir.join("results.json");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, pretty(&set))) {
            Ok(()) => println!("results -> {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ok = false;
            }
        }
        results.push(set);
    }
    ok.then_some(results)
}

fn metric_value(results: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
        .ok()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares two result sets of the same code, side by side: every end-to-end
/// time metric must agree within its own bound (either way round), and every
/// simulated or counted metric must be bit-equal. Quick runs are one short
/// rep, so only their exact metrics are compared.
fn compare(a: &Json, b: &Json, quick: bool) -> bool {
    let mut ok = true;
    println!(
        "{:<17} {:<44} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "set 1", "set 2", "2 vs 1"
    );
    for w in Workload::ALL {
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for def in table {
                let (Some(va), Some(vb)) = (
                    metric_value(a, w.name(), section, def.name),
                    metric_value(b, w.name(), section, def.name),
                ) else {
                    println!(
                        "{:<17} {:<44} missing from a result set",
                        w.name(),
                        def.name
                    );
                    ok = false;
                    continue;
                };
                let worse = if va == vb {
                    0.0
                } else {
                    worsening(def, va, vb)
                };
                let verdict = if def.exact {
                    if va.to_bits() == vb.to_bits() {
                        "equal"
                    } else {
                        ok = false;
                        "DIFFERS (must be bit-equal)"
                    }
                } else if section == "end_to_end" && !quick {
                    // Same code both times, so neither side may be worse
                    // than the other by more than the bound.
                    if worse.max(worsening(def, vb, va)) <= def.bound {
                        "within bound"
                    } else {
                        ok = false;
                        "OUTSIDE BOUND"
                    }
                } else {
                    "not gated"
                };
                println!(
                    "{:<17} {:<44} {va:>16.6} {vb:>16.6} {:>+8.1}%  {verdict}",
                    w.name(),
                    def.name,
                    worse * 100.0
                );
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = args.out.clone().unwrap_or_else(|| crate_dir().join("out"));
    let ok = match args.workload {
        Some(w) => run_one(w, &args, &out_dir),
        None => match run_all(&args, &out_dir).as_deref() {
            Some([a, b]) => {
                let agree = compare(a, b, args.options.quick);
                println!(
                    "the two result sets {}",
                    if agree { "agree" } else { "DISAGREE" }
                );
                agree
            }
            Some(_) => true,
            None => false,
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
