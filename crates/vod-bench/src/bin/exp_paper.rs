//! The paper's eight claims as gates.
//!
//! Runs every claim of `vod_bench::paper` at `EXP_SCALE` (`quick` unless
//! `EXP_SCALE=full`), prints each claim's tables, then one verdict line per
//! claim (`holds`, `not shown at this scale`, or `FAILS`) with a line per
//! checked direction. Exits non-zero if any asserted direction fails.

use vod_bench::paper::{Verdict, CLAIMS};
use vod_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let runs: Vec<_> = CLAIMS
        .iter()
        .map(|claim| {
            let run = claim(scale);
            print!("{}", run.tables);
            run
        })
        .collect();
    println!("# Verdicts (scale: {scale:?})\n");
    for run in &runs {
        print!("{}", run.verdicts());
    }
    if runs.iter().any(|run| run.verdict() == Verdict::Fails) {
        std::process::exit(1);
    }
}
