//! Regression corpus: every seed file under `tests/corpus/` is replayed
//! through the engine under the matcher and under the textbook
//! `NaiveScheduler`, and the normalized reports must be bit-identical (the
//! naive comparison pools per-playback stall counts; see
//! `vod_analysis::normalize_report`).
//!
//! Seed files are self-contained [`SeedFile`] recipes (system parameters +
//! allocation seed + demand trace), so a divergence dumped by `exp_verify`
//! can be dropped into this directory and becomes a permanent regression
//! test. Counterexample seeds (note contains "counterexample") must keep
//! failing; all other seeds must keep serving every round.

use vod_analysis::{is_admissible, replay_seed, SeedFile};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "regression corpus must not be empty");
    files
}

/// Every corpus seed replays bit-identically through every pipeline, its
/// trace is µ-admissible for its own system, and its outcome (served vs
/// counterexample) is pinned by its note.
#[test]
fn corpus_replays_identically_through_every_pipeline() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let seed = SeedFile::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            is_admissible(
                &seed.demands,
                seed.system.n,
                seed.system.duration as u64,
                seed.system.mu
            ),
            "{name}: corpus trace is not µ-admissible"
        );
        let report = replay_seed(&seed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.round_count(),
            seed.horizon as usize,
            "{name}: replay must run the full horizon"
        );
        let expect_failure = seed.note.contains("counterexample");
        assert_eq!(
            !report.failures.is_empty(),
            expect_failure,
            "{name}: outcome drifted — failures {:?}, note {:?}",
            report.failures.len(),
            seed.note
        );
    }
}

/// Corpus files round-trip through the JSON codec unchanged — the dump
/// format stays stable for replaying old divergence seeds.
#[test]
fn corpus_files_round_trip() {
    use vod_core::JsonCodec;
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let seed = SeedFile::from_json_str(&text).unwrap();
        let back = SeedFile::from_json_str(&seed.to_json_string()).unwrap();
        assert_eq!(seed, back, "{}", path.display());
    }
}
