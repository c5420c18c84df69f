//! Tier-1 regression replay of the differential-fuzzing corpus, plus a
//! bounded seeded sweep.
//!
//! Every `corpus/*.case` entry — pinned anchors and minimized
//! counterexamples alike — must keep all engine paths in agreement with
//! the sequential oracle. The sweep re-checks a fixed window of generator
//! seeds on every test run, so the differential property itself (not just
//! the frozen cases) is part of tier 1.

use std::path::Path;

use crossinvoc_fuzz::{case_from_text, case_to_text, generate, load_corpus, run_case, GenParams};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

#[test]
fn corpus_is_nonempty_and_parses() {
    let entries = load_corpus(&corpus_dir()).expect("corpus loads");
    assert!(
        !entries.is_empty(),
        "corpus/ must hold at least the pinned anchor cases"
    );
}

#[test]
fn every_corpus_entry_replays_clean() {
    for (path, case) in load_corpus(&corpus_dir()).expect("corpus loads") {
        let report = run_case(&case);
        assert!(
            report.divergence.is_none(),
            "{} (seed {}) regressed: {:?}",
            path.display(),
            case.seed,
            report.divergence
        );
    }
}

#[test]
fn corpus_entries_round_trip_through_the_text_format() {
    for (path, case) in load_corpus(&corpus_dir()).expect("corpus loads") {
        let text = case_to_text(&case).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let back = case_from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(back.program, case.program, "{}", path.display());
        assert_eq!(
            back.faults.specs(),
            case.faults.specs(),
            "{}",
            path.display()
        );
    }
}

#[test]
fn pinned_seeds_still_generate_their_checked_in_cases() {
    // A pinned anchor records the exact case its seed generated — every
    // header, the program and the fault plan, compared in their text form;
    // if the generator changes anything under an existing seed, the pin
    // detects it (the corpus entry still replays on its own, so this is a
    // drift warning, not a correctness failure — refresh the entry with
    // `fuzz-diff --seed N --emit` after auditing the new shape).
    let params = GenParams::default();
    for (path, case) in load_corpus(&corpus_dir()).expect("corpus loads") {
        let text = std::fs::read_to_string(&path).unwrap();
        if !text.starts_with("# pinned from fuzz-diff") {
            continue; // minimized counterexamples no longer match their seed
        }
        let regen = generate(case.seed, &params);
        assert_eq!(
            case_to_text(&regen),
            case_to_text(&case),
            "{}: generator drifted under seed {}",
            path.display(),
            case.seed
        );
    }
}

#[test]
fn seeded_sweep_stays_divergence_free() {
    // A fixed 160-seed window (disjoint from the proptest windows in
    // tests/properties.rs) over the default fault mix.
    let params = GenParams::default();
    for seed in 10_000..10_160 {
        let case = generate(seed, &params);
        let report = run_case(&case);
        assert!(
            report.divergence.is_none(),
            "seed {seed} ({}): {:?} — reproduce with `fuzz-diff --seed {seed}`",
            case.note,
            report.divergence
        );
    }
}

#[test]
fn elision_anchors_are_pinned() {
    // The static-elision lane relies on two standing anchors: a fully
    // provable cluster region and a mixed region interleaving proven and
    // unproven loops. Keep both pinned so `spec-elide` always has a
    // non-trivial corpus case to replay.
    let entries = load_corpus(&corpus_dir()).expect("corpus loads");
    let has = |pred: &dyn Fn(&str) -> bool| entries.iter().any(|(_, c)| pred(&c.note));
    assert!(
        has(&|n| n.contains("Cluster") && !n.contains("IndirectWatched")),
        "corpus must pin a fully-proven cluster-family anchor"
    );
    assert!(
        has(&|n| n.contains("IndirectWatched")),
        "corpus must pin a mixed proven+indirect anchor"
    );
}
