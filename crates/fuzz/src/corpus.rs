//! The stable textual case format and the `corpus/` directory protocol.
//!
//! A corpus entry is one self-contained, hand-editable file:
//!
//! ```text
//! # optional comment lines (divergence details, provenance)
//! seed 42
//! workers 2
//! checkpoint-every 1
//! signature range
//! gate-distance false
//! degrade false
//! task-grain-ns 0
//! note spec region: ...
//! [program]
//! <crossinvoc_pir::text format>
//! [faults]
//! <FaultPlan::to_text format, possibly empty>
//! [end]
//! ```
//!
//! `task-grain-ns` may be absent (entries older than the key): it reads 0.
//!
//! Every checked-in entry under `corpus/` is replayed as a regression test
//! (`tests/fuzz_corpus.rs`), so a minimized counterexample stays fixed
//! forever once its bug is repaired.

use std::path::{Path, PathBuf};

use crossinvoc_pir::text;
use crossinvoc_runtime::FaultPlan;

use crate::gen::{FuzzCase, SigKind};

/// File extension of corpus entries.
pub const CASE_EXT: &str = "case";

/// Header keys of knobs that no longer exist. [`case_from_text`] accepts
/// and ignores them, so entries written before a knob retired still parse
/// unchanged.
///
/// * `checker-shards` — `SpecConfig::checker_shards`, the address-sharded
///   checker; every SPECCROSS path runs one checker.
/// * `elide` — `SpecConfig::elide`, static check elision; every wide
///   SPECCROSS task is admitted through the checker.
const RETIRED_KEYS: &[&str] = &["checker-shards", "elide"];

/// Renders `case` in the corpus format.
///
/// # Errors
///
/// Propagates [`text::to_text`] errors (programs with opaque calls cannot
/// be serialized; the generator never emits them).
pub fn case_to_text(case: &FuzzCase) -> Result<String, String> {
    let program = text::to_text(&case.program)?;
    let mut out = String::new();
    out.push_str(&format!("seed {}\n", case.seed));
    out.push_str(&format!("workers {}\n", case.workers));
    out.push_str(&format!("checkpoint-every {}\n", case.checkpoint_every));
    out.push_str(&format!("signature {}\n", case.signature.as_str()));
    out.push_str(&format!("gate-distance {}\n", case.gate_distance));
    out.push_str(&format!("degrade {}\n", case.degrade));
    out.push_str(&format!("task-grain-ns {}\n", case.task_grain_ns));
    if !case.note.is_empty() {
        out.push_str(&format!("note {}\n", case.note.replace('\n', " ")));
    }
    out.push_str("[program]\n");
    out.push_str(&program);
    if !program.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("[faults]\n");
    let faults = case.faults.to_text();
    out.push_str(&faults);
    if !faults.is_empty() && !faults.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("[end]\n");
    Ok(out)
}

/// Parses the [`case_to_text`] format. The returned case carries a fresh
/// fault-plan replay budget.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn case_from_text(input: &str) -> Result<FuzzCase, String> {
    enum Section {
        Header,
        Program,
        Faults,
        Done,
    }

    let mut section = Section::Header;
    let mut seed: Option<u64> = None;
    let mut workers: usize = 1;
    let mut checkpoint_every: usize = 1;
    let mut signature = SigKind::Range;
    let mut gate_distance = false;
    let mut degrade = false;
    let mut task_grain_ns = 0;
    let mut note = String::new();
    let mut program_text = String::new();
    let mut fault_text = String::new();

    for line in input.lines() {
        match section {
            Section::Header => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                if trimmed == "[program]" {
                    section = Section::Program;
                    continue;
                }
                let (key, value) = trimmed
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("header line without a value: {trimmed:?}"))?;
                let value = value.trim();
                let parse_err = |what: &str| format!("bad {what} value: {value:?}");
                match key {
                    "seed" => seed = Some(value.parse().map_err(|_| parse_err("seed"))?),
                    "workers" => workers = value.parse().map_err(|_| parse_err("workers"))?,
                    "checkpoint-every" => {
                        checkpoint_every =
                            value.parse().map_err(|_| parse_err("checkpoint-every"))?;
                    }
                    "signature" => {
                        signature = match value {
                            "range" => SigKind::Range,
                            "bloom" => SigKind::Bloom,
                            _ => return Err(parse_err("signature")),
                        };
                    }
                    "gate-distance" => {
                        gate_distance = value.parse().map_err(|_| parse_err("gate-distance"))?;
                    }
                    "degrade" => degrade = value.parse().map_err(|_| parse_err("degrade"))?,
                    "task-grain-ns" => {
                        task_grain_ns = value.parse().map_err(|_| parse_err("task-grain-ns"))?;
                    }
                    "note" => note = value.to_owned(),
                    _ if RETIRED_KEYS.contains(&key) => {}
                    _ => return Err(format!("unknown header key: {key:?}")),
                }
            }
            Section::Program => {
                if line.trim() == "[faults]" {
                    section = Section::Faults;
                } else {
                    program_text.push_str(line);
                    program_text.push('\n');
                }
            }
            Section::Faults => {
                if line.trim() == "[end]" {
                    section = Section::Done;
                } else {
                    fault_text.push_str(line);
                    fault_text.push('\n');
                }
            }
            Section::Done => {
                if !line.trim().is_empty() {
                    return Err(format!("content after [end]: {line:?}"));
                }
            }
        }
    }
    if !matches!(section, Section::Done) {
        return Err("truncated case: missing [program]/[faults]/[end] sections".to_owned());
    }

    let program = text::from_text(&program_text).map_err(|e| format!("[program]: {e}"))?;
    let faults = FaultPlan::from_text(&fault_text).map_err(|e| format!("[faults]: {e}"))?;
    if workers == 0 {
        return Err("workers must be at least 1".to_owned());
    }
    if checkpoint_every == 0 {
        return Err("checkpoint-every must be at least 1".to_owned());
    }
    Ok(FuzzCase {
        seed: seed.ok_or("missing seed header")?,
        workers,
        checkpoint_every,
        signature,
        gate_distance,
        degrade,
        task_grain_ns,
        program,
        faults,
        note,
    })
}

/// Loads every `*.case` file under `dir`, sorted by file name. A missing
/// directory is an empty corpus, not an error.
///
/// # Errors
///
/// I/O failures and parse errors, prefixed with the offending path.
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, FuzzCase)>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == CASE_EXT))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let case = case_from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
}

/// Writes `case` to `dir` as a new counterexample entry, with `detail`
/// (the observed divergence) recorded in leading comment lines. Returns
/// the written path. Never overwrites: an occupied `seed-N.case` slot
/// falls through to `seed-N-2.case`, `-3`, …
///
/// # Errors
///
/// Serialization and I/O failures.
pub fn write_counterexample(dir: &Path, case: &FuzzCase, detail: &str) -> Result<PathBuf, String> {
    let body = case_to_text(case)?;
    let mut text = String::new();
    for line in detail.lines() {
        text.push_str(&format!("# {line}\n"));
    }
    text.push_str(&body);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut path = dir.join(format!("seed-{}.{CASE_EXT}", case.seed));
    let mut n = 1;
    while path.exists() {
        n += 1;
        path = dir.join(format!("seed-{}-{n}.{CASE_EXT}", case.seed));
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};

    #[test]
    fn corpus_round_trip_is_identity() {
        let params = GenParams::default();
        for seed in 0..60 {
            let case = generate(seed, &params);
            let text = case_to_text(&case).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let back = case_from_text(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back.seed, case.seed, "seed {seed}");
            assert_eq!(back.workers, case.workers, "seed {seed}");
            assert_eq!(back.checkpoint_every, case.checkpoint_every, "seed {seed}");
            assert_eq!(back.signature, case.signature, "seed {seed}");
            assert_eq!(back.gate_distance, case.gate_distance, "seed {seed}");
            assert_eq!(back.degrade, case.degrade, "seed {seed}");
            assert_eq!(back.program, case.program, "seed {seed}");
            assert_eq!(back.faults.specs(), case.faults.specs(), "seed {seed}");
            // Text form is a fixed point as well.
            assert_eq!(case_to_text(&back).unwrap(), text, "seed {seed}");
        }
    }

    /// Inserts the retired header `line` before the `before` key of a
    /// generated case and checks that it parses to the case without it.
    fn assert_retired_header_is_ignored(line: &str, before: &str) {
        let case = generate(3, &GenParams::default());
        let text = case_to_text(&case).unwrap();
        let key = line.split_whitespace().next().unwrap();
        assert!(!text.contains(key), "the writer emits no retired key");
        let old = text.replacen(before, &format!("{line}\n{before}"), 1);
        let back = case_from_text(&old).expect("a case naming a retired key still parses");
        assert_eq!(case_to_text(&back).unwrap(), text);
    }

    #[test]
    fn retired_shard_count_header_is_ignored() {
        assert_retired_header_is_ignored("checker-shards 8", "signature ");
    }

    #[test]
    fn retired_elide_header_is_ignored() {
        for line in ["elide true", "elide false"] {
            assert_retired_header_is_ignored(line, "task-grain-ns ");
        }
    }

    #[test]
    fn malformed_cases_are_rejected_with_context() {
        assert!(case_from_text("").unwrap_err().contains("truncated"));
        assert!(case_from_text("bogus-key 1\n[program]\n[faults]\n[end]\n")
            .unwrap_err()
            .contains("unknown header key"));
        assert!(case_from_text("workers 1\n[program]\n[faults]\n[end]\n")
            .unwrap_err()
            .contains("missing seed"),);
        assert!(
            case_from_text("seed 1\nworkers zero\n[program]\n[faults]\n[end]\n")
                .unwrap_err()
                .contains("workers")
        );
    }

    #[test]
    fn write_then_load_round_trips_through_disk() {
        let dir =
            std::env::temp_dir().join(format!("crossinvoc-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let case = generate(7, &GenParams::default());
        let p1 = write_counterexample(&dir, &case, "path seq:\nmemory diverged").unwrap();
        let p2 = write_counterexample(&dir, &case, "second occurrence").unwrap();
        assert_ne!(p1, p2, "collisions must not overwrite");
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].1.program, case.program);
        assert!(load_corpus(Path::new("/nonexistent/corpus"))
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
