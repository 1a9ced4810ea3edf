//! Digest-pinned golden suite over the 64-program corpus.
//!
//! The pinned digests in `golden/digests.txt` were generated with the
//! original string-keyed path-matrix representation.  Any change to the
//! representation (interning, inline paths, dense matrices) must reproduce
//! every digest byte-identically — the digest hashes the rendered matrix
//! tables, program-point states, warnings, and summaries, so it is a tight
//! proxy for "the analysis output did not change at all".
//!
//! To regenerate after an *intentional* analysis change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p sil-engine --test golden
//! ```
//!
//! The file is also the analysis epoch every stored program entry carries
//! (`sil_engine::store::ANALYSIS_EPOCH` is its FNV-1a, taken at compile
//! time).  Regenerating it moves the epoch, and the next build refuses
//! every entry an older build left in a data directory or serves as a
//! peer: each program is analyzed once more and rewritten.

mod common;

use common::corpus;
use sil_analysis::{
    analyze_program, analyze_program_planned, compute_summaries, AnalyzeOptions, CallPlan,
};
use sil_lang::frontend;
use sil_pathmatrix::PathSet;
use std::collections::HashMap;

const GOLDEN: &str = include_str!("golden/digests.txt");

fn current_digests() -> Vec<(String, u64)> {
    corpus()
        .into_iter()
        .map(|(name, src)| {
            let (program, types) = frontend(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, analyze_program(&program, &types).digest())
        })
        .collect()
}

fn render(digests: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (name, digest) in digests {
        out.push_str(&format!("{name} {digest:016x}\n"));
    }
    out
}

/// The epoch a build stamps on its entries is this file, hashed when the
/// build compiled it.
#[test]
fn the_analysis_epoch_is_the_golden_file_hashed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.txt");
    let file = std::fs::read(path).expect("read the golden file");
    assert_eq!(
        sil_engine::store::ANALYSIS_EPOCH,
        sil_lang::hash::fnv1a(&file)
    );
}

#[test]
fn corpus_digests_match_golden_file() {
    let current = current_digests();
    assert_eq!(current.len(), 64, "corpus must stay at 64 programs");
    let rendered = render(&current);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.txt");
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let fresh: Vec<&str> = rendered.lines().collect();
    assert_eq!(
        golden.len(),
        fresh.len(),
        "golden file has {} entries, corpus produced {}",
        golden.len(),
        fresh.len()
    );
    for (want, got) in golden.iter().zip(fresh.iter()) {
        assert_eq!(want, got, "analysis digest drifted from the pinned golden");
    }
}

/// Replay is exact over the whole corpus: every program, re-analyzed
/// against the walk records of its own recorded run, replays every walk
/// and reproduces its pinned digest.
#[test]
fn every_corpus_program_replays_its_own_recording_whole() {
    let golden: HashMap<&str, &str> = GOLDEN
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    let mut replayed = 0;
    for (name, src) in corpus() {
        let (program, types) = frontend(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let summaries = compute_summaries(&program, &types);
        let plan = CallPlan::of_program(&program);
        let record = AnalyzeOptions {
            record: true,
            reuse: None,
        };
        let (_, snapshot, recorded) =
            analyze_program_planned(&program, &types, summaries.clone(), &plan, &record);
        let snapshot = snapshot.expect("recording was requested");
        let replay = AnalyzeOptions {
            record: false,
            reuse: Some(&snapshot),
        };
        let (result, _, stats) =
            analyze_program_planned(&program, &types, summaries, &plan, &replay);
        assert_eq!(stats.walks_performed, 0, "{name}: {stats:?}");
        assert_eq!(stats.walks_reused, recorded.walks_performed, "{name}");
        assert_eq!(
            format!("{:016x}", result.digest()),
            golden[name.as_str()],
            "{name}: a replayed analysis drifted from the pinned golden"
        );
        replayed += 1;
    }
    assert_eq!(replayed, 64, "corpus must stay at 64 programs");
}

/// A path set's text is what a stored entry holds, so over the whole
/// corpus every set the analysis produces — each relation of each state,
/// each side of each return summary — reads back from its text as itself
/// and renders back to the same text.
#[test]
fn every_corpus_path_set_reads_back_from_its_text() {
    let mut checked = 0usize;
    let mut check = |set: &PathSet| {
        let text = set.to_string();
        assert_eq!(text.parse::<PathSet>().as_ref(), Ok(set), "{text}");
        assert_eq!(text.parse::<PathSet>().unwrap().to_string(), text);
        checked += 1;
    };
    for (name, src) in corpus() {
        let (program, types) = frontend(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let analysis = analyze_program(&program, &types);
        for procedure in analysis.procedures() {
            let points = procedure.points.iter().map(|point| &*point.state);
            for state in [&procedure.entry, &*procedure.exit]
                .into_iter()
                .chain(points)
            {
                state
                    .matrix
                    .indexed_relations()
                    .for_each(|(_, _, set)| check(set));
            }
        }
        for summary in analysis.return_summaries.values() {
            for (_, to_result, from_result) in &summary.relations {
                check(to_result);
                check(from_result);
            }
        }
    }
    assert!(checked > 1_000, "only {checked} path sets in the corpus");
}
