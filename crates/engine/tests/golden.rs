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

mod common;

use common::corpus;
use sil_analysis::analyze_program;
use sil_lang::frontend;

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
