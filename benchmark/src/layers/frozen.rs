//! Writing the frozen corpus from today's crates, and telling when the two
//! have drifted apart.

use super::adapter;
use crate::corpus::{file_name, Corpus, Expect, EXPECTED_HEADER};
use std::path::Path;

/// What today's crates answer for `source`.
fn expect_today(source: &str) -> Result<Expect, String> {
    let front = adapter::frontend(source)?;
    let analysis = adapter::fixpoint(&front, adapter::summaries(&front));
    Ok(Expect {
        digest: analysis.digest(),
        structure: analysis.structure(),
        preserves_tree: analysis.preserves_tree(),
        rounds: analysis.rounds(),
        transforms: adapter::pack(&front, &analysis).transforms,
    })
}

/// Rewrite `dir` from `sil_workloads`: one `.sil` file per program and
/// `expected.tsv` in rank order.  Returns how many programs were written.
pub fn regen(dir: &Path) -> Result<usize, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    for stale in std::fs::read_dir(dir).map_err(io)? {
        let path = stale.map_err(io)?.path();
        if path.extension().is_some_and(|ext| ext == "sil") {
            std::fs::remove_file(&path).map_err(io)?;
        }
    }
    let mut table = format!("{EXPECTED_HEADER}\n");
    let today = adapter::corpus_today();
    for (name, source) in &today {
        let e = expect_today(source).map_err(|e| format!("{name}: {e}"))?;
        table.push_str(&format!(
            "{name}\t{}\t{}\t{}\t{}\t{}\n",
            e.digest, e.structure, e.preserves_tree, e.rounds, e.transforms
        ));
        std::fs::write(dir.join(file_name(name)), source).map_err(io)?;
    }
    std::fs::write(dir.join("expected.tsv"), table).map_err(io)?;
    Ok(today.len())
}

/// One line per difference between the frozen `corpus` and what today's
/// crates generate and answer.  Empty means no drift.  Drift does not make
/// the frozen corpus wrong — `sild` is still held to `expected.tsv` — it
/// says the benchmark no longer measures the programs the repo's other
/// suites use, which a later `benchmark` issue should decide about.
pub fn drift(corpus: &Corpus) -> Vec<String> {
    let today = adapter::corpus_today();
    let mut lines = Vec::new();
    if today.len() != corpus.programs.len() {
        lines.push(format!(
            "corpus size: frozen {} programs, sil_workloads yields {}",
            corpus.programs.len(),
            today.len()
        ));
    }
    for (frozen, (name, source)) in corpus.programs.iter().zip(&today) {
        if frozen.name != *name {
            lines.push(format!(
                "{}: sil_workloads has {name} at this rank",
                frozen.name
            ));
            continue;
        }
        if frozen.source != *source {
            lines.push(format!("{name}: source differs from Workload::source"));
        }
        match expect_today(&frozen.source) {
            Ok(expect) if expect == frozen.expect => {}
            Ok(expect) => lines.push(format!(
                "{name}: expected.tsv says {:?}, today's crates say {expect:?}",
                frozen.expect
            )),
            Err(e) => lines.push(format!("{name}: frozen source no longer analyzes: {e}")),
        }
    }
    lines
}
