//! The entry document of the program namespace — the one format the
//! durable tier appends to its segments and a `peer_fetch` answers with.
//!
//! A cached program is one self-verifying named document, whichever tier
//! holds it: the pretty-printed source (the frontend round-trips it) plus
//! the full [`AnalysisResult`], under an entry version, the fingerprint it
//! was stored under and the analysis digest.  [`program_from_document`]
//! believes none of it: the version must be the one this build writes, the
//! fingerprint must be the key that was asked for, the stored source must
//! re-parse to a program with that fingerprint, and the decoded analysis
//! must reproduce the digest.  A document that fails any check — a torn
//! disk entry, a lying peer — is a miss, never a wrong answer.
//!
//! An entry is written straight to its bytes ([`encode_program`]) and read
//! from a parsed [`Json`] document.  Every shape is described once,
//! through [`crate::service::wire`], so adding a member to an entry is one
//! line here — `[or <default>]` if entries already on disk must keep
//! decoding, a new entry version otherwise.

use crate::service::json::{encode_array, encode_str, Json};
use crate::service::wire::{encode, leaves, names, record, Encoded, Hex, Plain, Wire};
use crate::AnalyzedProgram;
use sil_analysis::{
    AbstractState, AnalysisResult, ArgMode, ProcSummary, ProcedureAnalysis, ProgramPoint,
    ReturnSummary, StructureKind, StructureWarning,
};
use sil_lang::hash::program_fingerprint;
use sil_lang::{frontend, pretty_program};
use sil_pathmatrix::{intern, Certainty, Dir, Link, Path as RelPath, PathMatrix, PathSet, Symbol};
use std::sync::Arc;

/// The version a program entry is written with, and the only one believed.
const PROGRAM_ENTRY: u64 = 1;

names!(ArgMode {
    ReadOnly => "readonly",
    ValueUpdate => "value_update",
    StructUpdate => "struct_update",
});

names!(StructureKind { Tree => "TREE", PossiblyDag => "DAG?", PossiblyCyclic => "CYCLE?" });

names!(Dir { Left => "L", Right => "R", Down => "D" });

/// A link is `[dir_letter, min, exact]`.
impl Wire for Link {
    fn encode_into(&self, out: &mut String) {
        (self.dir, self.min, self.exact).encode_into(out)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        let (dir, min, exact) = Wire::from_json(value)?;
        let link = Link { dir, min, exact };
        if link.min < 1 {
            return Err("a link spans at least one edge".to_string());
        }
        Ok(link)
    }
}

/// A path is `[definite, links]`: `links` is `null` for `S`ame, else a
/// non-empty list.
impl Wire for RelPath {
    fn encode_into(&self, out: &mut String) {
        out.push('[');
        self.certainty.is_definite().encode_into(out);
        out.push(',');
        match self.links() {
            [] => out.push_str("null"),
            links => encode_array(links, out, Link::encode_into),
        }
        out.push(']');
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        let (definite, links): (bool, Option<Vec<Link>>) = Wire::from_json(value)?;
        let certainty = if definite {
            Certainty::Definite
        } else {
            Certainty::Possible
        };
        match links {
            None => Ok(RelPath::same(certainty)),
            Some(links) if links.is_empty() => Err("a path's links are non-empty".to_string()),
            Some(links) => Ok(RelPath::from_links(links, certainty)),
        }
    }
}

impl Wire for PathSet {
    fn encode_into(&self, out: &mut String) {
        encode_array(self.paths(), out, RelPath::encode_into)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(PathSet::from_paths(<Vec<RelPath> as Wire>::from_json(
            value,
        )?))
    }
}

// Interned on sight, which is what a matrix is built from.
leaves! {
    Symbol: "a handle name", |name, out| encode_str(name.as_str(), out), |raw| raw.as_str().map(intern);
}

/// The non-empty relations of a matrix as `[[a, b, paths], …]`, sorted by
/// handle names.  Written by hand: a list of triples to encode from would
/// copy every path set.
struct Relations<'a>(&'a PathMatrix);

impl Encoded<Plain> for Relations<'_> {
    fn encode_member(self, out: &mut String) {
        let mut entries: Vec<_> = self.0.related_pairs().collect();
        entries.sort_by_key(|&(a, b, _)| (a, b));
        encode_array(entries, out, |(a, b, set), out| {
            out.push('[');
            encode_str(a, out);
            out.push(',');
            encode_str(b, out);
            out.push(',');
            set.encode_into(out);
            out.push(']');
        });
    }
}

// Handles are stored *in matrix insertion order* — `render()` (and through
// it the analysis digest) depends on that order.
record!(AbstractState: |state| {
    "structure" => structure = &state.structure,
    "handles" => handles: Vec<Symbol> = state.matrix.handles(),
    "entries" => entries: Vec<(Symbol, Symbol, PathSet)> = Relations(&state.matrix),
    "attached" => attached = &state.attached,
    "shared" => shared = &state.shared,
} => {
    let mut matrix = PathMatrix::new();
    for handle in handles {
        matrix.add_handle_sym(handle);
    }
    for (a, b, set) in entries {
        matrix.set_sym(a, b, set);
    }
    AbstractState { matrix, structure, attached, shared }
});

record!(StructureWarning {
    "procedure" => procedure,
    "statement" => statement,
    "kind" => kind,
    "message" => message,
});

record!(ProgramPoint {
    "label" => label,
    "statement" => statement,
    "callee" => callee,
    "state" => state,
});

record!(ProcedureAnalysis {
    "name" => name,
    "entry" => entry,
    "exit" => exit,
    "points" => points,
    "warnings" => warnings,
});

record!(ProcSummary { "name" => name, "handle_args" => handle_args, "arg_modes" => arg_modes });

record!(ReturnSummary { "fresh" => fresh, "relations" => relations });

/// What a program entry holds, checked as far as the document alone can
/// be: decoding refuses a version other than [`PROGRAM_ENTRY`] and an
/// analysis that does not reproduce the stored digest.
struct ProgramEntry {
    fingerprint: u64,
    source: String,
    analysis: Arc<AnalysisResult>,
}

record!(ProgramEntry: |entry| {
    "v" => v: u64 = &PROGRAM_ENTRY,
    "fingerprint" => fingerprint as Hex = &entry.fingerprint,
    "digest" => digest: u64 as Hex = &entry.analysis.digest(),
    "source" => source = &entry.source,
    "rounds" => rounds = &entry.analysis.rounds,
    "procedures" => procedures = entry.analysis.procedure_map(),
    "summaries" => summaries = &entry.analysis.summaries,
    "return_summaries" => return_summaries = &entry.analysis.return_summaries,
    "warnings" => warnings = &entry.analysis.warnings,
} => {
    if v != PROGRAM_ENTRY {
        return Err("unknown program entry version".to_string());
    }
    let analysis =
        AnalysisResult::from_parts(procedures, summaries, return_summaries, warnings, rounds);
    if analysis.digest() != digest {
        return Err("the decoded analysis does not reproduce its digest".to_string());
    }
    ProgramEntry { fingerprint, source, analysis: Arc::new(analysis) }
});

/// The document of one analyzed program, as the bytes a segment holds and
/// a peer is served.
pub(crate) fn encode_program(entry: &AnalyzedProgram) -> String {
    encode(&ProgramEntry {
        fingerprint: entry.fingerprint,
        source: pretty_program(&entry.program),
        analysis: entry.analysis.clone(),
    })
}

/// [`encode_program`]'s document, parsed.
#[cfg(test)]
pub(crate) fn program_document(entry: &AnalyzedProgram) -> Json {
    parse(encode_program(entry).as_bytes()).expect("the encoder writes JSON")
}

/// Decode a program entry, refusing anything that was not stored under
/// `key`, whose source re-parses to a different program, or whose
/// analysis fails to reproduce its digest.
pub(crate) fn program_from_document(document: &Json, key: u64) -> Option<Arc<AnalyzedProgram>> {
    let entry = ProgramEntry::from_json(document).ok()?;
    if entry.fingerprint != key {
        return None;
    }
    let (program, types) = frontend(&entry.source).ok()?;
    if program_fingerprint(&program) != key {
        return None;
    }
    Some(Arc::new(AnalyzedProgram {
        fingerprint: key,
        program,
        types,
        analysis: entry.analysis,
        incremental: None,
    }))
}

/// The document in the body of a segment entry, if the bytes hold one.
pub(crate) fn parse(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::wire::mutation::mutants;

    /// The strictness pass the protocol's own samples go through, over a
    /// body from the golden corpus: an entry has no optional and no
    /// untyped member, so every damaged document is a miss.
    #[test]
    fn every_damaged_entry_body_is_a_miss() {
        let engine = crate::Engine::default();
        let source = sil_workloads::Workload::AddAndReverse.source(3);
        let entry = engine.analyze_source(&source).unwrap();
        let program = program_document(&entry);
        assert!(program_from_document(&program, entry.fingerprint).is_some());
        for mutant in mutants(&program, &[], &[]) {
            let decoded = program_from_document(&mutant.document, entry.fingerprint);
            assert!(decoded.is_none(), "{} still decodes", mutant.path());
        }
    }

    /// Points a statement left alone share their state's allocation; a
    /// stored entry keeps nothing of that — decoding allocates every state
    /// afresh — and the digest does not depend on it.
    #[test]
    fn consecutive_equal_states_share_one_allocation() {
        let engine = crate::Engine::default();
        let source = sil_workloads::Workload::AddAndReverse.source(3);
        let entry = engine.analyze_source(&source).unwrap();
        let decoded = program_from_document(&program_document(&entry), entry.fingerprint)
            .expect("round trip");
        let shared = |analysis: &AnalysisResult| {
            let points = &analysis.procedure("main").unwrap().points;
            Arc::ptr_eq(&points[0].state, &points[1].state)
        };
        assert!(shared(&entry.analysis), "`i := …` leaves the state alone");
        assert!(!shared(&decoded.analysis));
        assert_eq!(decoded.analysis.digest(), entry.analysis.digest());
    }
}
