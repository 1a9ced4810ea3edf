//! The entry document of the program namespace — the one format the
//! durable tier appends to its segments and a `peer_fetch` answers with.
//!
//! A cached program is one named document, whichever tier holds it: the
//! pretty-printed source (the frontend round-trips it) plus the full
//! [`AnalysisResult`], under an entry version, the [`ANALYSIS_EPOCH`] of
//! the build that wrote it, the fingerprint it was stored under and the
//! analysis digest.  Every decoder refuses a version or an epoch other than
//! this build's, a fingerprint that is not the key asked for, and a body
//! whose structure or state indices do not hold.  What else is checked
//! depends on who vouches for the bytes:
//!
//! * **A disk body** ([`program_from_disk`]) was written by a daemon
//!   running this analysis (its epoch says so) and read back under the
//!   segment's FNV-1a checksum over tag, key and body.  It is trusted on
//!   that: the stored digest is taken as the analysis's, not recomputed,
//!   and the program is the request's own when the request went through
//!   the front end — the stored source is parsed only when it did not, and
//!   is not fingerprinted again.
//! * **A peer body** ([`program_from_document`]) comes from another
//!   process nothing vouches for.  The stored source must re-parse to a
//!   program with the key's fingerprint, and the decoded analysis must
//!   reproduce the stored digest.
//!
//! Either way a document that fails a check — a torn disk entry, a lying
//! peer, another build's analysis — is a miss, never a wrong answer.  The
//! epoch is FNV-1a over `tests/golden/digests.txt`, which the golden test
//! forces to change whenever a corpus program's analysis digest moves.  Its
//! limit: a change to the analysis that moves no corpus digest does not
//! move the epoch, and entries written before it are still believed.
//!
//! Version 2 stores each distinct state once.  `"states"` is a table of
//! rows `[structure, handles, relations, attached, shared]`, and a
//! procedure names its entry, its exit and each point's state by index
//! into it; a point is `[label, statement, callee, state]`.  Each path set
//! is the text the paper prints and the digest hashes (`"L1,R+?"`), read
//! back by `PathSet`'s `FromStr`.  The encoder lists states in the order
//! they first appear — procedures by name, then each one's entry, exit and
//! points — and tells them apart by content, so the bytes are
//! deterministic and equal states in two procedures share a row.  Decoding
//! makes each row one `Arc<AbstractState>` that every point and exit
//! naming it shares, so recomputing a peer body's digest renders each
//! distinct state once; a state index past the table, or a row whose matrix is not one
//! (a handle listed twice, a relation on the diagonal, out of range or out
//! of order) is refused like any other damage.  A version 1 entry — one
//! state written out per point, every path a nested array, three times the
//! bytes — is refused as an unknown version, and a version 2 entry without
//! this build's epoch as another analysis: either way the program is
//! analyzed again and rewritten under the same key.
//!
//! An entry is written straight to its bytes ([`encode_program`]) and read
//! from a parsed [`Json`] document.  Every shape is described once,
//! through [`crate::service::wire`], so adding a member to an entry is one
//! line here — `[or <default>]` if entries already on disk must keep
//! decoding, a new entry version otherwise.

use crate::service::json::{encode_array, encode_int, encode_str, Json};
use crate::service::wire::{encode, leaves, names, record, Encoded, Hex, Plain, Wire};
use crate::{AnalyzedProgram, Normalized};
use sil_analysis::{
    AbstractState, AnalysisResult, ArgMode, ProcSummary, ProcedureAnalysis, ProgramPoint,
    ReturnSummary, StructureKind, StructureWarning,
};
use sil_lang::hash::{fnv1a, program_fingerprint};
use sil_lang::types::ProgramTypes;
use sil_lang::{frontend, pretty_program, Program};
use sil_pathmatrix::{intern, ParsePathSetError, PathMatrix, PathSet, Symbol};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// The version a program entry is written with, and the only one believed.
const PROGRAM_ENTRY: u64 = 2;

/// The analysis this build runs, as every entry it writes records it and
/// the only one it believes: FNV-1a over the golden corpus's pinned
/// analysis digests, so a change that moves any of them moves the epoch.
pub const ANALYSIS_EPOCH: u64 = fnv1a(include_bytes!("../../tests/golden/digests.txt"));

names!(ArgMode {
    ReadOnly => "readonly",
    ValueUpdate => "value_update",
    StructUpdate => "struct_update",
});

names!(StructureKind { Tree => "TREE", PossiblyDag => "DAG?", PossiblyCyclic => "CYCLE?" });

/// A path set is its text, as the paper prints it: `L1,R+?`, `·` if empty.
impl Wire for PathSet {
    fn encode_into(&self, out: &mut String) {
        // Link letters, counts, `+?,` and `·`: nothing to escape.
        let _ = write!(out, "\"{self}\"");
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        let text = value.as_str().ok_or("expected a path set")?;
        text.parse().map_err(|e: ParsePathSetError| e.to_string())
    }
}

// Interned on sight, which is what a matrix is built from.
leaves! {
    Symbol: "a handle name", |name, out| encode_str(name.as_str(), out), |raw| raw.as_str().map(intern);
}

/// A state is `[structure, handles, relations, attached, shared]`.  The
/// handles are in matrix insertion order — `render()`, and through it the
/// analysis digest, depends on that order — and a relation is `[row, col,
/// paths]` by index into them, in the matrix's own row-major order.  The
/// two node sets are lists of names in name order; `attached` is read back
/// into the state's symbol-ordered [`sil_analysis::HandleSet`].
/// Encoded by hand: a tuple to encode from would copy every path set.
impl Wire for AbstractState {
    fn encode_into(&self, out: &mut String) {
        out.push('[');
        self.structure.encode_into(out);
        out.push(',');
        encode_array(self.matrix.handles(), out, Symbol::encode_into);
        out.push(',');
        encode_array(
            self.matrix.indexed_relations(),
            out,
            |(row, col, set), out| {
                out.push('[');
                encode_int(row, out);
                out.push(',');
                encode_int(col, out);
                out.push(',');
                set.encode_into(out);
                out.push(']');
            },
        );
        out.push(',');
        let mut attached = Vec::new();
        self.attached.extend_names(&mut attached);
        encode_array(attached, out, encode_str);
        out.push(',');
        self.shared.encode_into(out);
        out.push(']');
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        type Row = (
            StructureKind,
            Vec<Symbol>,
            Vec<(u32, u32, PathSet)>,
            Vec<Symbol>,
            BTreeSet<String>,
        );
        let (structure, handles, relations, attached, shared): Row = Wire::from_json(value)?;
        Ok(AbstractState {
            matrix: PathMatrix::from_indexed(handles, relations)?,
            structure,
            attached: attached.into_iter().collect(),
            shared,
        })
    }
}

/// The distinct states of an analysis as an entry lists them — each once,
/// in the order they first appear: procedures by name, then each one's
/// entry, exit and points — and where each state the analysis holds is in
/// that list.  States are told apart by their encoded row, so equal states
/// in two procedures share one.
#[derive(Default)]
struct StateTable {
    /// The `"states"` member: the rows, as one array.
    rows: String,
    /// Each state's index, by address: a state shared by consecutive points
    /// is encoded once.
    at: HashMap<*const AbstractState, usize>,
}

impl StateTable {
    fn of(analysis: &AnalysisResult) -> StateTable {
        let mut table = StateTable::default();
        let mut by_row: HashMap<String, usize> = HashMap::new();
        let mut row = String::new();
        table.rows.push('[');
        for (_, procedure) in by_name(analysis) {
            let points = procedure.points.iter().map(|point| &*point.state);
            for state in [&procedure.entry, &*procedure.exit]
                .into_iter()
                .chain(points)
            {
                let Entry::Vacant(slot) = table.at.entry(state) else {
                    continue;
                };
                row.clear();
                state.encode_into(&mut row);
                let index = match by_row.get(&row) {
                    Some(&index) => index,
                    None => {
                        let index = by_row.len();
                        if index > 0 {
                            table.rows.push(',');
                        }
                        table.rows.push_str(&row);
                        by_row.insert(row.clone(), index);
                        index
                    }
                };
                slot.insert(index);
            }
        }
        table.rows.push(']');
        table
    }

    fn index(&self, state: &AbstractState) -> usize {
        self.at[&(state as *const AbstractState)]
    }
}

impl Encoded<Plain> for &StateTable {
    fn encode_member(self, out: &mut String) {
        out.push_str(&self.rows);
    }
}

/// The procedures in name order: the order an entry lists them, and so
/// the order their states first appear in.
fn by_name(analysis: &AnalysisResult) -> Vec<(&String, &ProcedureAnalysis)> {
    let mut procedures: Vec<_> = analysis.procedure_map().iter().collect();
    procedures.sort_by_key(|&(name, _)| name);
    procedures
}

record!(StructureWarning {
    "procedure" => procedure,
    "statement" => statement,
    "kind" => kind,
    "message" => message,
});

/// A point as an entry holds it: `[label, statement, callee, state]`, the
/// state by index into the entry's state table.
type StoredPoint = (Arc<str>, Arc<str>, Option<Arc<str>>, usize);

/// A procedure as an entry holds it: its states are indices into the
/// entry's state table.
struct StoredProcedure {
    name: String,
    entry: usize,
    exit: usize,
    points: Vec<StoredPoint>,
    warnings: Arc<Vec<StructureWarning>>,
}

record!(StoredProcedure {
    "name" => name,
    "entry" => entry,
    "exit" => exit,
    "points" => points,
    "warnings" => warnings,
});

impl StoredProcedure {
    /// Every procedure of `analysis`, by name, as `states` indexes them.
    fn all(analysis: &AnalysisResult, states: &StateTable) -> Vec<(String, StoredProcedure)> {
        by_name(analysis)
            .into_iter()
            .map(|(name, procedure)| (name.clone(), StoredProcedure::of(procedure, states)))
            .collect()
    }

    fn of(procedure: &ProcedureAnalysis, states: &StateTable) -> StoredProcedure {
        let points = procedure.points.iter().map(|point| {
            let state = states.index(&point.state);
            (
                point.label.clone(),
                point.statement.clone(),
                point.callee.clone(),
                state,
            )
        });
        StoredProcedure {
            name: procedure.name.clone(),
            entry: states.index(&procedure.entry),
            exit: states.index(&procedure.exit),
            points: points.collect(),
            warnings: procedure.warnings.clone(),
        }
    }

    /// The procedure, its states looked up in the entry's decoded table:
    /// every point and exit shares its row's allocation.
    fn resolve(self, states: &[Arc<AbstractState>]) -> Result<ProcedureAnalysis, String> {
        let state = |index: usize| {
            states
                .get(index)
                .cloned()
                .ok_or_else(|| format!("state {index} of {}", states.len()))
        };
        let points = self
            .points
            .into_iter()
            .map(|(label, statement, callee, index)| {
                Ok(ProgramPoint {
                    label,
                    statement,
                    callee,
                    state: state(index)?,
                })
            });
        Ok(ProcedureAnalysis {
            entry: AbstractState::clone(&*state(self.entry)?),
            exit: state(self.exit)?,
            points: Arc::new(points.collect::<Result<_, String>>()?),
            name: self.name,
            warnings: self.warnings,
        })
    }
}

record!(ProcSummary { "name" => name, "handle_args" => handle_args, "arg_modes" => arg_modes });

record!(ReturnSummary { "fresh" => fresh, "relations" => relations });

/// What a program entry holds, checked as far as the document alone can
/// be: decoding refuses a version other than [`PROGRAM_ENTRY`], an epoch
/// other than [`ANALYSIS_EPOCH`] and a state index out of range.  The
/// decoded analysis takes the stored digest as its own; who cannot vouch
/// for the bytes checks it ([`program_from_document`]).
struct ProgramEntry {
    fingerprint: u64,
    source: String,
    analysis: Arc<AnalysisResult>,
    /// The analysis's states, as encoding lists them (a decoded entry's is
    /// empty: it has its states in `analysis`).
    states: StateTable,
}

record!(ProgramEntry: |entry| {
    "v" => v: u64 = &PROGRAM_ENTRY,
    "epoch" => epoch: u64 as Hex = &ANALYSIS_EPOCH,
    "fingerprint" => fingerprint as Hex = &entry.fingerprint,
    "digest" => digest: u64 as Hex = &entry.analysis.digest(),
    "source" => source = &entry.source,
    "rounds" => rounds = &entry.analysis.rounds,
    "states" => states: Vec<Arc<AbstractState>> = &entry.states,
    "procedures" => procedures: Vec<(String, StoredProcedure)> =
        &StoredProcedure::all(&entry.analysis, &entry.states),
    "summaries" => summaries = &entry.analysis.summaries,
    "return_summaries" => return_summaries = &entry.analysis.return_summaries,
    "warnings" => warnings = &entry.analysis.warnings,
} => {
    if v != PROGRAM_ENTRY {
        return Err("unknown program entry version".to_string());
    }
    if epoch != ANALYSIS_EPOCH {
        return Err("written by another analysis".to_string());
    }
    let procedures = procedures
        .into_iter()
        .map(|(name, stored)| Ok((name, stored.resolve(&states)?)))
        .collect::<Result<_, String>>()?;
    let analysis =
        AnalysisResult::from_parts(procedures, summaries, return_summaries, warnings, rounds);
    ProgramEntry {
        fingerprint,
        source,
        analysis: Arc::new(analysis.with_digest(digest)),
        states: StateTable::default(),
    }
});

impl ProgramEntry {
    /// The entry stored under `key` that `document` holds, if it decodes.
    fn decode(document: &Json, key: u64) -> Option<ProgramEntry> {
        let entry = ProgramEntry::from_json(document).ok()?;
        (entry.fingerprint == key).then_some(entry)
    }

    /// The analyzed program: this entry's analysis, of `program`.
    fn of(self, (program, types): (Program, ProgramTypes)) -> Arc<AnalyzedProgram> {
        Arc::new(AnalyzedProgram {
            fingerprint: self.fingerprint,
            program,
            types,
            analysis: self.analysis,
            incremental: None,
        })
    }
}

/// The document of one analyzed program, as the bytes a segment holds and
/// a peer is served.
pub(crate) fn encode_program(entry: &AnalyzedProgram) -> String {
    encode(&ProgramEntry {
        fingerprint: entry.fingerprint,
        source: pretty_program(&entry.program),
        analysis: entry.analysis.clone(),
        states: StateTable::of(&entry.analysis),
    })
}

/// [`encode_program`]'s document, parsed.
#[cfg(test)]
pub(crate) fn program_document(entry: &AnalyzedProgram) -> Json {
    parse(encode_program(entry).as_bytes()).expect("the encoder writes JSON")
}

/// Decode a program entry a peer sent, refusing anything not stored under
/// `key` by this analysis, whose source re-parses to a different program,
/// or whose analysis fails to reproduce its digest.
pub(crate) fn program_from_document(document: &Json, key: u64) -> Option<Arc<AnalyzedProgram>> {
    let entry = ProgramEntry::decode(document, key)?;
    if entry.analysis.recompute_digest() != entry.analysis.digest() {
        return None;
    }
    let parsed = frontend(&entry.source).ok()?;
    if program_fingerprint(&parsed.0) != key {
        return None;
    }
    Some(entry.of(parsed))
}

/// Decode a program entry the disk tier read back under its checksum,
/// refusing anything not stored under `key` by this analysis.  The stored
/// digest is believed.  The program is `request`'s, taken only on success,
/// when the request has one; otherwise it is the stored source, parsed.
pub(crate) fn program_from_disk(
    body: &[u8],
    key: u64,
    request: &mut Option<Normalized>,
) -> Option<Arc<AnalyzedProgram>> {
    let entry = ProgramEntry::decode(&parse(body)?, key)?;
    let program = match request.take() {
        Some(normalized) => (normalized.program, normalized.types),
        None => frontend(&entry.source).ok()?,
    };
    Some(entry.of(program))
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

    /// Points a statement left alone share their state's allocation, and
    /// so does a decoded entry: a state is one row of the entry's table,
    /// decoded once, whichever points refer to it.
    #[test]
    fn consecutive_equal_states_decode_to_one_allocation() {
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
        assert!(shared(&decoded.analysis));
        assert_eq!(decoded.analysis.digest(), entry.analysis.digest());
    }

    /// Equal states are one row however far apart they are: two
    /// procedures the analysis walked separately, each with its own
    /// allocation of one state, decode to a single allocation of it.
    #[test]
    fn equal_states_of_two_procedures_decode_to_one_allocation() {
        let engine = crate::Engine::default();
        let source = sil_workloads::Workload::AddAndReverse.source(3);
        let entry = engine.analyze_source(&source).unwrap();
        let decoded = program_from_document(&program_document(&entry), entry.fingerprint)
            .expect("round trip");
        let states = |analysis: &AnalysisResult, name: &str| {
            let procedure = analysis.procedure(name).unwrap();
            let points = procedure.points.iter().map(|point| point.state.clone());
            std::iter::once(procedure.exit.clone())
                .chain(points)
                .collect::<Vec<_>>()
        };
        let (add, reverse) = (
            states(&decoded.analysis, "add_n"),
            states(&decoded.analysis, "reverse"),
        );
        let shared: Vec<(usize, usize)> = (0..add.len())
            .flat_map(|i| (0..reverse.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| Arc::ptr_eq(&add[i], &reverse[j]))
            .collect();
        assert!(!shared.is_empty(), "add_n and reverse share no state");
        let (add, reverse) = (
            states(&entry.analysis, "add_n"),
            states(&entry.analysis, "reverse"),
        );
        for (i, j) in shared {
            assert!(!Arc::ptr_eq(&add[i], &reverse[j]));
            assert_eq!(add[i].matrix.render(), reverse[j].matrix.render());
        }
        assert_eq!(decoded.analysis.digest(), entry.analysis.digest());
    }

    /// The one decoded `Json` member at `path` (keys and indices).
    fn member<'a>(document: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(document, |node, step| match node {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("no member {step}"),
        })
    }

    /// What the strictness pass cannot reach — values of the right type
    /// that break the table's indexing — is refused too.
    #[test]
    fn a_broken_state_index_or_row_is_a_miss() {
        let engine = crate::Engine::default();
        let source = sil_workloads::Workload::AddAndReverse.source(3);
        let entry = engine.analyze_source(&source).unwrap();
        let program = program_document(&entry);
        let decodes =
            |document: &Json| program_from_document(document, entry.fingerprint).is_some();
        assert!(decodes(&program));
        let Json::Arr(states) = program.get("states").unwrap() else {
            panic!("states is an array");
        };
        let rows = states.len() as i64;

        // A state index one past the table, as an exit and as a point's.
        let mut damaged = program.clone();
        *member(&mut damaged, &["procedures", "0", "1", "exit"]) = Json::Int(rows);
        assert!(!decodes(&damaged), "exit past the table");
        let mut damaged = program.clone();
        *member(&mut damaged, &["procedures", "0", "1", "points", "0", "3"]) = Json::Int(rows);
        assert!(!decodes(&damaged), "point past the table");

        // A relation on the diagonal: `[i, i, paths]`.
        let related = states
            .iter()
            .position(|row| {
                row.as_arr()
                    .is_some_and(|row| row[2].as_arr().is_some_and(|r| !r.is_empty()))
            })
            .expect("some state relates two handles")
            .to_string();
        let mut damaged = program.clone();
        let relation = member(&mut damaged, &["states", &related, "2", "0"]);
        let row = member(relation, &["0"]).clone();
        *member(relation, &["1"]) = row;
        assert!(!decodes(&damaged), "a relation on the diagonal");

        // A handle list that names one handle twice.
        let mut damaged = program.clone();
        let handles = member(&mut damaged, &["states", &related, "1"]);
        let first = member(handles, &["0"]).clone();
        *member(handles, &["1"]) = first;
        assert!(!decodes(&damaged), "a repeated handle");
    }
}
