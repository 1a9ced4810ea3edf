//! The interprocedural analysis and whole-program driver.
//!
//! Each procedure is analyzed under an *entry context*: a path matrix over
//! its handle formals plus the symbolic handles `f*` (relations contributed
//! by the immediate caller's handles) and `f**` (relations contributed by all
//! stacked invocations — the paper's `h*` / `h**` of Figure 7).  Every call
//! site folds the caller's current relationships into the callee's context;
//! recursive calls fold the current formals into `f*` and the previous
//! symbolic handles into `f**`.  The whole program is re-analyzed until all
//! contexts (and function-return summaries) stabilize.
//!
//! A body walk is a pure function of its `walk_key`, so the driver walks a
//! procedure only when that key changed.  Each scheduled walk is looked up
//! in this order: **the run's own table** of every procedure's latest walk
//! (a hit is `walks_skipped`: a round that changed none of the procedure's
//! inputs costs a key, not a walk), then the **snapshot** of an earlier run
//! (`walks_reused`), and only then is the body **walked**
//! (`walks_performed`).  Replaying a recording of the same program therefore
//! reuses exactly the walks the recording performed and skips the ones it
//! skipped.  The table is also the only owner of walk output: the result's
//! procedures, the recorded snapshot and the table share each record's
//! points, exit and warnings behind `Arc`s.

use crate::callgraph::CallPlan;
use crate::state::{AbstractState, HandleSet, StructureKind, StructureWarning};
use crate::summary::{compute_summaries, ProcSummary, ReturnSummary};
use crate::transfer::{Analyzer, CallSite};
use sil_lang::ast::*;
use sil_lang::hash::StableHasher;
use sil_lang::pretty::{pretty_stmt, write_stmt};
use sil_lang::types::{ProcSignature, ProgramTypes, Type};
use sil_pathmatrix::{intern, Symbol};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

/// Maximum number of whole-program rounds before declaring convergence
/// failure (the widened path domain converges in a handful of rounds).
pub const MAX_ROUNDS: usize = 16;

/// The symbolic handle collecting the immediate caller's relations to a
/// formal.
pub fn immediate_symbol(formal: &str) -> String {
    format!("{formal}*")
}

/// The symbolic handle collecting relations from all stacked invocations.
pub fn stacked_symbol(formal: &str) -> String {
    format!("{formal}**")
}

/// Whether a handle name denotes one of the symbolic context handles.
pub fn is_symbolic(name: &str) -> bool {
    name.contains('*')
}

/// The analysis information recorded at one program point (just *before* the
/// recorded statement executes).
///
/// The three texts depend only on the procedure's body, so an analysis
/// renders them on a procedure's first walk and every later walk of it —
/// and every point of those walks, and every record of them — shares the
/// same allocations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramPoint {
    /// `procedure:index` label, in execution order of the body walk.
    pub label: Arc<str>,
    /// Pretty-printed statement the point precedes.
    pub statement: Arc<str>,
    /// If the statement is a procedure call, the callee name.
    pub callee: Option<Arc<str>>,
    /// The abstract state before the statement.  Points whose statement
    /// left the state as it found it share one allocation with their
    /// successor.
    pub state: Arc<AbstractState>,
}

/// Per-procedure analysis results.  `points`, `exit` and `warnings` are the
/// procedure's last body walk, shared with its [`WalkRecord`].
#[derive(Debug, Clone)]
pub struct ProcedureAnalysis {
    pub name: String,
    /// The entry context the body was analyzed under.
    pub entry: AbstractState,
    /// The state before every simple statement of the body, in walk order.
    pub points: Arc<Vec<ProgramPoint>>,
    /// The state at procedure exit.
    pub exit: Arc<AbstractState>,
    /// Structure warnings raised while analyzing the body.
    pub warnings: Arc<Vec<StructureWarning>>,
}

impl ProcedureAnalysis {
    /// The state just before the `nth` (0-based) call to `callee`.
    pub fn state_before_call(&self, callee: &str, nth: usize) -> Option<&AbstractState> {
        self.points
            .iter()
            .filter(|p| p.callee.as_deref() == Some(callee))
            .nth(nth)
            .map(|p| &*p.state)
    }

    /// The state just before the first statement whose rendering contains
    /// `text`.
    pub fn state_before(&self, text: &str) -> Option<&AbstractState> {
        self.points
            .iter()
            .find(|p| p.statement.contains(text))
            .map(|p| &*p.state)
    }
}

/// Whole-program analysis results.
#[derive(Debug)]
pub struct AnalysisResult {
    procedures: HashMap<String, ProcedureAnalysis>,
    /// Argument-mode summaries.
    pub summaries: HashMap<String, ProcSummary>,
    /// Function-return summaries.
    pub return_summaries: HashMap<String, ReturnSummary>,
    /// All structure warnings, deduplicated.
    pub warnings: Vec<StructureWarning>,
    /// Number of whole-program rounds needed to stabilize.
    pub rounds: usize,
    /// Memoized [`AnalysisResult::digest`] — the result is immutable once
    /// assembled, and warm cache hits ask for the digest on every request.
    digest_memo: std::sync::OnceLock<u64>,
}

impl AnalysisResult {
    /// Reassemble a result from its parts — the inverse of taking one
    /// apart field by field.  Every field of every part is public, so a
    /// serialized result (the engine's durable store tier writes one per
    /// analyzed program) can be reconstructed exactly: a rebuilt result
    /// [`AnalysisResult::digest`]s identically to the original as long as
    /// the parts round-tripped faithfully.
    pub fn from_parts(
        procedures: HashMap<String, ProcedureAnalysis>,
        summaries: HashMap<String, ProcSummary>,
        return_summaries: HashMap<String, ReturnSummary>,
        warnings: Vec<StructureWarning>,
        rounds: usize,
    ) -> AnalysisResult {
        AnalysisResult {
            procedures,
            summaries,
            return_summaries,
            warnings,
            rounds,
            digest_memo: std::sync::OnceLock::new(),
        }
    }

    /// This result, its [`AnalysisResult::digest`] taken as `digest`
    /// instead of rendered: for a result read back beside the digest it
    /// was stored with, under a checksum that covers both.  Nothing checks
    /// that `digest` is this content's; [`AnalysisResult::recompute_digest`]
    /// does, for whoever cannot vouch for it.
    pub fn with_digest(self, digest: u64) -> AnalysisResult {
        AnalysisResult {
            digest_memo: std::sync::OnceLock::from(digest),
            ..self
        }
    }

    /// The digest rendered afresh from this content, whatever the memo
    /// holds.
    pub fn recompute_digest(&self) -> u64 {
        self.compute_digest()
    }

    /// The per-procedure results.
    pub fn procedure(&self, name: &str) -> Option<&ProcedureAnalysis> {
        self.procedures.get(name)
    }

    /// Iterate over all analyzed procedures.
    pub fn procedures(&self) -> impl Iterator<Item = &ProcedureAnalysis> {
        self.procedures.values()
    }

    /// The per-procedure results by name — the first argument of
    /// [`AnalysisResult::from_parts`], for whoever serializes a result.
    pub fn procedure_map(&self) -> &HashMap<String, ProcedureAnalysis> {
        &self.procedures
    }

    /// Whether the program never degrades the structure below TREE.
    pub fn preserves_tree(&self) -> bool {
        self.warnings.is_empty()
    }

    /// A stable content digest of the analysis result: per-procedure entry
    /// and exit states (matrix relations, structure, program points),
    /// warnings, argument-mode and return summaries.  Two runs over the same
    /// program produce the same digest, whatever thread interleaving or map
    /// iteration order produced them — the engine's batch tests and its
    /// warm-cache identity checks compare results through this.
    pub fn digest(&self) -> u64 {
        *self.digest_memo.get_or_init(|| self.compute_digest())
    }

    fn compute_digest(&self) -> u64 {
        let mut hasher = StableHasher::new();
        hasher.write_str("sil-analysis-digest-v1");

        let mut names: Vec<&String> = self.procedures.keys().collect();
        names.sort();
        let mut rendered = RenderedStates::default();
        for name in names {
            let analysis = &self.procedures[name];
            hasher.write_str(name);
            rendered.hash(&mut hasher, &analysis.entry);
            rendered.hash(&mut hasher, &analysis.exit);
            hasher.write_usize(analysis.points.len());
            for point in analysis.points.iter() {
                hasher.write_str(&point.label);
                hasher.write_str(&point.statement);
                rendered.hash(&mut hasher, &point.state);
            }
        }

        hasher.write_usize(self.warnings.len());
        for w in &self.warnings {
            hasher.write_str(&w.procedure);
            hasher.write_str(&w.statement);
            hasher.write_str(&w.kind.to_string());
        }

        let mut summary_names: Vec<&String> = self.summaries.keys().collect();
        summary_names.sort();
        for name in summary_names {
            let summary = &self.summaries[name];
            hasher.write_str(name);
            for (formal, mode) in &summary.handle_args {
                hasher.write_str(formal);
                hasher.write_str(&format!("{mode:?}"));
            }
        }

        let mut return_names: Vec<&String> = self.return_summaries.keys().collect();
        return_names.sort();
        for name in return_names {
            let ret = &self.return_summaries[name];
            hasher.write_str(name);
            hasher.write_u64(ret.fresh as u64);
            for (formal, to_ret, from_ret) in &ret.relations {
                hasher.write_str(formal);
                hasher.write_str(&to_ret.to_string());
                hasher.write_str(&from_ret.to_string());
            }
        }

        hasher.finish()
    }
}

/// The digest's view of states: each hashed by its rendering and its node
/// sets' names in name order.  Rendering the matrix is most of what a
/// digest costs, and states that share an allocation render the same bytes,
/// so each distinct state is rendered once, into one buffer, its attached
/// names resolved once, into another, and both found again by address.
#[derive(Default)]
struct RenderedStates {
    text: String,
    attached: Vec<&'static str>,
    at: HashMap<*const AbstractState, (Range<usize>, Range<usize>)>,
}

impl RenderedStates {
    fn hash(&mut self, hasher: &mut StableHasher, state: &AbstractState) {
        let (text, attached) = (&mut self.text, &mut self.attached);
        let (matrix, names) = self
            .at
            .entry(state)
            .or_insert_with(|| {
                let start = text.len();
                state.matrix.render_into(text);
                let first = attached.len();
                state.attached.extend_names(attached);
                (start..text.len(), first..attached.len())
            })
            .clone();
        hasher.write_str(state.structure.name());
        hasher.write_str(&self.text[matrix]);
        for h in &self.attached[names] {
            hasher.write_str(h);
        }
        for h in &state.shared {
            hasher.write_str(h);
        }
    }
}

/// The entry state for a procedure that has not been called yet: its handle
/// parameters exist but are unrelated (used for `main` and as a fallback).
fn default_entry(sig: &ProcSignature) -> AbstractState {
    let handles: Vec<&str> = sig.handle_params();
    let mut state = AbstractState::with_handles(handles.iter().copied());
    for h in handles {
        state.mark_attached(h);
    }
    state
}

/// One handle formal of a procedure and its context handles `f*` and
/// `f**`.
struct Formal<'t> {
    name: &'t str,
    sym: Symbol,
    now: Symbol,
    stack: Symbol,
}

/// Every procedure's handle [`Formal`]s, and the set of every context
/// handle, resolved once per analysis rather than per call site and round.
struct ContextHandles<'t> {
    formals: HashMap<&'t str, Vec<Formal<'t>>>,
    symbolic: HandleSet,
}

impl<'t> ContextHandles<'t> {
    fn of(types: &'t ProgramTypes) -> ContextHandles<'t> {
        let mut symbolic = HandleSet::new();
        let formals = types
            .iter()
            .map(|sig| {
                let formals = sig
                    .handle_params()
                    .into_iter()
                    .map(|name| {
                        let formal = Formal {
                            name,
                            sym: intern::intern(name),
                            now: intern::intern(&immediate_symbol(name)),
                            stack: intern::intern(&stacked_symbol(name)),
                        };
                        symbolic.insert(formal.now);
                        symbolic.insert(formal.stack);
                        formal
                    })
                    .collect();
                (sig.name.as_str(), formals)
            })
            .collect();
        ContextHandles { formals, symbolic }
    }
}

/// Build the callee entry-context contribution for one observed call site.
fn context_contribution(site: &CallSite, handles: &ContextHandles<'_>) -> AbstractState {
    let Some(formals) = handles.formals.get(site.callee.as_str()) else {
        return AbstractState::new();
    };
    let caller_state = &site.state_before;
    let mut ctx = AbstractState::new();
    ctx.structure = caller_state.structure;

    // The actual variable bound to each formal at this site, by name and
    // symbol (`None` for a name no state has held: it has no relations).
    let actuals: Vec<Option<(&str, Option<Symbol>)>> = formals
        .iter()
        .map(|f| {
            site.handle_actuals
                .iter()
                .find(|(formal, _)| formal == f.name)
                .map(|(_, a)| (a.as_str(), intern::lookup(a)))
        })
        .collect();
    let actual_syms: Vec<Symbol> = actuals.iter().flatten().filter_map(|a| a.1).collect();

    for (f, actual) in formals.iter().zip(&actuals) {
        ctx.matrix.add_handle_sym(f.sym);
        ctx.matrix.add_handle_sym(f.now);
        ctx.matrix.add_handle_sym(f.stack);
        ctx.attached.insert(f.now);
        ctx.attached.insert(f.stack);
        if let Some((name, sym)) = actual {
            if sym.is_some_and(|a| caller_state.attached.contains(a)) {
                ctx.attached.insert(f.sym);
            }
            if caller_state.shared.contains(*name) {
                ctx.shared.insert(f.name.to_string());
            }
        }
    }

    // Relations among the formals mirror the relations among the actuals.
    for (fi, ai) in formals.iter().zip(&actuals) {
        for (fj, aj) in formals.iter().zip(&actuals) {
            if fi.sym == fj.sym {
                continue;
            }
            if let (Some((_, Some(ai))), Some((_, Some(aj)))) = (ai, aj) {
                let rel = caller_state.matrix.get_sym(*ai, *aj);
                if !rel.is_empty() {
                    ctx.matrix.set_sym(fi.sym, fj.sym, rel);
                }
            }
        }
    }

    // Relations between the formals and the rest of the caller's world fold
    // into the symbolic handles.
    for (fi, actual) in formals.iter().zip(&actuals) {
        let Some((_, Some(ai))) = *actual else {
            continue;
        };
        for &x in caller_state.matrix.handles() {
            if x == ai || actual_syms.contains(&x) {
                continue;
            }
            let target = if handles.symbolic.contains(x) {
                fi.stack
            } else {
                fi.now
            };
            // Only the "caller handle reaches the argument" direction is
            // folded in: it is what the callee needs to know (nodes above or
            // at its argument exist in the caller's world).  Folding the
            // downward direction would conflate *several* distinct caller
            // handles below the argument into one symbolic name and make the
            // analysis believe, e.g., that the left and right children are
            // both "the same" symbolic node (the paper's pB likewise has no
            // entries from `h` to `h*`).
            let into = caller_state.matrix.get_sym(x, ai);
            if !into.is_empty() {
                let merged = ctx.matrix.get_sym(target, fi.sym).union(&into);
                ctx.matrix.set_sym(target, fi.sym, merged);
            }
        }
        // The immediate caller's handles may themselves be related to the
        // stacked ones in unknown ways.
        if !ctx.matrix.get_sym(fi.now, fi.sym).is_empty()
            && !ctx.matrix.get_sym(fi.stack, fi.sym).is_empty()
        {
            let merged = ctx
                .matrix
                .get_sym(fi.now, fi.stack)
                .union(&crate::transfer::unknown_relation());
            ctx.matrix.set_sym(fi.now, fi.stack, merged);
        }
    }
    ctx
}

/// The state after a transfer from `prev` behind an `Arc`: `prev`'s own when
/// the transfer reported no change (`None`) or produced the same state, down
/// to the handle order its rendering (and so the digest) depends on.
fn share(prev: &Arc<AbstractState>, next: Option<AbstractState>) -> Arc<AbstractState> {
    match next {
        Some(next) if !next.same_as(prev) || next.matrix.handles() != prev.matrix.handles() => {
            Arc::new(next)
        }
        _ => prev.clone(),
    }
}

/// The texts of one point: its label, its statement and its callee.
type PointText = (Arc<str>, Arc<str>, Option<Arc<str>>);

/// One body walk in progress: the points and warnings it has recorded.
struct Walk<'w, 'a> {
    analyzer: &'w Analyzer<'a>,
    sig: &'w ProcSignature,
    /// The procedure's point texts, by point index: filled by its first
    /// walk of the analysis and read by every later one, since a body's
    /// i-th simple statement is the same on every walk.
    texts: &'w mut Vec<PointText>,
    /// Where a point's texts are written before they are shared.
    scratch: String,
    points: Vec<ProgramPoint>,
    warnings: Vec<StructureWarning>,
}

impl Walk<'_, '_> {
    /// Walk a statement, recording a [`ProgramPoint`] before every simple
    /// statement, and return the state after it.
    fn record(&mut self, state: &Arc<AbstractState>, stmt: &Stmt) -> Arc<AbstractState> {
        match stmt {
            Stmt::Block { stmts, .. } | Stmt::Par { arms: stmts, .. } => {
                let mut current = state.clone();
                for s in stmts {
                    current = self.record(&current, s);
                }
                current
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let then_exit = self.record(state, then_branch);
                let else_exit = match else_branch {
                    Some(e) => self.record(state, e),
                    None => state.clone(),
                };
                share(state, Some(then_exit.join(&else_exit)))
            }
            Stmt::While { body, .. } => {
                // The transfer function computes the loop invariant; interior
                // points are recorded under that invariant.
                let invariant = share(
                    state,
                    self.analyzer
                        .transfer_changed(state, stmt, self.sig, &mut self.warnings),
                );
                let _ = self.record(&invariant, body);
                invariant
            }
            Stmt::Assign { .. } | Stmt::Call { .. } => {
                let index = self.points.len();
                if index == self.texts.len() {
                    let callee = match stmt {
                        Stmt::Call { proc, .. } => Some(Arc::from(proc.as_str())),
                        _ => None,
                    };
                    let scratch = &mut self.scratch;
                    scratch.clear();
                    write!(scratch, "{}:{}", self.sig.name, index + 1)
                        .expect("writing to a String cannot fail");
                    let label = Arc::from(scratch.as_str());
                    scratch.clear();
                    write_stmt(scratch, stmt);
                    self.texts
                        .push((label, Arc::from(scratch.as_str()), callee));
                }
                let (label, statement, callee) = &self.texts[index];
                debug_assert_eq!(**statement, pretty_stmt(stmt), "point {label} moved");
                self.points.push(ProgramPoint {
                    label: label.clone(),
                    statement: statement.clone(),
                    callee: callee.clone(),
                    state: state.clone(),
                });
                share(
                    state,
                    self.analyzer
                        .transfer_point(state, stmt, self.sig, &mut self.warnings),
                )
            }
        }
    }
}

fn return_summary_from_exit(
    proc: &Procedure,
    sig: &ProcSignature,
    exit: &AbstractState,
) -> Option<ReturnSummary> {
    if sig.return_type != Some(Type::Handle) {
        return None;
    }
    let retvar = proc.return_var.as_deref()?;
    let mut relations = Vec::new();
    let mut any = false;
    for f in sig.handle_params() {
        let to_ret = exit.matrix.get(f, retvar);
        let from_ret = exit.matrix.get(retvar, f);
        if !to_ret.is_empty() || !from_ret.is_empty() {
            any = true;
        }
        relations.push((f.to_string(), to_ret, from_ret));
    }
    // Fresh if unrelated to every formal and every symbolic context handle.
    let unrelated_to_symbolics = exit
        .matrix
        .handle_names()
        .filter(|h| is_symbolic(h))
        .all(|h| exit.matrix.unrelated(h, retvar));
    Some(ReturnSummary {
        fresh: !any && unrelated_to_symbolics,
        relations,
    })
}

/// One memoized body walk: the output of analyzing one procedure body under
/// one exact set of inputs, addressed by a stable key over those inputs
/// (own cone fingerprint, entry state, and the direct callees' function
/// return summaries and exit structures).
///
/// Replaying a record is observationally identical to re-walking the body:
/// the walk is a deterministic pure function of exactly the keyed inputs.
/// This is what makes incremental re-analysis *exact* — the incremental
/// driver runs the same fixpoint and serves unchanged walks from records, so
/// its result digests equal a from-scratch analysis by construction.
#[derive(Debug)]
pub struct WalkRecord {
    /// The memoization key (see `walk_key`).
    pub key: u64,
    /// Cone fingerprint of the procedure when the walk was recorded; groups
    /// records for the engine's cone-keyed procedure cache.
    pub cone: u64,
    /// The walked procedure.
    pub procedure: String,
    points: Arc<Vec<ProgramPoint>>,
    exit: Arc<AbstractState>,
    warnings: Arc<Vec<StructureWarning>>,
    call_sites: Vec<CallSite>,
}

impl WalkRecord {
    /// The state before every simple statement of the walked body, in
    /// walk order.
    pub fn points(&self) -> &[ProgramPoint] {
        &self.points
    }
}

/// Every body walk recorded during one analysis run — the seed for
/// incrementally re-analyzing an edited variant of the program.
#[derive(Debug, Clone, Default)]
pub struct AnalysisSnapshot {
    walks: HashMap<u64, Arc<WalkRecord>>,
}

impl AnalysisSnapshot {
    pub fn new() -> AnalysisSnapshot {
        AnalysisSnapshot::default()
    }

    pub fn len(&self) -> usize {
        self.walks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.walks.is_empty()
    }

    /// Add a record (last insertion wins on key collision).
    pub fn insert(&mut self, record: Arc<WalkRecord>) {
        self.walks.insert(record.key, record);
    }

    pub fn get(&self, key: u64) -> Option<&Arc<WalkRecord>> {
        self.walks.get(&key)
    }

    /// Iterate over all records (no particular order).
    pub fn records(&self) -> impl Iterator<Item = &Arc<WalkRecord>> {
        self.walks.values()
    }
}

/// Reuse counters of one (incremental) analysis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Body walks actually performed (fixpoint work paid).
    pub walks_performed: usize,
    /// Body walks replayed from snapshot records.
    pub walks_reused: usize,
    /// Scheduled walks whose key equalled the procedure's previous walk in
    /// the same run, served from the run's own table.
    pub walks_skipped: usize,
    /// Procedures whose cone fingerprint had retained state available
    /// (filled in by the engine, which owns the cone-keyed cache).
    pub procedures_reused: usize,
    /// Procedures analyzed with no retained state (edited, or in the
    /// dependent cone of an edit, or simply never seen before).
    pub procedures_stale: usize,
}

/// Knobs of the full-control analysis entry point.
#[derive(Debug, Default)]
pub struct AnalyzeOptions<'s> {
    /// Record every body walk and return an [`AnalysisSnapshot`].
    pub record: bool,
    /// Replay body walks whose keys match records of this snapshot.
    pub reuse: Option<&'s AnalysisSnapshot>,
}

/// Analyze a whole (normalized, type-checked) program.
pub fn analyze_program(program: &Program, types: &ProgramTypes) -> AnalysisResult {
    analyze_program_with_summaries(program, types, compute_summaries(program, types))
}

/// Analyze a program with precomputed argument-mode summaries (from
/// [`crate::summary::compute_summaries`], or computed per SCC by the
/// caller).  With identical summaries the result is identical to
/// [`analyze_program`].
pub fn analyze_program_with_summaries(
    program: &Program,
    types: &ProgramTypes,
    summaries: HashMap<String, ProcSummary>,
) -> AnalysisResult {
    let plan = CallPlan::of_program(program);
    analyze_program_planned(program, types, summaries, &plan, &AnalyzeOptions::default()).0
}

/// Analyze a program and record every body walk, so a later edited variant
/// can be analyzed incrementally against the returned snapshot (through
/// [`analyze_program_planned`] with it as [`AnalyzeOptions::reuse`]).
pub fn analyze_program_recording(
    program: &Program,
    types: &ProgramTypes,
    summaries: HashMap<String, ProcSummary>,
) -> (AnalysisResult, AnalysisSnapshot, IncrementalStats) {
    let options = AnalyzeOptions {
        record: true,
        reuse: None,
    };
    let plan = CallPlan::of_program(program);
    let (result, snapshot, stats) =
        analyze_program_planned(program, types, summaries, &plan, &options);
    (result, snapshot.expect("recording was requested"), stats)
}

/// The memoization key of one body walk: a hash over everything the walk
/// reads — the procedure's cone fingerprint (own canonical text plus every
/// transitive callee's, which also pins the argument-mode summaries the
/// walk consults), the entry state, and the current function-return
/// summary and exit structure of every direct callee.
///
/// The entry state goes in as its exact layout
/// ([`sil_pathmatrix::PathMatrix::layout_words`]: handle symbols in order,
/// entry keys, every path's links and certainty), not as its rendering, so
/// the key tells apart at least what the rendering would — handle order
/// included — without rendering; its attached set goes in as its symbols.
/// Symbols are process-local ids, so a key is stable only within one
/// process.  That is all it needs: records live only in memory (the
/// engine's memory-only `walks` namespace), and no wire, disk or golden
/// file carries a walk key.
fn walk_key(
    cone: u64,
    name: &str,
    entry: &AbstractState,
    callees: &[&str],
    return_summaries: &HashMap<String, ReturnSummary>,
    exit_structures: &HashMap<String, StructureKind>,
) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_str("sil-walk-v2");
    hasher.write_u64(cone);
    hasher.write_str(name);
    hasher.write_u64(entry.structure as u64);
    entry.matrix.layout_words(|word| {
        hasher.write_u64(word);
    });
    hasher.write_usize(entry.attached.len());
    for sym in entry.attached.iter() {
        hasher.write_u64(u64::from(sym.index()));
    }
    hasher.write_usize(entry.shared.len());
    for h in &entry.shared {
        hasher.write_str(h);
    }
    for callee in callees {
        hasher.write_str(callee);
        match return_summaries.get(*callee) {
            Some(summary) => {
                hasher.write_u64(1);
                hasher.write_u64(summary.digest());
            }
            None => {
                hasher.write_u64(0);
            }
        }
        match exit_structures.get(*callee) {
            Some(kind) => {
                hasher.write_u64(1);
                hasher.write_u64(*kind as u64);
            }
            None => {
                hasher.write_u64(0);
            }
        }
    }
    hasher.finish()
}

/// Walk one procedure body from `entry` under the analyzer's current
/// tables, with the procedure's point `texts` of this analysis.
fn walk_body(
    analyzer: &Analyzer<'_>,
    proc: &Procedure,
    sig: &ProcSignature,
    texts: &mut Vec<PointText>,
    entry: &AbstractState,
    key: u64,
    cone: u64,
) -> WalkRecord {
    let mut walk = Walk {
        analyzer,
        sig,
        texts,
        scratch: String::new(),
        points: Vec::new(),
        warnings: Vec::new(),
    };
    let exit = walk.record(&Arc::new(entry.clone()), &proc.body);
    WalkRecord {
        key,
        cone,
        procedure: proc.name.clone(),
        points: Arc::new(walk.points),
        exit,
        warnings: Arc::new(walk.warnings),
        call_sites: analyzer.take_call_sites(),
    }
}

/// The interprocedural driver, over the `program`'s own `plan`.
///
/// With [`AnalyzeOptions::reuse`] it analyzes incrementally against the walk
/// records of a previous run (of this program, an earlier version of it, or
/// any program sharing procedures with it).  The fixpoint is re-run in full,
/// but every body walk whose exact inputs match a record is served from the
/// record instead of being recomputed — so only the *stale cone* of an edit
/// (the procedures whose own text, entry context, or callee summaries
/// actually changed) pays for re-analysis, and the result is bit-identical
/// (`AnalysisResult::digest`) to a from-scratch [`analyze_program`].
/// `summaries` must be the cone-pure argument-mode summaries of `program`
/// (what [`compute_summaries`] returns, possibly served from a cache).
///
/// Rounds iterate the call-graph levels *callers-first* (entry contexts flow
/// down the call graph, so one round pushes a context change all the way to
/// the leaves).  Every walk of a level reads the tables (contexts, return
/// summaries, exit structures) as they stood when the level began; its
/// effects are merged afterwards, in schedule order.  A scheduled walk is
/// served from the run's table, the snapshot, or a body walk, in that order
/// (see the module docs).
pub fn analyze_program_planned(
    program: &Program,
    types: &ProgramTypes,
    summaries: HashMap<String, ProcSummary>,
    plan: &CallPlan,
    options: &AnalyzeOptions<'_>,
) -> (AnalysisResult, Option<AnalysisSnapshot>, IncrementalStats) {
    let mut contexts: HashMap<String, AbstractState> = HashMap::new();
    if let Some(main_sig) = types.proc("main") {
        contexts.insert("main".to_string(), default_entry(main_sig));
    }
    // The function-return summaries and exit structures live in the
    // analyzer, which the walks read them from.
    let analyzer = Analyzer::with_summaries(program, types, summaries);
    let context_handles = ContextHandles::of(types);
    let callees: HashMap<&str, Vec<&str>> = plan
        .graph
        .procedures()
        .iter()
        .map(|name| {
            let mut callees = plan.graph.callees_of(name);
            callees.sort_unstable();
            (name.as_str(), callees)
        })
        .collect();
    // Every walked procedure's latest walk and the entry it ran under.
    let mut latest: HashMap<&str, (AbstractState, Arc<WalkRecord>)> = HashMap::new();
    // Every walked procedure's point texts, shared by all its walks.
    let mut texts: HashMap<&str, Vec<PointText>> = HashMap::new();
    let mut recorded = options.record.then(AnalysisSnapshot::new);
    let mut stats = IncrementalStats::default();
    let mut rounds = 0;

    for round in 0..MAX_ROUNDS {
        rounds = round + 1;
        let mut changed = false;
        for level in plan.levels.iter().rev() {
            let mut scheduled: Vec<(&Procedure, &ProcSignature)> = Vec::new();
            for name in level.iter().flatten() {
                let (Some(proc), Some(sig), Some(entry)) = (
                    program.procedure(name),
                    types.proc(name),
                    contexts.get(name),
                ) else {
                    continue;
                };
                scheduled.push((proc, sig));
                let cone = plan.cones.get(name).copied().unwrap_or_default();
                let key = walk_key(
                    cone,
                    name,
                    entry,
                    &callees[name.as_str()],
                    &analyzer.return_summaries.borrow(),
                    &analyzer.exit_structures.borrow(),
                );
                if let Some((_, record)) = latest.get(name.as_str()) {
                    if record.key == key {
                        stats.walks_skipped += 1;
                        // Debug builds check what the memo rests on: a
                        // re-walk under an unchanged key reproduces the record.
                        if cfg!(debug_assertions) {
                            let texts = texts.entry(name.as_str()).or_default();
                            let fresh = walk_body(&analyzer, proc, sig, texts, entry, key, cone);
                            assert!(
                                fresh.points == record.points
                                    && fresh.exit == record.exit
                                    && fresh.warnings == record.warnings
                                    && fresh.call_sites == record.call_sites,
                                "{name}: re-walking under an unchanged key changed the result"
                            );
                        }
                        continue;
                    }
                }
                let record = match options.reuse.and_then(|s| s.get(key)) {
                    Some(hit) => {
                        stats.walks_reused += 1;
                        hit.clone()
                    }
                    None => {
                        stats.walks_performed += 1;
                        let texts = texts.entry(name.as_str()).or_default();
                        Arc::new(walk_body(&analyzer, proc, sig, texts, entry, key, cone))
                    }
                };
                if let Some(snapshot) = recorded.as_mut() {
                    snapshot.insert(record.clone());
                }
                latest.insert(name.as_str(), (entry.clone(), record));
            }

            for (proc, sig) in scheduled {
                let name = &proc.name;
                let record = &latest[name.as_str()].1;

                // Propagate call-site contributions into callee contexts.
                for site in &record.call_sites {
                    let contribution = context_contribution(site, &context_handles);
                    let updated = match contexts.get(&site.callee) {
                        Some(existing) => {
                            let joined = existing.join(&contribution);
                            if existing.same_as(&joined) {
                                continue;
                            }
                            joined
                        }
                        None => contribution,
                    };
                    contexts.insert(site.callee.clone(), updated);
                    changed = true;
                }

                // Function-return summaries feed the next round.
                if let Some(summary) = return_summary_from_exit(proc, sig, &record.exit) {
                    if analyzer.return_summaries.borrow().get(name) != Some(&summary) {
                        analyzer.set_return_summary(name, summary);
                        changed = true;
                    }
                }

                // The structural classification at exit feeds the caller-side
                // call transfer in the next round.
                let exit_structure = record.exit.structure;
                if analyzer.exit_structures.borrow().get(name) != Some(&exit_structure) {
                    analyzer.set_exit_structure(name, exit_structure);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Assemble the result once, from each procedure's last walk.  Equal
    // warnings only ever come from one procedure (they name it), so dropping
    // repeats per procedure is dropping them overall; the sort is stable and
    // ties share a procedure, so they keep that walk's own deterministic
    // order — which the digest hashes.
    let mut procedures: HashMap<String, ProcedureAnalysis> = HashMap::new();
    let mut warnings: Vec<StructureWarning> = Vec::new();
    for (name, (entry, record)) in latest {
        let own = warnings.len();
        for w in record.warnings.iter() {
            if !warnings[own..].contains(w) {
                warnings.push(w.clone());
            }
        }
        procedures.insert(
            name.to_string(),
            ProcedureAnalysis {
                name: name.to_string(),
                entry,
                points: record.points.clone(),
                exit: record.exit.clone(),
                warnings: record.warnings.clone(),
            },
        );
    }
    warnings.sort_by(|a, b| (&a.procedure, &a.statement).cmp(&(&b.procedure, &b.statement)));

    let Analyzer {
        summaries,
        return_summaries,
        ..
    } = analyzer;
    (
        AnalysisResult {
            procedures,
            summaries,
            return_summaries: return_summaries.into_inner(),
            warnings,
            rounds,
            digest_memo: std::sync::OnceLock::new(),
        },
        recorded,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_lang::frontend;

    fn analyze(src: &str) -> (AnalysisResult, sil_lang::Program, ProgramTypes) {
        let (program, types) = frontend(src).unwrap();
        let result = analyze_program(&program, &types);
        (result, program, types)
    }

    /// Analyze `program` replaying `snapshot`'s walk records, as the engine
    /// does on a miss.
    fn replaying(
        program: &Program,
        types: &ProgramTypes,
        summaries: HashMap<String, ProcSummary>,
        snapshot: &AnalysisSnapshot,
    ) -> (AnalysisResult, IncrementalStats) {
        let options = AnalyzeOptions {
            record: true,
            reuse: Some(snapshot),
        };
        let plan = CallPlan::of_program(program);
        let (result, _, stats) =
            analyze_program_planned(program, types, summaries, &plan, &options);
        (result, stats)
    }

    #[test]
    fn figure_7_point_a_matrix() {
        let (result, _, _) = analyze(sil_lang::testsrc::ADD_AND_REVERSE);
        let main = result.procedure("main").unwrap();
        let point_a = main.state_before_call("add_n", 0).unwrap();
        // pA of Figure 7: root → lside = L1, root → rside = R1, lside and
        // rside unrelated.
        assert_eq!(point_a.matrix.get("root", "lside").to_string(), "L1");
        assert_eq!(point_a.matrix.get("root", "rside").to_string(), "R1");
        assert!(point_a.matrix.unrelated("lside", "rside"));
        assert!(point_a.structure.is_tree());
    }

    #[test]
    fn figure_7_point_b_matrix() {
        let (result, _, _) = analyze(sil_lang::testsrc::ADD_AND_REVERSE);
        let add_n = result.procedure("add_n").expect("add_n was analyzed");
        let point_b = add_n.state_before_call("add_n", 0).unwrap();
        // pB of Figure 7: h → l = L1, h → r = R1, l and r unrelated — the
        // recursive calls may execute in parallel.
        assert_eq!(point_b.matrix.get("h", "l").to_string(), "L1");
        assert_eq!(point_b.matrix.get("h", "r").to_string(), "R1");
        assert!(point_b.matrix.unrelated("l", "r"));
        // The symbolic caller handles are present and sit above h.
        let sym = immediate_symbol("h");
        assert!(point_b.matrix.contains(&sym));
        assert!(
            !point_b.matrix.get(&sym, "h").is_empty(),
            "h* should be related (above) h:\n{}",
            point_b.matrix.render()
        );
        assert!(point_b.matrix.get("h", &sym).is_empty());
    }

    #[test]
    fn figure_7_point_c_matrix() {
        let (result, _, _) = analyze(sil_lang::testsrc::ADD_AND_REVERSE);
        let reverse = result.procedure("reverse").expect("reverse was analyzed");
        let point_c = reverse.state_before_call("reverse", 0).unwrap();
        assert!(point_c.matrix.unrelated("l", "r"));
        assert_eq!(point_c.matrix.get("h", "l").to_string(), "L1");
    }

    #[test]
    fn add_and_reverse_preserves_tree() {
        let (result, _, _) = analyze(sil_lang::testsrc::ADD_AND_REVERSE);
        // The temporary DAG inside reverse's swap is reported as a warning…
        let reverse = result.procedure("reverse").unwrap();
        assert_eq!(reverse.exit.structure, crate::state::StructureKind::Tree);
        // …but the structure is a TREE again at procedure exit, and main
        // finishes with a TREE.
        let main = result.procedure("main").unwrap();
        assert!(main.exit.structure.is_tree());
        assert!(result.rounds <= MAX_ROUNDS);
    }

    #[test]
    fn build_function_returns_fresh_tree() {
        let (result, _, _) = analyze(sil_lang::testsrc::ADD_AND_REVERSE);
        let build = result
            .return_summaries
            .get("build")
            .expect("summary for build");
        assert!(build.fresh);
        // and in main, root is unrelated to the loop counter handles
        let main = result.procedure("main").unwrap();
        let point = main.state_before("lside := root.left").unwrap();
        assert!(point.matrix.contains("root"));
    }

    #[test]
    fn cycle_creation_is_reported() {
        let src = r#"
program bad
procedure main()
  t, d: handle
begin
  t := new();
  d := new();
  t.left := d;
  d.left := t
end
"#;
        let (result, _, _) = analyze(src);
        assert!(!result.preserves_tree());
        assert!(result
            .warnings
            .iter()
            .any(|w| w.kind == crate::state::StructureKind::PossiblyCyclic));
        let main = result.procedure("main").unwrap();
        assert_eq!(
            main.exit.structure,
            crate::state::StructureKind::PossiblyCyclic
        );
    }

    #[test]
    fn dag_creation_is_reported() {
        let src = r#"
program shares
procedure main()
  t, u, a: handle
begin
  t := new();
  u := new();
  a := new();
  t.left := a;
  u.left := a
end
"#;
        let (result, _, _) = analyze(src);
        assert!(result
            .warnings
            .iter()
            .any(|w| w.kind == crate::state::StructureKind::PossiblyDag));
        let main = result.procedure("main").unwrap();
        assert_eq!(
            main.exit.structure,
            crate::state::StructureKind::PossiblyDag
        );
    }

    #[test]
    fn recursive_context_stabilizes() {
        let (result, _, _) = analyze(sil_lang::testsrc::ADD_AND_REVERSE);
        assert!(
            result.rounds < MAX_ROUNDS,
            "analysis did not converge early enough ({} rounds)",
            result.rounds
        );
        // every reachable procedure got analyzed
        for name in ["main", "add_n", "reverse", "build"] {
            assert!(result.procedure(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn leftmost_loop_analysis() {
        let (result, _, _) = analyze(sil_lang::testsrc::LEFTMOST_LOOP);
        let main = result.procedure("main").unwrap();
        // after the loop (exit state) l is somewhere on the left spine of h
        let hl = main.exit.matrix.get("h", "l");
        assert!(!hl.is_empty());
        assert!(hl
            .iter()
            .all(|p| p.links().iter().all(|l| l.dir == sil_pathmatrix::Dir::Left)));
        assert!(main.exit.structure.is_tree());
    }

    #[test]
    fn unreachable_procedures_are_not_analyzed() {
        let src = r#"
program p
procedure never(t: handle)
begin
  t.left := t
end
procedure main()
  x: handle
begin
  x := new()
end
"#;
        let (result, _, _) = analyze(src);
        assert!(result.procedure("never").is_none());
        assert!(result.preserves_tree(), "dead code raises no warnings");
    }

    #[test]
    fn recording_then_replaying_is_exact() {
        let (program, types) = frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
        let summaries = compute_summaries(&program, &types);
        let (full, snapshot, stats) =
            analyze_program_recording(&program, &types, summaries.clone());
        assert!(stats.walks_performed > 0);
        assert_eq!(stats.walks_reused, 0);
        assert!(!snapshot.is_empty());

        // Re-analyzing the identical program replays every walk.
        let (replayed, replay_stats) = replaying(&program, &types, summaries, &snapshot);
        assert_eq!(full.digest(), replayed.digest());
        assert_eq!(replay_stats.walks_performed, 0);
        assert_eq!(replay_stats.walks_reused, stats.walks_performed);
    }

    #[test]
    fn incremental_edit_matches_scratch_and_reuses_clean_walks() {
        let base_src = sil_lang::testsrc::ADD_AND_REVERSE;
        let (base, base_types) = frontend(base_src).unwrap();
        let base_summaries = compute_summaries(&base, &base_types);
        let (_, snapshot, full_stats) =
            analyze_program_recording(&base, &base_types, base_summaries);

        // A scalar edit confined to main: every other procedure's cone,
        // entry context and callee tables are unchanged.
        let edited_src = base_src.replace("i := 4", "i := 5");
        assert_ne!(edited_src, base_src);
        let (edited, types) = frontend(&edited_src).unwrap();
        let summaries = compute_summaries(&edited, &types);
        let (incremental, stats) = replaying(&edited, &types, summaries, &snapshot);

        let scratch = analyze_program(&edited, &types);
        assert_eq!(incremental.digest(), scratch.digest());
        assert!(
            stats.walks_reused > 0,
            "clean procedures must replay: {stats:?}"
        );
        assert!(
            stats.walks_performed < full_stats.walks_performed,
            "only the stale cone may be re-walked: {stats:?} vs {full_stats:?}"
        );
    }

    #[test]
    fn incremental_semantic_edit_still_matches_scratch() {
        let base_src = sil_lang::testsrc::ADD_AND_REVERSE;
        let (base, base_types) = frontend(base_src).unwrap();
        let summaries = compute_summaries(&base, &base_types);
        let (_, snapshot, _) = analyze_program_recording(&base, &base_types, summaries);

        // A structural edit inside `reverse`: its cone and every cone above
        // it go stale; digests must still match a from-scratch run.
        let edited_src = base_src.replace("h.left := r", "h.left := nil");
        assert_ne!(edited_src, base_src);
        let (edited, types) = frontend(&edited_src).unwrap();
        let edited_summaries = compute_summaries(&edited, &types);
        let (incremental, _) = replaying(&edited, &types, edited_summaries, &snapshot);
        assert_eq!(
            incremental.digest(),
            analyze_program(&edited, &types).digest()
        );
    }

    #[test]
    fn unchanged_inputs_are_not_rewalked() {
        let (program, types) = frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
        let summaries = compute_summaries(&program, &types);
        let (result, _, stats) = analyze_program_recording(&program, &types, summaries);
        assert!(stats.walks_skipped > 0, "{stats:?}");
        // Callers come first in a round, so from the first round on every
        // one of the four procedures has a context and is scheduled.
        assert_eq!(
            stats.walks_performed + stats.walks_skipped,
            4 * result.rounds,
            "{stats:?}"
        );
        assert_eq!(result.digest(), analyze_program(&program, &types).digest());
    }

    #[test]
    fn walk_keys_tell_apart_what_the_rendering_does() {
        use sil_pathmatrix::{exact, Dir, PathSet};
        let state = |order: [&str; 2]| {
            let mut s = AbstractState::with_handles(order);
            s.matrix
                .set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
            s.mark_attached("b");
            s
        };
        let key = |s: &AbstractState| walk_key(7, "p", s, &[], &HashMap::new(), &HashMap::new());
        let (ab, ba) = (state(["a", "b"]), state(["b", "a"]));
        assert!(ab.same_as(&ba), "equal relations");
        assert_ne!(ab.matrix.render(), ba.matrix.render());
        assert_ne!(key(&ab), key(&ba), "handle order changes the key");
        assert_eq!(
            key(&ab),
            key(&state(["a", "b"])),
            "equal states, equal keys"
        );
        // The node sets are framed: moving a handle from `attached` to
        // `shared` is a different state.
        let mut moved = ab.clone();
        moved.attached.clear();
        moved.shared.insert("b".to_string());
        assert_ne!(key(&ab), key(&moved));
    }

    #[test]
    fn points_have_stable_labels() {
        let (result, _, _) = analyze(sil_lang::testsrc::ADD_AND_REVERSE);
        let main = result.procedure("main").unwrap();
        assert!(main.points.iter().all(|p| p.label.starts_with("main:")));
        assert!(main.points.len() >= 6);
        // the first point is before `i := 4`
        assert!(main.points[0].statement.contains("i := 4"));
    }
}
