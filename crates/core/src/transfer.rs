//! Transfer functions: the "analysis functions" of Section 4.
//!
//! For every kind of statement the paper defines a function that maps the
//! path matrix before the statement to the path matrix after it.  This module
//! implements those functions over [`AbstractState`] (matrix + structural
//! classification):
//!
//! * the basic handle statements (`a := nil`, `a := new()`, `a := b`,
//!   `a := b.f`, `a.f := b`, `a.f := nil`) — [`transfer_basic`] /
//!   [`transfer_stmt`],
//! * value and scalar statements (no structural effect),
//! * conditionals (join of the two branches),
//! * `while` loops (the iterative approximation of Figure 3),
//! * procedure and function calls (caller-side effect derived from the
//!   callee's [`crate::summary::ProcSummary`]; the callee's own body is
//!   analyzed by [`crate::interproc`]).
//!
//! The structural verification piggybacks on the same functions: `a.f := b`
//! degrades the classification to "possibly cyclic" when `b` may reach `a`,
//! and to "possibly a DAG" when `b`'s node may already have a parent; it
//! recovers TREE when the sharing it introduced is removed again (the
//! temporary DAG during the node swap in `reverse`, §3.1).

use crate::state::{AbstractState, StructureKind, StructureWarning};
use crate::summary::{compute_summaries, ProcSummary, ReturnSummary};
use sil_lang::ast::*;
use sil_lang::basic::BasicStmt;
use sil_lang::pretty::pretty_stmt;
use sil_lang::types::{ProcSignature, ProgramTypes, Type};
use sil_pathmatrix::{intern, Certainty, Dir, Link, Path, PathSet, Symbol};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum number of iterations for the `while`-loop / recursion fixpoints
/// before forcing convergence by weakening.  The widening built into the path
/// domain converges much earlier in practice.
pub const MAX_FIXPOINT_ITERS: usize = 32;

/// Convert a structural field to a path direction.
pub fn dir_of(field: Field) -> Dir {
    match field {
        Field::Left => Dir::Left,
        Field::Right => Dir::Right,
    }
}

/// The "unknown relationship" used when the analysis must assume the worst:
/// the two handles may be the same node or either may be (transitively)
/// below the other.
pub fn unknown_relation() -> PathSet {
    PathSet::from_paths(vec![
        Path::same(Certainty::Possible),
        Path::from_link(Link::at_least(Dir::Down, 1), Certainty::Possible),
    ])
}

// ---------------------------------------------------------------------------
// Basic handle statements
// ---------------------------------------------------------------------------

/// `a := nil` — `a` no longer names any node.
pub fn transfer_assign_nil(state: &AbstractState, a: &str) -> AbstractState {
    let mut next = state.clone();
    next.matrix.clear_handle(a);
    next.mark_detached(a);
    next
}

/// `a := new()` — `a` names a fresh node unrelated to everything.
pub fn transfer_assign_new(state: &AbstractState, a: &str) -> AbstractState {
    let mut next = state.clone();
    next.matrix.clear_handle(a);
    next.mark_detached(a);
    next
}

/// `a := b` — `a` becomes an alias of `b`.
pub fn transfer_assign_copy(state: &AbstractState, a: &str, b: &str) -> AbstractState {
    if a == b {
        return state.clone();
    }
    let mut next = state.clone();
    next.matrix.add_handle(b);
    next.matrix.alias_handle(a, b);
    next.copy_node_flags(a, b);
    next
}

/// `a := b.f` — `a` names the `f`-child of `b`'s node (Figure 2).
pub fn transfer_assign_load(
    state: &AbstractState,
    a: &str,
    b: &str,
    field: Field,
) -> AbstractState {
    // `l := l.left` style statements read the old value of the variable; use
    // a temporary and rename.
    if a == b {
        let tmp = "__load_tmp";
        let mut next = transfer_assign_load(state, tmp, b, field);
        next.remove_handle(a);
        next.rename_handle(tmp, a);
        return next;
    }
    let dir = dir_of(field);
    let sa = intern::intern(a);
    let sb = intern::intern(b);
    let mut next = state.clone();
    next.matrix.add_handle_sym(sb);
    next.matrix.clear_handle_sym(sa);
    next.attached.remove(sa);
    next.shared.remove(a);

    let handles: Vec<Symbol> = next.matrix.handles().to_vec();
    let link = Link::exact(dir, 1);

    // b itself: a is exactly its f-child.
    next.matrix.set_sym(
        sb,
        sa,
        PathSet::singleton(Path::from_link(link, Certainty::Definite)),
    );

    for &x in &handles {
        if x == sa || x == sb {
            continue;
        }
        // Paths into a: anything that reaches b reaches a by one more edge.
        let xb = state.matrix.get_sym(x, sb);
        if !xb.is_empty() {
            next.matrix.set_sym(x, sa, xb.map(|p| p.append_link(link)));
        }
        // Paths out of a: re-root b's outgoing paths at the f-child.
        let bx = state.matrix.get_sym(sb, x);
        if !bx.is_empty() {
            let mut stripped = PathSet::empty();
            for p in bx.iter() {
                for &q in p.strip_first(dir).as_slice() {
                    stripped.insert(q);
                }
            }
            next.matrix.set_sym(sa, x, stripped);
        }
    }

    // a's node has (at least) parent b now.
    next.attached.insert(sa);
    if !state.structure.is_tree() {
        next.shared.insert(a.to_string());
    }
    next
}

/// `a.f := b` / `a.f := nil` — the structural update.  `src` is `None` for
/// the nil store.  Appends any structure-classification warnings to
/// `warnings`; `stmt` is the statement being transferred, pretty-printed
/// into a warning only when one is raised.
pub fn transfer_store_field(
    state: &AbstractState,
    a: &str,
    field: Field,
    src: Option<&str>,
    proc_name: &str,
    stmt: &Stmt,
    warnings: &mut Vec<StructureWarning>,
) -> AbstractState {
    let dir = dir_of(field);
    let sa = intern::intern(a);
    let mut next = state.clone();
    next.matrix.add_handle_sym(sa);
    if let Some(b) = src {
        next.matrix.add_handle(b);
    }
    let handles: Vec<Symbol> = next.matrix.handles().to_vec();
    let is_tree = state.structure.is_tree();

    // ---- kill phase: the old `a.f` edge is overwritten -------------------
    // Targets that `a` may have reached through its f edge (pre-kill).
    let mut reached_via_f: Vec<Symbol> = Vec::new();
    // Handles that were definitely the direct f-child of a.
    let mut direct_children: Vec<Symbol> = Vec::new();
    for &y in &handles {
        if y == sa {
            continue;
        }
        let from_a = state.matrix.get_sym(sa, y);
        if from_a.iter().any(|p| p.may_start_with(dir)) {
            reached_via_f.push(y);
        }
        if from_a
            .iter()
            .any(|p| p.is_definite() && p.links() == [Link::exact(dir, 1)])
        {
            direct_children.push(y);
        }
        // Rewrite a's outgoing paths.
        let rewritten = PathSet::from_paths(from_a.iter().filter_map(|p| {
            if p.starts_definitely_with(dir) {
                if is_tree {
                    // The unique path went through the overwritten edge.
                    None
                } else {
                    Some(p.weakened())
                }
            } else if p.may_start_with(dir) {
                Some(p.weakened())
            } else {
                Some(*p)
            }
        }));
        next.matrix.set_sym(sa, y, rewritten);
    }
    // Ancestors of a: their paths to anything a reached via f become uncertain.
    for &x in &handles {
        if x == sa || state.matrix.get_sym(x, sa).is_empty() {
            continue;
        }
        for &y in &reached_via_f {
            if y == x {
                continue;
            }
            let entry = next.matrix.get_sym(x, y);
            if !entry.is_empty() {
                next.matrix.set_sym(x, y, entry.weakened());
            }
        }
    }
    // The node that was the direct f-child loses this parent: one of
    // several if it was shared, its only one in a TREE.  (An empty `shared`
    // holds no name, so the symbol is resolved only when it could.)
    for &c in &direct_children {
        if !next.shared.is_empty() && next.shared.remove(c.as_str()) {
            continue;
        }
        if is_tree {
            next.attached.remove(c);
        }
    }

    // ---- gen phase: the new edge a --f--> b -------------------------------
    if let Some(b) = src {
        // Cycle check: if b can reach a (or is a), the new edge closes a cycle.
        if b == a || !state.matrix.get(b, a).is_empty() {
            next.degrade_structure(StructureKind::PossiblyCyclic);
            warnings.push(StructureWarning {
                procedure: proc_name.to_string(),
                statement: pretty_stmt(stmt),
                kind: StructureKind::PossiblyCyclic,
                message: format!(
                    "`{b}` may be (or reach) an ancestor of `{a}`; the store may create a cycle"
                ),
            });
        }
        // DAG check: if b's node may already have a parent, it now has two.
        // The node may be named by other handles too (any handle that may be
        // the same node), so the attachment facts of those aliases count as
        // well and are updated alongside.
        let sbb = intern::intern(b);
        let aliases_of_b: Vec<Symbol> = handles
            .iter()
            .filter(|&&x| {
                x == sbb
                    || state.matrix.get_sym(x, sbb).may_be_same()
                    || state.matrix.get_sym(sbb, x).may_be_same()
            })
            .copied()
            .collect();
        if aliases_of_b.iter().any(|&x| next.attached.contains(x)) {
            next.shared.insert(b.to_string());
            next.degrade_structure(StructureKind::PossiblyDag);
            warnings.push(StructureWarning {
                procedure: proc_name.to_string(),
                statement: pretty_stmt(stmt),
                kind: StructureKind::PossiblyDag,
                message: format!(
                    "`{b}` may already be attached elsewhere; the store may create a DAG"
                ),
            });
        }
        for &alias in &aliases_of_b {
            next.attached.insert(alias);
        }

        // New paths: every x that reaches a, composed with the new edge and
        // every path out of b.
        let link_path = Path::from_link(Link::exact(dir, 1), Certainty::Definite);
        let mut sources: Vec<(Symbol, PathSet)> =
            vec![(sa, PathSet::singleton(Path::same(Certainty::Definite)))];
        for &x in &handles {
            if x == sa {
                continue;
            }
            let xa = state.matrix.get_sym(x, sa);
            if !xa.is_empty() {
                sources.push((x, xa));
            }
        }
        let mut targets: Vec<(Symbol, PathSet)> =
            vec![(sbb, PathSet::singleton(Path::same(Certainty::Definite)))];
        for &y in &handles {
            if y == sbb {
                continue;
            }
            let by = state.matrix.get_sym(sbb, y);
            if !by.is_empty() {
                targets.push((y, by));
            }
        }
        for &(x, xa) in &sources {
            for &(y, by) in &targets {
                if x == y {
                    continue;
                }
                let mut entry = next.matrix.get_sym(x, y);
                for p in xa.iter() {
                    for q in by.iter() {
                        entry.insert(p.concat(&link_path).concat(q));
                    }
                }
                next.matrix.set_sym(x, y, entry);
            }
        }
    }

    next.reclassify_from_sharing();
    next
}

/// Apply a basic (non-call) statement: `None` when the statement leaves
/// the state as it is.  Call statements are handled by
/// [`Analyzer::transfer`], which knows the callee summaries.
///
/// `basic` is `stmt` classified.  `proc_name` and `stmt` name the
/// statement in a [`StructureWarning`]; the statement is pretty-printed
/// only when a warning is raised, not on every transfer.
pub fn transfer_basic(
    state: &AbstractState,
    basic: &BasicStmt<'_>,
    proc_name: &str,
    stmt: &Stmt,
    warnings: &mut Vec<StructureWarning>,
) -> Option<AbstractState> {
    Some(match basic {
        BasicStmt::AssignNil { dst } => transfer_assign_nil(state, dst),
        BasicStmt::AssignNew { dst } => transfer_assign_new(state, dst),
        BasicStmt::AssignCopy { dst, src } if dst == src => return None,
        BasicStmt::AssignCopy { dst, src } => transfer_assign_copy(state, dst, src),
        BasicStmt::AssignLoad { dst, src, field } => transfer_assign_load(state, dst, src, *field),
        BasicStmt::StoreField { dst, field, src } => {
            transfer_store_field(state, dst, *field, Some(src), proc_name, stmt, warnings)
        }
        BasicStmt::StoreFieldNil { dst, field } => {
            transfer_store_field(state, dst, *field, None, proc_name, stmt, warnings)
        }
        // Value and scalar statements do not change the heap structure,
        // and calls must go through the Analyzer.
        BasicStmt::ValueLoad { .. }
        | BasicStmt::ValueStore { .. }
        | BasicStmt::ScalarAssign { .. }
        | BasicStmt::FuncAssign { .. }
        | BasicStmt::ProcCall { .. } => return None,
    })
}

/// Apply a single *basic* statement to a state, without procedure-call
/// knowledge.  This is the standalone entry point used by the figure
/// reproductions and by property tests; real programs are analyzed through
/// [`Analyzer`].
pub fn transfer_stmt(
    state: &AbstractState,
    stmt: &Stmt,
    sig: &ProcSignature,
    warnings: &mut Vec<StructureWarning>,
) -> AbstractState {
    BasicStmt::classify(stmt, sig)
        .and_then(|basic| transfer_basic(state, &basic, &sig.name, stmt, warnings))
        .unwrap_or_else(|| state.clone())
}

// ---------------------------------------------------------------------------
// The Analyzer: whole-statement transfer with call effects
// ---------------------------------------------------------------------------

/// Observed information about one call site (used by the interprocedural
/// driver to build callee entry contexts).
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    pub callee: String,
    /// Handle actuals by callee formal name.
    pub handle_actuals: Vec<(String, String)>,
    /// The abstract state just before the call: the program point's own
    /// when the call was transferred at a point.
    pub state_before: Arc<AbstractState>,
}

/// The statement-level analyzer: applies transfer functions to whole
/// statements, including conditionals, loops and calls.
///
/// Call statements use the callee's [`ProcSummary`] (argument modes) and
/// [`ReturnSummary`] for their caller-side effect, and are reported to the
/// interprocedural driver through an internal call-site log.
pub struct Analyzer<'a> {
    pub program: &'a Program,
    pub types: &'a ProgramTypes,
    pub summaries: HashMap<String, ProcSummary>,
    pub return_summaries: RefCell<HashMap<String, ReturnSummary>>,
    /// The structural classification each analyzed procedure leaves behind at
    /// exit (filled in by the interprocedural driver; absent means "not yet
    /// analyzed", treated optimistically and refined across rounds).
    pub exit_structures: RefCell<HashMap<String, StructureKind>>,
    call_sites: RefCell<Vec<CallSite>>,
    record_calls: bool,
}

impl<'a> Analyzer<'a> {
    /// Build an analyzer for a (normalized, type-checked) program.
    pub fn new(program: &'a Program, types: &'a ProgramTypes) -> Analyzer<'a> {
        Analyzer::with_summaries(program, types, compute_summaries(program, types))
    }

    /// Build an analyzer with precomputed argument-mode summaries.
    ///
    /// Summaries are pure functions of the procedure text and its transitive
    /// callees, so a memoizing service (see `sil-engine`) can supply them
    /// from a content-addressed cache instead of paying
    /// [`compute_summaries`] again.
    pub fn with_summaries(
        program: &'a Program,
        types: &'a ProgramTypes,
        summaries: HashMap<String, ProcSummary>,
    ) -> Analyzer<'a> {
        Analyzer {
            program,
            types,
            summaries,
            return_summaries: RefCell::new(HashMap::new()),
            exit_structures: RefCell::new(HashMap::new()),
            call_sites: RefCell::new(Vec::new()),
            record_calls: true,
        }
    }

    /// Enable or disable call-site recording (the interprocedural driver
    /// enables it; one-off uses such as the parallelizer disable it).
    pub fn set_record_calls(&mut self, record: bool) {
        self.record_calls = record;
    }

    /// Drain the call sites observed since the last call.
    pub fn take_call_sites(&self) -> Vec<CallSite> {
        std::mem::take(&mut *self.call_sites.borrow_mut())
    }

    /// Install a function-return summary (computed by the interprocedural
    /// driver after analyzing the function body).
    pub fn set_return_summary(&self, func: &str, summary: ReturnSummary) {
        self.return_summaries
            .borrow_mut()
            .insert(func.to_string(), summary);
    }

    /// Install the structural classification a procedure leaves at exit.
    pub fn set_exit_structure(&self, proc: &str, kind: StructureKind) {
        self.exit_structures
            .borrow_mut()
            .insert(proc.to_string(), kind);
    }

    /// The summary of a procedure, if known.
    pub fn summary(&self, name: &str) -> Option<&ProcSummary> {
        self.summaries.get(name)
    }

    /// Transfer a whole statement.
    pub fn transfer(
        &self,
        state: &AbstractState,
        stmt: &Stmt,
        sig: &ProcSignature,
        warnings: &mut Vec<StructureWarning>,
    ) -> AbstractState {
        self.transfer_changed(state, stmt, sig, warnings)
            .unwrap_or_else(|| state.clone())
    }

    /// [`Analyzer::transfer`], or `None` when the statement leaves the state
    /// as it is — which costs no copy of it.
    pub(crate) fn transfer_changed(
        &self,
        state: &AbstractState,
        stmt: &Stmt,
        sig: &ProcSignature,
        warnings: &mut Vec<StructureWarning>,
    ) -> Option<AbstractState> {
        match stmt {
            Stmt::Assign { .. } | Stmt::Call { .. } => {
                self.transfer_simple(state, None, stmt, sig, warnings)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let then_state = self.transfer_changed(state, then_branch, sig, warnings);
                let else_state = match else_branch {
                    Some(e) => self.transfer_changed(state, e, sig, warnings),
                    None => None,
                };
                let then_state = then_state.as_ref().unwrap_or(state);
                Some(then_state.join(else_state.as_ref().unwrap_or(state)))
            }
            Stmt::While { body, .. } => {
                // Iterative approximation (Figure 3): join of 0, 1, 2, ...
                // iterations until the matrix stabilizes.  `None` while the
                // approximation is still the entry state.
                let mut current: Option<AbstractState> = None;
                for _ in 0..MAX_FIXPOINT_ITERS {
                    let now = current.as_ref().unwrap_or(state);
                    let after_body = self.transfer_changed(now, body, sig, warnings);
                    let next = now.join(after_body.as_ref().unwrap_or(now));
                    if next.same_as(now) {
                        return current;
                    }
                    current = Some(next);
                }
                // Safety net: force convergence by weakening every relation.
                let mut widened = current.unwrap_or_else(|| state.clone());
                widened.matrix = widened.matrix.weakened();
                Some(widened)
            }
            // A parallel statement's arms were proven independent (or will be
            // re-verified); their combined effect equals any sequential order.
            Stmt::Block { stmts, .. } | Stmt::Par { arms: stmts, .. } => {
                let mut current: Option<AbstractState> = None;
                for s in stmts {
                    let now = current.as_ref().unwrap_or(state);
                    if let Some(next) = self.transfer_changed(now, s, sig, warnings) {
                        current = Some(next);
                    }
                }
                current
            }
        }
    }

    /// [`Analyzer::transfer_changed`] of an assignment or call at a program
    /// point whose state is `state`: a call site records that `Arc` rather
    /// than a copy of the state.
    pub(crate) fn transfer_point(
        &self,
        state: &Arc<AbstractState>,
        stmt: &Stmt,
        sig: &ProcSignature,
        warnings: &mut Vec<StructureWarning>,
    ) -> Option<AbstractState> {
        self.transfer_simple(state, Some(state), stmt, sig, warnings)
    }

    /// An assignment or call; `shared` is `state` behind an `Arc`, when
    /// the caller holds one.
    fn transfer_simple(
        &self,
        state: &AbstractState,
        shared: Option<&Arc<AbstractState>>,
        stmt: &Stmt,
        sig: &ProcSignature,
        warnings: &mut Vec<StructureWarning>,
    ) -> Option<AbstractState> {
        match stmt {
            Stmt::Call { proc, args, .. } => self.transfer_call(state, shared, proc, args),
            _ => match BasicStmt::classify(stmt, sig)? {
                BasicStmt::FuncAssign { dst, func, args } => {
                    self.transfer_func_assign(state, shared, dst, func, args, sig)
                }
                basic => transfer_basic(state, &basic, &sig.name, stmt, warnings),
            },
        }
    }

    /// Analyze a block, returning the state *before* each top-level statement
    /// and the exit state.  Used by the parallelizer.
    pub fn states_through_block(
        &self,
        entry: &AbstractState,
        stmts: &[Stmt],
        sig: &ProcSignature,
        warnings: &mut Vec<StructureWarning>,
    ) -> (Vec<AbstractState>, AbstractState) {
        let mut before = Vec::with_capacity(stmts.len());
        let mut current = entry.clone();
        for s in stmts {
            before.push(current.clone());
            current = self.transfer(&current, s, sig, warnings);
        }
        (before, current)
    }

    fn handle_actuals(&self, callee: &str, args: &[Expr]) -> Vec<(String, String)> {
        let Some(callee_sig) = self.types.proc(callee) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for ((formal, ty), arg) in callee_sig.params.iter().zip(args.iter()) {
            if *ty == Type::Handle {
                if let Some(var) = arg.as_var() {
                    out.push((formal.clone(), var.to_string()));
                }
            }
        }
        out
    }

    /// Caller-side effect of `callee(args)` on the abstract state, `None`
    /// when it has none; `shared` is `state` behind an `Arc`, if the caller
    /// holds one.
    fn transfer_call(
        &self,
        state: &AbstractState,
        shared: Option<&Arc<AbstractState>>,
        callee: &str,
        args: &[Expr],
    ) -> Option<AbstractState> {
        let handle_actuals = self.handle_actuals(callee, args);
        if self.record_calls {
            self.call_sites.borrow_mut().push(CallSite {
                callee: callee.to_string(),
                handle_actuals: handle_actuals.clone(),
                state_before: shared.cloned().unwrap_or_else(|| Arc::new(state.clone())),
            });
        }
        let summary = self.summaries.get(callee)?;
        if !summary.has_structural_update() {
            // Value updates and reads leave the path matrix untouched.
            return None;
        }

        // Structural updates: conservatively account for the callee
        // rearranging (only) the part of the heap reachable from its
        // arguments.  Handle variables of the caller keep naming the same
        // nodes (call-by-value), so `S` relationships survive; link paths
        // into the affected region are weakened and a possible downward path
        // is added from anything that can reach an update argument to
        // anything reachable from any argument.
        let mut next = state.clone();
        // If the callee is known to leave the structure degraded (e.g. it
        // permanently shares a node), the caller's classification degrades
        // too, and stays degraded (the marker below keeps
        // `reclassify_from_sharing` from undoing it).
        if let Some(exit_kind) = self.exit_structures.borrow().get(callee).copied() {
            if !exit_kind.is_tree() {
                next.degrade_structure(exit_kind);
                next.shared.insert(format!("<shared via {callee}>"));
            }
        }
        let update_actuals: Vec<Symbol> = handle_actuals
            .iter()
            .filter(|(formal, _)| {
                summary
                    .handle_args
                    .get(formal)
                    .is_some_and(|m| m.is_structural())
            })
            .map(|(_, actual)| intern::intern(actual))
            .collect();
        let all_actuals: Vec<Symbol> = handle_actuals
            .iter()
            .map(|(_, a)| intern::intern(a))
            .collect();
        if update_actuals.is_empty() {
            return Some(next);
        }
        let handles: Vec<Symbol> = next.matrix.handles().to_vec();
        let is_tree = state.structure.is_tree();
        let can_reach_update: Vec<Symbol> = handles
            .iter()
            .filter(|&&x| {
                update_actuals
                    .iter()
                    .any(|&u| x == u || !state.matrix.get_sym(x, u).is_empty())
            })
            .copied()
            .collect();
        // Handles naming nodes the callee can actually rearrange: nodes
        // *strictly below* some argument.  Edges on the path from the caller
        // down to an argument node belong to nodes the callee cannot reach
        // (in a TREE), so relations ending at the argument itself survive.
        let in_call_reach: Vec<Symbol> = handles
            .iter()
            .filter(|&&y| {
                all_actuals.iter().any(|&g| {
                    state.matrix.get_sym(g, y).may_be_descendant()
                        || (!is_tree && (y == g || state.matrix.get_sym(g, y).may_be_same()))
                })
            })
            .copied()
            .collect();
        for &x in &can_reach_update {
            for &y in &in_call_reach {
                if x == y {
                    continue;
                }
                let old = state.matrix.get_sym(x, y);
                let mut entry = PathSet::empty();
                for p in old.iter() {
                    if p.is_same() {
                        entry.insert(*p);
                    } else {
                        entry.insert(p.weakened());
                    }
                }
                entry.insert(Path::from_link(
                    Link::at_least(Dir::Down, 1),
                    Certainty::Possible,
                ));
                next.matrix.set_sym(x, y, entry);
            }
        }
        // Nodes inside the call's reach may have been re-attached.
        for &y in &in_call_reach {
            next.attached.insert(y);
        }
        Some(next)
    }

    /// Caller-side effect of `dst := callee(args)`.
    fn transfer_func_assign(
        &self,
        state: &AbstractState,
        shared: Option<&Arc<AbstractState>>,
        dst: &str,
        callee: &str,
        args: &[Expr],
        sig: &ProcSignature,
    ) -> Option<AbstractState> {
        let called = self.transfer_call(state, shared, callee, args);
        if !sig.is_handle(dst) {
            return called;
        }
        let mut next = called.unwrap_or_else(|| state.clone());
        // The destination handle takes on the relationships described by the
        // callee's return summary (or the unknown relationship otherwise).
        next.matrix.clear_handle(dst);
        next.mark_detached(dst);
        let handle_actuals = self.handle_actuals(callee, args);
        let return_summaries = self.return_summaries.borrow();
        match return_summaries.get(callee) {
            Some(summary) => {
                if !summary.fresh {
                    next.mark_attached(dst);
                }
                for (formal, to_ret, from_ret) in &summary.relations {
                    let Some((_, actual)) = handle_actuals.iter().find(|(f, _)| f == formal) else {
                        continue;
                    };
                    if !to_ret.is_empty() {
                        next.matrix.set(actual, dst, *to_ret);
                    }
                    if !from_ret.is_empty() {
                        next.matrix.set(dst, actual, *from_ret);
                    }
                }
            }
            None => {
                // Unknown function: assume the result may relate to any
                // handle argument in any way.
                next.mark_attached(dst);
                for (_, actual) in &handle_actuals {
                    next.matrix.set(actual, dst, unknown_relation());
                    next.matrix.set(dst, actual, unknown_relation());
                }
            }
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_lang::parser::parse_stmt;
    use sil_lang::types::ProcSignature;
    use std::collections::HashMap as StdHashMap;

    fn sig(handles: &[&str], ints: &[&str]) -> ProcSignature {
        let mut vars = StdHashMap::new();
        for h in handles {
            vars.insert(h.to_string(), Type::Handle);
        }
        for i in ints {
            vars.insert(i.to_string(), Type::Int);
        }
        ProcSignature {
            name: "test".into(),
            params: vec![],
            return_type: None,
            vars,
        }
    }

    fn apply(state: &AbstractState, src: &str, sig: &ProcSignature) -> AbstractState {
        let stmt = parse_stmt(src).unwrap();
        let mut warnings = Vec::new();
        transfer_stmt(state, &stmt, sig, &mut warnings)
    }

    fn apply_with_warnings(
        state: &AbstractState,
        src: &str,
        sig: &ProcSignature,
    ) -> (AbstractState, Vec<StructureWarning>) {
        let stmt = parse_stmt(src).unwrap();
        let mut warnings = Vec::new();
        let next = transfer_stmt(state, &stmt, sig, &mut warnings);
        (next, warnings)
    }

    /// Figure 2 of the paper, end to end: starting from the initial matrix of
    /// Figure 2(a), apply `d := a.right` and `e := d.left` and compare with
    /// the matrices of Figures 2(b) and 2(c).
    #[test]
    fn figure_2_handle_assignments() {
        let s = sig(&["a", "b", "c", "d", "e"], &[]);
        let mut state = AbstractState::with_handles(["a", "b", "c"]);
        // p[a,b] = L1 L+ L1 (three or more lefts), p[a,c] = R1 D+
        state.matrix.set(
            "a",
            "b",
            PathSet::singleton(Path::from_links(
                vec![
                    Link::exact(Dir::Left, 1),
                    Link::at_least(Dir::Left, 1),
                    Link::exact(Dir::Left, 1),
                ],
                Certainty::Definite,
            )),
        );
        state.matrix.set(
            "a",
            "c",
            PathSet::singleton(Path::from_links(
                vec![Link::exact(Dir::Right, 1), Link::at_least(Dir::Down, 1)],
                Certainty::Definite,
            )),
        );

        // Figure 2(b): d := a.right
        let state_b = apply(&state, "d := a.right", &s);
        assert_eq!(state_b.matrix.get("a", "d").to_string(), "R1");
        assert_eq!(state_b.matrix.get("d", "c").to_string(), "D+");
        assert!(state_b.matrix.get("d", "b").is_empty());
        assert!(state_b.matrix.get("d", "a").is_empty());
        // the left-subtree path to b is untouched
        assert_eq!(state_b.matrix.get("a", "b").to_string(), "L3+");

        // Figure 2(c): e := d.left
        let state_c = apply(&state_b, "e := d.left", &s);
        assert_eq!(state_c.matrix.get("d", "e").to_string(), "L1");
        assert_eq!(state_c.matrix.get("a", "e").to_string(), "R1L1");
        // p[e,c] = { S?, D+? } — e and c may be the same node or c may be below e
        let ec = state_c.matrix.get("e", "c");
        assert_eq!(ec.to_string(), "S?,D+?");
        assert!(!ec.has_definite());
        // e is unrelated to b
        assert!(state_c.matrix.unrelated("e", "b"));
    }

    #[test]
    fn nil_and_new_sever_relations() {
        let s = sig(&["a", "b"], &[]);
        let mut state = AbstractState::with_handles(["a", "b"]);
        state.matrix.set(
            "a",
            "b",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 1)),
        );
        let after = apply(&state, "b := nil", &s);
        assert!(after.matrix.get("a", "b").is_empty());
        let after = apply(&state, "b := new()", &s);
        assert!(after.matrix.get("a", "b").is_empty());
        assert!(!after.is_attached("b"));
    }

    #[test]
    fn copy_aliases() {
        let s = sig(&["a", "b", "c"], &[]);
        let mut state = AbstractState::with_handles(["a", "b", "c"]);
        state.matrix.set(
            "a",
            "b",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 2)),
        );
        let after = apply(&state, "c := b", &s);
        assert!(after.matrix.get("c", "b").must_be_same());
        assert_eq!(after.matrix.get("a", "c").to_string(), "L2");
    }

    #[test]
    fn self_load_uses_old_value() {
        // Figure 3's loop body: l := l.left
        let s = sig(&["h", "l"], &[]);
        let mut state = AbstractState::with_handles(["h", "l"]);
        state.matrix.set(
            "h",
            "l",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 1)),
        );
        let after = apply(&state, "l := l.left", &s);
        assert_eq!(after.matrix.get("h", "l").to_string(), "L2");
    }

    #[test]
    fn store_establishes_relation_and_attaches() {
        let s = sig(&["t", "a"], &[]);
        let state = AbstractState::with_handles(["t", "a"]);
        let (after, warnings) = apply_with_warnings(&state, "t.left := a", &s);
        assert_eq!(after.matrix.get("t", "a").to_string(), "L1");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(after.structure, StructureKind::Tree);
        assert!(after.is_attached("a"));
    }

    #[test]
    fn store_composes_with_ancestors_and_descendants() {
        // r := root, c below b: root.left := b must relate root to b and c.
        let s = sig(&["root", "r", "b", "c"], &[]);
        let mut state = AbstractState::with_handles(["root", "r", "b", "c"]);
        state.matrix.alias_handle("r", "root");
        state.matrix.set(
            "b",
            "c",
            PathSet::singleton(sil_pathmatrix::at_least(Dir::Down, 1)),
        );
        let after = apply(&state, "root.left := b", &s);
        assert_eq!(after.matrix.get("root", "b").to_string(), "L1");
        assert_eq!(after.matrix.get("r", "b").to_string(), "L1");
        assert_eq!(after.matrix.get("root", "c").to_string(), "L1D+");
    }

    #[test]
    fn store_detects_cycle() {
        let s = sig(&["t", "d"], &[]);
        let mut state = AbstractState::with_handles(["t", "d"]);
        state.matrix.set(
            "t",
            "d",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 2)),
        );
        // d is below t; t is therefore an ancestor of d: d.left := t closes a cycle.
        let (after, warnings) = apply_with_warnings(&state, "d.left := t", &s);
        assert_eq!(after.structure, StructureKind::PossiblyCyclic);
        assert!(warnings
            .iter()
            .any(|w| w.kind == StructureKind::PossiblyCyclic));
        // self-loop
        let (after, _) = apply_with_warnings(&state, "t.left := t", &s);
        assert_eq!(after.structure, StructureKind::PossiblyCyclic);
    }

    #[test]
    fn store_detects_dag_when_node_already_attached() {
        let s = sig(&["t", "u", "a"], &[]);
        let state = AbstractState::with_handles(["t", "u", "a"]);
        let after = apply(&state, "t.left := a", &s);
        assert_eq!(after.structure, StructureKind::Tree);
        let (after2, warnings) = apply_with_warnings(&after, "u.right := a", &s);
        assert_eq!(after2.structure, StructureKind::PossiblyDag);
        assert!(warnings
            .iter()
            .any(|w| w.kind == StructureKind::PossiblyDag));
    }

    #[test]
    fn node_swap_is_temporarily_a_dag_then_a_tree_again() {
        // The body of `reverse` (Figure 7): l := h.left; r := h.right;
        // h.left := r; h.right := l.  The paper notes the structure is
        // temporarily a DAG and a tree again afterwards.
        let s = sig(&["h", "l", "r"], &[]);
        let state = AbstractState::with_handles(["h"]);
        let s1 = apply(&state, "l := h.left", &s);
        let s2 = apply(&s1, "r := h.right", &s);
        assert_eq!(s2.structure, StructureKind::Tree);
        let (s3, w3) = apply_with_warnings(&s2, "h.left := r", &s);
        assert_eq!(s3.structure, StructureKind::PossiblyDag);
        assert!(!w3.is_empty());
        let (s4, _) = apply_with_warnings(&s3, "h.right := l", &s);
        assert_eq!(s4.structure, StructureKind::Tree, "{}", s4.matrix.render());
        // and the matrix reflects the swap: l is now the right child, r the left
        assert!(s4
            .matrix
            .get("h", "l")
            .iter()
            .any(|p| p.to_string() == "R1"));
        assert!(s4
            .matrix
            .get("h", "r")
            .iter()
            .any(|p| p.to_string() == "L1"));
    }

    #[test]
    fn store_nil_kills_paths_through_edge() {
        let s = sig(&["t", "l", "x"], &[]);
        let state = AbstractState::with_handles(["t"]);
        let s1 = apply(&state, "l := t.left", &s);
        assert_eq!(s1.matrix.get("t", "l").to_string(), "L1");
        let s2 = apply(&s1, "t.left := nil", &s);
        assert!(
            s2.matrix.get("t", "l").is_empty(),
            "severing the edge removes the definite path: {}",
            s2.matrix.get("t", "l")
        );
        // and l's node no longer has a (known) parent
        assert!(!s2.is_attached("l"));
    }

    #[test]
    fn kill_weakens_ancestor_paths() {
        let s = sig(&["root", "t", "x"], &[]);
        let mut state = AbstractState::with_handles(["root", "t", "x"]);
        state.matrix.set(
            "root",
            "t",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 1)),
        );
        state.matrix.set(
            "t",
            "x",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 2)),
        );
        state.matrix.set(
            "root",
            "x",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 3)),
        );
        let after = apply(&state, "t.left := nil", &s);
        // t can no longer reach x (in a tree the L2 path went through t.left)
        assert!(after.matrix.get("t", "x").is_empty());
        // root's path to x may or may not still exist — weakened, not removed
        let rx = after.matrix.get("root", "x");
        assert!(!rx.is_empty());
        assert!(!rx.has_definite());
        // root's path to t is untouched
        assert!(after.matrix.get("root", "t").has_definite());
    }

    #[test]
    fn while_loop_fixpoint_figure_3() {
        // l := h ; while l.left <> nil do l := l.left
        let (program, types) = sil_lang::frontend(sil_lang::testsrc::LEFTMOST_LOOP).unwrap();
        let analyzer = Analyzer::new(&program, &types);
        let sig = types.proc("main").unwrap();
        let mut warnings = Vec::new();
        let mut state = AbstractState::with_handles(["h", "l"]);
        // skip build(): pretend h names the root of a tree.
        let body = parse_stmt("begin l := h; while l.left <> nil do l := l.left end").unwrap();
        state = analyzer.transfer(&state, &body, sig, &mut warnings);
        let hl = state.matrix.get("h", "l");
        // After any number of iterations l is h or some node on the left spine.
        assert!(hl.may_be_same(), "{hl}");
        assert!(
            hl.iter()
                .any(|p| !p.is_same() && p.links().iter().all(|l| l.dir == Dir::Left)),
            "expected a left-spine path, got {hl}"
        );
        // l never ends up strictly above h (it may still *be* h after zero
        // iterations, hence a possible S, but never an ancestor)
        assert!(!state.matrix.get("l", "h").may_be_descendant());
        assert!(warnings.is_empty());
    }

    #[test]
    fn while_loop_terminates_on_growing_paths() {
        let (program, types) = sil_lang::frontend(sil_lang::testsrc::LEFTMOST_LOOP).unwrap();
        let analyzer = Analyzer::new(&program, &types);
        let sig = types.proc("main").unwrap();
        let mut warnings = Vec::new();
        let state = AbstractState::with_handles(["h", "l"]);
        // A loop that keeps descending on alternating sides.
        let body = parse_stmt(
            "begin l := h; while l.left <> nil do begin l := l.left; l := l.right end end",
        )
        .unwrap();
        let out = analyzer.transfer(&state, &body, sig, &mut warnings);
        assert!(!out.matrix.get("h", "l").is_empty());
    }

    #[test]
    fn if_join_weakens_divergent_branches() {
        let s = sig(&["h", "l"], &[]);
        let (program, types) = sil_lang::frontend(sil_lang::testsrc::LEFTMOST_LOOP).unwrap();
        let analyzer = Analyzer::new(&program, &types);
        let mut warnings = Vec::new();
        let state = AbstractState::with_handles(["h", "l"]);
        let stmt = parse_stmt("if h <> nil then l := h.left else l := h.right").unwrap();
        let out = analyzer.transfer(&state, &stmt, &s, &mut warnings);
        let hl = out.matrix.get("h", "l");
        assert!(!hl.has_definite());
        assert!(hl.iter().all(|p| p.min_len() == 1), "{hl}");
    }

    #[test]
    fn value_statements_do_not_change_matrix() {
        let s = sig(&["h"], &["x", "n"]);
        let mut state = AbstractState::with_handles(["h"]);
        state.mark_attached("h");
        let after = apply(&state, "h.value := h.value + n", &s);
        assert!(after.same_as(&state));
        let after = apply(&state, "x := h.value", &s);
        assert!(after.same_as(&state));
        let after = apply(&state, "x := x + 1", &s);
        assert!(after.same_as(&state));
    }

    #[test]
    fn value_only_call_preserves_matrix() {
        let (program, types) = sil_lang::frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
        let analyzer = Analyzer::new(&program, &types);
        let sig = types.proc("main").unwrap();
        let mut warnings = Vec::new();
        let mut state = AbstractState::with_handles(["root", "lside", "rside"]);
        state.matrix.set(
            "root",
            "lside",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 1)),
        );
        let stmt = parse_stmt("add_n(lside, 1)").unwrap();
        let out = analyzer.transfer(&state, &stmt, sig, &mut warnings);
        assert!(out.matrix.same_relations(&state.matrix));
    }

    #[test]
    fn structural_call_weakens_only_affected_relations() {
        let (program, types) = sil_lang::frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
        let analyzer = Analyzer::new(&program, &types);
        let sig = types.proc("main").unwrap();
        let mut warnings = Vec::new();
        let mut state = AbstractState::with_handles(["root", "lside", "rside", "inner", "other"]);
        state.matrix.set(
            "root",
            "lside",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 1)),
        );
        state.matrix.set(
            "root",
            "rside",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Right, 1)),
        );
        state.matrix.set(
            "lside",
            "inner",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 1)),
        );
        state.matrix.set(
            "root",
            "inner",
            PathSet::singleton(sil_pathmatrix::exact(Dir::Left, 2)),
        );
        let stmt = parse_stmt("reverse(lside)").unwrap();
        let out = analyzer.transfer(&state, &stmt, sig, &mut warnings);
        // The callee cannot modify the edge from root into its argument node
        // (that edge belongs to a node it cannot reach), so root→lside
        // survives unchanged.
        assert!(out.matrix.get("root", "lside").has_definite());
        // Nodes strictly below the argument may have been rearranged:
        // weakened, not severed.
        assert!(!out.matrix.get("lside", "inner").has_definite());
        assert!(!out.matrix.get("lside", "inner").is_empty());
        assert!(!out.matrix.get("root", "inner").has_definite());
        // rside was not reachable from the argument: untouched.
        assert!(out.matrix.get("root", "rside").has_definite());
        // unrelated handles untouched.
        assert!(out.matrix.unrelated("other", "root"));
    }

    #[test]
    fn function_call_without_summary_is_conservative() {
        let (program, types) = sil_lang::frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
        let analyzer = Analyzer::new(&program, &types);
        let mut warnings = Vec::new();
        let s = sig(&["root", "d"], &["i"]);
        let state = AbstractState::with_handles(["root", "d"]);
        // build takes an int only, so the result is unrelated to root.
        let stmt = parse_stmt("d := build(i)").unwrap();
        let out = analyzer.transfer(&state, &stmt, &s, &mut warnings);
        assert!(out.matrix.unrelated("root", "d"));
    }

    #[test]
    fn call_sites_are_recorded() {
        let (program, types) = sil_lang::frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
        let analyzer = Analyzer::new(&program, &types);
        let sig = types.proc("main").unwrap();
        let mut warnings = Vec::new();
        let state = AbstractState::with_handles(["lside"]);
        let stmt = parse_stmt("add_n(lside, 1)").unwrap();
        let _ = analyzer.transfer(&state, &stmt, sig, &mut warnings);
        let sites = analyzer.take_call_sites();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].callee, "add_n");
        assert_eq!(
            sites[0].handle_actuals,
            vec![("h".to_string(), "lside".to_string())]
        );
        assert!(analyzer.take_call_sites().is_empty(), "drained");
    }
}
