//! Procedure summaries: read-only vs. update handle arguments.
//!
//! Section 5.2 refines procedure-call interference by classifying each handle
//! argument as *read-only* or *update*.  We additionally distinguish
//! *value updates* (only `.value` fields of reachable nodes are written — the
//! path matrix is unaffected) from *structural updates* (`.left`/`.right`
//! fields are written — the shape of the reachable subtree may change), which
//! both sharpens interference answers and lets the caller-side transfer
//! function preserve the matrix across calls such as `add_n` that never
//! restructure the tree.
//!
//! The classification is a flow-insensitive fixpoint over the call graph
//! driven by a per-procedure *derived-from* map: which formals a local handle
//! variable may have been reached from.

use sil_lang::ast::*;
use sil_lang::basic::BasicStmt;
use sil_lang::types::{ProgramTypes, Type};
use sil_lang::visit::collect_simple_stmts;
use sil_pathmatrix::PathSet;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How a procedure uses the nodes reachable from one of its handle arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArgMode {
    /// Reachable nodes are only read.
    ReadOnly,
    /// `.value` fields of reachable nodes may be written; the structure is
    /// untouched.
    ValueUpdate,
    /// `.left`/`.right` fields of reachable nodes may be written.
    StructUpdate,
}

impl ArgMode {
    /// The paper's coarse classification: anything that writes is an update
    /// argument.
    pub fn is_update(self) -> bool {
        self != ArgMode::ReadOnly
    }

    /// Whether the argument's reachable structure may be reshaped.
    pub fn is_structural(self) -> bool {
        self == ArgMode::StructUpdate
    }
}

/// Relationship of a function's returned handle to its formals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReturnSummary {
    /// The returned node is freshly allocated / unrelated to every argument.
    pub fresh: bool,
    /// For each handle formal: (formal name, paths formal→result, paths result→formal).
    pub relations: Vec<(String, PathSet, PathSet)>,
}

impl ReturnSummary {
    /// A stable content digest, used as part of the interprocedural driver's
    /// walk-memoization keys (two summaries digest equal iff they render
    /// equal).
    pub fn digest(&self) -> u64 {
        let mut hasher = sil_lang::hash::StableHasher::new();
        hasher.write_str("sil-return-summary-v1");
        hasher.write_u64(self.fresh as u64);
        for (formal, to_ret, from_ret) in &self.relations {
            hasher.write_str(formal);
            hasher.write_str(&to_ret.to_string());
            hasher.write_str(&from_ret.to_string());
        }
        hasher.finish()
    }
}

/// The summary of one procedure or function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSummary {
    pub name: String,
    /// Mode of every *handle* parameter, keyed by its name.
    pub handle_args: BTreeMap<String, ArgMode>,
    /// Mode per parameter position (None for integer parameters).
    pub arg_modes: Vec<Option<ArgMode>>,
}

impl ProcSummary {
    /// The mode of the handle parameter at position `idx`, if it is a handle.
    pub fn mode_of_position(&self, idx: usize) -> Option<ArgMode> {
        self.arg_modes.get(idx).copied().flatten()
    }

    /// Whether any handle argument is an update argument.
    pub fn has_update_args(&self) -> bool {
        self.handle_args.values().any(|m| m.is_update())
    }

    /// Whether any handle argument may be structurally updated.
    pub fn has_structural_update(&self) -> bool {
        self.handle_args.values().any(|m| m.is_structural())
    }

    /// The names of the update handle parameters.
    pub fn update_args(&self) -> Vec<&str> {
        self.handle_args
            .iter()
            .filter(|(_, m)| m.is_update())
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Compute, for every local handle variable of `proc`, the set of handle
/// *formals* it may be derived from (reached from by following loads and
/// copies).  Formals derive from themselves.  The result is
/// flow-insensitive and therefore conservative.
pub fn derived_from(proc: &Procedure, types: &ProgramTypes) -> BTreeMap<String, BTreeSet<String>> {
    let Some(sig) = types.proc(&proc.name) else {
        return BTreeMap::new();
    };
    let mut derived: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (name, ty) in &sig.params {
        if *ty == Type::Handle {
            derived.insert(name.clone(), BTreeSet::from([name.clone()]));
        }
    }
    let stmts = collect_simple_stmts(&proc.body);
    // Iterate to a fixpoint; the lattice is finite (subsets of formals).
    loop {
        let mut changed = false;
        for stmt in &stmts {
            let Some(basic) = BasicStmt::classify(stmt, sig) else {
                continue;
            };
            let flow = match basic {
                BasicStmt::AssignCopy { dst, src } => Some((dst, vec![src])),
                BasicStmt::AssignLoad { dst, src, .. } => Some((dst, vec![src])),
                BasicStmt::FuncAssign { dst, args, .. } if sig.is_handle(dst) => {
                    let sources: Vec<&str> = args
                        .iter()
                        .filter_map(|a| a.as_var())
                        .filter(|v| sig.is_handle(v))
                        .collect();
                    Some((dst, sources))
                }
                _ => None,
            };
            if let Some((dst, sources)) = flow {
                let mut incoming: BTreeSet<String> = BTreeSet::new();
                for src in sources {
                    if let Some(set) = derived.get(src) {
                        incoming.extend(set.iter().cloned());
                    }
                }
                let entry = derived.entry(dst.to_string()).or_default();
                let before = entry.len();
                entry.extend(incoming);
                if entry.len() != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    derived
}

/// The all-read-only summary every fixpoint starts from.
fn initial_summary(name: &str, sig: &sil_lang::types::ProcSignature) -> ProcSummary {
    let handle_args: BTreeMap<String, ArgMode> = sig
        .handle_params()
        .into_iter()
        .map(|n| (n.to_string(), ArgMode::ReadOnly))
        .collect();
    let arg_modes = sig
        .params
        .iter()
        .map(|(_, t)| {
            if *t == Type::Handle {
                Some(ArgMode::ReadOnly)
            } else {
                None
            }
        })
        .collect();
    ProcSummary {
        name: name.to_string(),
        handle_args,
        arg_modes,
    }
}

/// One summary round for one procedure: the `(formal, mode)` upgrades its
/// body demands, given the current view of callee summaries.
fn collect_updates(
    proc: &Procedure,
    sig: &sil_lang::types::ProcSignature,
    derived: &BTreeMap<String, BTreeSet<String>>,
    callee_summary: impl Fn(&str) -> Option<ProcSummary>,
) -> Vec<(String, ArgMode)> {
    let mut updates: Vec<(String, ArgMode)> = Vec::new();
    for stmt in collect_simple_stmts(&proc.body) {
        let Some(basic) = BasicStmt::classify(stmt, sig) else {
            continue;
        };
        match basic {
            BasicStmt::StoreField { dst, .. } | BasicStmt::StoreFieldNil { dst, .. } => {
                if let Some(formals) = derived.get(dst) {
                    for f in formals {
                        updates.push((f.clone(), ArgMode::StructUpdate));
                    }
                }
            }
            BasicStmt::ValueStore { dst, .. } => {
                if let Some(formals) = derived.get(dst) {
                    for f in formals {
                        updates.push((f.clone(), ArgMode::ValueUpdate));
                    }
                }
            }
            BasicStmt::ProcCall { proc: callee, args }
            | BasicStmt::FuncAssign {
                func: callee, args, ..
            } => {
                let Some(callee_summary) = callee_summary(callee) else {
                    continue;
                };
                for (idx, arg) in args.iter().enumerate() {
                    let Some(mode) = callee_summary.mode_of_position(idx) else {
                        continue;
                    };
                    if !mode.is_update() {
                        continue;
                    }
                    let Some(var) = arg.as_var() else { continue };
                    if let Some(formals) = derived.get(var) {
                        for f in formals {
                            updates.push((f.clone(), mode));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    updates
}

/// Compute the summaries of one strongly connected component of the call
/// graph, given `resolved` summaries for everything below it.
///
/// Callers that already hold a call graph's SCC schedule (the engine's
/// [`crate::callgraph::CallPlan`]) walk it bottom-up with this instead of
/// letting [`compute_summaries`] build the graph again.  The members'
/// summaries are a pure function of the members and their transitive
/// callees — see [`crate::callgraph::CallGraph::cone_fingerprints`].
pub fn compute_scc_summaries(
    program: &Program,
    types: &ProgramTypes,
    members: &[String],
    resolved: &HashMap<String, ProcSummary>,
) -> HashMap<String, ProcSummary> {
    let procs: Vec<&Procedure> = members
        .iter()
        .filter_map(|name| program.procedure(name))
        .collect();
    let mut local: HashMap<String, ProcSummary> = procs
        .iter()
        .filter_map(|p| {
            types
                .proc(&p.name)
                .map(|sig| (p.name.clone(), initial_summary(&p.name, sig)))
        })
        .collect();
    let derived_maps: HashMap<String, BTreeMap<String, BTreeSet<String>>> = procs
        .iter()
        .map(|p| (p.name.clone(), derived_from(p, types)))
        .collect();

    // Iterate the component until stable (the lattice has height ≤ 2 per
    // formal, so this converges in a handful of rounds).
    loop {
        let mut changed = false;
        for proc in &procs {
            let Some(sig) = types.proc(&proc.name) else {
                continue;
            };
            let derived = &derived_maps[&proc.name];
            let updates = collect_updates(proc, sig, derived, |callee| {
                local.get(callee).or_else(|| resolved.get(callee)).cloned()
            });
            let summary = local.get_mut(&proc.name).expect("seeded above");
            for (formal, mode) in updates {
                if let Some(current) = summary.handle_args.get_mut(&formal) {
                    if mode > *current {
                        *current = mode;
                        changed = true;
                    }
                }
            }
            // keep positional view in sync
            let positional: Vec<Option<ArgMode>> = sig
                .params
                .iter()
                .map(|(name, t)| {
                    if *t == Type::Handle {
                        summary.handle_args.get(name).copied()
                    } else {
                        None
                    }
                })
                .collect();
            summary.arg_modes = positional;
        }
        if !changed {
            break;
        }
    }
    local
}

/// Compute the argument-mode summaries for every procedure of `program`.
///
/// The call graph is condensed into strongly connected components which are
/// processed bottom-up; recursion (and mutual recursion) is the per-SCC
/// fixpoint of [`compute_scc_summaries`].
pub fn compute_summaries(program: &Program, types: &ProgramTypes) -> HashMap<String, ProcSummary> {
    let graph = crate::callgraph::CallGraph::of_program(program);
    let mut resolved: HashMap<String, ProcSummary> = HashMap::new();
    for component in graph.sccs() {
        let computed = compute_scc_summaries(program, types, &component, &resolved);
        resolved.extend(computed);
    }
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_lang::frontend;

    fn summaries_for(src: &str) -> HashMap<String, ProcSummary> {
        let (program, types) = frontend(src).unwrap();
        compute_summaries(&program, &types)
    }

    #[test]
    fn add_and_reverse_summaries() {
        let summaries = summaries_for(sil_lang::testsrc::ADD_AND_REVERSE);
        // add_n only writes .value fields reachable from h.
        let add_n = &summaries["add_n"];
        assert_eq!(add_n.handle_args["h"], ArgMode::ValueUpdate);
        assert!(add_n.has_update_args());
        assert!(!add_n.has_structural_update());
        // reverse rewrites .left/.right.
        let reverse = &summaries["reverse"];
        assert_eq!(reverse.handle_args["h"], ArgMode::StructUpdate);
        assert!(reverse.has_structural_update());
        assert_eq!(reverse.update_args(), vec!["h"]);
        // build has no handle parameters.
        let build = &summaries["build"];
        assert!(build.handle_args.is_empty());
        // main has no parameters at all.
        assert!(summaries["main"].handle_args.is_empty());
    }

    #[test]
    fn read_only_traversal() {
        let src = r#"
program p
procedure visit(t: handle)
  l, r: handle; x: int
begin
  if t <> nil then
  begin
    x := t.value;
    l := t.left;
    r := t.right;
    visit(l);
    visit(r)
  end
end
procedure main()
  root: handle
begin
  root := new();
  visit(root)
end
"#;
        let summaries = summaries_for(src);
        assert_eq!(summaries["visit"].handle_args["t"], ArgMode::ReadOnly);
        assert!(!summaries["visit"].has_update_args());
    }

    #[test]
    fn update_propagates_through_calls() {
        let src = r#"
program p
procedure poke(t: handle)
begin
  t.value := 1
end
procedure outer(u: handle)
  c: handle
begin
  c := u.left;
  poke(c)
end
procedure main()
  root: handle
begin
  root := new();
  outer(root)
end
"#;
        let summaries = summaries_for(src);
        assert_eq!(summaries["poke"].handle_args["t"], ArgMode::ValueUpdate);
        // outer passes a node derived from u to poke, so u is an update arg too.
        assert_eq!(summaries["outer"].handle_args["u"], ArgMode::ValueUpdate);
    }

    #[test]
    fn structural_update_propagates_through_recursion() {
        let src = r#"
program p
procedure rot(t: handle)
  l: handle
begin
  if t <> nil then
  begin
    l := t.left;
    rot(l);
    t.left := nil
  end
end
procedure main()
  root: handle
begin
  root := new();
  rot(root)
end
"#;
        let summaries = summaries_for(src);
        assert_eq!(summaries["rot"].handle_args["t"], ArgMode::StructUpdate);
    }

    #[test]
    fn mutual_recursion_stabilizes() {
        let src = r#"
program p
procedure even(t: handle)
  l: handle
begin
  if t <> nil then
  begin
    l := t.left;
    odd(l)
  end
end
procedure odd(t: handle)
  r: handle
begin
  if t <> nil then
  begin
    r := t.right;
    r.value := 0;
    even(r)
  end
end
procedure main()
  root: handle
begin
  root := new();
  even(root)
end
"#;
        let summaries = summaries_for(src);
        assert_eq!(summaries["odd"].handle_args["t"], ArgMode::ValueUpdate);
        assert_eq!(summaries["even"].handle_args["t"], ArgMode::ValueUpdate);
    }

    #[test]
    fn derived_from_tracks_loads_and_copies() {
        let (program, types) = frontend(
            r#"
program p
procedure f(a: handle; b: handle)
  x, y, z: handle
begin
  x := a.left;
  y := x;
  z := b;
  z := new()
end
procedure main() begin end
"#,
        )
        .unwrap();
        let f = program.procedure("f").unwrap();
        let derived = derived_from(f, &types);
        assert!(derived["x"].contains("a"));
        assert!(derived["y"].contains("a"));
        assert!(!derived["y"].contains("b"));
        // flow-insensitive: z keeps its association with b even though it is
        // later overwritten — conservative by design
        assert!(derived["z"].contains("b"));
        assert_eq!(derived["a"], BTreeSet::from(["a".to_string()]));
    }

    #[test]
    fn arg_mode_ordering() {
        assert!(ArgMode::StructUpdate > ArgMode::ValueUpdate);
        assert!(ArgMode::ValueUpdate > ArgMode::ReadOnly);
        assert!(ArgMode::StructUpdate.is_update() && ArgMode::StructUpdate.is_structural());
        assert!(ArgMode::ValueUpdate.is_update() && !ArgMode::ValueUpdate.is_structural());
        assert!(!ArgMode::ReadOnly.is_update());
    }
}
