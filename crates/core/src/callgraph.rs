//! The static call graph of a SIL program, its strongly connected
//! components, and the scheduling structure derived from them.
//!
//! The interprocedural analysis and the summary computation are both
//! bottom-up over the call graph: a procedure's summary depends only on the
//! summaries of its (transitive) callees.  Condensing the graph into SCCs
//! yields a DAG; grouping the SCCs into *levels* (an SCC's level is one more
//! than the maximum level of the SCCs it calls into) exposes the parallelism
//! the analysis engine exploits — all SCCs of one level are mutually
//! independent and can be processed concurrently.
//!
//! The module also computes per-procedure *cone fingerprints*: a stable hash
//! covering a procedure's own content **and** the content of every procedure
//! it can transitively reach.  A summary, and a body walk given its entry
//! context, is a pure function of exactly that cone, which makes the cone
//! fingerprint the correct content-addressed key for anything derived from
//! it (the engine keys retained walk records by it).

use sil_lang::ast::{Program, Rhs, Stmt};
use sil_lang::hash::{procedure_fingerprint, StableHasher};
use sil_lang::visit::collect_simple_stmts;
use std::collections::{BTreeSet, HashMap};

/// The call graph over a program's procedures.
#[derive(Debug, Clone)]
pub struct CallGraph {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// `callees[i]` — indices of the procedures `names[i]` may call.
    callees: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Extract the call graph of a program.  Calls to undeclared procedures
    /// are ignored (the type checker rejects them anyway).
    pub fn of_program(program: &Program) -> CallGraph {
        let names: Vec<String> = program.procedures.iter().map(|p| p.name.clone()).collect();
        let index: HashMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let mut callees = vec![BTreeSet::new(); names.len()];
        for (i, proc) in program.procedures.iter().enumerate() {
            for stmt in collect_simple_stmts(&proc.body) {
                let callee = match stmt {
                    Stmt::Call { proc, .. } => Some(proc.as_str()),
                    Stmt::Assign {
                        rhs: Rhs::Call(f, _),
                        ..
                    } => Some(f.as_str()),
                    _ => None,
                };
                if let Some(j) = callee.and_then(|c| index.get(c)) {
                    callees[i].insert(*j);
                }
            }
        }
        CallGraph {
            names,
            index,
            callees,
        }
    }

    /// All procedure names, in declaration order.
    pub fn procedures(&self) -> &[String] {
        &self.names
    }

    /// The procedures `name` may call (empty for unknown names).
    pub fn callees_of(&self, name: &str) -> Vec<&str> {
        match self.index.get(name) {
            Some(&i) => self.callees[i]
                .iter()
                .map(|&j| self.names[j].as_str())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Strongly connected components in **reverse topological order**:
    /// every SCC appears after all SCCs it calls into, so a single forward
    /// pass over the result is a valid bottom-up schedule.
    pub fn sccs(&self) -> Vec<Vec<String>> {
        self.scc_indices()
            .into_iter()
            .map(|component| {
                component
                    .into_iter()
                    .map(|i| self.names[i].clone())
                    .collect()
            })
            .collect()
    }

    /// Tarjan's algorithm; components are emitted callees-first.
    fn scc_indices(&self) -> Vec<Vec<usize>> {
        struct Tarjan<'g> {
            graph: &'g CallGraph,
            indices: Vec<Option<usize>>,
            lowlinks: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next_index: usize,
            components: Vec<Vec<usize>>,
        }

        impl Tarjan<'_> {
            fn visit(&mut self, v: usize) {
                self.indices[v] = Some(self.next_index);
                self.lowlinks[v] = self.next_index;
                self.next_index += 1;
                self.stack.push(v);
                self.on_stack[v] = true;

                for &w in &self.graph.callees[v] {
                    if self.indices[w].is_none() {
                        self.visit(w);
                        self.lowlinks[v] = self.lowlinks[v].min(self.lowlinks[w]);
                    } else if self.on_stack[w] {
                        self.lowlinks[v] = self.lowlinks[v].min(self.indices[w].unwrap());
                    }
                }

                if self.lowlinks[v] == self.indices[v].unwrap() {
                    let mut component = Vec::new();
                    loop {
                        let w = self.stack.pop().unwrap();
                        self.on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    self.components.push(component);
                }
            }
        }

        let n = self.names.len();
        let mut tarjan = Tarjan {
            graph: self,
            indices: vec![None; n],
            lowlinks: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            components: Vec::new(),
        };
        for v in 0..n {
            if tarjan.indices[v].is_none() {
                tarjan.visit(v);
            }
        }
        tarjan.components
    }

    /// The SCCs grouped into dependency levels: level 0 holds the SCCs with
    /// no outgoing calls, and every SCC of level `k` only calls into levels
    /// `< k`.  All SCCs within one level are mutually independent, so a
    /// scheduler may process the levels in order and the SCCs of each level
    /// concurrently.
    pub fn scc_levels(&self) -> Vec<Vec<Vec<String>>> {
        let components = self.scc_indices();
        // Map each node to its component (components are in reverse
        // topological order, so callees' components are already numbered
        // when a caller's component is processed).
        let mut component_of = vec![0usize; self.names.len()];
        for (c, members) in components.iter().enumerate() {
            for &v in members {
                component_of[v] = c;
            }
        }
        let mut level_of = vec![0usize; components.len()];
        for (c, members) in components.iter().enumerate() {
            let mut level = 0usize;
            for &v in members {
                for &w in &self.callees[v] {
                    let target = component_of[w];
                    if target != c {
                        level = level.max(level_of[target] + 1);
                    }
                }
            }
            level_of[c] = level;
        }
        let max_level = level_of.iter().copied().max().unwrap_or(0);
        let mut levels: Vec<Vec<Vec<String>>> = vec![Vec::new(); max_level + 1];
        for (c, members) in components.iter().enumerate() {
            levels[level_of[c]].push(
                members
                    .iter()
                    .map(|&v| self.names[v].clone())
                    .collect::<Vec<_>>(),
            );
        }
        if self.names.is_empty() {
            levels.clear();
        }
        levels
    }

    /// Content-addressed cache keys for summaries: for every procedure, a
    /// stable hash over the procedure's own canonical form and the canonical
    /// forms of everything it can transitively call.  Procedures of the same
    /// SCC share a key (their summaries are one fixpoint).
    pub fn cone_fingerprints(&self, program: &Program) -> HashMap<String, u64> {
        let own: Vec<u64> = program
            .procedures
            .iter()
            .map(procedure_fingerprint)
            .collect();
        self.cones_over(&own)
    }

    /// [`CallGraph::cone_fingerprints`] given every procedure's own
    /// fingerprint, in declaration order.
    fn cones_over(&self, own: &[u64]) -> HashMap<String, u64> {
        assert_eq!(own.len(), self.names.len(), "one fingerprint per procedure");
        let components = self.scc_indices();
        let mut component_of = vec![0usize; self.names.len()];
        for (c, members) in components.iter().enumerate() {
            for &v in members {
                component_of[v] = c;
            }
        }
        let mut component_fp = vec![0u64; components.len()];
        let mut result = HashMap::new();
        // Reverse topological order: callee components are hashed first.
        for (c, members) in components.iter().enumerate() {
            let mut hasher = StableHasher::new();
            hasher.write_str("sil-summary-cone-v1");
            // Hash the members in name order, not declaration order, so the
            // fingerprint of a multi-procedure SCC is stable when the source
            // file reorders its procedure declarations.
            let mut member_order: Vec<usize> = members.clone();
            member_order.sort_unstable_by_key(|&v| self.names[v].as_str());
            for v in member_order {
                hasher.write_str(&self.names[v]);
                hasher.write_u64(own[v]);
            }
            let mut callee_fps: BTreeSet<u64> = BTreeSet::new();
            for &v in members {
                for &w in &self.callees[v] {
                    let target = component_of[w];
                    if target != c {
                        callee_fps.insert(component_fp[target]);
                    }
                }
            }
            for fp in callee_fps {
                hasher.write_u64(fp);
            }
            component_fp[c] = hasher.finish();
            for &v in members {
                result.insert(self.names[v].clone(), component_fp[c]);
            }
        }
        result
    }
}

/// Everything the analysis derives from a program's call graph, computed
/// once per analysis and shared by the summary pass, the cone-keyed cache
/// lookups and the interprocedural fixpoint.
#[derive(Debug, Clone)]
pub struct CallPlan {
    pub graph: CallGraph,
    /// [`CallGraph::scc_levels`]: the bottom-up schedule.
    pub levels: Vec<Vec<Vec<String>>>,
    /// [`CallGraph::cone_fingerprints`]: the cache key of every procedure.
    pub cones: HashMap<String, u64>,
}

impl CallPlan {
    pub fn of_program(program: &Program) -> CallPlan {
        let own: Vec<u64> = program
            .procedures
            .iter()
            .map(procedure_fingerprint)
            .collect();
        CallPlan::with_fingerprints(program, &own)
    }

    /// [`CallPlan::of_program`] given every procedure's
    /// [`procedure_fingerprint`] in declaration order — what
    /// [`sil_lang::hash::fingerprints`] computes beside the program's own.
    pub fn with_fingerprints(program: &Program, procedures: &[u64]) -> CallPlan {
        let graph = CallGraph::of_program(program);
        CallPlan {
            levels: graph.scc_levels(),
            cones: graph.cones_over(procedures),
            graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_lang::frontend;

    fn graph_of(src: &str) -> (CallGraph, sil_lang::Program) {
        let (program, _) = frontend(src).unwrap();
        (CallGraph::of_program(&program), program)
    }

    const DIAMOND: &str = r#"
program diamond
procedure leaf_a(t: handle)
begin
  t.value := 1
end
procedure leaf_b(t: handle)
begin
  t.value := 2
end
procedure mid(t: handle)
begin
  leaf_a(t);
  leaf_b(t)
end
procedure main()
  root: handle
begin
  root := new();
  mid(root);
  leaf_a(root)
end
"#;

    const MUTUAL: &str = r#"
program mutual
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

    #[test]
    fn edges_cover_calls_and_function_assignments() {
        let (graph, _) = graph_of(sil_lang::testsrc::ADD_AND_REVERSE);
        let main_callees = graph.callees_of("main");
        assert!(main_callees.contains(&"add_n"), "{main_callees:?}");
        assert!(main_callees.contains(&"reverse"));
        // build is called through a function assignment `root := build(i)`
        assert!(main_callees.contains(&"build"));
        assert_eq!(graph.callees_of("add_n"), vec!["add_n"]);
    }

    #[test]
    fn sccs_come_out_bottom_up() {
        let (graph, _) = graph_of(DIAMOND);
        let sccs = graph.sccs();
        let position = |name: &str| {
            sccs.iter()
                .position(|c| c.iter().any(|n| n == name))
                .unwrap()
        };
        assert!(position("leaf_a") < position("mid"));
        assert!(position("leaf_b") < position("mid"));
        assert!(position("mid") < position("main"));
        assert_eq!(sccs.len(), 4, "four singleton SCCs: {sccs:?}");
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        let (graph, _) = graph_of(MUTUAL);
        let sccs = graph.sccs();
        let even_odd = sccs.iter().find(|c| c.iter().any(|n| n == "even")).unwrap();
        assert_eq!(even_odd.len(), 2, "{sccs:?}");
        assert!(even_odd.iter().any(|n| n == "odd"));
    }

    #[test]
    fn levels_are_a_valid_parallel_schedule() {
        let (graph, _) = graph_of(DIAMOND);
        let levels = graph.scc_levels();
        assert_eq!(levels.len(), 3, "{levels:?}");
        // level 0: both leaves, independent of each other
        assert_eq!(levels[0].len(), 2);
        // every SCC only calls into strictly earlier levels
        for (k, level) in levels.iter().enumerate() {
            for scc in level {
                for proc in scc {
                    for callee in graph.callees_of(proc) {
                        if scc.iter().any(|n| n == callee) {
                            continue;
                        }
                        let callee_level = levels
                            .iter()
                            .position(|l| l.iter().any(|c| c.iter().any(|n| n == callee)))
                            .unwrap();
                        assert!(callee_level < k, "{proc} -> {callee}");
                    }
                }
            }
        }
    }

    #[test]
    fn cone_fingerprints_are_content_addressed() {
        let (graph, program) = graph_of(DIAMOND);
        let fps = graph.cone_fingerprints(&program);
        assert_eq!(fps.len(), 4);

        // Changing a leaf changes every cone above it but not its sibling.
        let changed_src = DIAMOND.replace("t.value := 1", "t.value := 9");
        let (changed_graph, changed_program) = graph_of(&changed_src);
        let changed = changed_graph.cone_fingerprints(&changed_program);
        assert_ne!(fps["leaf_a"], changed["leaf_a"]);
        assert_ne!(fps["mid"], changed["mid"]);
        assert_ne!(fps["main"], changed["main"]);
        assert_eq!(fps["leaf_b"], changed["leaf_b"]);
    }

    #[test]
    fn mutually_recursive_procedures_share_a_cone() {
        let (graph, program) = graph_of(MUTUAL);
        let fps = graph.cone_fingerprints(&program);
        assert_eq!(fps["even"], fps["odd"]);
        assert_ne!(fps["even"], fps["main"]);
    }

    /// A mutual pair that sits above a shared leaf, plus a self-recursive
    /// procedure and a procedure unreachable from `main`.
    const LAYERED: &str = r#"
program layered
procedure leaf(t: handle)
begin
  t.value := 1
end
procedure ping(t: handle)
  l: handle
begin
  if t <> nil then
  begin
    leaf(t);
    l := t.left;
    pong(l)
  end
end
procedure pong(t: handle)
  r: handle
begin
  if t <> nil then
  begin
    r := t.right;
    ping(r)
  end
end
procedure spin(t: handle)
  l: handle
begin
  if t <> nil then
  begin
    l := t.left;
    spin(l)
  end
end
procedure orphan(t: handle)
begin
  leaf(t)
end
procedure main()
  root: handle
begin
  root := new();
  ping(root);
  spin(root)
end
"#;

    /// LAYERED with its procedure declarations permuted (same program).
    fn reorder_procedures(src: &str, order: &[&str]) -> String {
        let (program, _) = frontend(src).unwrap();
        let mut reordered = program.clone();
        reordered.procedures = order
            .iter()
            .map(|n| program.procedure(n).unwrap().clone())
            .collect();
        sil_lang::pretty::pretty_program(&reordered)
    }

    #[test]
    fn self_recursive_scc_is_a_singleton_with_a_self_edge() {
        let (graph, _) = graph_of(LAYERED);
        let sccs = graph.sccs();
        let spin = sccs.iter().find(|c| c.iter().any(|n| n == "spin")).unwrap();
        assert_eq!(spin.len(), 1, "self recursion stays a singleton: {sccs:?}");
        assert_eq!(graph.callees_of("spin"), vec!["spin"]);
    }

    #[test]
    fn mutual_pair_spans_a_level_above_its_shared_leaf() {
        let (graph, _) = graph_of(LAYERED);
        let levels = graph.scc_levels();
        let level_of = |name: &str| {
            levels
                .iter()
                .position(|l| l.iter().any(|c| c.iter().any(|n| n == name)))
                .unwrap()
        };
        // ping/pong are one SCC strictly above leaf, and main above them.
        assert_eq!(level_of("ping"), level_of("pong"));
        assert!(level_of("ping") > level_of("leaf"));
        assert!(level_of("main") > level_of("ping"));
        // orphan is unreachable from main but still scheduled above leaf.
        assert!(level_of("orphan") > level_of("leaf"));
    }

    #[test]
    fn unreachable_procedures_still_get_cones() {
        let (graph, program) = graph_of(LAYERED);
        let fps = graph.cone_fingerprints(&program);
        assert!(fps.contains_key("orphan"));
        // orphan's cone covers leaf, so editing leaf changes orphan's cone…
        let changed_src = LAYERED.replace("t.value := 1", "t.value := 2");
        let (cg, cp) = graph_of(&changed_src);
        let changed = cg.cone_fingerprints(&cp);
        assert_ne!(fps["orphan"], changed["orphan"]);
        // …while editing orphan itself leaves every reachable cone alone.
        let orphan_src = LAYERED.replace(
            "  leaf(t)\nend\nprocedure main",
            "  leaf(t);\n  leaf(t)\nend\nprocedure main",
        );
        let (og, op) = graph_of(&orphan_src);
        assert_eq!(op.procedures.len(), 6, "edit applied to orphan");
        let orphaned = og.cone_fingerprints(&op);
        for name in ["main", "ping", "pong", "spin", "leaf"] {
            assert_eq!(fps[name], orphaned[name], "{name} cone must not move");
        }
        assert_ne!(fps["orphan"], orphaned["orphan"]);
    }

    #[test]
    fn cone_fingerprints_are_stable_under_procedure_reordering() {
        let (graph, program) = graph_of(LAYERED);
        let fps = graph.cone_fingerprints(&program);
        for order in [
            ["main", "orphan", "spin", "pong", "ping", "leaf"],
            ["pong", "ping", "main", "leaf", "orphan", "spin"],
        ] {
            let shuffled = reorder_procedures(LAYERED, &order);
            let (g, p) = graph_of(&shuffled);
            let got = g.cone_fingerprints(&p);
            for (name, fp) in &fps {
                assert_eq!(got[name], *fp, "{name} cone moved under order {order:?}");
            }
        }
        // The mutual pair is the interesting case: its SCC has two members
        // whose declaration order flips between the two orders above.
        assert_eq!(fps["ping"], fps["pong"]);
    }
}
