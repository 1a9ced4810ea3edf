//! Regeneration of the paper's figures (2–10 in `repro --list`).
//!
//! Each function returns a human-readable rendering of the corresponding
//! artifact; `repro --figure <n>` prints one for comparison against the
//! figure in the paper.

use sil_analysis::interference::{interference_set, read_set, write_set};
use sil_analysis::sequences::relative_interference;
use sil_analysis::state::AbstractState;
use sil_analysis::transfer::{transfer_stmt, Analyzer};
use sil_analysis::{analyze_program, sequences_independent};
use sil_lang::ast::Stmt;
use sil_lang::parser::parse_stmt;
use sil_lang::pretty::{pretty_program, pretty_stmt};
use sil_lang::types::{ProcSignature, Type};
use sil_lang::{frontend, testsrc};
use sil_parallelizer::{parallelize_program, verify_parallel_program};
use sil_pathmatrix::{at_least, exact, Certainty, Dir, Link, Path, PathSet};
use std::collections::HashMap;
use std::fmt::Write as _;

fn demo_signature(handles: &[&str], ints: &[&str]) -> ProcSignature {
    let mut vars = HashMap::new();
    for h in handles {
        vars.insert(h.to_string(), Type::Handle);
    }
    for i in ints {
        vars.insert(i.to_string(), Type::Int);
    }
    ProcSignature {
        name: "figure".into(),
        params: vec![],
        return_type: None,
        vars,
    }
}

/// The initial path matrix of Figure 2(a).
pub fn figure_2_initial_state() -> AbstractState {
    let mut state = AbstractState::with_handles(["a", "b", "c"]);
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
    state
}

/// Figure 2: the effect of `d := a.right` and `e := d.left` on the path
/// matrix of Figure 2(a).
pub fn figure_2_handle_assignments() -> String {
    let sig = demo_signature(&["a", "b", "c", "d", "e"], &[]);
    let mut out = String::new();
    let mut warnings = Vec::new();
    let state_a = figure_2_initial_state();
    writeln!(out, "(a) initial path matrix").unwrap();
    writeln!(out, "{}", state_a.matrix.render()).unwrap();

    let stmt_b = parse_stmt("d := a.right").unwrap();
    let state_b = transfer_stmt(&state_a, &stmt_b, &sig, &mut warnings);
    writeln!(out, "(b) after statement: d := a.right").unwrap();
    writeln!(out, "{}", state_b.matrix.render()).unwrap();

    let stmt_c = parse_stmt("e := d.left").unwrap();
    let state_c = transfer_stmt(&state_b, &stmt_c, &sig, &mut warnings);
    writeln!(out, "(c) after statement: e := d.left").unwrap();
    writeln!(out, "{}", state_c.matrix.render()).unwrap();
    out
}

/// Figure 3: the iterative approximation for the leftmost-node loop, showing
/// each iterate `p0, p1, ...` until the fixpoint.
pub fn figure_3_while_loop() -> String {
    let sig = demo_signature(&["h", "l"], &[]);
    let mut out = String::new();
    let mut warnings = Vec::new();

    // p0: after `l := h`
    let entry = AbstractState::with_handles(["h", "l"]);
    let assign = parse_stmt("l := h").unwrap();
    let p0 = transfer_stmt(&entry, &assign, &sig, &mut warnings);
    writeln!(out, "p0 (zero iterations, after l := h)").unwrap();
    writeln!(out, "{}", p0.matrix.render()).unwrap();

    // iterate the loop body, joining as the analysis does
    let body = parse_stmt("l := l.left").unwrap();
    let mut current = p0.clone();
    for i in 1..=6 {
        let after = transfer_stmt(&current, &body, &sig, &mut warnings);
        let next = current.join(&after);
        writeln!(out, "p{i} (join after {i} more iteration(s))").unwrap();
        writeln!(out, "{}", next.matrix.render()).unwrap();
        if next.same_as(&current) {
            writeln!(out, "fixpoint reached: p{i} = p+\n").unwrap();
            break;
        }
        current = next;
    }
    out
}

/// Figure 4: transforming a run of sequential statements into one parallel
/// statement.
pub fn figure_4_statement_packing() -> String {
    let (program, types) = frontend(testsrc::STRAIGHT_LINE).unwrap();
    let (parallel, report) = parallelize_program(&program, &types);
    let mut out = String::new();
    writeln!(out, "--- sequential input ---").unwrap();
    writeln!(out, "{}", pretty_program(&program)).unwrap();
    writeln!(out, "--- packed output ---").unwrap();
    writeln!(out, "{}", pretty_program(&parallel)).unwrap();
    writeln!(out, "--- transformations ---").unwrap();
    writeln!(out, "{report}").unwrap();
    out
}

/// Figure 5: the read and write sets of every basic statement form, computed
/// against a small matrix where `a` and `b` are aliases.
pub fn figure_5_read_write_sets() -> String {
    let sig = demo_signature(&["a", "b"], &["x"]);
    let mut state = AbstractState::with_handles(["a", "b"]);
    state
        .matrix
        .set("a", "b", PathSet::singleton(sil_pathmatrix::same()));
    state
        .matrix
        .set("b", "a", PathSet::singleton(sil_pathmatrix::same()));
    let statements = [
        "a := nil",
        "a := new()",
        "a := b",
        "a := b.left",
        "a.left := b",
        "x := a.value",
        "a.value := x",
    ];
    let mut out = String::new();
    writeln!(out, "{:<18} {:<38} write set", "statement", "read set").unwrap();
    for src in statements {
        let stmt = parse_stmt(src).unwrap();
        let r: Vec<String> = read_set(&stmt, &sig, &state.matrix)
            .iter()
            .map(|l| l.to_string())
            .collect();
        let w: Vec<String> = write_set(&stmt, &sig, &state.matrix)
            .iter()
            .map(|l| l.to_string())
            .collect();
        writeln!(
            out,
            "{:<18} {{{:<36}}} {{{}}}",
            src,
            r.join(", "),
            w.join(", ")
        )
        .unwrap();
    }
    out
}

/// Figure 6: the three worked interference examples.
pub fn figure_6_interference_examples() -> String {
    let sig = demo_signature(&["a", "b", "c", "d"], &["x", "y", "n"]);
    // the matrix drawn at the top of Figure 6
    let mut state = AbstractState::with_handles(["a", "b", "c", "d"]);
    state
        .matrix
        .set("a", "b", PathSet::singleton(sil_pathmatrix::same()));
    state
        .matrix
        .set("b", "a", PathSet::singleton(sil_pathmatrix::same()));
    state
        .matrix
        .set("a", "d", PathSet::singleton(at_least(Dir::Down, 1)));
    state
        .matrix
        .set("b", "d", PathSet::singleton(at_least(Dir::Down, 1)));
    state.matrix.set(
        "c",
        "d",
        PathSet::from_paths(vec![
            sil_pathmatrix::same().weakened(),
            at_least(Dir::Right, 1).weakened(),
        ]),
    );
    state.matrix.set(
        "d",
        "c",
        PathSet::singleton(sil_pathmatrix::same().weakened()),
    );

    let examples = [
        ("Example 1", "x := a.left", "y := x"),
        ("Example 2", "x := a.left", "b.left := nil"),
        ("Example 3", "n := d.value", "c.value := 0"),
    ];
    let mut out = String::new();
    writeln!(out, "path matrix:").unwrap();
    writeln!(out, "{}", state.matrix.render()).unwrap();
    for (label, s1, s2) in examples {
        let st1 = parse_stmt(s1).unwrap();
        let st2 = parse_stmt(s2).unwrap();
        let interference = interference_set(&st1, &st2, &sig, &state.matrix);
        let locs: Vec<String> = interference.iter().map(|l| l.to_string()).collect();
        writeln!(
            out,
            "{label}: s1 = `{s1}`, s2 = `{s2}`  =>  I(s1,s2,p) = {{{}}}",
            locs.join(", ")
        )
        .unwrap();
    }
    out
}

/// Figure 7: the path matrices pA (program point A in `main`) and pB
/// (program point B in `add_n`) for the `add_and_reverse` program, as
/// computed by the full interprocedural analysis.
pub fn figure_7_path_matrices() -> String {
    let (program, types) = frontend(testsrc::ADD_AND_REVERSE).unwrap();
    let analysis = analyze_program(&program, &types);
    let mut out = String::new();

    let main = analysis.procedure("main").expect("main analyzed");
    let point_a = main.state_before_call("add_n", 0).expect("point A exists");
    writeln!(
        out,
        "pA — program point A in main (before add_n(lside, 1)):"
    )
    .unwrap();
    writeln!(out, "{}", point_a.matrix.render()).unwrap();
    writeln!(
        out,
        "lside and rside unrelated: {}\n",
        point_a.matrix.unrelated("lside", "rside")
    )
    .unwrap();

    let add_n = analysis.procedure("add_n").expect("add_n analyzed");
    let point_b = add_n.state_before_call("add_n", 0).expect("point B exists");
    writeln!(
        out,
        "pB — program point B in add_n (before the recursive calls):"
    )
    .unwrap();
    writeln!(out, "{}", point_b.matrix.render()).unwrap();
    writeln!(
        out,
        "l and r unrelated: {}\n",
        point_b.matrix.unrelated("l", "r")
    )
    .unwrap();

    let reverse = analysis.procedure("reverse").expect("reverse analyzed");
    let point_c = reverse
        .state_before_call("reverse", 0)
        .expect("point C exists");
    writeln!(
        out,
        "pC — program point C in reverse (before the recursive calls):"
    )
    .unwrap();
    writeln!(out, "{}", point_c.matrix.render()).unwrap();
    writeln!(
        out,
        "l and r unrelated: {}",
        point_c.matrix.unrelated("l", "r")
    )
    .unwrap();
    out
}

/// Figure 8: the automatically parallelized `add_and_reverse` program plus
/// the transformation report and the verification result.
pub fn figure_8_parallel_program() -> String {
    let (program, types) = frontend(testsrc::ADD_AND_REVERSE).unwrap();
    let (parallel, report) = parallelize_program(&program, &types);
    let printed = pretty_program(&parallel);
    let (reparsed, retypes) = frontend(&printed).expect("output reparses");
    let violations = verify_parallel_program(&reparsed, &retypes);
    let mut out = String::new();
    writeln!(out, "{printed}").unwrap();
    writeln!(out, "--- transformations ---").unwrap();
    writeln!(out, "{report}").unwrap();
    writeln!(
        out,
        "--- re-verification: {} violation(s) ---",
        violations.len()
    )
    .unwrap();
    out
}

/// Figure 9 / §5.3: interference between two statement sequences operating
/// on the two subtrees of the same tree.
pub fn figure_9_sequence_interference() -> String {
    let sig = demo_signature(&["t", "a", "b"], &["x", "y"]);
    let entry = AbstractState::with_handles(["t"]);
    let parse_seq =
        |srcs: &[&str]| -> Vec<Stmt> { srcs.iter().map(|s| parse_stmt(s).unwrap()).collect() };
    let independent_u = parse_seq(&["a := t.left", "x := a.value", "a.value := x + 1"]);
    let independent_v = parse_seq(&["b := t.right", "y := b.value", "b.value := y + 1"]);
    let conflicting_v = parse_seq(&["b := t.left", "y := b.value", "b.value := y + 1"]);

    let mut out = String::new();
    writeln!(
        out,
        "U = {}",
        independent_u
            .iter()
            .map(pretty_stmt)
            .collect::<Vec<_>>()
            .join("; ")
    )
    .unwrap();
    writeln!(
        out,
        "V = {}",
        independent_v
            .iter()
            .map(pretty_stmt)
            .collect::<Vec<_>>()
            .join("; ")
    )
    .unwrap();
    writeln!(
        out,
        "U || V safe (disjoint subtrees): {}",
        sequences_independent(&independent_u, &independent_v, &entry, &sig)
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "V' = {}",
        conflicting_v
            .iter()
            .map(pretty_stmt)
            .collect::<Vec<_>>()
            .join("; ")
    )
    .unwrap();
    let conflicts = relative_interference(&independent_u, &conflicting_v, &entry, &sig);
    writeln!(
        out,
        "U || V' safe: {}",
        sequences_independent(&independent_u, &conflicting_v, &entry, &sig)
    )
    .unwrap();
    for c in conflicts {
        writeln!(out, "  conflict: {c}").unwrap();
    }
    out
}

/// Figure 10: the relative read/write sets of the basic statement forms.
pub fn figure_10_relative_sets() -> String {
    use sil_analysis::sequences::{relative_read_set, relative_write_set};
    let sig = demo_signature(&["t", "a", "b"], &["x"]);
    let mut state = AbstractState::with_handles(["t", "a", "b"]);
    state
        .matrix
        .set("t", "a", PathSet::singleton(exact(Dir::Left, 1)));
    state
        .matrix
        .set("t", "b", PathSet::singleton(exact(Dir::Right, 1)));
    let live: std::collections::BTreeSet<String> = ["t".to_string()].into_iter().collect();
    let statements = [
        "a := nil",
        "a := new()",
        "a := b",
        "a := b.left",
        "a.left := b",
        "x := a.value",
        "a.value := x",
    ];
    let mut out = String::new();
    writeln!(out, "L = {{t}}   (t -> a = L1, t -> b = R1)").unwrap();
    for src in statements {
        let stmt = parse_stmt(src).unwrap();
        let r: Vec<String> = relative_read_set(&stmt, &sig, &state.matrix, &live)
            .iter()
            .map(|l| l.to_string())
            .collect();
        let w: Vec<String> = relative_write_set(&stmt, &sig, &state.matrix, &live)
            .iter()
            .map(|l| l.to_string())
            .collect();
        writeln!(out, "{src:<14} R^r = {{{}}}", r.join(", ")).unwrap();
        writeln!(out, "{:<14} W^r = {{{}}}", "", w.join(", ")).unwrap();
    }
    out
}

/// Convenience: the whole-program analysis of Figure 7, exposed for the
/// benchmarks.
pub fn analyze_add_and_reverse() -> sil_analysis::AnalysisResult {
    let (program, types) = frontend(testsrc::ADD_AND_REVERSE).unwrap();
    analyze_program(&program, &types)
}

/// Convenience used by the benches: the analyzer-level transfer of the
/// Figure 2 statements.
pub fn run_figure_2_transfers() -> AbstractState {
    let sig = demo_signature(&["a", "b", "c", "d", "e"], &[]);
    let mut warnings = Vec::new();
    let state = figure_2_initial_state();
    let s1 = parse_stmt("d := a.right").unwrap();
    let s2 = parse_stmt("e := d.left").unwrap();
    let state = transfer_stmt(&state, &s1, &sig, &mut warnings);
    transfer_stmt(&state, &s2, &sig, &mut warnings)
}

/// Convenience used by the benches: a full while-loop fixpoint.
pub fn run_figure_3_fixpoint() -> AbstractState {
    let (program, types) = frontend(testsrc::LEFTMOST_LOOP).unwrap();
    let analyzer = Analyzer::new(&program, &types);
    let sig = types.proc("main").unwrap();
    let mut warnings = Vec::new();
    let state = AbstractState::with_handles(["h", "l"]);
    let body = parse_stmt("begin l := h; while l.left <> nil do l := l.left end").unwrap();
    analyzer.transfer(&state, &body, sig, &mut warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_output_matches_paper_entries() {
        let out = figure_2_handle_assignments();
        assert!(out.contains("R1"), "{out}");
        assert!(out.contains("D+"), "{out}");
        assert!(out.contains("S?,D+?"), "{out}");
        assert!(out.contains("L3+"), "{out}");
    }

    #[test]
    fn figure_3_reaches_fixpoint() {
        let out = figure_3_while_loop();
        assert!(out.contains("fixpoint reached"), "{out}");
        assert!(out.contains("L+?"), "{out}");
    }

    #[test]
    fn figure_4_packs_something() {
        let out = figure_4_statement_packing();
        assert!(out.contains("||"), "{out}");
    }

    #[test]
    fn figure_5_lists_all_statement_forms() {
        let out = figure_5_read_write_sets();
        assert!(out.contains("a := new()"));
        assert!(out.contains("(a,left)"), "{out}");
        assert!(out.contains("(b,left)"), "aliasing must show up: {out}");
    }

    #[test]
    fn figure_6_reports_expected_interference() {
        let out = figure_6_interference_examples();
        assert!(out.contains("Example 1"));
        assert!(out.contains("(x,var)"), "{out}");
        assert!(out.contains("(c,value)"), "{out}");
    }

    #[test]
    fn figure_7_shows_unrelated_subtrees() {
        let out = figure_7_path_matrices();
        assert!(out.contains("pA"));
        assert!(out.contains("pB"));
        assert!(out.matches("unrelated: true").count() >= 3, "{out}");
    }

    #[test]
    fn figure_8_matches_paper_output() {
        let out = figure_8_parallel_program();
        assert!(out.contains("add_n(l, n) || add_n(r, n)"), "{out}");
        assert!(out.contains("h.left := r || h.right := l"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
    }

    #[test]
    fn figure_9_distinguishes_safe_and_unsafe() {
        let out = figure_9_sequence_interference();
        assert!(out.contains("safe (disjoint subtrees): true"), "{out}");
        assert!(out.contains("U || V' safe: false"), "{out}");
        assert!(out.contains("conflict:"), "{out}");
    }

    #[test]
    fn figure_10_shows_relative_locations() {
        let out = figure_10_relative_sets();
        assert!(
            out.contains("(t,left,L1)") || out.contains("(t,left,S)"),
            "{out}"
        );
        assert!(out.contains("W^r"), "{out}");
    }
}
