//! Whole-pipeline integration tests: parse → analyze → parallelize → verify
//! → execute (sequential, deterministic-parallel, rayon-parallel) → compare,
//! for every workload in the library.

use sil_parallel::prelude::*;
use sil_parallel::runtime::NodeSnapshot;
use sil_parallel::workloads::native;

/// Run a program on the deterministic interpreter and return the outcome and
/// a snapshot of the given root variable.
fn run_and_snapshot(
    src: &str,
    root_var: &str,
    detect_races: bool,
) -> (sil_parallel::runtime::Outcome, Option<NodeSnapshot>) {
    let (program, types) = frontend(src).unwrap();
    let config = RunConfig {
        detect_races,
        store_capacity: 1 << 18,
        ..RunConfig::default()
    };
    let mut interp = Interpreter::with_config(&program, &types, config);
    let outcome = interp.run().expect("program runs");
    let snapshot = interp.snapshot_of(&outcome, root_var);
    (outcome, snapshot)
}

/// Parallelize a program and return the pretty-printed result.
fn parallelized_source(src: &str) -> (String, TransformReport) {
    let (program, types) = frontend(src).unwrap();
    let (parallel, report) = parallelize_program(&program, &types);
    (pretty_program(&parallel), report)
}

#[test]
fn every_workload_survives_the_full_pipeline() {
    for workload in Workload::ALL {
        let size = workload.test_size();
        let src = workload.source(size);

        // analysis terminates and classifies the heap
        let (program, types) = frontend(&src).unwrap();
        let analysis = analyze_program(&program, &types);
        assert!(
            analysis.rounds < 16,
            "{}: analysis did not converge quickly",
            workload.name()
        );

        // parallelization produces a valid program
        let (par_src, _report) = parallelized_source(&src);
        let (par_program, par_types) =
            frontend(&par_src).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));

        // the parallelized program passes the static verifier
        let violations = verify_parallel_program(&par_program, &par_types);
        assert!(
            violations.is_empty(),
            "{}: parallelizer output failed verification: {:?}",
            workload.name(),
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );

        // both versions execute, with identical work and race-free parallel arms
        let (seq_out, seq_snap) = run_and_snapshot(&src, "root", false);
        let (par_out, par_snap) = run_and_snapshot(&par_src, "root", true);
        assert_eq!(
            seq_out.cost.work,
            par_out.cost.work,
            "{}: packing must preserve the executed statements",
            workload.name()
        );
        assert!(
            par_out.cost.span <= seq_out.cost.span,
            "{}: parallelization may never lengthen the critical path",
            workload.name()
        );
        assert!(
            par_out.races.is_empty(),
            "{}: analysis-approved parallel program raced: {:?}",
            workload.name(),
            par_out
                .races
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            seq_out.allocated_nodes,
            par_out.allocated_nodes,
            "{}: allocation count must match",
            workload.name()
        );
        // when the workload exposes a tree root, the heaps must be identical
        if let (Some(a), Some(b)) = (seq_snap, par_snap) {
            assert_eq!(a, b, "{}: heap results differ", workload.name());
        }
    }
}

#[test]
fn recursive_workloads_actually_get_shorter_spans() {
    for workload in [
        Workload::AddAndReverse,
        Workload::TreeSum,
        Workload::TreeMirror,
        Workload::TreeAdd,
        Workload::Bisort,
    ] {
        let src = workload.source(6);
        let (par_src, report) = parallelized_source(&src);
        assert!(
            report.count() > 0,
            "{}: expected some parallelism",
            workload.name()
        );
        let (seq_out, _) = run_and_snapshot(&src, "root", false);
        let (par_out, _) = run_and_snapshot(&par_src, "root", false);
        assert!(
            par_out.cost.span < seq_out.cost.span,
            "{}: span should shrink (seq {} vs par {})",
            workload.name(),
            seq_out.cost.span,
            par_out.cost.span
        );
        assert!(par_out.cost.parallelism() > 1.1, "{}", workload.name());
    }
}

#[test]
fn available_parallelism_grows_with_input_size() {
    let parallelism_at = |depth: u32| {
        let src = Workload::AddAndReverse.source(depth);
        let (par_src, _) = parallelized_source(&src);
        let (out, _) = run_and_snapshot(&par_src, "root", false);
        out.cost.parallelism()
    };
    let small = parallelism_at(4);
    let large = parallelism_at(9);
    assert!(
        large > small * 1.5,
        "parallelism should grow with the tree: {small:.2} -> {large:.2}"
    );
}

#[test]
fn rayon_execution_matches_deterministic_execution() {
    for workload in [Workload::AddAndReverse, Workload::TreeAdd, Workload::Bisort] {
        let src = workload.source(7);
        let (par_src, _) = parallelized_source(&src);
        let (program, types) = frontend(&par_src).unwrap();

        let mut det = Interpreter::new(&program, &types);
        let det_out = det.run().unwrap();
        let det_snap = det.snapshot_of(&det_out, "root").unwrap();

        let mut exec = ParallelExecutor::new(&program, &types);
        let par_out = exec.run().unwrap();
        let par_snap = exec.snapshot_of(&par_out, "root").unwrap();

        assert_eq!(det_snap, par_snap, "{}", workload.name());
        assert_eq!(det_out.allocated_nodes, par_out.allocated_nodes);
    }
}

#[test]
fn sil_bisort_agrees_with_native_bisort() {
    let depth = 6u32;
    let src = Workload::Bisort.source(depth);
    let (_, sil_snapshot) = run_and_snapshot(&src, "root", false);
    let sil_values = sil_snapshot.expect("bisort builds a tree").in_order();

    let mut native_tree = native::Tree::perfect_keyed(depth, 1);
    let _ = native::bisort_seq(&mut native_tree, 99_991, true);
    let native_values = native_tree.unwrap().in_order();

    assert_eq!(
        sil_values, native_values,
        "the SIL bisort and the native bisort must produce the same tree"
    );
}

#[test]
fn sil_tree_sum_agrees_with_native_sum() {
    let depth = 7u32;
    let src = Workload::TreeSum.source(depth);
    let (program, types) = frontend(&src).unwrap();
    let mut interp = Interpreter::new(&program, &types);
    let outcome = interp.run().unwrap();
    let total = outcome
        .main_frame
        .get("total")
        .and_then(|v| v.as_int())
        .expect("total is an int");
    let native_total = native::sum_seq(&native::Tree::perfect(depth));
    assert_eq!(total, native_total);
}

#[test]
fn sil_list_sum_agrees_with_native_list_sum() {
    let len = 24u32;
    let src = Workload::ListSum.source(len);
    let (program, types) = frontend(&src).unwrap();
    let mut interp = Interpreter::new(&program, &types);
    let outcome = interp.run().unwrap();
    let total = outcome
        .main_frame
        .get("total")
        .and_then(|v| v.as_int())
        .expect("total is an int");
    assert_eq!(total, native::list_sum_seq(&native::build_list(len)));
}

#[test]
fn sil_list_reverse_agrees_with_native_reversal() {
    let len = 24u32;
    let src = Workload::ListReverse.source(len);
    let (program, types) = frontend(&src).unwrap();
    let mut interp = Interpreter::new(&program, &types);
    let outcome = interp.run().unwrap();
    // After reversal the head is the old tail, whose value is 1.
    let check = outcome
        .main_frame
        .get("check")
        .and_then(|v| v.as_int())
        .expect("check is an int");
    let native_reversed = native::list_reverse_seq(native::build_list(len));
    assert_eq!(Some(check), native_reversed.as_ref().map(|n| n.value));
    assert_eq!(check, 1);
}

#[test]
fn structural_workloads_report_the_temporary_dag_but_end_as_trees() {
    for workload in [Workload::AddAndReverse, Workload::TreeMirror] {
        let src = workload.source(5);
        let (program, types) = frontend(&src).unwrap();
        let analysis = analyze_program(&program, &types);
        // the node swap raises a possible-DAG warning...
        assert!(
            analysis
                .warnings
                .iter()
                .any(|w| w.kind == StructureKind::PossiblyDag),
            "{}: expected the temporary DAG to be reported",
            workload.name()
        );
        // ...but main ends with a TREE again
        let main = analysis.procedure("main").unwrap();
        assert!(
            main.exit.structure.is_tree(),
            "{}: main should end with a TREE, got {}",
            workload.name(),
            main.exit.structure
        );
    }
}

#[test]
fn read_only_workloads_raise_no_structure_warnings() {
    for workload in [Workload::TreeSum, Workload::TreeHeight, Workload::Leftmost] {
        let src = workload.source(5);
        let (program, types) = frontend(&src).unwrap();
        let analysis = analyze_program(&program, &types);
        assert!(
            analysis.preserves_tree(),
            "{}: unexpected warnings {:?}",
            workload.name(),
            analysis.warnings
        );
    }
}

#[test]
fn figure_8_source_and_generated_parallelization_agree() {
    // Parallelizing the sequential Figure 7 program must yield a program
    // with the same parallel statements as the hand-written Figure 8 text.
    let (generated_src, _) = parallelized_source(sil_parallel::lang::testsrc::ADD_AND_REVERSE);
    for fragment in [
        "lside := root.left || rside := root.right",
        "add_n(lside, 1) || add_n(rside, -1)",
        "h.value := h.value + n || l := h.left || r := h.right",
        "add_n(l, n) || add_n(r, n)",
        "reverse(l) || reverse(r)",
        "h.left := r || h.right := l",
    ] {
        assert!(
            generated_src.contains(fragment),
            "missing `{fragment}` in:\n{generated_src}"
        );
    }
}

/// The engine's hit path, end to end through the service layer: the
/// 64-program golden corpus `process`ed twice by one engine.  The second
/// pass is answered entirely from the store — every analysis a
/// program hit, every parallelization a product hit — with reports equal
/// to the first pass and analysis digests equal to the pinned goldens.
#[test]
fn engine_serves_the_golden_corpus_from_its_products() {
    const GOLDEN: &str = include_str!("../crates/engine/tests/golden/digests.txt");
    let corpus: Vec<(&str, String, u64)> = GOLDEN
        .lines()
        .map(|line| {
            let (program, digest) = line.split_once(' ').expect("name@size digest");
            let (name, size) = program.split_once('@').expect("name@size");
            let workload = Workload::ALL
                .into_iter()
                .find(|w| w.name() == name)
                .unwrap_or_else(|| panic!("no workload named {name}"));
            (
                program,
                workload.source(size.parse().unwrap()),
                u64::from_str_radix(digest, 16).unwrap(),
            )
        })
        .collect();
    assert_eq!(corpus.len(), 64);

    let service = Engine::default();
    let options = ProcessOptions {
        emit_parallel_source: true,
        ..ProcessOptions::default()
    };
    let first: Vec<_> = corpus
        .iter()
        .map(|(_, src, _)| service.process_source(src, &options).unwrap())
        .collect();
    let products = || service.store_stats().products.totals;
    assert_eq!((products().hits, products().misses), (0, 64));

    for ((name, src, golden), cold) in corpus.iter().zip(first) {
        let warm = service.process_source(src, &options).unwrap();
        assert!(!cold.cache_hit && warm.cache_hit, "{name}");
        assert_eq!(warm.analysis_digest, *golden, "{name}: digest drifted");
        assert!(warm.violations.is_empty(), "{name}: {:?}", warm.violations);
        let cold_as_hit = sil_parallel::engine::ProgramReport {
            cache_hit: true,
            ..cold
        };
        assert_eq!(warm, cold_as_hit, "{name}");
    }
    assert_eq!((products().hits, products().misses), (64, 64));
    assert_eq!(service.store_stats().programs.totals.hits, 64);
}
