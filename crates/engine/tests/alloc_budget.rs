//! The allocation budgets of a cold analysis and of a cold request.
//!
//! A counting global allocator counts the allocator calls that hand out
//! memory (`alloc`, `alloc_zeroed`, `realloc`) on the calling thread only,
//! so tests running beside each other in this binary cannot add to one
//! another's counts.  Each of the ten workloads, at the size-6 templates
//! the benchmark's `cold_unique` renames, is analyzed once from its parsed
//! program — summaries, fixpoint and result assembly, everything
//! `analyze_program` does — and its count is held to a budget: the count
//! measured when the budget was set, plus 10 %.  A change that makes a
//! cold walk allocate more fails here rather than in a benchmark run.
//! The whole request is budgeted too: `Engine::serve` of an `analyze`
//! request for a never-seen renaming of each template, which adds the
//! front end, the fingerprints, the call plan, the digest and the store
//! insert to the analysis.
//!
//! The analysis interns handle names in a process-wide table the first
//! time it meets them, so each program is analyzed once before it is
//! counted: the count is what every later cold analysis of a program over
//! known names pays, whichever test ran first.  Debug builds re-walk every
//! body the fixpoint skips (to check the walk memo), so they pay more and
//! have budgets of their own.

use sil_analysis::{analyze_program, analyze_program_recording, compute_summaries};
use sil_engine::service::{Request, Response};
use sil_engine::{Engine, EngineConfig};
use sil_lang::frontend;
use sil_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialized `Cell` has no destructor, so this neither
    // allocates nor fails while the thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter bump before it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // this allocator (so from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract: `ptr` came from
        // this allocator (so from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocator calls `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Allocations of one cold `analyze_program` of each workload's size-6
/// program, measured when the budget was set: (workload, release, debug).
const MEASURED: [(&str, u64, u64); 10] = [
    ("add_and_reverse", 1526, 1879),
    ("leftmost", 547, 616),
    ("tree_sum", 767, 956),
    ("tree_height", 780, 973),
    ("tree_mirror", 993, 1183),
    ("treeadd", 786, 983),
    ("bst_insert", 2268, 2732),
    ("bisort", 4295, 5887),
    ("list_sum", 745, 1099),
    ("list_reverse", 1538, 1637),
];

/// Allocations of one `Engine::serve` of an `analyze` request for a
/// never-seen renaming of each workload's size-6 program, measured when the
/// budget was set: (workload, release, debug).
const MEASURED_REQUESTS: [(&str, u64, u64); 10] = [
    ("add_and_reverse", 2269, 2634),
    ("leftmost", 886, 964),
    ("tree_sum", 1127, 1305),
    ("tree_height", 1158, 1340),
    ("tree_mirror", 1306, 1477),
    ("treeadd", 1156, 1342),
    ("bst_insert", 3061, 3545),
    ("bisort", 6127, 7719),
    ("list_sum", 1132, 1493),
    ("list_reverse", 1941, 2040),
];

/// Hold `count` to its measured count plus 10 %, noting an overrun in
/// `over`.
fn check_budget(over: &mut Vec<String>, measured: &[(&str, u64, u64)], name: &str, count: u64) {
    let &(_, release, debug) = measured
        .iter()
        .find(|(workload, ..)| *workload == name)
        .expect("every workload has a budget");
    let measured = if cfg!(debug_assertions) {
        debug
    } else {
        release
    };
    let budget = measured + measured / 10;
    eprintln!("{name:<16} {count:>6} allocations (measured {measured}, budget {budget})");
    if count > budget {
        over.push(format!("{name}: {count} > {budget}"));
    }
}

#[test]
fn cold_request_stays_within_its_allocation_budget() {
    let engine = Engine::new(EngineConfig::default());
    let mut over = Vec::new();
    for workload in Workload::ALL {
        // A first never-seen request warms whatever the engine builds on
        // first use; the second is counted.
        for (tag, counted) in [("_warm", false), ("_counted", true)] {
            let request = Request::analyze(workload.renamed_source(6, tag));
            let (count, response) = allocations(|| engine.serve(request));
            match response {
                Response::Analyzed { summary, .. } => assert!(!summary.cache_hit),
                other => panic!("{}: {other:?}", workload.name()),
            }
            if counted {
                check_budget(&mut over, &MEASURED_REQUESTS, workload.name(), count);
            }
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}

#[test]
fn cold_analysis_stays_within_its_allocation_budget() {
    let mut over = Vec::new();
    for workload in Workload::ALL {
        let (program, types) = frontend(&workload.source(6)).expect("workload parses");
        let warm_up = analyze_program(&program, &types);
        let (count, result) = allocations(|| analyze_program(&program, &types));
        assert_eq!(result.digest(), warm_up.digest(), "{}", workload.name());
        check_budget(&mut over, &MEASURED, workload.name(), count);
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}

/// Point texts are rendered on a procedure's first walk of an analysis and
/// shared by its later walks, which reuse them by point index.
#[test]
fn walks_of_one_procedure_share_their_point_texts() {
    let (program, types) = frontend(&Workload::AddAndReverse.source(6)).expect("parses");
    let summaries = compute_summaries(&program, &types);
    let (result, snapshot, _) = analyze_program_recording(&program, &types, summaries);
    let add_n: Vec<_> = snapshot
        .records()
        .filter(|record| record.procedure == "add_n")
        .collect();
    assert!(add_n.len() >= 2, "add_n is walked under several entries");
    let last = &result.procedure("add_n").expect("add_n analyzed").points;
    for record in add_n {
        let points = record.points();
        assert_eq!(points.len(), last.len());
        for (a, b) in points.iter().zip(last.iter()) {
            assert!(Arc::ptr_eq(&a.statement, &b.statement), "{}", a.label);
            assert!(Arc::ptr_eq(&a.label, &b.label), "{}", a.label);
        }
    }
}
