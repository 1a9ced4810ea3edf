//! # sil-analysis
//!
//! The path-matrix interference analysis of Hendren & Nicolau,
//! *Parallelizing Programs with Recursive Data Structures* (1989) — the
//! paper's core contribution.
//!
//! The crate is organised around the paper's sections:
//!
//! * [`state`] — the abstract state at a program point: a
//!   [`sil_pathmatrix::PathMatrix`] over the live handles plus the structural
//!   classification (TREE / DAG / possibly cyclic) and the bookkeeping needed
//!   to detect when updates break it,
//! * [`transfer`] — the analysis functions for every basic handle statement
//!   (§4, Figure 2), conditionals and `while` loops with the iterative
//!   approximation (§4, Figure 3),
//! * [`summary`] — procedure summaries: read-only vs. update handle
//!   arguments (value vs. structural updates), and function-result
//!   relationships,
//! * [`interproc`] — the interprocedural analysis with the symbolic handles
//!   `h*` / `h**` of Figure 7, and the whole-program driver,
//! * [`callgraph`] — the static call graph, its SCC condensation, the
//!   level schedule the engine parallelizes over, and the content-addressed
//!   cone fingerprints that key the engine's retained walk records,
//! * [`interference`] — locations, the alias function, read/write sets
//!   (Figure 5), interference sets between basic statements (§5.1) and
//!   between procedure calls (§5.2),
//! * [`sequences`] — relative locations and interference between statement
//!   sequences (§5.3, Figures 9 and 10).
//!
//! ## Quick example
//!
//! ```
//! use sil_lang::frontend;
//! use sil_analysis::analyze_program;
//!
//! let (program, types) = frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
//! let analysis = analyze_program(&program, &types);
//!
//! // At program point A of Figure 7, lside and rside are unrelated, so the
//! // two add_n calls may run in parallel.
//! let main = analysis.procedure("main").unwrap();
//! let point_a = main.state_before_call("add_n", 0).unwrap();
//! assert!(point_a.matrix.unrelated("lside", "rside"));
//! ```

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod interference;
pub mod interproc;
pub mod sequences;
pub mod state;
pub mod summary;
pub mod transfer;

pub use callgraph::{CallGraph, CallPlan};
pub use interference::{
    call_call_interference, call_stmt_interference, interference_set, locations_of_call, read_set,
    statements_independent, write_set, Location, LocationKind,
};
pub use interproc::{
    analyze_program, analyze_program_planned, analyze_program_recording,
    analyze_program_with_summaries, AnalysisResult, AnalysisSnapshot, AnalyzeOptions,
    IncrementalStats, ProcedureAnalysis, ProgramPoint, WalkRecord,
};
pub use sequences::{
    relative_interference, relative_read_set, relative_write_set, sequences_independent,
    RelativeLocation,
};
pub use state::{AbstractState, HandleSet, StructureKind, StructureWarning};
pub use summary::{compute_scc_summaries, compute_summaries, ArgMode, ProcSummary, ReturnSummary};
pub use transfer::{transfer_stmt, Analyzer};
