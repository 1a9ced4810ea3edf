//! # sil-parallelizer
//!
//! Analysis-driven parallelization of SIL programs — the third prong of
//! Hendren & Nicolau (1989), Section 5.
//!
//! Three transformations are provided, all driven by the path-matrix
//! interference analysis in [`sil_analysis`]:
//!
//! * [`packing`] — §5.1/§5.2: group consecutive non-interfering statements
//!   (including procedure calls) into a single parallel statement
//!   `s1 || s2 || ... || sn` (Figure 4).  Applied to the paper's
//!   `add_and_reverse` program this produces exactly the parallel program of
//!   Figure 8.
//! * [`split`] — §5.3: split a sequence `U; V` into `U || V` when the
//!   relative interference set is empty (Figure 9).
//! * [`verify`] — the "debugging parallel programs" use of the analysis
//!   (§1): check every explicit parallel statement of a program against the
//!   interference analysis and report the unsafe ones.
//!
//! The top-level entry point [`parallelize_program`] runs the packing pass
//! over every procedure and returns the transformed program together with a
//! [`report::TransformReport`] describing every transformation performed and
//! the evidence (empty interference sets, unrelated handle arguments) that
//! justified it.

#![forbid(unsafe_code)]

pub mod packing;
pub mod report;
pub mod split;
pub mod verify;

pub use packing::{pack_program, pack_program_with_analysis, PackOptions};
pub use report::{TransformKind, TransformRecord, TransformReport};
pub use split::split_program;
pub use verify::{verify_parallel_program, ParViolation};

use sil_lang::ast::Program;
use sil_lang::types::ProgramTypes;

/// Parallelize a (normalized, type-checked) program with the default
/// pipeline: statement/call packing in every procedure.
///
/// ```
/// use sil_lang::frontend;
/// use sil_parallelizer::parallelize_program;
///
/// let (program, types) = frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
/// let (parallel, report) = parallelize_program(&program, &types);
/// assert!(parallel.procedure("add_n").unwrap().body.has_par());
/// assert!(!report.records.is_empty());
/// ```
pub fn parallelize_program(program: &Program, types: &ProgramTypes) -> (Program, TransformReport) {
    pack_program(program, types, &PackOptions::default())
}
