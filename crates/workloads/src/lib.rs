//! # sil-workloads
//!
//! The benchmark programs and input generators used to evaluate the
//! reproduction:
//!
//! * [`programs`] — parameterised SIL sources: the paper's `add_and_reverse`
//!   (Figure 7), the list-traversal loop of Figure 3, recursive tree
//!   kernels (sum, height, mirror, Olden-style `treeadd`), binary-search-tree
//!   insertion, and the adaptive bitonic sort (`bisort`) the paper's
//!   conclusions refer to,
//! * [`generator`] — random straight-line SIL programs of parameterised size
//!   for the analysis-scalability experiments and property tests,
//! * [`native`] — plain-Rust reference implementations (sequential and
//!   rayon-parallel) of the same kernels, used both to validate the SIL
//!   interpreter and to measure real wall-clock speedups on the host.

#![forbid(unsafe_code)]

pub mod generator;
pub mod native;
pub mod programs;

pub use generator::{GeneratorConfig, ProgramGenerator};
pub use programs::Workload;
