//! # sil-runtime
//!
//! The execution substrate for SIL programs: this is the "parallel machine"
//! the 1989 paper targets but never names.  It provides four things:
//!
//! * [`store`] — a concurrent node arena (the heap of binary-tree nodes that
//!   `new()` allocates from),
//! * [`interp`] — a reference interpreter that executes sequential *and*
//!   parallel SIL deterministically (parallel arms run in program order) and
//!   accounts **work** (statements executed) and **span** (critical path,
//!   where a parallel statement costs the maximum of its arms),
//! * [`parallel`] — a rayon-backed executor that really runs `||` arms on
//!   the host's cores (work-stealing join/scope, per the hpc-parallel
//!   guides),
//! * [`race`] — a dynamic race detector that logs every memory access per
//!   parallel arm and reports conflicts; it is used to validate the static
//!   interference analysis (programs the analysis approves must be
//!   race-free; deliberately broken ones must not be),
//! * [`costmodel`] — work/span/parallelism reports and Brent-style speedup
//!   projections for `p` processors.
//!
//! ## Quick example
//!
//! ```
//! use sil_lang::frontend;
//! use sil_runtime::interp::Interpreter;
//!
//! let (program, types) = frontend(sil_lang::testsrc::ADD_AND_REVERSE).unwrap();
//! let mut interp = Interpreter::new(&program, &types);
//! let outcome = interp.run().unwrap();
//! assert!(outcome.cost.work > 0);
//! assert!(outcome.cost.span <= outcome.cost.work);
//! ```

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod error;
pub mod interp;
pub mod parallel;
pub mod race;
pub mod store;
pub mod value;

pub use costmodel::{Cost, CostReport};
pub use error::RuntimeError;
pub use interp::{Interpreter, Outcome, RunConfig};
pub use parallel::ParallelExecutor;
pub use race::{AccessKind, RaceDetector, RaceReport};
pub use store::{NodeId, NodeSnapshot, Store};
pub use value::{Frame, Value};
