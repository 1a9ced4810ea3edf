//! # sil-bench
//!
//! The benchmark harness and figure-reproduction library.
//!
//! Every figure of the paper and every experiment `repro --list` names has
//! a function here that regenerates its artifact as a printable string; the
//! `repro` binary prints them and the Criterion benches measure the code
//! paths behind them.  Keeping the artifact generation in a library makes the
//! reproduction itself testable.

#![forbid(unsafe_code)]

pub mod figures;
pub mod speedups;

pub use figures::{
    figure_10_relative_sets, figure_2_handle_assignments, figure_3_while_loop,
    figure_4_statement_packing, figure_5_read_write_sets, figure_6_interference_examples,
    figure_7_path_matrices, figure_8_parallel_program, figure_9_sequence_interference,
};
pub use speedups::{
    analysis_scaling_rows, bisort_rows, cost_model_report, debug_experiment, speedup_rows,
    SpeedupRow,
};
