//! # sil-parallel
//!
//! A full reproduction of Hendren & Nicolau, *Parallelizing Programs with
//! Recursive Data Structures* (UC Irvine TR 89-33 / ICPP 1989), as a Rust
//! workspace.  This facade crate re-exports the individual components:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`lang`] | `sil-lang` | the SIL language: parser, AST, type checker, normalizer, pretty printer |
//! | [`pathmatrix`] | `sil-pathmatrix` | path expressions and path matrices (§4) |
//! | [`analysis`] | `sil-analysis` | the path-matrix interference analysis, structural verification, interference sets (§4–5) |
//! | [`parallelizer`] | `sil-parallelizer` | statement/call packing, sequence splitting, parallel-program verification (§5) |
//! | [`runtime`] | `sil-runtime` | interpreter, rayon-backed parallel executor, work/span cost model, race detector |
//! | [`workloads`] | `sil-workloads` | benchmark SIL programs, random program generator, native Rust reference kernels |
//! | [`engine`] | `sil-engine` | batched, memoizing analysis service: a unified content-addressed `SummaryStore` (typed program/summary/walk namespaces, lock-striped, least-recently-used eviction) behind an `Engine`, SCC-parallel scheduling, the typed Request/Response service protocol with the `sild` daemon (one engine behind a Unix/TCP socket, one thread per connection), and the `silp` CLI |
//!
//! ## The 30-second tour
//!
//! ```
//! use sil_parallel::prelude::*;
//!
//! // 1. Parse + type check the paper's Figure 7 program.
//! let (program, types) = frontend(sil_parallel::lang::testsrc::ADD_AND_REVERSE).unwrap();
//!
//! // 2. Run the path-matrix interference analysis.  The node swap in
//! //    `reverse` is reported as a temporary possible DAG, but `main` ends
//! //    with the structure classified as a TREE again.
//! let analysis = analyze_program(&program, &types);
//! let main_exit = &analysis.procedure("main").unwrap().exit;
//! assert!(main_exit.structure.is_tree());
//!
//! // 3. Parallelize: this reproduces Figure 8.
//! let (parallel, report) = parallelize_program(&program, &types);
//! assert!(report.count() >= 6);
//!
//! // 4. Execute both versions and compare work/span.
//! let mut seq = Interpreter::new(&program, &types);
//! let seq_out = seq.run().unwrap();
//! let printed = sil_parallel::lang::pretty_program(&parallel);
//! let (par_program, par_types) = frontend(&printed).unwrap();
//! let mut par = Interpreter::new(&par_program, &par_types);
//! let par_out = par.run().unwrap();
//! assert_eq!(seq_out.cost.work, par_out.cost.work);
//! assert!(par_out.cost.span < seq_out.cost.span);
//! ```

#![forbid(unsafe_code)]

pub use sil_analysis as analysis;
pub use sil_engine as engine;
pub use sil_lang as lang;
pub use sil_parallelizer as parallelizer;
pub use sil_pathmatrix as pathmatrix;
pub use sil_runtime as runtime;
pub use sil_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use sil_analysis::{analyze_program, AbstractState, AnalysisResult, StructureKind};
    pub use sil_engine::{
        Engine, EngineConfig, ProcessOptions, RemoteService, Request, Response, Service,
        SummaryStore,
    };
    pub use sil_lang::{frontend, parse_program, pretty_program, Program};
    pub use sil_parallelizer::{parallelize_program, verify_parallel_program, TransformReport};
    pub use sil_pathmatrix::{PathMatrix, PathSet};
    pub use sil_runtime::{Interpreter, ParallelExecutor, RunConfig};
    pub use sil_workloads::programs::Workload;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let src = Workload::TreeSum.source(4);
        let (program, types) = frontend(&src).unwrap();
        let analysis = analyze_program(&program, &types);
        assert!(analysis.preserves_tree());
        let (parallel, _) = parallelize_program(&program, &types);
        assert!(parallel.procedure("sum").is_some());
    }

    #[test]
    fn engine_is_reachable_through_the_facade() {
        let engine = Engine::new(EngineConfig::default());
        let src = Workload::TreeSum.source(3);
        let first = engine.analyze_source(&src).unwrap();
        let second = engine.analyze_source(&src).unwrap();
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(engine.stats().programs.hits, 1);
    }

    #[test]
    fn service_protocol_is_reachable_through_the_facade() {
        let service = Engine::default();
        let src = Workload::TreeSum.source(3);
        match service.call(Request::analyze(src)) {
            Response::Analyzed { summary, .. } => {
                assert!(summary.preserves_tree);
                assert!(!summary.cache_hit);
            }
            other => panic!("expected an analyzed response, got {other:?}"),
        }
    }
}
