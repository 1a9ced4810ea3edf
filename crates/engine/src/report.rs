//! Request options and result reports for the engine pipeline.
//!
//! A [`ProgramReport`] is the JSON-serializable summary of one program's
//! trip through parse → analyze → parallelize → verify → (optionally)
//! execute.  Each type here is described once, as a `record!` (see
//! [`crate::service::wire`]), and decodes back exactly —
//! `from_json(to_json(r)) == r` — which is what lets a `sild` daemon ship
//! reports to a remote `silp` that then renders byte-identical output to an
//! in-process run.

use crate::service::json::Json;
use crate::service::wire::{encode, record, Hex, Wire};
use std::fmt::Write as _;

/// What the pipeline should do beyond the (always-run) analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessOptions {
    /// Run the packing parallelizer and include its transform count.
    pub parallelize: bool,
    /// Statically verify the parallelized output.
    pub verify: bool,
    /// Execute the program(s) on the deterministic interpreter and report
    /// work/span.
    pub execute: bool,
    /// Include the pretty-printed parallelized source in the report.
    pub emit_parallel_source: bool,
    /// Node-store capacity for execution.
    pub store_capacity: usize,
}

impl Default for ProcessOptions {
    fn default() -> Self {
        ProcessOptions {
            parallelize: true,
            verify: true,
            execute: false,
            emit_parallel_source: false,
            store_capacity: 1 << 18,
        }
    }
}

record!(ProcessOptions {
    "parallelize" => parallelize,
    "verify" => verify,
    "execute" => execute,
    "emit_parallel_source" => emit_parallel_source,
    "store_capacity" => store_capacity,
});

/// Work/span accounting of one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    pub work: u64,
    pub span: u64,
    pub parallelism: f64,
    pub allocated_nodes: usize,
}

record!(ExecutionReport {
    "work" => work,
    "span" => span,
    "parallelism" => parallelism,
    "allocated_nodes" => allocated_nodes,
});

/// What incremental re-analysis reused for one program (present when the
/// serving engine analyzed the program itself, absent when it read the
/// entry back from disk or a peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Procedures whose cone fingerprint had retained walks available.
    pub procedures_reused: usize,
    /// Procedures analyzed with no retained state (the stale cone).
    pub procedures_stale: usize,
    /// Fixpoint body walks actually performed.
    pub walks_performed: usize,
    /// Fixpoint body walks replayed from retained records.
    pub walks_reused: usize,
}

record!(IncrementalReport {
    "procedures_reused" => procedures_reused,
    "procedures_stale" => procedures_stale,
    "walks_performed" => walks_performed,
    "walks_reused" => walks_reused,
});

/// The full pipeline result for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// The program's declared name.
    pub name: String,
    /// Content fingerprint of the normalized AST (the cache key).
    pub fingerprint: u64,
    /// Whether the analysis was served from the program cache.
    pub cache_hit: bool,
    /// Structural classification at `main`'s exit (TREE / DAG / CYCLE).
    pub structure: String,
    /// No statement ever degraded the structure below TREE.
    pub preserves_tree: bool,
    /// Structure warnings, rendered.
    pub warnings: Vec<String>,
    /// Rounds the interprocedural analysis needed.
    pub rounds: usize,
    /// Stable digest of the full analysis result.
    pub analysis_digest: u64,
    /// Incremental-reuse counters of the analysis behind this report.
    pub incremental: Option<IncrementalReport>,
    /// Number of parallelizing transformations applied (when requested).
    pub transforms: Option<usize>,
    /// Static verifier findings on the parallelized output (when requested).
    pub violations: Vec<String>,
    /// The parallelized program text (only when requested).
    pub parallel_source: Option<String>,
    /// Sequential execution metrics (when requested).
    pub sequential_execution: Option<ExecutionReport>,
    /// Parallelized execution metrics (when requested and parallelized).
    pub parallel_execution: Option<ExecutionReport>,
}

// Optional members are left out (not `null`) when absent, and the member
// order is stable.
record!(ProgramReport {
    "name" => name,
    "fingerprint" => fingerprint as Hex,
    "cache_hit" => cache_hit,
    "structure" => structure,
    "preserves_tree" => preserves_tree,
    "warnings" => warnings,
    "rounds" => rounds,
    "analysis_digest" => analysis_digest as Hex,
    "incremental" => incremental [opt],
    "transforms" => transforms [opt],
    "violations" => violations,
    "parallel_source" => parallel_source [opt],
    "sequential_execution" => sequential_execution [opt],
    "parallel_execution" => parallel_execution [opt],
});

impl ProgramReport {
    /// Render the report as a single JSON object.
    pub fn to_json(&self) -> String {
        encode(self)
    }

    /// Parse a report rendered by [`ProgramReport::to_json`].
    pub fn from_json(src: &str) -> Result<ProgramReport, String> {
        let value = Json::parse(src).map_err(|e| e.to_string())?;
        Wire::from_json(&value)
    }

    /// Render the report as a short human-readable block.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} [{}{:016x}]",
            self.name,
            if self.cache_hit { "cached " } else { "" },
            self.fingerprint
        );
        let _ = writeln!(
            out,
            "  structure: {} ({} warnings), {} rounds",
            self.structure,
            self.warnings.len(),
            self.rounds
        );
        if let Some(inc) = self.incremental {
            let _ = writeln!(
                out,
                "  incremental: {} procedures reused / {} stale, {} walks replayed / {} performed",
                inc.procedures_reused, inc.procedures_stale, inc.walks_reused, inc.walks_performed
            );
        }
        if let Some(transforms) = self.transforms {
            let _ = writeln!(out, "  parallelized: {transforms} transforms");
        }
        if !self.violations.is_empty() {
            let _ = writeln!(out, "  VIOLATIONS: {}", self.violations.join("; "));
        }
        if let Some(seq) = &self.sequential_execution {
            let _ = writeln!(
                out,
                "  sequential: work={} span={} parallelism={:.2}",
                seq.work, seq.span, seq.parallelism
            );
        }
        if let Some(par) = &self.parallel_execution {
            let _ = writeln!(
                out,
                "  parallel:   work={} span={} parallelism={:.2}",
                par.work, par.span, par.parallelism
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProgramReport {
        ProgramReport {
            name: "t".into(),
            fingerprint: 0xabcd,
            cache_hit: true,
            structure: "TREE".into(),
            preserves_tree: true,
            warnings: vec!["w \"quoted\"".into()],
            rounds: 2,
            analysis_digest: 1,
            incremental: Some(IncrementalReport {
                procedures_reused: 3,
                procedures_stale: 1,
                walks_performed: 2,
                walks_reused: 6,
            }),
            transforms: Some(3),
            violations: vec![],
            parallel_source: None,
            sequential_execution: Some(ExecutionReport {
                work: 10,
                span: 5,
                parallelism: 2.0,
                allocated_nodes: 7,
            }),
            parallel_execution: None,
        }
    }

    #[test]
    fn report_renders_the_stable_shape() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"t\""));
        assert!(json.contains("\"fingerprint\":\"000000000000abcd\""));
        assert!(json.contains("\"cache_hit\":true"));
        assert!(json.contains("\"incremental\":{\"procedures_reused\":3"));
        assert!(json.contains("\"walks_reused\":6"));
        assert!(json.contains("\"transforms\":3"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"work\":10"));
        assert!(json.contains("\"parallelism\":2.0"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = report.to_json();
        let back = ProgramReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json, "encode ∘ parse ∘ encode is identity");
    }

    #[test]
    fn absent_optional_fields_stay_absent() {
        let report = ProgramReport {
            incremental: None,
            transforms: None,
            sequential_execution: None,
            ..sample_report()
        };
        let json = report.to_json();
        assert!(!json.contains("incremental"));
        assert!(!json.contains("transforms"));
        assert!(!json.contains("null"));
        let back = ProgramReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn process_options_round_trip() {
        let options = ProcessOptions {
            parallelize: false,
            verify: true,
            execute: true,
            emit_parallel_source: true,
            store_capacity: 123,
        };
        let line = encode(&options);
        assert_eq!(
            ProcessOptions::from_json(&Json::parse(&line).unwrap()),
            Ok(options)
        );
    }

    #[test]
    fn decoding_rejects_missing_fields() {
        let err = ProgramReport::from_json("{\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert!(ProgramReport::from_json("not json").is_err());
    }
}
