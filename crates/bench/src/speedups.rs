//! The quantitative experiments (E1–E4 in `repro --list`): cost-model speedups of
//! the parallelized programs, wall-clock speedups of the native kernels,
//! analysis scalability, and the parallel-debugging experiment.

use sil_analysis::analyze_program;
use sil_lang::frontend;
use sil_lang::pretty::pretty_program;
use sil_parallelizer::{parallelize_program, verify_parallel_program};
use sil_runtime::interp::{Interpreter, RunConfig};
use sil_workloads::generator::{GeneratorConfig, ProgramGenerator};
use sil_workloads::native;
use sil_workloads::programs::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// One row of a speedup table.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub label: String,
    pub size: u64,
    pub work: u64,
    pub span: u64,
    pub parallelism: f64,
    pub speedup_p: Vec<(u64, f64)>,
}

impl SpeedupRow {
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<18} n={:<8} work={:<10} span={:<10} parallelism={:<8.2}",
            self.label, self.size, self.work, self.span, self.parallelism
        );
        for (p, s) in &self.speedup_p {
            out.push_str(&format!(" p{p}={s:.2}"));
        }
        out
    }
}

fn store_capacity_for(size: u32) -> usize {
    ((1usize << size.min(26)) + 1024).max(1 << 12)
}

/// Cost-model comparison of a workload: analyze + parallelize the SIL
/// program, execute both versions on the deterministic interpreter, and
/// report work/span and projected Brent speedups (experiment E2, and E1 for
/// `bisort`).
pub fn cost_model_report(workload: Workload, size: u32) -> (SpeedupRow, SpeedupRow) {
    let src = workload.source(size);
    let (program, types) = frontend(&src).expect("workload parses");
    let (parallel, _) = parallelize_program(&program, &types);
    let printed = pretty_program(&parallel);
    let (par_program, par_types) = frontend(&printed).expect("parallel output parses");

    let config = RunConfig {
        store_capacity: store_capacity_for(size),
        ..RunConfig::default()
    };
    let mut seq_interp = Interpreter::with_config(&program, &types, config.clone());
    let seq = seq_interp.run().expect("sequential run");
    let mut par_interp = Interpreter::with_config(&par_program, &par_types, config);
    let par = par_interp.run().expect("parallel run");

    let processors = [1u64, 2, 4, 8, 16];
    let row = |label: &str, cost: sil_runtime::Cost, nodes: usize| SpeedupRow {
        label: format!("{}/{}", workload.name(), label),
        size: nodes as u64,
        work: cost.work,
        span: cost.span,
        parallelism: cost.parallelism(),
        speedup_p: processors.iter().map(|&p| (p, cost.speedup(p))).collect(),
    };
    (
        row("seq", seq.cost, seq.allocated_nodes),
        row("par", par.cost, par.allocated_nodes),
    )
}

/// The E2 sweep: `add_and_reverse` over a range of tree depths.
pub fn speedup_rows(depths: &[u32]) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for &d in depths {
        let (seq, par) = cost_model_report(Workload::AddAndReverse, d);
        rows.push(seq);
        rows.push(par);
    }
    rows
}

/// The E1 sweep: `bisort` over a range of tree depths, plus native wall-clock
/// numbers for the same kernel.
pub fn bisort_rows(depths: &[u32]) -> Vec<String> {
    let mut out = Vec::new();
    for &d in depths {
        let (seq, par) = cost_model_report(Workload::Bisort, d);
        out.push(seq.render());
        out.push(par.render());
        // Native wall clock at a host-scale size (rayon's task overhead only
        // pays off on trees far larger than the interpreter-level sweep).
        let native_depth = d + 8;
        let mut tree_seq = native::Tree::perfect_keyed(native_depth, 1);
        let t0 = Instant::now();
        let _ = native::bisort_seq(&mut tree_seq, i64::MAX, true);
        let seq_time = t0.elapsed();
        let mut tree_par = native::Tree::perfect_keyed(native_depth, 1);
        let t1 = Instant::now();
        let _ = native::bisort_par(&mut tree_par, i64::MAX, true);
        let par_time = t1.elapsed();
        out.push(format!(
            "bisort/native     n={:<8} seq={:?} par={:?} wallclock-speedup={:.2}",
            (1u64 << native_depth) - 1,
            seq_time,
            par_time,
            seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9)
        ));
    }
    out
}

/// The E3 sweep: whole-program analysis time versus program size.
pub fn analysis_scaling_rows(sizes: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    for &n in sizes {
        let mut generator = ProgramGenerator::new(GeneratorConfig {
            statements: n,
            handle_vars: 10,
            int_vars: 4,
            seed: 7,
        });
        let program = sil_lang::normalize_program(&generator.generate());
        let types = sil_lang::check_program(&program).expect("generated program type checks");
        let start = Instant::now();
        let analysis = analyze_program(&program, &types);
        let elapsed = start.elapsed();
        out.push(format!(
            "statements={:<6} analysis_time={:?} rounds={} warnings={}",
            program.statement_count(),
            elapsed,
            analysis.rounds,
            analysis.warnings.len()
        ));
    }
    out
}

/// The E4 experiment: hand-parallelize a program *incorrectly*, show that
/// (a) the static verifier flags it and (b) the dynamic race detector
/// confirms an actual race, while the correctly parallelized program passes
/// both.
pub fn debug_experiment() -> String {
    let broken_src = r#"
program broken
procedure bump(h: handle; n: int)
  l, r: handle
begin
  if h <> nil then
  begin
    h.value := h.value + n;
    l := h.left;
    r := h.left;
    bump(l, n) || bump(r, n)
  end
end
procedure main()
  root: handle
begin
  root := build(4);
  bump(root, 1)
end
function build(depth: int) handle
  t, l, r: handle; d: int
begin
  t := nil;
  if depth > 0 then
  begin
    t := new();
    t.value := depth;
    d := depth - 1;
    l := build(d);
    r := build(d);
    t.left := l;
    t.right := r
  end
end
return (t)
"#;
    let mut out = String::new();

    // The correct program (Figure 8) passes both checks.
    let (good, good_types) = frontend(sil_lang::testsrc::ADD_AND_REVERSE_PARALLEL).unwrap();
    let good_violations = verify_parallel_program(&good, &good_types);
    let mut interp = Interpreter::with_config(
        &good,
        &good_types,
        RunConfig {
            detect_races: true,
            ..RunConfig::default()
        },
    );
    let good_races = interp.run().expect("runs").races;
    writeln!(
        out,
        "figure-8 program: static violations = {}, dynamic races = {}",
        good_violations.len(),
        good_races.len()
    )
    .unwrap();

    // The broken program is flagged by both.
    let (bad, bad_types) = frontend(broken_src).unwrap();
    let bad_violations = verify_parallel_program(&bad, &bad_types);
    let mut interp = Interpreter::with_config(
        &bad,
        &bad_types,
        RunConfig {
            detect_races: true,
            ..RunConfig::default()
        },
    );
    let bad_races = interp.run().expect("runs").races;
    writeln!(
        out,
        "broken program:   static violations = {}, dynamic races = {}",
        bad_violations.len(),
        bad_races.len()
    )
    .unwrap();
    for v in &bad_violations {
        writeln!(out, "  static:  {v}").unwrap();
    }
    for r in bad_races.iter().take(3) {
        writeln!(out, "  dynamic: {r}").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_shows_parallelism_for_add_and_reverse() {
        let (seq, par) = cost_model_report(Workload::AddAndReverse, 6);
        assert_eq!(seq.work, par.work, "parallelization preserves work");
        assert!(par.span < seq.span, "parallelization shortens the span");
        assert!(par.parallelism > 2.0, "{par:?}");
        // speedup grows with processors
        assert!(par.speedup_p[3].1 > par.speedup_p[1].1);
        assert!(!seq.render().is_empty());
    }

    #[test]
    fn cost_model_shows_parallelism_for_bisort() {
        let (seq, par) = cost_model_report(Workload::Bisort, 5);
        assert_eq!(seq.work, par.work);
        assert!(
            par.parallelism > 1.2,
            "bisort should expose parallelism: {par:?}"
        );
    }

    #[test]
    fn read_only_kernels_parallelize_too() {
        let (seq, par) = cost_model_report(Workload::TreeSum, 6);
        assert_eq!(seq.work, par.work);
        assert!(par.span < seq.span);
    }

    #[test]
    fn analysis_scaling_rows_produce_output() {
        let rows = analysis_scaling_rows(&[20, 60]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("analysis_time"));
    }

    #[test]
    fn debug_experiment_flags_only_the_broken_program() {
        let out = debug_experiment();
        assert!(
            out.contains("figure-8 program: static violations = 0, dynamic races = 0"),
            "{out}"
        );
        assert!(out.contains("broken program:"), "{out}");
        // the broken program has at least one static violation and at least
        // one dynamic race
        let broken_line = out
            .lines()
            .find(|l| l.starts_with("broken program:"))
            .unwrap();
        assert!(!broken_line.contains("violations = 0"), "{out}");
        assert!(!broken_line.contains("races = 0"), "{out}");
    }
}
