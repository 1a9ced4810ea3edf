//! The PRAM-style cost model: work, span and projected speedups.
//!
//! The paper's evaluation is qualitative — it shows *which* statements and
//! calls can run in parallel.  To turn that into numbers without the
//! authors' (unspecified, 1989) parallel machine we charge one unit per
//! executed basic statement and combine costs the standard work/span way:
//! sequential composition adds both, parallel composition adds work but
//! takes the maximum span.  `work / span` is the available parallelism; the
//! projected running time on `p` processors uses Brent's bound
//! `T_p ≈ work/p + span`.

use std::fmt;

/// The cost of an executed program fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Total number of unit operations executed.
    pub work: u64,
    /// Length of the critical path.
    pub span: u64,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost { work: 0, span: 0 };

    /// The cost of one unit operation.
    pub const UNIT: Cost = Cost { work: 1, span: 1 };

    /// A cost with the given work and span.
    pub fn new(work: u64, span: u64) -> Cost {
        debug_assert!(span <= work || work == 0, "span cannot exceed work");
        Cost { work, span }
    }

    /// Sequential composition.
    pub fn then(self, other: Cost) -> Cost {
        Cost {
            work: self.work + other.work,
            span: self.span + other.span,
        }
    }

    /// Parallel composition of two costs.
    pub fn alongside(self, other: Cost) -> Cost {
        Cost {
            work: self.work + other.work,
            span: self.span.max(other.span),
        }
    }

    /// Parallel composition of many costs.
    pub fn par_all(costs: impl IntoIterator<Item = Cost>) -> Cost {
        costs
            .into_iter()
            .fold(Cost::ZERO, |acc, c| acc.alongside(c))
    }

    /// Available parallelism (`work / span`).
    pub fn parallelism(&self) -> f64 {
        if self.span == 0 {
            1.0
        } else {
            self.work as f64 / self.span as f64
        }
    }

    /// Brent's upper bound on the running time with `p` processors
    /// (`work/p + span`).
    pub fn brent_time(&self, processors: u64) -> f64 {
        let p = processors.max(1) as f64;
        self.work as f64 / p + self.span as f64
    }

    /// The projected running time with `p` processors used for speedup
    /// reporting: a greedy scheduler needs at least `max(work/p, span)`
    /// steps, and that lower bound is within a factor of two of Brent's
    /// upper bound, so it is the conventional basis for "projected speedup"
    /// tables.
    pub fn projected_time(&self, processors: u64) -> f64 {
        let p = processors.max(1) as f64;
        (self.work as f64 / p).max(self.span as f64)
    }

    /// Projected speedup on `p` processors relative to sequential execution
    /// (`work / max(work/p, span)`); saturates at the available parallelism.
    pub fn speedup(&self, processors: u64) -> f64 {
        if self.work == 0 {
            return 1.0;
        }
        self.work as f64 / self.projected_time(processors)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "work={} span={} parallelism={:.2}",
            self.work,
            self.span,
            self.parallelism()
        )
    }
}

/// A small table of projected speedups for a range of processor counts —
/// the rows `repro` prints for E2 (see `repro --list`).
#[derive(Debug, Clone)]
pub struct CostReport {
    pub label: String,
    pub cost: Cost,
    pub processor_counts: Vec<u64>,
}

impl CostReport {
    /// A report for the usual 1/2/4/8/16 processor sweep.
    pub fn new(label: impl Into<String>, cost: Cost) -> CostReport {
        CostReport {
            label: label.into(),
            cost,
            processor_counts: vec![1, 2, 4, 8, 16],
        }
    }

    /// The speedup rows: `(processors, projected speedup)`.
    pub fn rows(&self) -> Vec<(u64, f64)> {
        self.processor_counts
            .iter()
            .map(|&p| (p, self.cost.speedup(p)))
            .collect()
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}", self.label, self.cost)?;
        for (p, s) in self.rows() {
            writeln!(f, "  p={p:<3} speedup={s:.2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_composition_adds() {
        let c = Cost::UNIT.then(Cost::UNIT).then(Cost::new(3, 3));
        assert_eq!(c, Cost::new(5, 5));
    }

    #[test]
    fn parallel_composition_takes_max_span() {
        let a = Cost::new(10, 10);
        let b = Cost::new(6, 6);
        let c = a.alongside(b);
        assert_eq!(c.work, 16);
        assert_eq!(c.span, 10);
        let all = Cost::par_all([a, b, Cost::new(2, 2)]);
        assert_eq!(all.work, 18);
        assert_eq!(all.span, 10);
    }

    #[test]
    fn parallelism_and_speedup() {
        let c = Cost::new(1000, 10);
        assert!((c.parallelism() - 100.0).abs() < 1e-9);
        // with unlimited processors the speedup saturates at work/span
        assert!((c.speedup(1_000_000) - 100.0).abs() < 1e-9);
        // with one processor there is no speedup
        assert!((c.speedup(1) - 1.0).abs() < 1e-9);
        // monotone in p until saturation
        assert!(c.speedup(4) > c.speedup(2));
        assert!(c.speedup(2) > c.speedup(1));
        // Brent's upper bound is still available
        assert!((c.brent_time(10) - 110.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_is_harmless() {
        assert_eq!(Cost::ZERO.speedup(8), 1.0);
        assert_eq!(Cost::ZERO.parallelism(), 1.0);
        assert_eq!(Cost::ZERO.then(Cost::UNIT), Cost::UNIT);
        assert_eq!(Cost::ZERO.alongside(Cost::UNIT), Cost::UNIT);
    }

    #[test]
    fn report_rows() {
        let report = CostReport::new("add_n", Cost::new(100, 20));
        let rows = report.rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, 1);
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
        let printed = report.to_string();
        assert!(printed.contains("add_n"));
        assert!(printed.contains("p=8"));
    }
}
