//! Metrics as the benchmark prints them: one `scope metric value unit` line
//! each, and the one-line JSON result the driver reads.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes, when that is meaningful.
    pub samples: Option<u64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, samples: u64) -> Metric {
        self.samples = Some(samples);
        self
    }

    /// `scope name value unit [n=samples]`, the line format of every mode.
    pub fn line(&self, scope: &str) -> String {
        let mut line = format!("{scope} {} {} {}", self.name, number(self.value), self.unit);
        if let Some(samples) = self.samples {
            let _ = write!(line, " n={samples}");
        }
        line
    }

    /// Parse a [`Metric::line`] back (how `ledger-e2e` reads `ledger-layers`).
    pub fn parse_line(line: &str) -> Option<(String, Metric)> {
        let mut words = line.split_whitespace();
        let scope = words.next()?.to_string();
        let name = words.next()?.to_string();
        let value: f64 = words.next()?.parse().ok()?;
        let unit = words.next()?;
        let unit = UNITS.iter().find(|u| **u == unit)?;
        let samples = words
            .next()
            .and_then(|w| w.strip_prefix("n="))
            .and_then(|n| n.parse().ok());
        Some((
            scope,
            Metric {
                name,
                value,
                unit,
                samples,
            },
        ))
    }
}

/// Every unit a metric may carry.
pub const UNITS: [&str; 9] = ["1/s", "us", "ns", "ms", "s", "MiB", "B", "count", "ratio"];

/// A value with all the digits it was measured with (the shortest decimal
/// that reads back to the same `f64`).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            number(metric.value),
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn lines_round_trip() {
        let metric = Metric::new("p99_us", 1234.5678, "us").with_samples(42);
        let line = metric.line("warm_zipf");
        assert_eq!(line, "warm_zipf p99_us 1234.5678 us n=42");
        assert_eq!(
            Metric::parse_line(&line),
            Some(("warm_zipf".to_string(), metric))
        );
        let count = Metric::new("peer.hits", 64.0, "count");
        assert_eq!(
            Metric::parse_line(&count.line("layers")),
            Some(("layers".to_string(), count))
        );
        assert_eq!(Metric::parse_line("not a metric line"), None);
    }

    #[test]
    fn result_is_one_json_object_with_the_four_keys() {
        let metrics = [
            Metric::new("rps", 7012.25, "1/s"),
            Metric::new("setup_s", 0.31, "s"),
        ];
        let value = Value::parse(&result_json(10, 0, &metrics)).unwrap();
        assert_eq!(value.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("attempted").and_then(Value::as_u64), Some(10));
        assert_eq!(value.get("failed").and_then(Value::as_u64), Some(0));
        assert_eq!(
            value.path(&["metrics", "rps", "value"]),
            Some(&Value::Num(7012.25))
        );
        assert_eq!(
            value
                .path(&["metrics", "setup_s", "unit"])
                .and_then(Value::as_str),
            Some("s")
        );
        let failing = Value::parse(&result_json(10, 1, &metrics)).unwrap();
        assert_eq!(failing.get("correct").and_then(Value::as_bool), Some(false));
    }
}
