//! `ledger-layers` — the per-layer probes and the traced pipeline replay.
//!
//! ```text
//! ledger-layers [--seed N] [--quick]
//!                              every probe (`--quick`: all but the two
//!                              10-second `runtime.exec_*` timings), then the
//!                              traced replay; prints `layers <metric> <value>
//!                              <unit>` lines and writes out/trace.ndjson
//! ledger-layers --regen-corpus rewrite corpus/ from sil_workloads
//! ```
//!
//! Finds the benchmark directory in `LEDGER_DIR` (default `benchmark`).  Exits
//! non-zero when a probe's self-check fails; drift between the frozen corpus
//! and today's `sil_workloads` is reported (`corpus.drift`), not fatal.

use ledger::corpus::Corpus;
use ledger::layers::{frozen, micro, replay, trace::Recorder};
use ledger::report::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn run(dir: &Path, seed: u64, quick: bool) -> Result<u64, String> {
    let corpus = Corpus::load(&dir.join("corpus"))?;
    let out = dir.join("out");
    let scratch = out.join(format!("layers-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let probed = micro::run(&corpus, &scratch, quick);
    let _ = std::fs::remove_dir_all(&scratch);
    let (mut metrics, mut wrong) = probed?;

    let mut recorder = Recorder::new();
    let (traced, wrong_replies) = replay::run(&corpus, seed, &mut recorder)?;
    metrics.extend(traced);
    wrong += wrong_replies;
    let trace = out.join("trace.ndjson");
    recorder
        .write_ndjson(&trace)
        .map_err(|e| format!("{}: {e}", trace.display()))?;

    let drift = frozen::drift(&corpus);
    for line in &drift {
        eprintln!("ledger-layers: corpus drift: {line}");
    }
    metrics.push(Metric::new("corpus.drift", drift.len() as f64, "count"));
    for metric in &metrics {
        println!("{}", metric.line("layers"));
    }
    Ok(wrong)
}

fn usage() -> ExitCode {
    eprintln!("usage: ledger-layers [--seed N] [--quick] | --regen-corpus");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = PathBuf::from(std::env::var("LEDGER_DIR").unwrap_or_else(|_| "benchmark".into()));
    let mut seed = 1;
    let mut regen = false;
    let mut quick = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--regen-corpus" => regen = true,
            "--quick" => quick = true,
            "--seed" => match args.next().and_then(|value| value.parse().ok()) {
                Some(value) => seed = value,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let result = if regen {
        frozen::regen(&dir.join("corpus")).map(|n| {
            println!("wrote {n} programs to {}", dir.join("corpus").display());
            0
        })
    } else {
        run(&dir, seed, quick)
    };
    match result {
        Ok(0) => ExitCode::SUCCESS,
        Ok(wrong) => {
            eprintln!("ledger-layers: {wrong} self-check(s) failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger-layers: {e}");
            ExitCode::FAILURE
        }
    }
}
