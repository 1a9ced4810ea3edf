//! The traced run: replay, in process, the stages `sild` runs for one
//! request of each kind, with a span from the benchmark's own code around
//! each adapter call.
//!
//! ```text
//! request_decode → route → frontend → fingerprint → store_lookup
//!     → [analysis: summaries → fixpoint] → [store_insert]        (cold analyze)
//!     → [parallelize: pack → pretty → reparse → verify]          (process)
//!     → response_encode
//! ```
//!
//! The requests are the first ones of the matching end-to-end workload's
//! stream (same seed, lane 0), so the mix of programs is the mix `sild` sees
//! and the per-request stage sum can be held against that workload's
//! `cpu_us_per_req`.  What the replay leaves out — socket reads and writes,
//! thread wake-ups, `silobs` spans and histograms, walk-record merging — is
//! what `server.overhead_us_per_req` then reports.

use super::adapter::{self, StoreProbe};
use super::trace::{Recorder, SelfTimes};
use crate::calib::Calibrator;
use crate::corpus::Corpus;
use crate::json::Value;
use crate::report::Metric;
use crate::stats::median;
use crate::workload::{Kind, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Passes per request kind; each stage reports the median of its per-pass
/// mean self times.
const PASSES: usize = 7;

/// `(root span, workload whose stream is replayed, requests per pass)`.
const KINDS: [(&str, Kind, usize); 3] = [
    ("warm_analyze", Kind::WarmZipf, 400),
    ("cold_analyze", Kind::ColdUnique, 30),
    ("warm_process", Kind::ProcessWarm, 50),
];

/// A memory-only store holding every corpus program, as a primed daemon's.
fn primed_store(corpus: &Corpus) -> Result<StoreProbe, String> {
    let store = StoreProbe::memory();
    for program in &corpus.programs {
        let front = adapter::frontend(&program.source)?;
        let analysis = adapter::fixpoint(&front, adapter::summaries(&front));
        store.insert(&adapter::entry(front, &analysis));
    }
    Ok(store)
}

/// Run one request's stages under `rec`; returns the encoded reply.
fn serve(
    rec: &mut Recorder,
    root: &'static str,
    store: &StoreProbe,
    line: &str,
) -> Result<String, String> {
    let request = rec.open(root);

    let span = rec.open("request_decode");
    let source = adapter::decode_request(line.trim_end())?;
    rec.close(span);

    // The sharded service parses the source once to pick a shard …
    let span = rec.open("route");
    black_box(adapter::route(&source));
    rec.close(span);

    // … and the shard's engine parses it again.
    let span = rec.open("frontend");
    let front = adapter::frontend(&source)?;
    rec.close(span);

    let span = rec.open("fingerprint");
    let fingerprint = adapter::fingerprint(&front);
    rec.close(span);

    let span = rec.open("store_lookup");
    let found = store.lookup(fingerprint);
    rec.close(span);

    let reply = match (found, root) {
        (Some(entry), "warm_process") => {
            let parallelize = rec.open("parallelize");
            let span = rec.open("pack");
            let packed = adapter::pack_entry(&entry);
            rec.close(span);
            let span = rec.open("pretty");
            let printed = adapter::pretty_packed(&packed);
            rec.close(span);
            let span = rec.open("reparse");
            let reparsed = adapter::frontend(&printed)?;
            rec.close(span);
            let span = rec.open("verify");
            let violations = adapter::verify(&reparsed);
            rec.close(span);
            rec.close(parallelize);

            let span = rec.open("response_encode");
            let reply = adapter::encode_report_response(&entry, packed.transforms, violations);
            rec.close(span);
            reply
        }
        (Some(entry), _) => {
            let span = rec.open("response_encode");
            let reply = adapter::encode_analyzed_response(&entry, true);
            rec.close(span);
            reply
        }
        (None, _) => {
            let analysis = rec.open("analysis");
            let span = rec.open("summaries");
            let summaries = adapter::summaries(&front);
            rec.close(span);
            let span = rec.open("fixpoint");
            let result = adapter::fixpoint_recording(&front, summaries);
            rec.close(span);
            rec.close(analysis);

            let span = rec.open("store_insert");
            let entry = adapter::entry(front, &result);
            store.insert(&entry);
            rec.close(span);

            // Where a miss first computes the digest.
            let span = rec.open("response_encode");
            let reply = adapter::encode_analyzed_response(&entry, false);
            rec.close(span);
            reply
        }
    };
    rec.close(request);
    Ok(reply)
}

/// Spans that only group others; their own self time is bookkeeping.
const GROUPS: [&str; 2] = ["analysis", "parallelize"];

/// Replay every kind; returns `trace.<kind>.<stage>_us` (mean self time per
/// request, median over passes), `trace.<kind>.total_us` (the sum over every
/// span of the request) and how many replies were wrong.
///
/// Like the end-to-end timings these are divided by the machine's slowdown
/// while they were taken (per pass), so that the two can be compared; the
/// spans in `trace.ndjson` stay as measured.
pub fn run(corpus: &Corpus, seed: u64, rec: &mut Recorder) -> Result<(Vec<Metric>, u64), String> {
    struct Pass {
        root: &'static str,
        started: Instant,
        ended: Instant,
        times: SelfTimes,
    }
    let mut passes = Vec::new();
    let mut wrong = 0;
    let calibrator = Calibrator::start();
    for (root, kind, per_pass) in KINDS {
        let workload = Workload::new(kind, corpus, seed)?;
        let store = primed_store(corpus)?;
        let mut stream = workload.lane(0, 1);
        let mut line = String::new();
        // One extra pass first, unmeasured: page in code, fill allocator pools.
        for pass in 0..=PASSES {
            let mark = rec.mark();
            let started = Instant::now();
            for _ in 0..per_pass {
                let expectation = stream.next(&mut line);
                let reply = serve(rec, root, &store, &line)?;
                let verdict = Value::parse(&reply).and_then(|v| workload.verify(&expectation, &v));
                if let Err(e) = verdict {
                    wrong += 1;
                    eprintln!("ledger-layers: traced {root}: {e}");
                }
            }
            if pass > 0 {
                passes.push(Pass {
                    root,
                    started,
                    ended: Instant::now(),
                    times: rec.self_times(mark),
                });
            }
        }
    }
    let speed = calibrator.finish();

    let mut metrics = Vec::new();
    for (root, _, per_pass) in KINDS {
        let samples = (per_pass * PASSES) as u64;
        let mut per_stage: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for pass in passes.iter().filter(|pass| pass.root == root) {
            let slowdown = speed.slowdown(pass.started, pass.ended)?;
            for (&(_, stage), &total_ns) in &pass.times.total_ns {
                let mean_us = total_ns as f64 / pass.times.requests[root] as f64 / 1e3;
                per_stage.entry(stage).or_default().push(mean_us / slowdown);
            }
        }
        let mut total = 0.0;
        for (stage, means) in &per_stage {
            total += median(means);
            if *stage != root && !GROUPS.contains(stage) {
                let name = format!("trace.{root}.{stage}_us");
                metrics.push(Metric::new(name, median(means), "us").with_samples(samples));
            }
        }
        let name = format!("trace.{root}.total_us");
        metrics.push(Metric::new(name, total, "us").with_samples(samples));
    }
    Ok((metrics, wrong))
}
