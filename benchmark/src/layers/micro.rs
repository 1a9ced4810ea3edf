//! The per-layer probes: plain `Instant` loops around adapter calls.
//!
//! A "corpus pass" is one call per frozen program, all 64 of them; a timing
//! is the median over [`PASSES`] passes after one unmeasured pass.  Counts
//! are taken once and must repeat exactly from run to run.

use super::adapter::{self, EngineProbe, ObsProbe, ShardedProbe, StoreProbe};
use crate::corpus::{Corpus, TEMPLATE_SIZE};
use crate::report::Metric;
use crate::stats::median;
use crate::workload::{analyze_line, process_line};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Measured passes per timing.
pub const PASSES: usize = 7;

/// Median over the passes of one `pass()` call's duration, in ns.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    pass();
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            pass();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Median ns per call of `op`, `calls` calls to a pass.
fn time_op(calls: usize, mut op: impl FnMut()) -> f64 {
    time_passes(|| (0..calls).for_each(|_| op())) / calls as f64
}

/// Keep `value` observable to the optimizer, then drop it.
fn keep<T>(value: T) {
    let _ = black_box(value);
}

fn timing(name: &str, ns: f64, unit: &'static str) -> Metric {
    let scale = match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        _ => unreachable!("timings are reported in ns, us or ms"),
    };
    Metric::new(name, ns / scale, unit).with_samples(PASSES as u64)
}

fn count(name: &str, value: u64, unit: &'static str) -> Metric {
    Metric::new(name, value as f64, unit)
}

/// Everything parsed and analyzed once, shared by the probes below.
struct Prepared {
    sources: Vec<String>,
    fronts: Vec<adapter::Front>,
    analyses: Vec<adapter::Analysis>,
    entries: Vec<adapter::Entry>,
    /// Indices of the ten size-6 programs, one of each workload.
    templates: Vec<usize>,
}

fn prepare(corpus: &Corpus) -> Result<Prepared, String> {
    let sources: Vec<String> = corpus.programs.iter().map(|p| p.source.clone()).collect();
    let parse = |source: &String| adapter::frontend(source);
    let fronts: Vec<adapter::Front> = sources.iter().map(parse).collect::<Result<_, _>>()?;
    let analyses: Vec<adapter::Analysis> = fronts
        .iter()
        .map(|front| adapter::fixpoint(front, adapter::summaries(front)))
        .collect();
    let entries = sources
        .iter()
        .zip(&analyses)
        .map(|(source, analysis)| Ok(adapter::entry(parse(source)?, analysis)))
        .collect::<Result<_, String>>()?;
    Ok(Prepared {
        templates: corpus.of_size(TEMPLATE_SIZE),
        sources,
        fronts,
        analyses,
        entries,
    })
}

/// Run every probe.  `scratch` is an empty directory for the disk tier.
/// `quick` leaves out the two `runtime.exec_*` timings, which cost 10 s (each
/// execution allocates two 262144-slot node stores) and move no end-to-end
/// metric while no workload executes programs.  Returns the metrics and how
/// many self-checks failed.
pub fn run(corpus: &Corpus, scratch: &Path, quick: bool) -> Result<(Vec<Metric>, u64), String> {
    let p = prepare(corpus)?;
    let mut out = Vec::new();
    let mut wrong = 0;
    sil(&p, &mut out);
    pathmatrix(&mut out);
    wrong += core(corpus, &p, &mut out);
    wrong += parallelizer(corpus, &p, &mut out)?;
    runtime(corpus, quick, &mut out)?;
    wrong += engine(&p, &mut out)?;
    store(&p, scratch, &mut out)?;
    service(&p, &mut out)?;
    silobs(&mut out);
    Ok((out, wrong))
}

fn sil(p: &Prepared, out: &mut Vec<Metric>) {
    let ns = time_passes(|| {
        for source in &p.sources {
            let _ = black_box(adapter::frontend(source));
        }
    });
    out.push(timing("sil.frontend_us", ns, "us"));
    let ns = time_passes(|| p.fronts.iter().for_each(|f| keep(adapter::fingerprint(f))));
    out.push(timing("sil.fingerprint_us", ns, "us"));
    let ns = time_passes(|| p.fronts.iter().for_each(|f| keep(adapter::pretty(f))));
    out.push(timing("sil.pretty_us", ns, "us"));
    let bytes = p.sources.iter().map(|s| s.len() as u64).sum();
    out.push(count("sil.source_bytes", bytes, "B"));
}

fn pathmatrix(out: &mut Vec<Metric>) {
    let (m16, m64) = (adapter::matrix_pair(16), adapter::matrix_pair(64));
    let ns = time_op(2000, || keep(adapter::matrix_join(&m16)));
    out.push(timing("pathmatrix.join16_ns", ns, "ns"));
    let ns = time_op(200, || keep(adapter::matrix_join(&m64)));
    out.push(timing("pathmatrix.join64_ns", ns, "ns"));
    let ns = time_op(500, || keep(adapter::matrix_equal(&m64)));
    out.push(timing("pathmatrix.equal64_ns", ns, "ns"));
    let ns = time_op(1000, || keep(adapter::matrix_clone(&m64)));
    out.push(timing("pathmatrix.clone64_ns", ns, "ns"));
}

fn core(corpus: &Corpus, p: &Prepared, out: &mut Vec<Metric>) -> u64 {
    let fixture = adapter::transfer_fixture(64);
    let ns = time_op(200, || keep(adapter::transfer(&fixture)));
    out.push(timing("core.transfer64_ns", ns, "ns"));
    let ns = time_passes(|| {
        for front in &p.fronts {
            black_box(adapter::fixpoint(front, adapter::summaries(front)));
        }
    });
    out.push(timing("core.analyze_us", ns, "us"));
    out.push(count(
        "core.rounds",
        p.analyses.iter().map(|a| a.rounds()).sum(),
        "count",
    ));
    let matches = corpus
        .programs
        .iter()
        .zip(&p.analyses)
        .filter(|(program, analysis)| program.expect.digest == analysis.digest())
        .count();
    out.push(count("core.digest_matches", matches as u64, "count"));
    (corpus.programs.len() - matches) as u64
}

fn parallelizer(corpus: &Corpus, p: &Prepared, out: &mut Vec<Metric>) -> Result<u64, String> {
    let ns = time_passes(|| {
        for (front, analysis) in p.fronts.iter().zip(&p.analyses) {
            black_box(adapter::pack(front, analysis).transforms);
        }
    });
    out.push(timing("parallelizer.pack_us", ns, "us"));
    let packed: Vec<adapter::Packed> = p
        .fronts
        .iter()
        .zip(&p.analyses)
        .map(|(front, analysis)| adapter::pack(front, analysis))
        .collect();
    let reparsed: Vec<adapter::Front> = packed
        .iter()
        .map(|packed| adapter::frontend(&adapter::pretty_packed(packed)))
        .collect::<Result<_, _>>()?;
    let ns = time_passes(|| reparsed.iter().for_each(|f| keep(adapter::verify(f))));
    out.push(timing("parallelizer.verify_us", ns, "us"));
    out.push(count(
        "parallelizer.transforms",
        packed.iter().map(|p| p.transforms).sum(),
        "count",
    ));
    let violations: u64 = reparsed.iter().map(adapter::verify).sum();
    let mismatched = corpus
        .programs
        .iter()
        .zip(&packed)
        .filter(|(program, packed)| program.expect.transforms != packed.transforms)
        .count() as u64;
    Ok(violations + mismatched)
}

/// The ten size-6 templates, executed sequentially and as parallelized.
/// No end-to-end workload executes programs yet, so these move nothing there.
fn runtime(corpus: &Corpus, quick: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut sequential = Vec::new();
    let mut parallel = Vec::new();
    for i in corpus.of_size(TEMPLATE_SIZE) {
        let front = adapter::frontend(&corpus.programs[i].source)?;
        let analysis = adapter::fixpoint(&front, adapter::summaries(&front));
        let printed = adapter::pretty_packed(&adapter::pack(&front, &analysis));
        parallel.push(adapter::frontend(&printed)?);
        sequential.push(front);
    }
    let execute_all = |fronts: &[adapter::Front]| -> Result<(u64, u64), String> {
        fronts.iter().try_fold((0, 0), |(work, span), front| {
            let (w, s) = adapter::execute(front)?;
            Ok((work + w, span + s))
        })
    };
    let (work, _) = execute_all(&sequential)?;
    let (_, par_span) = execute_all(&parallel)?;
    if !quick {
        let ns = time_passes(|| keep(execute_all(&sequential)));
        out.push(timing("runtime.exec_seq_us", ns, "us"));
        let ns = time_passes(|| keep(execute_all(&parallel)));
        out.push(timing("runtime.exec_par_us", ns, "us"));
    }
    out.push(count("runtime.work", work, "count"));
    out.push(count("runtime.par_span", par_span, "count"));
    Ok(())
}

fn engine(p: &Prepared, out: &mut Vec<Metric>) -> Result<u64, String> {
    let engine = EngineProbe::new();
    let mut wrong = 0;
    let mut pass = |expect_hit: bool| {
        for source in &p.sources {
            if engine.analyze(source) != Ok(expect_hit) {
                wrong += 1;
            }
        }
    };
    let ns = time_passes(|| {
        engine.clear();
        pass(false);
    });
    out.push(timing("engine.cold_us", ns, "us"));
    let ns = time_passes(|| pass(true));
    out.push(timing("engine.warm_hit_us", ns, "us"));
    // Programs forgotten, summaries and walk records kept: every procedure
    // replays its recorded walks, as after an edit elsewhere in the program.
    let before = engine.walk_lookups();
    let ns = time_passes(|| {
        engine.clear_programs();
        pass(false);
    });
    let after = engine.walk_lookups();
    out.push(timing("engine.incremental_us", ns, "us"));
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    out.push(Metric::new(
        "engine.walk_reuse_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    Ok(wrong)
}

/// Keys for `n` distinct fake entries derived from real fingerprints.
fn spread_key(fingerprint: u64, copy: u64) -> u64 {
    fingerprint ^ copy.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn store(p: &Prepared, scratch: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let n = p.entries.len();

    let memory = StoreProbe::memory();
    p.entries.iter().for_each(|e| memory.insert(e));
    let mut at = 0;
    let ns = time_op(n * 50, || {
        black_box(memory.lookup(p.entries[at % n].fingerprint()));
        at += 1;
    });
    out.push(timing("store.mem_hit_ns", ns, "ns"));
    // Fresh keys past the namespace's capacity: every insert evicts.
    let mut key = 0u64;
    let ns = time_op(2000, || {
        key += 1;
        memory.insert_memory(spread_key(key, 1), &p.entries[key as usize % n]);
    });
    out.push(timing("store.mem_insert_evict_ns", ns, "ns"));

    let dir = scratch.join("disk");
    let disk = StoreProbe::durable(&dir)?;
    let ns = time_passes(|| {
        disk.clear();
        p.entries.iter().for_each(|e| disk.insert(e));
        disk.flush();
    });
    out.push(timing("store.disk_put_flush_us", ns / n as f64, "us"));
    let (entries, live_bytes, ..) = disk.disk().ok_or("the disk tier vanished")?;
    out.push(Metric::new(
        "store.disk_bytes_per_entry",
        live_bytes as f64 / entries.max(1) as f64,
        "B",
    ));
    // One entry of each workload: a read + decode + promote costs ~4 ms, so
    // the whole corpus per pass would take 2 s for no more information.
    let ns = time_passes(|| {
        disk.clear_memory();
        for &i in &p.templates {
            black_box(disk.lookup(p.entries[i].fingerprint()));
        }
    });
    out.push(timing(
        "store.disk_hit_us",
        ns / p.templates.len() as f64,
        "us",
    ));
    drop(disk);

    // Re-opening a tier that holds 1024 entries: 16 copies of each body
    // under distinct keys (recovery checks checksums, not fingerprints).
    let big = scratch.join("disk-1024");
    let filled = StoreProbe::durable(&big)?;
    for copy in 0..16 {
        for entry in &p.entries {
            filled.put_disk(spread_key(entry.fingerprint(), copy + 2), entry);
        }
    }
    filled.flush();
    drop(filled);
    let mut recovered = 0;
    let ns = time_passes(|| {
        let reopened = StoreProbe::durable(&big);
        recovered = reopened.ok().and_then(|s| s.disk()).map_or(0, |d| d.0);
    });
    if recovered != 16 * n as u64 {
        return Err(format!(
            "re-open recovered {recovered} of {} entries",
            16 * n
        ));
    }
    out.push(timing("store.disk_open_ms", ns, "ms"));
    Ok(())
}

fn service(p: &Prepared, out: &mut Vec<Metric>) -> Result<(), String> {
    let requests: Vec<String> = p
        .sources
        .iter()
        .map(|s| adapter::encode_analyze_request(s))
        .collect();
    // The generator's hand-formatted lines must be what the repo's own
    // encoder writes (default `process` options included), or the
    // end-to-end run measures a different decode or a different request.
    for (request, source) in requests.iter().zip(&p.sources) {
        if analyze_line(source).trim_end() != request
            || process_line(source).trim_end() != adapter::encode_process_request(source)
        {
            return Err("the generator's request lines and Request::encode disagree".to_string());
        }
    }
    let responses: Vec<String> = p
        .entries
        .iter()
        .map(|e| adapter::encode_analyzed_response(e, true))
        .collect();

    let ns = time_passes(|| {
        requests
            .iter()
            .for_each(|r| keep(adapter::decode_request(r)))
    });
    out.push(timing("service.request_decode_us", ns, "us"));
    let ns = time_passes(|| {
        for entry in &p.entries {
            black_box(adapter::encode_analyzed_response(entry, true));
        }
    });
    out.push(timing("service.response_encode_us", ns, "us"));
    let ns = time_passes(|| {
        responses
            .iter()
            .for_each(|r| keep(adapter::decode_response(r)))
    });
    out.push(timing("service.response_decode_us", ns, "us"));
    let ns = time_passes(|| p.sources.iter().for_each(|s| keep(adapter::route(s))));
    out.push(timing("service.route_us", ns, "us"));

    let sharded = ShardedProbe::new();
    for source in &p.sources {
        sharded.analyze(source)?;
    }
    let ns = time_passes(|| p.sources.iter().for_each(|s| keep(sharded.analyze(s))));
    out.push(timing("service.sharded_warm_us", ns, "us"));

    let bytes = |lines: &[String]| lines.iter().map(|l| l.len() as u64 + 1).sum();
    out.push(count("service.request_bytes", bytes(&requests), "B"));
    out.push(count("service.response_bytes", bytes(&responses), "B"));
    Ok(())
}

fn silobs(out: &mut Vec<Metric>) {
    let obs = ObsProbe::new();
    let ns = obs.in_request(|| time_op(20_000, || obs.span()));
    out.push(timing("silobs.span_ns", ns, "ns"));
    let mut value = 0u64;
    let ns = time_op(200_000, || {
        value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
        obs.record(value >> 44);
    });
    out.push(timing("silobs.hist_record_ns", ns, "ns"));
}
