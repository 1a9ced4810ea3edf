//! `ledger-e2e` — the end-to-end driver and the front door of the benchmark.
//!
//! ```text
//! ledger-e2e --workload W --seed N --seconds S --trace 0|1
//!     one run for the PR driver: prints metric lines, then one JSON object
//!     (`correct`, `attempted`, `failed`, `metrics`) as the last line.
//!     --trace 0: the end-to-end metrics of workload W.
//!     --trace 1: every per-layer metric — W's daemon counters over a short
//!     window, the daemon probes, and `ledger-layers --quick`.
//! ledger-e2e [--seed N] [--seconds S] [--smoke] [--only W] [--aa]
//!     the whole suite: every workload end to end, then every per-layer
//!     metric.  --smoke: 2 s windows.  --aa: twice on the same build, compared
//!     against the bounds in BENCHMARK.json.
//! ```
//!
//! Reads `LEDGER_ROOT` (the checkout; default `.`) and `LEDGER_SILD` (the
//! daemon binary; default `$LEDGER_ROOT/target/release/sild`), which `run.sh`
//! sets.  Exits non-zero when any reply was wrong or anything could not run.

use ledger::corpus::Corpus;
use ledger::daemon::hit_ratio;
use ledger::e2e::{self, Outcome, Plan};
use ledger::json::Value;
use ledger::probes;
use ledger::report::{result_json, Metric};
use ledger::workload::{Kind, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: ledger-e2e --workload W --seed N --seconds S --trace 0|1
       ledger-e2e [--seed N] [--seconds S] [--smoke] [--only W] [--aa]
workloads: warm_zipf cold_unique edit_stream process_warm disk_spill";

struct Env {
    sild: PathBuf,
    layers: PathBuf,
    bench_dir: PathBuf,
    corpus: Corpus,
    /// `BENCHMARK.json`, when the checkout has one.
    spec: Option<Value>,
}

impl Env {
    /// Resolve every path, then change into `benchmark/out/` so that run
    /// directories and socket paths are short relative ones.
    fn enter() -> Result<Env, String> {
        let root = PathBuf::from(std::env::var("LEDGER_ROOT").unwrap_or_else(|_| ".".into()));
        let absolute = |path: PathBuf| {
            std::fs::canonicalize(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let bench_dir = absolute(root.join("benchmark"))?;
        let sild = absolute(match std::env::var("LEDGER_SILD") {
            Ok(path) => PathBuf::from(path),
            Err(_) => root.join("target/release/sild"),
        })?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let layers = absolute(exe.with_file_name("ledger-layers"))?;
        let spec = std::fs::read_to_string(root.join("BENCHMARK.json"))
            .ok()
            .map(|text| Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}")))
            .transpose()?;
        let corpus = Corpus::load(&bench_dir.join("corpus"))?;
        let out = bench_dir.join("out");
        std::fs::create_dir_all(&out)
            .and_then(|()| std::env::set_current_dir(&out))
            .map_err(|e| format!("{}: {e}", out.display()))?;
        Ok(Env {
            sild,
            layers,
            bench_dir,
            corpus,
            spec,
        })
    }

    /// `run_seconds` of BENCHMARK.json: the window of a full suite run.
    fn default_seconds(&self) -> f64 {
        self.spec
            .as_ref()
            .and_then(|spec| spec.get("run_seconds"))
            .and_then(Value::as_u64)
            .map_or(15.0, |s| s as f64)
    }

    /// `(name, higher is better, bound)` of every end-to-end metric.
    fn bounds(&self) -> Vec<(String, bool, f64)> {
        let listed = self
            .spec
            .as_ref()
            .and_then(|spec| spec.get("end_to_end"))
            .and_then(Value::as_arr)
            .unwrap_or_default();
        listed
            .iter()
            .filter_map(|metric| {
                Some((
                    metric.get("name")?.as_str()?.to_string(),
                    metric.get("better")?.as_str()? == "higher",
                    match metric.get("bound")? {
                        Value::Num(bound) => *bound,
                        _ => return None,
                    },
                ))
            })
            .collect()
    }
}

/// A run's output: metric lines by scope (a workload name or `layers`), and
/// the request accounting behind `correct`.
#[derive(Default)]
struct Ledger {
    lines: Vec<(String, Metric)>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn push(&mut self, scope: &str, metric: Metric) {
        println!("{}", metric.line(scope));
        self.lines.push((scope.to_string(), metric));
    }

    fn value(&self, scope: &str, name: &str) -> Option<f64> {
        self.lines
            .iter()
            .find(|(s, m)| s == scope && m.name == name)
            .map(|(_, m)| m.value)
    }

    fn account(&mut self, scope: &str, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        for error in &outcome.errors {
            eprintln!("ledger-e2e: {scope}: wrong answer: {error}");
        }
    }
}

/// The metrics a user of the daemon would see, in BENCHMARK.json's order.
fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let (n, t) = (outcome.completed, &outcome.normal);
    vec![
        Metric::new("rps", t.rps, "1/s").with_samples(n),
        Metric::new("p99_us", t.p99_us, "us").with_samples(n),
        Metric::new("cpu_us_per_req", t.cpu_us_per_req, "us").with_samples(n),
        Metric::new("peak_rss_mb", outcome.peak_rss_mb, "MiB"),
        Metric::new("setup_s", t.setup_s, "s"),
    ]
}

/// The median round trip.  Demoted from the bounded metrics: on `disk_spill`
/// the memory tier answers 55 % of the requests in 0.3 ms and the disk tier
/// the rest in 5 ms, so the median sits on the edge between the two and
/// swings by a third from run to run.
fn median_latency(outcome: &Outcome) -> Metric {
    Metric::new("e2e.p50_us", outcome.normal.p50_us, "us").with_samples(outcome.completed)
}

/// The same timings as this machine produced them, before its own slowdown
/// was taken out, and that slowdown.  Printed for the reader; never bounded.
fn as_measured(outcome: &Outcome) -> Vec<Metric> {
    let t = &outcome.raw;
    vec![
        Metric::new("raw.rps", t.rps, "1/s"),
        Metric::new("raw.p50_us", t.p50_us, "us"),
        Metric::new("raw.p99_us", t.p99_us, "us"),
        Metric::new("raw.cpu_us_per_req", t.cpu_us_per_req, "us"),
        Metric::new("raw.setup_s", t.setup_s, "s"),
        Metric::new("machine_slowdown", outcome.slowdown, "ratio"),
        Metric::new("p99_samples_beyond", outcome.p99_beyond as f64, "count"),
    ]
}

/// The daemon's own counters over the window: why a workload's rate moved.
fn counters(outcome: &Outcome) -> Vec<Metric> {
    let c = &outcome.counters;
    vec![
        Metric::new("engine.programs_hit_ratio", hit_ratio(c.programs), "ratio"),
        Metric::new(
            "engine.summaries_hit_ratio",
            hit_ratio(c.summaries),
            "ratio",
        ),
        Metric::new("engine.walks_hit_ratio", hit_ratio(c.walks), "ratio"),
        Metric::new(
            "store.program_evictions",
            c.program_evictions as f64,
            "count",
        ),
        Metric::new("store.disk_hits", c.disk_hits as f64, "count"),
        Metric::new("store.disk_misses", c.disk_misses as f64, "count"),
    ]
}

/// Every per-layer metric that does not depend on a workload: the daemon
/// probes, then `ledger-layers`.  `full` adds what BENCHMARK.json leaves out
/// because it is optional (`--async`, `--lru`, `--lfu`) or slow
/// (`runtime.exec_*`).
fn layers(
    env: &Env,
    seed: u64,
    window: f64,
    full: bool,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let (server, threaded_cpu) = probes::servers(&env.sild, &env.corpus, seed, window, full)?;
    server.into_iter().for_each(|m| ledger.push("layers", m));
    for metric in probes::peer(&env.sild, &env.corpus)? {
        ledger.push("layers", metric);
    }
    for metric in probes::policies(&env.sild, &env.corpus, seed, full)? {
        ledger.push("layers", metric);
    }

    let mut command = Command::new(&env.layers);
    command
        .env("LEDGER_DIR", &env.bench_dir)
        .args(["--seed", &seed.to_string()]);
    if !full {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("{}: {e}", env.layers.display()))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        match Metric::parse_line(line) {
            Some((scope, metric)) => ledger.push(&scope, metric),
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("ledger-layers failed: {}", output.status));
    }

    // What the in-process stages leave unexplained of a warm request's
    // daemon CPU: socket I/O, thread wake-ups, spans, histograms.
    let traced = ledger
        .value("layers", "trace.warm_analyze.total_us")
        .ok_or("ledger-layers printed no trace.warm_analyze.total_us")?;
    ledger.push(
        "layers",
        Metric::new("server.overhead_us_per_req", threaded_cpu - traced, "us"),
    );
    ledger.push(
        "layers",
        Metric::new(
            "trace.warm_analyze.explained_share",
            traced / threaded_cpu,
            "ratio",
        ),
    );
    Ok(())
}

/// One pass over the suite: the chosen workloads end to end, then the layers.
fn suite(env: &Env, seed: u64, seconds: f64, only: Option<Kind>) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    for kind in Kind::ALL
        .into_iter()
        .filter(|k| only.is_none_or(|o| o == *k))
    {
        let workload = Workload::new(kind, &env.corpus, seed)?;
        let outcome = e2e::run(&workload, &env.sild, &[], &Plan::for_seconds(seconds))?;
        let scope = kind.name();
        ledger.account(scope, &outcome);
        let error_share = Metric::new(
            "error_share",
            outcome.failed as f64 / outcome.attempted as f64,
            "ratio",
        )
        .with_samples(outcome.attempted);
        let all = [
            end_to_end(&outcome),
            vec![error_share, median_latency(&outcome)],
            as_measured(&outcome),
            counters(&outcome),
        ];
        for metric in all.into_iter().flatten() {
            ledger.push(scope, metric);
        }
    }
    layers(env, seed, seconds / 4.0, true, &mut ledger)?;
    // With the matching workload measured, say how much of its daemon CPU
    // the traced stages account for.
    for (traced, scope) in [
        ("cold_analyze", "cold_unique"),
        ("warm_process", "process_warm"),
    ] {
        let total = ledger.value("layers", &format!("trace.{traced}.total_us"));
        if let (Some(total), Some(cpu)) = (total, ledger.value(scope, "cpu_us_per_req")) {
            let name = format!("trace.{traced}.explained_share");
            ledger.push("layers", Metric::new(name, total / cpu, "ratio"));
        }
    }
    Ok(ledger)
}

/// Run the suite twice on the same build and hold every end-to-end metric's
/// relative difference to its bound.  Returns how many exceeded it.
fn aa(env: &Env, seed: u64, seconds: f64, only: Option<Kind>) -> Result<(Ledger, u64), String> {
    let first = suite(env, seed, seconds, only)?;
    let second = suite(env, seed, seconds, only)?;
    let mut over = 0;
    println!("A/A: workload metric first second worse_by bound");
    for kind in Kind::ALL {
        for (name, higher_is_better, bound) in env.bounds() {
            let scope = kind.name();
            let (Some(a), Some(b)) = (first.value(scope, &name), second.value(scope, &name)) else {
                continue;
            };
            let worse_by = if higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse_by.abs() > bound { "OVER" } else { "ok" };
            over += u64::from(worse_by.abs() > bound);
            println!("A/A: {scope} {name} {a} {b} {worse_by:+.4} {bound} {verdict}");
        }
    }
    let mut both = first;
    both.attempted += second.attempted;
    both.failed += second.failed;
    Ok((both, over))
}

/// One driver run; prints the result line last.  Wrong answers are reported
/// in that line (`correct`, `failed`), not through the exit code.
fn driver(env: &Env, kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let workload = Workload::new(kind, &env.corpus, seed)?;
    let mut ledger = Ledger::default();
    let metrics = if trace {
        let plan = Plan {
            setups: (1, 1),
            ..Plan::for_seconds(seconds / 3.0)
        };
        let outcome = e2e::run(&workload, &env.sild, &[], &plan)?;
        ledger.account(kind.name(), &outcome);
        ledger.push("layers", median_latency(&outcome));
        for metric in counters(&outcome) {
            ledger.push("layers", metric);
        }
        layers(env, seed, seconds / 6.0, false, &mut ledger)?;
        ledger.lines.iter().map(|(_, m)| m.clone()).collect()
    } else {
        let outcome = e2e::run(&workload, &env.sild, &[], &Plan::for_seconds(seconds))?;
        ledger.account(kind.name(), &outcome);
        let metrics = end_to_end(&outcome);
        let informative = [vec![median_latency(&outcome)], as_measured(&outcome)].concat();
        for metric in metrics.iter().chain(&informative) {
            println!("{}", metric.line(kind.name()));
        }
        metrics
    };
    println!("{}", result_json(ledger.attempted, ledger.failed, &metrics));
    Ok(())
}

struct Args {
    workload: Option<Kind>,
    only: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        only: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let kind = |name: &String| {
            Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(kind(value()?)?),
            "--only" => parsed.only = Some(kind(value()?)?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 0.5 and 60".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => parsed.trace = value()? == "1",
            "--smoke" => parsed.smoke = true,
            "--aa" => parsed.aa = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<u64, String> {
    let env = Env::enter()?;
    let seconds = match (args.seconds, args.smoke) {
        (Some(seconds), _) => seconds,
        (None, true) => 2.0,
        (None, false) => env.default_seconds(),
    };
    let failed = match args.workload {
        Some(kind) => {
            driver(&env, kind, args.seed, seconds, args.trace)?;
            0
        }
        None if args.aa => {
            let (ledger, over) = aa(&env, args.seed, seconds, args.only)?;
            if over > 0 {
                eprintln!(
                    "ledger-e2e: {over} end-to-end metric(s) differ by more than their bound"
                );
            }
            ledger.failed + over
        }
        None => suite(&env, args.seed, seconds, args.only)?.failed,
    };
    leftovers()?;
    Ok(failed)
}

/// Fail if one of this process's run directories (and with it a socket or a
/// data directory) is still in `out/`: every `RunDir` should have removed
/// itself by now.
fn leftovers() -> Result<(), String> {
    let mine = format!("run-{}-", std::process::id());
    let left: Vec<String> = std::fs::read_dir(".")
        .map_err(|e| format!("out/: {e}"))?
        .filter_map(|entry| Some(entry.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| name.starts_with(&mine))
        .collect();
    match left.is_empty() {
        true => Ok(()),
        false => Err(format!("left behind in out/: {left:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger-e2e: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("ledger-e2e: {failed} failure(s)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
