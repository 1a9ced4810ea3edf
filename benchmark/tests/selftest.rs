//! Harness self-tests that need a live `sild` or today's crates: the
//! benchmark checking itself, not the repo.
//!
//! `cargo test --manifest-path benchmark/Cargo.toml` runs them; `sild` is
//! taken from `LEDGER_SILD`, or the usual target directories, or built.

use ledger::corpus::{Corpus, Template, TEMPLATE_SIZE};
use ledger::daemon::{Conn, Counters, Daemon, RunDir};
use ledger::e2e::{self, Plan};
use ledger::json::{escape, Value};
use ledger::layers::frozen;
use ledger::workload::{analyze_line, Kind, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn corpus() -> Corpus {
    Corpus::load(&manifest_dir().join("corpus")).expect("the frozen corpus loads")
}

/// Change into `benchmark/out/` once (run directories are relative paths)
/// and find or build the daemon.
fn sild() -> &'static Path {
    static SILD: OnceLock<PathBuf> = OnceLock::new();
    SILD.get_or_init(|| {
        let root = manifest_dir().parent().expect("benchmark/ has a parent");
        let mut candidates = vec![root.join("target/release/sild")];
        if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
            candidates.insert(0, root.join(dir).join("release/sild"));
        }
        if let Ok(path) = std::env::var("LEDGER_SILD") {
            candidates.insert(0, PathBuf::from(path));
        }
        let found = candidates.iter().find(|path| path.exists()).cloned();
        let sild = found.unwrap_or_else(|| {
            let built = Command::new("cargo")
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "-p",
                    "sil-engine",
                    "--bin",
                    "sild",
                ])
                .current_dir(root)
                .env_remove("CARGO_TARGET_DIR")
                .status()
                .expect("cargo runs");
            assert!(built.success(), "building sild failed");
            root.join("target/release/sild")
        });
        let out = manifest_dir().join("out");
        std::fs::create_dir_all(&out).expect("out/ can be created");
        std::env::set_current_dir(&out).expect("out/ can be entered");
        std::fs::canonicalize(sild).expect("sild exists")
    })
}

fn spawn(label: &str) -> (Daemon, RunDir) {
    let sild = sild();
    let dir = RunDir::create(label).expect("a run directory");
    (Daemon::spawn(sild, &dir, &[]).expect("sild starts"), dir)
}

fn summary<'v>(reply: &'v Value, key: &str) -> &'v Value {
    reply
        .path(&["summary", key])
        .unwrap_or_else(|| panic!("no summary.{key} in {reply:?}"))
}

/// A short plan: one set-up, a 0.6 s window.
fn quick_plan() -> Plan {
    Plan {
        setups: (1, 1),
        ..Plan::for_seconds(0.6)
    }
}

#[test]
fn json_escaping_round_trips_through_a_live_sild() {
    let corpus = corpus();
    let (daemon, _dir) = spawn("escape");
    let mut conn = daemon.connect().unwrap();
    let program = &corpus.programs[0];
    let clean = conn.call_json(&analyze_line(&program.source)).unwrap();
    assert_eq!(
        summary(&clean, "analysis_digest").as_str(),
        Some(program.expect.digest.as_str())
    );

    // The same program with a comment full of characters that need escaping:
    // if `sild` decodes what `escape` wrote, it sees the same program.
    let nasty = "{ \"quoted\" back\\slash tab\t bell\u{7} é ☃ 𝄞 }";
    let commented = format!("{}\n{nasty}\n", program.source);
    let reply = conn.call_json(&analyze_line(&commented)).unwrap();
    assert_eq!(
        summary(&reply, "cache_hit").as_bool(),
        Some(true),
        "{reply:?}"
    );
    assert_eq!(
        summary(&reply, "fingerprint"),
        summary(&clean, "fingerprint")
    );

    // And back: the lexer quotes an offending character in its message.
    for offender in ['"', '\\', '\u{1}'] {
        let reply = conn
            .call_json(&analyze_line(&format!("program t {offender}")))
            .unwrap();
        assert_eq!(reply.get("type").and_then(Value::as_str), Some("error"));
        let message = reply
            .path(&["error", "message"])
            .and_then(Value::as_str)
            .unwrap();
        assert!(
            message.contains(&format!("`{offender}`")),
            "{offender:?} did not come back in {message:?}"
        );
    }
    // `escape` itself never emits a raw control character.
    assert!(!escape(nasty).chars().any(|c| (c as u32) < 0x20));
}

fn prime(conn: &mut Conn, corpus: &Corpus) {
    for program in &corpus.programs {
        let reply = conn.call_json(&analyze_line(&program.source)).unwrap();
        assert_eq!(summary(&reply, "cache_hit").as_bool(), Some(false));
    }
}

fn analyze_variant(conn: &mut Conn, template: &Template, fill: &str) -> Value {
    let mut line = String::from("{\"protocol_version\":2,\"type\":\"analyze\",\"source\":\"");
    template.fill_into(&mut line, fill);
    line.push_str("\"}");
    conn.call_json(&line).unwrap()
}

#[test]
fn a_renamed_program_misses_everything_and_an_edited_one_reuses_walks() {
    let corpus = corpus();
    let (daemon, _dir) = spawn("variants");
    let mut conn = daemon.connect().unwrap();
    prime(&mut conn, &corpus);
    let template = &corpus.programs[corpus.of_size(TEMPLATE_SIZE)[0]];

    let before = Counters::read(&mut conn).unwrap();
    let reply = analyze_variant(&mut conn, &Template::renaming(&template.source), "_x9");
    let renamed = Counters::read(&mut conn).unwrap().since(&before);
    assert_eq!(summary(&reply, "cache_hit").as_bool(), Some(false));
    assert_eq!(
        summary(&reply, "rounds").as_u64(),
        Some(template.expect.rounds)
    );
    assert_ne!(
        summary(&reply, "analysis_digest").as_str(),
        Some(template.expect.digest.as_str()),
        "names are part of the digest"
    );
    // `main` keeps its name but calls renamed procedures: a new cone too.
    assert_eq!(
        (renamed.summaries.0, renamed.walks.0),
        (0, 0),
        "{renamed:?}"
    );
    assert!(renamed.walks.1 > 0);

    let before = Counters::read(&mut conn).unwrap();
    let edit = Template::editing(&template.source, TEMPLATE_SIZE).unwrap();
    let reply = analyze_variant(&mut conn, &edit, "123");
    let edited = Counters::read(&mut conn).unwrap().since(&before);
    assert_eq!(summary(&reply, "cache_hit").as_bool(), Some(false));
    assert_eq!(
        summary(&reply, "structure").as_str(),
        Some(template.expect.structure.as_str())
    );
    assert!(edited.walks.0 > 0, "callee cones must hit: {edited:?}");
    assert!(edited.walks.1 > 0, "main's cone is new: {edited:?}");
}

#[test]
fn a_corrupted_expectation_fails_the_run_and_a_correct_one_passes() {
    let sild = sild();
    let good = corpus();
    let workload = Workload::new(Kind::WarmZipf, &good, 11).unwrap();
    let outcome = e2e::run(&workload, sild, &[], &quick_plan()).unwrap();
    assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
    assert!(outcome.attempted > 64 && outcome.completed > 0);
    assert!(outcome.normal.rps > 0.0 && outcome.raw.p50_us > 0.0);

    // Flip one digit of the hottest program's digest: every request for it
    // now "disagrees with expected.tsv".
    let mut bad = good.clone();
    let digest = &mut bad.programs[0].expect.digest;
    let flipped = if digest.ends_with('0') { "1" } else { "0" };
    digest.replace_range(digest.len() - 1.., flipped);
    let workload = Workload::new(Kind::WarmZipf, &bad, 11).unwrap();
    let outcome = e2e::run(&workload, sild, &[], &quick_plan()).unwrap();
    assert!(outcome.failed > 0);
    assert!(
        outcome.errors[0].contains("analysis_digest"),
        "{:?}",
        outcome.errors
    );
}

#[test]
fn every_workload_answers_correctly_with_the_counters_it_promises() {
    let sild = sild();
    let corpus = corpus();
    for kind in Kind::ALL {
        let workload = Workload::new(kind, &corpus, 5).unwrap();
        let outcome = e2e::run(&workload, sild, &[], &quick_plan()).unwrap();
        assert_eq!(outcome.failed, 0, "{}: {:?}", kind.name(), outcome.errors);
        let c = outcome.counters;
        match kind {
            Kind::WarmZipf | Kind::ProcessWarm => assert_eq!(c.programs.1, 0, "{c:?}"),
            Kind::ColdUnique => {
                assert_eq!((c.programs.0, c.summaries.0, c.walks.0), (0, 0, 0), "{c:?}")
            }
            Kind::EditStream => {
                assert_eq!(c.programs.0, 0, "{c:?}");
                let walks = c.walks.0 as f64 / (c.walks.0 + c.walks.1) as f64;
                assert!((0.5..0.8).contains(&walks), "walk hit ratio {walks}");
            }
            Kind::DiskSpill => {
                assert!(c.disk_hits > 0 && c.program_evictions > 0, "{c:?}");
                // Only never-seen programs are analyzed; a primed one is
                // found in memory or on disk.
                assert!(c.programs.1 * 10 < c.programs.0, "{c:?}");
            }
        }
    }
}

#[test]
fn a_daemon_does_not_outlive_its_guard_even_on_panic() {
    let (daemon, dir) = spawn("hygiene");
    let (pid, path) = (daemon.pid(), dir.path().to_path_buf());
    assert!(path.join("d.sock").exists());
    assert!(Path::new(&format!("/proc/{pid}")).exists());
    let panicked = std::thread::spawn(move || {
        let _guards = (daemon, dir);
        panic!("simulated harness failure");
    })
    .join();
    assert!(panicked.is_err());
    // Killed and reaped, so the pid is gone; socket and directory with it.
    assert!(
        !Path::new(&format!("/proc/{pid}")).exists(),
        "sild {pid} survived"
    );
    assert!(!path.exists(), "{} was left behind", path.display());
}

#[test]
fn only_the_adapter_names_a_repo_crate() {
    const CRATES: [&str; 9] = [
        "sil_lang",
        "sil_pathmatrix",
        "sil_analysis",
        "sil_parallelizer",
        "sil_runtime",
        "sil_workloads",
        "sil_engine",
        "silobs",
        "silio",
    ];
    // A path into a crate or an import of one; prose may mention the names.
    let names_a_crate = |code: &str| {
        CRATES
            .iter()
            .any(|c| code.contains(&format!("{c}::")) || code.contains(&format!("use {c}")))
    };
    let mut stack = vec![manifest_dir().join("src")];
    let mut offenders = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|name| name != "adapter.rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                for (number, line) in text.lines().enumerate() {
                    let code = line.trim_start();
                    if !code.starts_with("//") && names_a_crate(code) {
                        offenders.push(format!("{}:{}: {code}", path.display(), number + 1));
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "repo crates named outside adapter.rs:\n{offenders:#?}"
    );
}

#[test]
fn corpus_drift_is_reported_not_hidden() {
    let frozen_corpus = corpus();
    assert_eq!(frozen_corpus.programs.len(), 64);
    // Whatever today's tree says, say it; a later PR that changes
    // `Workload::source` sees these lines in its test log and in the
    // `corpus.drift` metric, and the frozen files keep gating `sild`.
    for line in frozen::drift(&frozen_corpus) {
        println!("corpus drift: {line}");
    }
    // The reporter itself must notice a changed source and a changed answer.
    let mut doctored = frozen_corpus.clone();
    doctored.programs[3].source.push_str("{ edited }\n");
    doctored.programs[5].expect.rounds += 1;
    let drift = frozen::drift(&doctored);
    let extra = drift.len() - frozen::drift(&frozen_corpus).len();
    assert_eq!(extra, 2, "{drift:#?}");
    assert!(drift
        .iter()
        .any(|l| l.contains(&doctored.programs[3].name) && l.contains("source")));
    assert!(drift
        .iter()
        .any(|l| l.contains(&doctored.programs[5].name) && l.contains("rounds")));
}
