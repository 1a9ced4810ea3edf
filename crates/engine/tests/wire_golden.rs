//! Golden bytes of everything this build puts on a socket or in a segment
//! file, pinned *across* builds.
//!
//! Every other byte-level check in the repo compares one build with itself
//! (in-process vs daemon, encode → parse → encode).  This file holds the
//! bytes literally: one line per request and response kind built from fixed
//! sample values, the optional-member variants, and — for the 64-program
//! corpus analyzed into one engine — the length and checksum of every
//! program and summary-table entry body exactly as a `peer_fetch` answers
//! it, which is the document the durable tier appends.  A data directory or
//! a peer from an older build keeps working exactly as long as this file
//! passes unedited.
//!
//! To regenerate `golden/entry_bodies.txt` after an *intentional* format
//! change (which is a protocol or entry version bump, not a refactor):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p sil-engine --test wire_golden
//! ```

mod common;

use sil_engine::service::{
    AnalyzeSummary, ErrorKind, Json, PeerNamespace, Request, Response, ServerStats, ServiceError,
    TraceHeader, TraceSpan,
};
use sil_engine::{
    CacheStats, DiskStats, Engine, EngineConfig, EngineStats, ExecutionReport, IncrementalReport,
    NamespaceStats, PeerStats, ProcessOptions, ProgramReport, StoreStats,
};
use sil_lang::hash::fnv1a as checksum;
use silobs::{HistogramSummary, HistorySample, MetricsSnapshot};

const ENTRY_BODIES: &str = include_str!("golden/entry_bodies.txt");

// ------------------------------------------------------------ sample values

fn cache(hits: u64, misses: u64, insertions: u64, evictions: u64) -> CacheStats {
    CacheStats {
        hits,
        misses,
        insertions,
        evictions,
    }
}

fn namespace(entries: usize, capacity: usize) -> NamespaceStats {
    NamespaceStats {
        totals: cache(7, 3, 3, 1),
        entries,
        capacity,
        stripes: vec![cache(7, 1, 1, 1), cache(0, 2, 2, 0)],
    }
}

fn store_stats() -> StoreStats {
    StoreStats {
        programs: namespace(2, 256),
        summaries: namespace(5, 1024),
        walks: namespace(3, 512),
        products: namespace(1, 256),
        disk: None,
        peer: None,
    }
}

fn disk_stats() -> DiskStats {
    DiskStats {
        hits: 4,
        misses: 2,
        read_bytes: 4096,
        written_bytes: 8192,
        entries: 6,
        live_bytes: 8000,
        segments: 2,
        flushes: 3,
        compactions: 1,
        evictions: 1,
        recovered_entries: 5,
        dropped_bytes: 17,
    }
}

fn peer_stats() -> PeerStats {
    PeerStats {
        peers: 2,
        quarantined: 1,
        hits: 9,
        misses: 4,
        gossip_rounds: 31,
        quarantines: 1,
        bytes_in: 2048,
        bytes_out: 512,
        serves: 6,
        known_keys: 11,
    }
}

fn shard_stats() -> Vec<EngineStats> {
    vec![
        EngineStats::default(),
        EngineStats {
            programs: cache(4, 2, 2, 0),
            summaries: cache(1, 5, 5, 0),
            walks: cache(0, 6, 6, 2),
        },
    ]
}

fn options() -> ProcessOptions {
    ProcessOptions {
        parallelize: true,
        verify: false,
        execute: true,
        emit_parallel_source: true,
        store_capacity: 77,
    }
}

fn header() -> TraceHeader {
    TraceHeader {
        id: 0xabc,
        parent: 0x17,
    }
}

fn flat_span() -> TraceSpan {
    TraceSpan {
        request: 1,
        span: "parse".into(),
        start_us: 10,
        end_us: 25,
        trace: 0,
        span_id: 0,
        parent: 0,
        origin: "in-process".into(),
    }
}

fn tree_span() -> TraceSpan {
    TraceSpan {
        request: 2,
        span: "serve".into(),
        start_us: 310,
        end_us: 315,
        trace: 0x2a,
        span_id: 0x1f,
        parent: 0x10,
        origin: "unix:/tmp/a.sock".into(),
    }
}

fn summary() -> AnalyzeSummary {
    AnalyzeSummary {
        fingerprint: 0xfeed,
        cache_hit: true,
        structure: "TREE".into(),
        preserves_tree: true,
        warnings: vec!["w\n1".into()],
        rounds: 3,
        analysis_digest: 0xbeef,
    }
}

fn bare_report() -> ProgramReport {
    ProgramReport {
        name: "t".into(),
        fingerprint: 0xabcd,
        cache_hit: false,
        structure: "DAG?".into(),
        preserves_tree: false,
        warnings: vec!["w \"quoted\"".into()],
        rounds: 2,
        analysis_digest: 1,
        incremental: None,
        transforms: None,
        violations: vec![],
        parallel_source: None,
        sequential_execution: None,
        parallel_execution: None,
    }
}

fn full_report() -> ProgramReport {
    ProgramReport {
        incremental: Some(IncrementalReport {
            procedures_reused: 3,
            procedures_stale: 1,
            walks_performed: 2,
            walks_reused: 6,
        }),
        transforms: Some(3),
        violations: vec!["v1".into(), "v2".into()],
        parallel_source: Some("program t\nmain() { a || b }\n".into()),
        sequential_execution: Some(ExecutionReport {
            work: 10,
            span: 5,
            parallelism: 2.0,
            allocated_nodes: 7,
        }),
        parallel_execution: Some(ExecutionReport {
            work: 10,
            span: 4,
            parallelism: 2.5,
            allocated_nodes: 7,
        }),
        ..bare_report()
    }
}

fn metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![
            ("engine.programs.hits".to_string(), 12),
            ("engine.programs.misses".to_string(), 3),
        ],
        gauges: vec![("server.queue_depth".to_string(), -1)],
        histograms: vec![(
            "server.serve_us".to_string(),
            HistogramSummary {
                count: 100,
                sum: 54_321,
                min: 80,
                max: 9_001,
                p50: 420,
                p90: 1_500,
                p99: 7_777,
                p999: 9_001,
            },
        )],
    }
}

fn entry_body() -> Json {
    Json::obj(vec![
        ("v", Json::Int(1)),
        ("fingerprint", Json::Str("000000000000feed".into())),
    ])
}

// ------------------------------------------------------------------ checks

fn pin_request(request: Request, line: &str) {
    assert_eq!(request.encode(), line, "request bytes drifted");
    assert_eq!(
        Request::decode(line).unwrap(),
        request,
        "pinned line decodes differently"
    );
}

fn pin_response(response: Response, line: &str) {
    assert_eq!(response.encode(), line, "response bytes drifted");
    assert_eq!(
        Response::decode(line).unwrap(),
        response,
        "pinned line decodes differently"
    );
}

const NAMESPACE_TAIL: &str = r#""stripes":[{"hits":7,"misses":1,"insertions":1,"evictions":1},{"hits":0,"misses":2,"insertions":2,"evictions":0}]}"#;
const TOTALS: &str = r#""totals":{"hits":7,"misses":3,"insertions":3,"evictions":1}"#;

/// The four namespaces of [`store_stats`], as the members of a `store`
/// object (no braces, so the optional members can follow).
fn store_members() -> String {
    let ns = |name: &str, entries: usize, capacity: usize| {
        format!(r#""{name}":{{{TOTALS},"entries":{entries},"capacity":{capacity},{NAMESPACE_TAIL}"#)
    };
    [
        ns("programs", 2, 256),
        ns("summaries", 5, 1024),
        ns("walks", 3, 512),
        ns("products", 1, 256),
    ]
    .join(",")
}

const SHARDS_AND_TOTAL: &str = concat!(
    r#""shards":[{"programs":{"hits":0,"misses":0,"insertions":0,"evictions":0},"#,
    r#""summaries":{"hits":0,"misses":0,"insertions":0,"evictions":0},"#,
    r#""walks":{"hits":0,"misses":0,"insertions":0,"evictions":0}},"#,
    r#"{"programs":{"hits":4,"misses":2,"insertions":2,"evictions":0},"#,
    r#""summaries":{"hits":1,"misses":5,"insertions":5,"evictions":0},"#,
    r#""walks":{"hits":0,"misses":6,"insertions":6,"evictions":2}}],"#,
    r#""total":{"programs":{"hits":4,"misses":2,"insertions":2,"evictions":0},"#,
    r#""summaries":{"hits":1,"misses":5,"insertions":5,"evictions":0},"#,
    r#""walks":{"hits":0,"misses":6,"insertions":6,"evictions":2}}"#
);

const DISK: &str = concat!(
    r#""disk":{"hits":4,"misses":2,"read_bytes":4096,"written_bytes":8192,"entries":6,"#,
    r#""live_bytes":8000,"segments":2,"flushes":3,"compactions":1,"evictions":1,"#,
    r#""recovered_entries":5,"dropped_bytes":17}"#
);

const PEER: &str = concat!(
    r#""peer":{"peers":2,"quarantined":1,"hits":9,"misses":4,"gossip_rounds":31,"#,
    r#""quarantines":1,"bytes_in":2048,"bytes_out":512,"serves":6,"known_keys":11}"#
);

const BARE_REPORT: &str = concat!(
    r#"{"name":"t","fingerprint":"000000000000abcd","cache_hit":false,"structure":"DAG?","#,
    r#""preserves_tree":false,"warnings":["w \"quoted\""],"rounds":2,"#,
    r#""analysis_digest":"0000000000000001","violations":[]}"#
);

const FULL_REPORT: &str = concat!(
    r#"{"name":"t","fingerprint":"000000000000abcd","cache_hit":false,"structure":"DAG?","#,
    r#""preserves_tree":false,"warnings":["w \"quoted\""],"rounds":2,"#,
    r#""analysis_digest":"0000000000000001","#,
    r#""incremental":{"procedures_reused":3,"procedures_stale":1,"walks_performed":2,"walks_reused":6},"#,
    r#""transforms":3,"violations":["v1","v2"],"#,
    r#""parallel_source":"program t\nmain() { a || b }\n","#,
    r#""sequential_execution":{"work":10,"span":5,"parallelism":2.0,"allocated_nodes":7},"#,
    r#""parallel_execution":{"work":10,"span":4,"parallelism":2.5,"allocated_nodes":7}}"#
);

const OPTIONS: &str = r#""options":{"parallelize":true,"verify":false,"execute":true,"emit_parallel_source":true,"store_capacity":77}"#;

const TRACE: &str = r#""trace":{"id":"0000000000000abc","parent":"0000000000000017"}"#;

const FLAT_SPAN: &str = concat!(
    r#"{"request":1,"span":"parse","start_us":10,"end_us":25,"duration_us":15,"#,
    r#""trace":"0000000000000000","span_id":"0000000000000000","parent":"0000000000000000","#,
    r#""origin":"in-process"}"#
);

const TREE_SPAN: &str = concat!(
    r#"{"request":2,"span":"serve","start_us":310,"end_us":315,"duration_us":5,"#,
    r#""trace":"000000000000002a","span_id":"000000000000001f","parent":"0000000000000010","#,
    r#""origin":"unix:/tmp/a.sock"}"#
);

const METRICS: &str = concat!(
    r#"{"counters":{"engine.programs.hits":12,"engine.programs.misses":3},"#,
    r#""gauges":{"server.queue_depth":-1},"#,
    r#""histograms":{"server.serve_us":{"count":100,"sum":54321,"min":80,"max":9001,"#,
    r#""p50":420,"p90":1500,"p99":7777,"p999":9001}}}"#
);

const SUMMARY: &str = concat!(
    r#""summary":{"fingerprint":"000000000000feed","cache_hit":true,"structure":"TREE","#,
    r#""preserves_tree":true,"warnings":["w\n1"],"rounds":3,"analysis_digest":"000000000000beef"}"#
);

// ------------------------------------------------------------------- tests

#[test]
fn every_request_kind_encodes_to_its_pinned_line() {
    pin_request(
        Request::analyze("program p\nmain() {}\n"),
        r#"{"protocol_version":2,"type":"analyze","source":"program p\nmain() {}\n"}"#,
    );
    pin_request(
        Request::process("src with \"quotes\" and \u{1}", options()),
        &format!(
            r#"{{"protocol_version":2,"type":"process","source":"src with \"quotes\" and \u0001",{OPTIONS}}}"#
        ),
    );
    pin_request(
        Request::batch(vec!["a".into(), "b\nb".into()], options()),
        &format!(r#"{{"protocol_version":2,"type":"batch","sources":["a","b\nb"],{OPTIONS}}}"#),
    );
    pin_request(
        Request::process("x", ProcessOptions::default()),
        concat!(
            r#"{"protocol_version":2,"type":"process","source":"x","options":{"parallelize":true,"#,
            r#""verify":true,"execute":false,"emit_parallel_source":false,"store_capacity":262144}}"#
        ),
    );
    for (request, kind) in [
        (Request::stats(), "stats"),
        (Request::metrics(), "metrics"),
        (Request::trace_dump(), "trace_dump"),
        (Request::clear_caches(), "clear_caches"),
        (Request::shutdown(), "shutdown"),
        (Request::peer_inventory(), "peer_inventory"),
        (Request::metrics_history(), "metrics_history"),
    ] {
        pin_request(
            request,
            &format!(r#"{{"protocol_version":2,"type":"{kind}"}}"#),
        );
    }
    pin_request(
        Request::peer_fetch(PeerNamespace::Programs, 0xdead_beef),
        r#"{"protocol_version":2,"type":"peer_fetch","namespace":"programs","key":"00000000deadbeef"}"#,
    );
    pin_request(
        Request::peer_fetch(PeerNamespace::Summaries, u64::MAX),
        r#"{"protocol_version":2,"type":"peer_fetch","namespace":"summaries","key":"ffffffffffffffff"}"#,
    );
    pin_request(
        Request::stats().with_version(99),
        r#"{"protocol_version":99,"type":"stats"}"#,
    );
}

#[test]
fn traced_requests_carry_the_header_last() {
    pin_request(
        Request::analyze("x").with_trace(header()),
        &format!(r#"{{"protocol_version":2,"type":"analyze","source":"x",{TRACE}}}"#),
    );
    pin_request(
        Request::process("x", options()).with_trace(header()),
        &format!(r#"{{"protocol_version":2,"type":"process","source":"x",{OPTIONS},{TRACE}}}"#),
    );
    pin_request(
        Request::batch(vec!["a".into()], options()).with_trace(header()),
        &format!(r#"{{"protocol_version":2,"type":"batch","sources":["a"],{OPTIONS},{TRACE}}}"#),
    );
    pin_request(
        Request::peer_fetch(PeerNamespace::Summaries, 9).with_trace(header()),
        &format!(
            r#"{{"protocol_version":2,"type":"peer_fetch","namespace":"summaries","key":"0000000000000009",{TRACE}}}"#
        ),
    );
}

#[test]
fn every_response_kind_encodes_to_its_pinned_line() {
    pin_response(
        Response::analyzed(summary()),
        &format!(r#"{{"protocol_version":2,"type":"analyzed",{SUMMARY}}}"#),
    );
    pin_response(
        Response::report(bare_report()),
        &format!(r#"{{"protocol_version":2,"type":"report","report":{BARE_REPORT}}}"#),
    );
    pin_response(
        Response::batch(vec![
            Ok(full_report()),
            Err(ServiceError::new(
                ErrorKind::Frontend,
                "parse error at line 1",
            )),
        ]),
        &format!(
            r#"{{"protocol_version":2,"type":"batch","items":[{{"report":{FULL_REPORT}}},{{"error":{{"kind":"frontend","message":"parse error at line 1"}}}}]}}"#
        ),
    );
    pin_response(
        Response::stats(shard_stats(), store_stats()),
        &format!(
            r#"{{"protocol_version":2,"type":"stats",{SHARDS_AND_TOTAL},"store":{{{}}}}}"#,
            store_members()
        ),
    );
    pin_response(
        Response::metrics(metrics()),
        &format!(r#"{{"protocol_version":2,"type":"metrics","metrics":{METRICS}}}"#),
    );
    pin_response(
        Response::metrics(MetricsSnapshot::default()),
        r#"{"protocol_version":2,"type":"metrics","metrics":{"counters":{},"gauges":{},"histograms":{}}}"#,
    );
    pin_response(
        Response::trace(vec![flat_span(), tree_span()]),
        &format!(r#"{{"protocol_version":2,"type":"trace","spans":[{FLAT_SPAN},{TREE_SPAN}]}}"#),
    );
    pin_response(
        Response::cleared(),
        r#"{"protocol_version":2,"type":"cleared"}"#,
    );
    pin_response(
        Response::shutting_down(),
        r#"{"protocol_version":2,"type":"shutting_down"}"#,
    );
    pin_response(
        Response::peer_inventory(3, vec![1, 0xabc, u64::MAX], vec![]),
        concat!(
            r#"{"protocol_version":2,"type":"peer_inventory","generation":3,"#,
            r#""programs":["0000000000000001","0000000000000abc","ffffffffffffffff"],"summaries":[]}"#
        ),
    );
    pin_response(
        Response::peer_entry(PeerNamespace::Programs, 0xfeed, 2, Some(entry_body())),
        concat!(
            r#"{"protocol_version":2,"type":"peer_entry","namespace":"programs","#,
            r#""key":"000000000000feed","generation":2,"body":{"v":1,"fingerprint":"000000000000feed"}}"#
        ),
    );
    pin_response(
        Response::peer_entry(PeerNamespace::Summaries, 7, 0, None),
        concat!(
            r#"{"protocol_version":2,"type":"peer_entry","namespace":"summaries","#,
            r#""key":"0000000000000007","generation":0}"#
        ),
    );
    pin_response(
        Response::metrics_history(vec![
            HistorySample {
                at_us: 1_000_000,
                metrics: metrics(),
            },
            HistorySample {
                at_us: 2_000_000,
                metrics: MetricsSnapshot::default(),
            },
        ]),
        &format!(
            r#"{{"protocol_version":2,"type":"metrics_history","samples":[{{"at_us":1000000,"metrics":{METRICS}}},{{"at_us":2000000,"metrics":{{"counters":{{}},"gauges":{{}},"histograms":{{}}}}}}]}}"#
        ),
    );
    pin_response(
        Response::error(ServiceError::version_mismatch(99)),
        concat!(
            r#"{"protocol_version":2,"type":"error","error":{"kind":"protocol","#,
            r#""message":"protocol version 99 is not supported; this service speaks 2"}}"#
        ),
    );
    for (kind, name) in [
        (ErrorKind::Runtime, "runtime"),
        (ErrorKind::Transport, "transport"),
        (ErrorKind::Malformed, "malformed"),
    ] {
        pin_response(
            Response::error(ServiceError::new(kind, "m")),
            &format!(
                r#"{{"protocol_version":2,"type":"error","error":{{"kind":"{name}","message":"m"}}}}"#
            ),
        );
    }
}

#[test]
fn optional_response_members_ride_where_they_always_have() {
    // Piggybacked spans ride last on the four work-carrying kinds.
    pin_response(
        Response::analyzed(summary()).with_trace_spans(vec![tree_span()]),
        &format!(
            r#"{{"protocol_version":2,"type":"analyzed",{SUMMARY},"trace_spans":[{TREE_SPAN}]}}"#
        ),
    );
    pin_response(
        Response::report(bare_report()).with_trace_spans(vec![flat_span(), tree_span()]),
        &format!(
            r#"{{"protocol_version":2,"type":"report","report":{BARE_REPORT},"trace_spans":[{FLAT_SPAN},{TREE_SPAN}]}}"#
        ),
    );
    pin_response(
        Response::batch(vec![Ok(bare_report())]).with_trace_spans(vec![tree_span()]),
        &format!(
            r#"{{"protocol_version":2,"type":"batch","items":[{{"report":{BARE_REPORT}}}],"trace_spans":[{TREE_SPAN}]}}"#
        ),
    );
    pin_response(
        Response::peer_entry(PeerNamespace::Programs, 0xfeed, 2, Some(entry_body()))
            .with_trace_spans(vec![tree_span()]),
        &format!(
            concat!(
                r#"{{"protocol_version":2,"type":"peer_entry","namespace":"programs","#,
                r#""key":"000000000000feed","generation":2,"#,
                r#""body":{{"v":1,"fingerprint":"000000000000feed"}},"trace_spans":[{}]}}"#
            ),
            TREE_SPAN
        ),
    );

    // `server` follows `store`; `disk` and `peer` close the store object.
    let server = ServerStats {
        kind: "async".into(),
        accepted: 41,
        active: 3,
        uptime_ticks: 17,
    };
    pin_response(
        Response::stats(shard_stats(), store_stats()).with_server_stats(server.clone()),
        &format!(
            r#"{{"protocol_version":2,"type":"stats",{SHARDS_AND_TOTAL},"store":{{{}}},"server":{{"kind":"async","accepted":41,"active":3,"uptime_ticks":17}}}}"#,
            store_members()
        ),
    );
    let with = |disk: Option<DiskStats>, peer: Option<PeerStats>| StoreStats {
        disk,
        peer,
        ..store_stats()
    };
    pin_response(
        Response::stats(shard_stats(), with(Some(disk_stats()), None)),
        &format!(
            r#"{{"protocol_version":2,"type":"stats",{SHARDS_AND_TOTAL},"store":{{{},{DISK}}}}}"#,
            store_members()
        ),
    );
    pin_response(
        Response::stats(shard_stats(), with(None, Some(peer_stats()))),
        &format!(
            r#"{{"protocol_version":2,"type":"stats",{SHARDS_AND_TOTAL},"store":{{{},{PEER}}}}}"#,
            store_members()
        ),
    );
    pin_response(
        Response::stats(shard_stats(), with(Some(disk_stats()), Some(peer_stats())))
            .with_server_stats(server),
        &format!(
            r#"{{"protocol_version":2,"type":"stats",{SHARDS_AND_TOTAL},"store":{{{},{DISK},{PEER}}},"server":{{"kind":"async","accepted":41,"active":3,"uptime_ticks":17}}}}"#,
            store_members()
        ),
    );
}

/// A reply from a daemon that predates the `products` namespace decodes
/// with an empty zero-capacity one, and this build writes the member back.
#[test]
fn a_store_payload_without_products_still_decodes() {
    let current = Response::stats(shard_stats(), store_stats()).encode();
    let products = format!(r#","products":{{{TOTALS},"entries":1,"capacity":256,{NAMESPACE_TAIL}"#);
    let older = current.replace(&products, "");
    assert_ne!(older, current, "the sample carries a products member");
    assert!(!older.contains("\"products\""));
    let Response::Stats { store, .. } = Response::decode(&older).unwrap() else {
        panic!("a stats line decodes to a stats response");
    };
    assert_eq!(store.programs, store_stats().programs);
    assert_eq!(
        store.products,
        NamespaceStats {
            totals: CacheStats::default(),
            entries: 0,
            capacity: 0,
            stripes: Vec::new(),
        }
    );
    let rewritten = Response::stats(shard_stats(), *store).encode();
    assert!(rewritten.contains(concat!(
        r#","products":{"totals":{"hits":0,"misses":0,"insertions":0,"evictions":0},"#,
        r#""entries":0,"capacity":0,"stripes":[]}}"#
    )));
}

/// A reply from a daemon that still chose between eviction policies
/// carries four more members per namespace.  This build reads past them —
/// the rest of the line decodes to the same value — and does not write
/// them back.  (The other direction does not hold: that daemon's `silp`
/// requires the four members, cannot read this build's `stats` reply, and
/// so fails its connect-time `stats` handshake against this build's daemon.)
#[test]
fn a_stats_line_with_the_retired_policy_members_still_decodes() {
    let current = Response::stats(shard_stats(), store_stats());
    let older = current.encode().replace(
        r#","stripes":[{"#,
        r#","policy":"adaptive","current":"lfu","switches":1,"ghost_hits":9,"stripes":[{"#,
    );
    assert_eq!(
        older
            .matches(r#""policy":"adaptive","current":"lfu""#)
            .count(),
        4
    );
    assert!(older.contains(concat!(
        r#""store":{"programs":{"totals":{"hits":7,"misses":3,"insertions":3,"evictions":1},"#,
        r#""entries":2,"capacity":256,"policy":"adaptive","current":"lfu","switches":1,"#,
        r#""ghost_hits":9,"stripes":[{"hits":7,"misses":1,"insertions":1,"evictions":1},"#
    )));
    let decoded = Response::decode(&older).unwrap();
    assert_eq!(decoded, current);
    assert_eq!(
        decoded.encode(),
        format!(
            r#"{{"protocol_version":2,"type":"stats",{SHARDS_AND_TOTAL},"store":{{{}}}}}"#,
            store_members()
        )
    );
}

#[test]
fn reports_pin_every_optional_member_absent_and_present() {
    assert_eq!(bare_report().to_json(), BARE_REPORT);
    assert_eq!(
        ProgramReport::from_json(BARE_REPORT).unwrap(),
        bare_report()
    );
    assert_eq!(full_report().to_json(), FULL_REPORT);
    assert_eq!(
        ProgramReport::from_json(FULL_REPORT).unwrap(),
        full_report()
    );
}

// ------------------------------------------------------------ entry bodies

/// `(namespace, key, body length, body checksum)` of every entry the
/// engine holds after analyzing the corpus, in inventory order, as a
/// `peer_fetch` answers them.
fn current_entry_bodies() -> Vec<(PeerNamespace, u64, usize, u64)> {
    let engine = Engine::new(EngineConfig::default());
    for (name, source) in common::corpus() {
        match engine.serve(Request::analyze(source)) {
            Response::Analyzed { .. } => {}
            other => panic!("{name}: {other:?}"),
        }
    }
    let Response::PeerInventory {
        programs,
        summaries,
        ..
    } = engine.serve(Request::peer_inventory())
    else {
        panic!("a peer_inventory request is answered with an inventory");
    };
    let mut out = Vec::new();
    for (namespace, keys) in [
        (PeerNamespace::Programs, programs),
        (PeerNamespace::Summaries, summaries),
    ] {
        for key in keys {
            let Response::PeerEntry {
                body: Some(body), ..
            } = engine.serve(Request::peer_fetch(namespace, key))
            else {
                panic!("{namespace:?} {key:016x} is in the inventory but not served");
            };
            let bytes = body.encode().into_bytes();
            out.push((namespace, key, bytes.len(), checksum(&bytes)));
        }
    }
    out
}

fn render(bodies: &[(PeerNamespace, u64, usize, u64)]) -> String {
    let mut out = String::new();
    for (namespace, key, len, sum) in bodies {
        let namespace = match namespace {
            PeerNamespace::Programs => "programs",
            PeerNamespace::Summaries => "summaries",
        };
        out.push_str(&format!("{namespace} {key:016x} {len} {sum:016x}\n"));
    }
    out
}

#[test]
fn corpus_entry_bodies_match_the_golden_file() {
    let current = current_entry_bodies();
    let programs = current
        .iter()
        .filter(|(namespace, ..)| *namespace == PeerNamespace::Programs)
        .count();
    assert_eq!(programs, 64, "one program entry per corpus program");
    let rendered = render(&current);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/entry_bodies.txt");
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden: Vec<&str> = ENTRY_BODIES.lines().collect();
    let fresh: Vec<&str> = rendered.lines().collect();
    assert_eq!(
        golden.len(),
        fresh.len(),
        "golden file has {} entries, the engine holds {}",
        golden.len(),
        fresh.len()
    );
    for (want, got) in golden.iter().zip(&fresh) {
        assert_eq!(want, got, "an entry body's bytes drifted from the golden");
    }
}
