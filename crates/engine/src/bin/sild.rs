//! `sild` — the SIL analysis daemon.
//!
//! Hosts one memoizing [`Engine`] over a lock-striped summary store behind
//! one socket.  Clients (`silp --connect`, or anything that can write a
//! line of JSON) speak the newline-delimited protocol of
//! `sil_engine::service::proto`; one thread serves each connection,
//! answering its requests in order and calling straight into the engine.
//!
//! ```text
//! sild --listen unix:/tmp/sild.sock               on a unix socket
//! sild --listen tcp:127.0.0.1:7777                on TCP
//! silp --connect unix:/tmp/sild.sock --workload all
//! ```
//!
//! The daemon runs until it receives a `shutdown` request (`silp
//! --shutdown` or a raw `{"protocol_version":2,"type":"shutdown"}` line).

#![forbid(unsafe_code)]

use sil_engine::cli::unknown_flag_error;
use sil_engine::service::{Addr, Server, ServerOptions};
use sil_engine::{DurableConfig, Engine, EngineConfig, PeerConfig, PeerRing};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: sild --listen <addr> [options]

options:
  --listen <addr>     address to serve: unix:<path> or tcp:<host:port>
                      (tcp:host:0 picks a free port and prints it)
  --data-dir <path>   persist analyzed programs in append-only segment
                      files under <path>; a restarted daemon recovers the
                      intact prefix of every segment and serves warm
                      (visible as store.disk.* in `silp --metrics`)
  --fsync             sync every flush batch to stable storage (with
                      --data-dir; slower, survives power loss)
  --peer <addr>       a peer daemon (unix:<path> or tcp:<host:port>) to
                      gossip digest inventories with and fetch cache misses
                      from before recomputing; repeatable
  --gossip-interval <ms>  how often to exchange inventories with peers
                      (default: 2000; needs --peer)
  --slow-us <n>       capture the span tree of any request whose service
                      call outlasts <n> microseconds into a dedicated slow
                      buffer that survives trace-ring churn (visible in
                      `silp --trace-dump`, counted as trace.slow_captures)
  --recorder-interval <ms>  flight-recorder sampling interval (default:
                      1000 — one metrics snapshot per second into a bounded
                      ring served via `silp --top`)
  --recorder-capacity <n>   samples the flight recorder retains
                      (default: 256)
  --quiet             no startup/shutdown log lines on stderr
  -h, --help          this message
";

const KNOWN_FLAGS: &[&str] = &[
    "--listen",
    "--data-dir",
    "--fsync",
    "--peer",
    "--gossip-interval",
    "--slow-us",
    "--recorder-interval",
    "--recorder-capacity",
    "--quiet",
    "--help",
];

struct Cli {
    listen: Addr,
    config: EngineConfig,
    server: ServerOptions,
    quiet: bool,
    peers: Vec<Addr>,
    gossip_interval: Option<u64>,
}

/// Parse the next argument as `flag`'s value: a strictly positive integer.
fn positive_count(args: &[String], i: &mut usize, flag: &str) -> Result<u64, String> {
    *i += 1;
    let value: u64 = args
        .get(*i)
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} must be an integer"))?;
    if value == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(value)
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut listen: Option<Addr> = None;
    let mut config = EngineConfig::default();
    let mut server = ServerOptions::default();
    let mut quiet = false;
    let mut data_dir: Option<String> = None;
    let mut fsync = false;
    let mut peers: Vec<Addr> = Vec::new();
    let mut gossip_interval: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                let raw = args.get(i).ok_or("--listen needs an address")?;
                listen = Some(Addr::parse(raw)?);
            }
            "--data-dir" => {
                i += 1;
                data_dir = Some(args.get(i).ok_or("--data-dir needs a path")?.clone());
            }
            "--fsync" => fsync = true,
            "--peer" => {
                i += 1;
                let raw = args.get(i).ok_or("--peer needs an address")?;
                peers.push(Addr::parse(raw)?);
            }
            flag @ "--gossip-interval" => {
                gossip_interval = Some(positive_count(args, &mut i, flag)?);
            }
            flag @ "--slow-us" => server.slow_us = positive_count(args, &mut i, flag)?,
            flag @ "--recorder-interval" => {
                server.recorder_interval_ms = positive_count(args, &mut i, flag)?;
            }
            flag @ "--recorder-capacity" => {
                server.recorder_capacity = positive_count(args, &mut i, flag)? as usize;
            }
            "--quiet" => quiet = true,
            "-h" | "--help" => return Err(String::new()),
            flag => return Err(unknown_flag_error(flag, KNOWN_FLAGS)),
        }
        i += 1;
    }
    let listen = listen.ok_or("--listen is required")?;
    if fsync && data_dir.is_none() {
        return Err("--fsync needs --data-dir".to_string());
    }
    if gossip_interval.is_some() && peers.is_empty() {
        return Err("--gossip-interval needs at least one --peer".to_string());
    }
    if let Some(dir) = data_dir {
        config = config.with_durable(Some(DurableConfig::at(dir).with_fsync(fsync)));
    }
    Ok(Cli {
        listen,
        config,
        server,
        quiet,
        peers,
        gossip_interval,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("sild: {message}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let service = Arc::new(Engine::new(cli.config));
    let ring = if cli.peers.is_empty() {
        None
    } else {
        let mut peer_config = PeerConfig::new(cli.peers.clone());
        if let Some(ms) = cli.gossip_interval {
            peer_config = peer_config.with_gossip_interval(Duration::from_millis(ms));
        }
        let ring = PeerRing::spawn(peer_config, service.tracer().clone());
        service.store().attach_peers(ring.clone());
        Some(ring)
    };
    let server = match Server::bind_with(&cli.listen, service, cli.server) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sild: cannot listen on {}: {e}", cli.listen);
            return ExitCode::FAILURE;
        }
    };
    if !cli.quiet {
        eprintln!(
            "sild: listening on {}{}",
            server.addr(),
            match cli.peers.len() {
                0 => String::new(),
                n => format!(", peered with {n} daemon{}", if n == 1 { "" } else { "s" }),
            },
        );
    }
    server.run();
    if let Some(ring) = ring {
        ring.shutdown();
    }
    if !cli.quiet {
        eprintln!("sild: shut down");
    }
    ExitCode::SUCCESS
}
