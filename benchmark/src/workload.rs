//! The five traffic mixes: what each primes a fresh daemon with, the request
//! stream each client lane then sends, and what every reply must say.
//!
//! Each mix is built so one layer does the work and the others idle; see
//! README.md for which end-to-end metric each layer should move where.

use crate::corpus::{Check, Corpus, Program, Template, TEMPLATE_SIZE};
use crate::json::{escape, Value};
use crate::rng::{Rng, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `analyze`, Zipf(1.2) over the primed corpus: every request is a
    /// program-namespace memory hit, so server loop, codec, front end and
    /// memory tier do all the work and the analysis core none.
    WarmZipf,
    /// `analyze` of never-seen programs (size-6 templates, procedures
    /// renamed): misses in all three namespaces, so summaries, fixpoint,
    /// path-matrix ops and store inserts dominate.
    ColdUnique,
    /// Corpus primed, then size-6 templates with a never-used size literal
    /// in `main`: program miss, callee cones hit — replay and merge where
    /// `cold_unique` records.
    EditStream,
    /// `process` with default options, Zipf(1.2) over the primed corpus: the
    /// analysis is a memory hit, so pack, pretty-print, re-parse and verify
    /// do the work.
    ProcessWarm,
    /// `--data-dir`, 1024 primed programs against a 256-entry program
    /// namespace, 95 % Zipf(0.9) re-requests and 5 % never-seen programs:
    /// eviction, disk read + decode + promote, and write-behind flush run
    /// side by side.
    DiskSpill,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::WarmZipf,
        Kind::ColdUnique,
        Kind::EditStream,
        Kind::ProcessWarm,
        Kind::DiskSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmZipf => "warm_zipf",
            Kind::ColdUnique => "cold_unique",
            Kind::EditStream => "edit_stream",
            Kind::ProcessWarm => "process_warm",
            Kind::DiskSpill => "disk_spill",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// Rename variants of every corpus program that `disk_spill` primes: 64 × 16
/// = 1024 programs, four times the program namespace's 256 entries.
pub const SPILL_VARIANTS: usize = 16;

/// One in this many `disk_spill` requests is a never-seen program.
const SPILL_COLD_ONE_IN: u64 = 20;

const ANALYZE_HEAD: &str = "{\"protocol_version\":2,\"type\":\"analyze\",\"source\":\"";
const ANALYZE_TAIL: &str = "\"}\n";
const PROCESS_HEAD: &str = "{\"protocol_version\":2,\"type\":\"process\",\"source\":\"";
/// `ProcessOptions::default()` as of this benchmark: parallelize + verify,
/// no execution.
const PROCESS_TAIL: &str = "\",\"options\":{\"parallelize\":true,\"verify\":true,\
    \"execute\":false,\"emit_parallel_source\":false,\"store_capacity\":262144}}\n";

/// A wire line for `source`, already newline-terminated.
pub fn analyze_line(source: &str) -> String {
    format!("{ANALYZE_HEAD}{}{ANALYZE_TAIL}", escape(source))
}

pub fn process_line(source: &str) -> String {
    format!("{PROCESS_HEAD}{}{PROCESS_TAIL}", escape(source))
}

/// What the reply to one generated request must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Index of the corpus program the request derives from.
    pub program: usize,
    pub check: Check,
}

/// One workload over one corpus: templates and request lines prepared once,
/// so the lanes' hot loops only copy bytes.
pub struct Workload<'c> {
    pub kind: Kind,
    pub seed: u64,
    corpus: &'c Corpus,
    /// Pre-encoded request per corpus program (`analyze`, or `process` for
    /// `process_warm`).
    lines: Vec<String>,
    /// Corpus indices of the size-6 templates.
    templates: Vec<usize>,
    /// Per corpus program: its source cut for renaming.
    renames: Vec<Template>,
    /// Per size-6 template: its source cut at `main`'s size literal.
    edits: Vec<Template>,
    /// `disk_spill` only: the 1024 primed request lines by Zipf rank — corpus
    /// program `rank % 64` under rename tag `_v<rank / 64>`.
    spill: Vec<String>,
}

impl<'c> Workload<'c> {
    pub fn new(kind: Kind, corpus: &'c Corpus, seed: u64) -> Result<Workload<'c>, String> {
        let programs = &corpus.programs;
        let templates = corpus.of_size(TEMPLATE_SIZE);
        if templates.is_empty() {
            return Err(format!("the corpus has no size-{TEMPLATE_SIZE} programs"));
        }
        let edits = templates
            .iter()
            .map(|&i| {
                Template::editing(&programs[i].source, TEMPLATE_SIZE)
                    .map_err(|e| format!("{}: {e}", programs[i].name))
            })
            .collect::<Result<_, _>>()?;
        let renames: Vec<Template> = programs
            .iter()
            .map(|p| Template::renaming(&p.source))
            .collect();
        let spill_ranks = match kind {
            Kind::DiskSpill => programs.len() * SPILL_VARIANTS,
            _ => 0,
        };
        let spill = (0..spill_ranks)
            .map(|rank| {
                let mut line = String::from(ANALYZE_HEAD);
                let tag = format!("_v{:02}", rank / programs.len());
                renames[rank % programs.len()].fill_into(&mut line, &tag);
                line.push_str(ANALYZE_TAIL);
                line
            })
            .collect();
        Ok(Workload {
            kind,
            seed,
            corpus,
            spill,
            lines: programs
                .iter()
                .map(|p| match kind {
                    Kind::ProcessWarm => process_line(&p.source),
                    _ => analyze_line(&p.source),
                })
                .collect(),
            templates,
            renames,
            edits,
        })
    }

    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Flags beyond `--listen … --quiet`.  Everything else stays at `sild`'s
    /// defaults, so a later change of defaults is measured, not masked.
    pub fn daemon_args(&self) -> Vec<String> {
        match self.kind {
            Kind::DiskSpill => vec!["--data-dir".to_string(), "data".to_string()],
            _ => Vec::new(),
        }
    }

    /// The requests that bring a fresh daemon to the state the stream
    /// assumes, each with its expectation.  All are first sightings.
    pub fn priming(&self) -> Vec<(String, Expectation)> {
        let cold = |program, digest| Expectation {
            program,
            check: Check {
                digest,
                cache_hit: false,
                process: false,
            },
        };
        match self.kind {
            // `cold_unique` never touches the corpus again; it primes it all
            // the same so that its `setup_s` is the cold-start-to-warm time
            // of the other in-memory workloads, not a 3 ms process spawn.
            Kind::WarmZipf | Kind::ColdUnique | Kind::EditStream | Kind::ProcessWarm => self
                .corpus
                .programs
                .iter()
                .enumerate()
                .map(|(i, p)| (analyze_line(&p.source), cold(i, true)))
                .collect(),
            Kind::DiskSpill => self
                .spill
                .iter()
                .enumerate()
                .map(|(rank, line)| (line.clone(), cold(rank % self.lines.len(), false)))
                .collect(),
        }
    }

    /// The request stream of client lane `lane` out of `lanes`.
    pub fn lane(&self, lane: usize, lanes: usize) -> Lane<'_, 'c> {
        let programs = self.corpus.programs.len();
        Lane {
            workload: self,
            rng: Rng::for_lane(self.seed, lane),
            zipf: match self.kind {
                Kind::DiskSpill => Zipf::new(programs * SPILL_VARIANTS, 0.9),
                _ => Zipf::new(programs, 1.2),
            },
            lane,
            lanes,
            sent: 0,
        }
    }

    /// Hold `reply` to what `expectation` says about it.
    pub fn verify(&self, expectation: &Expectation, reply: &Value) -> Result<(), String> {
        let program: &Program = &self.corpus.programs[expectation.program];
        expectation
            .check
            .verify(&program.expect, reply)
            .map_err(|e| format!("{}: {e}", program.name))
    }
}

/// One client lane's deterministic request stream: the same `(seed, lane,
/// lanes)` yields the same lines byte for byte.
pub struct Lane<'w, 'c> {
    workload: &'w Workload<'c>,
    rng: Rng,
    zipf: Zipf,
    lane: usize,
    lanes: usize,
    sent: u64,
}

impl Lane<'_, '_> {
    /// Write the next request line into `line` (replacing its content).
    pub fn next(&mut self, line: &mut String) -> Expectation {
        let w = self.workload;
        line.clear();
        let n = self.sent;
        self.sent += 1;
        match w.kind {
            Kind::WarmZipf | Kind::ProcessWarm => {
                let program = self.zipf.sample(&mut self.rng);
                line.push_str(&w.lines[program]);
                Expectation {
                    program,
                    check: Check {
                        digest: true,
                        cache_hit: true,
                        process: w.kind == Kind::ProcessWarm,
                    },
                }
            }
            Kind::ColdUnique => {
                let program = w.templates[(n as usize + self.lane) % w.templates.len()];
                self.never_seen(line, program, n)
            }
            Kind::EditStream => {
                let slot = (n as usize + self.lane) % w.templates.len();
                // Sizes 3..=9 are primed; everything from 100 up is unused,
                // and lanes interleave so no two ever send the same number.
                let literal = 100 + w.seed % 900 + n * self.lanes as u64 + self.lane as u64;
                line.push_str(ANALYZE_HEAD);
                w.edits[slot].fill_into(line, &literal.to_string());
                line.push_str(ANALYZE_TAIL);
                Expectation {
                    program: w.templates[slot],
                    check: Check {
                        digest: false,
                        cache_hit: false,
                        process: false,
                    },
                }
            }
            Kind::DiskSpill => {
                let rank = self.zipf.sample(&mut self.rng);
                let program = rank % w.lines.len();
                if self.rng.next_u64().is_multiple_of(SPILL_COLD_ONE_IN) {
                    return self.never_seen(line, program, n);
                }
                line.push_str(&w.spill[rank]);
                Expectation {
                    program,
                    check: Check {
                        digest: false,
                        cache_hit: true,
                        process: false,
                    },
                }
            }
        }
    }

    /// `program` with its procedures renamed by a tag no other request of
    /// this run carries.
    fn never_seen(&self, line: &mut String, program: usize, n: u64) -> Expectation {
        let tag = format!("_u{:03x}l{}n{n}", self.workload.seed % 0x1000, self.lane);
        line.push_str(ANALYZE_HEAD);
        self.workload.renames[program].fill_into(line, &tag);
        line.push_str(ANALYZE_TAIL);
        Expectation {
            program,
            check: Check {
                digest: false,
                cache_hit: false,
                process: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn corpus() -> Corpus {
        Corpus::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")).unwrap()
    }

    fn stream(kind: Kind, corpus: &Corpus, seed: u64, lane: usize) -> Vec<String> {
        let workload = Workload::new(kind, corpus, seed).unwrap();
        let mut lane = workload.lane(lane, 2);
        let mut line = String::new();
        (0..200)
            .map(|_| {
                lane.next(&mut line);
                line.clone()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let corpus = corpus();
        for kind in Kind::ALL {
            assert_eq!(
                stream(kind, &corpus, 42, 0),
                stream(kind, &corpus, 42, 0),
                "{} is not a function of its seed",
                kind.name()
            );
            assert_ne!(stream(kind, &corpus, 42, 0), stream(kind, &corpus, 43, 0));
            assert_ne!(stream(kind, &corpus, 42, 0), stream(kind, &corpus, 42, 1));
        }
    }

    #[test]
    fn never_seen_requests_never_repeat() {
        let corpus = corpus();
        for kind in [Kind::ColdUnique, Kind::EditStream] {
            let mut all = stream(kind, &corpus, 7, 0);
            all.extend(stream(kind, &corpus, 7, 1));
            let total = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), total, "{} repeated a request", kind.name());
        }
    }

    #[test]
    fn every_line_is_one_json_object() {
        let corpus = corpus();
        for kind in Kind::ALL {
            for line in stream(kind, &corpus, 3, 1) {
                assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
                let value = crate::json::Value::parse(&line).unwrap();
                assert!(value.get("source").and_then(|s| s.as_str()).is_some());
            }
        }
    }

    #[test]
    fn disk_spill_primes_four_times_the_program_namespace() {
        let corpus = corpus();
        let workload = Workload::new(Kind::DiskSpill, &corpus, 1).unwrap();
        let mut lines: Vec<String> = workload.priming().into_iter().map(|(l, _)| l).collect();
        assert_eq!(lines.len(), 1024);
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), 1024);
    }
}
