//! The repo's benchmark ledger.
//!
//! Two binaries share this library:
//!
//! * `ledger-e2e` drives real `sild` child processes over the wire protocol
//!   and uses only the modules that link no repo crate ([`rng`], [`stats`],
//!   [`json`], [`corpus`], [`daemon`], [`workload`], [`e2e`], [`probes`],
//!   [`report`]), so the end-to-end gate survives any refactor that keeps
//!   the protocol and the `sild` command line.
//! * `ledger-layers` times the crates' public functions and replays the
//!   request pipeline under the benchmark's own spans ([`layers`]); every
//!   repo-crate call it makes is in [`layers::adapter`].
//!
//! See README.md for the metric glossary and how the layers interact.

pub mod calib;
pub mod corpus;
pub mod daemon;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod probes;
pub mod report;
pub mod rng;
pub mod stats;
pub mod workload;
