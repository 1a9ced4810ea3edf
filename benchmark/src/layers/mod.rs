//! Per-layer probes and the traced pipeline replay (`ledger-layers`).
//!
//! [`adapter`] is the only module that names a repo crate.

pub mod adapter;
pub mod frozen;
pub mod micro;
pub mod replay;
pub mod trace;
