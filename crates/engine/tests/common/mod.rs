//! Shared by the integration-test crates that walk the golden corpus.

use sil_workloads::Workload;

/// The 64-program corpus `silbench` drives and `golden/digests.txt` pins:
/// every workload at sizes 3..=9, truncated to 64 `(name@size, source)`
/// pairs.
pub fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for size in 3..=9u32 {
        for workload in Workload::ALL {
            out.push((format!("{}@{size}", workload.name()), workload.source(size)));
            if out.len() == 64 {
                return out;
            }
        }
    }
    out
}
