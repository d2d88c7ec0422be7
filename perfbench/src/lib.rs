//! The pqs repository benchmark: workloads, per-layer tracing and the
//! result line. See `perfbench/NOTES.md` for what each workload and
//! metric means.

pub mod layers;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;
