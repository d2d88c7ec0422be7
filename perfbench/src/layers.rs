//! The per-layer metrics of a traced run, in `BENCHMARK.json` order.
//! Every traced run reports every name; a layer a workload does not
//! exercise reports 0 (for example `routing.self_s` on
//! `substrate-100k`, or every `net.*` count on `serve-*`).

use crate::stats::Outcome;

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("net.self_s", "s"),
    ("net.build_s", "s"),
    ("net.phy_tx", "count"),
    ("net.hello_tx", "count"),
    ("net.data_tx", "count"),
    ("net.delivered", "count"),
    ("net.mac_retries", "count"),
    ("net.mac_backoff_draws", "count"),
    ("net.mac_channel_defers", "count"),
    ("net.mac_failures", "count"),
    ("net.phy_rx_aborted", "count"),
    ("net.phy_work", "count"),
    ("net.upcalls", "count"),
    ("routing.self_s", "s"),
    ("routing.rreq_tx", "count"),
    ("routing.rrep_tx", "count"),
    ("routing.rerr_tx", "count"),
    ("routing.discoveries", "count"),
    ("routing.discovery_success_ratio", "ratio"),
    ("quorum.self_s", "s"),
    ("quorum.walk_tx", "count"),
    ("quorum.reply_tx", "count"),
    ("quorum.salvations", "count"),
    ("quorum.local_repairs", "count"),
    ("quorum.global_repairs", "count"),
    ("quorum.replies_dropped", "count"),
    ("quorum.intersection_ratio", "ratio"),
    ("quorum.lookup_sim_p50_ms", "ms"),
    ("quorum.lookup_sim_p99_ms", "ms"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_op", "bytes"),
    ("engine.advertise_p50_us", "us"),
    ("engine.advertise_p99_us", "us"),
    ("engine.lookup_p50_us", "us"),
    ("engine.lookup_p99_us", "us"),
    ("engine.msgs_per_op", "msgs"),
    ("engine.op_retries", "count"),
    ("serve.hold_p50_ms", "ms"),
    ("serve.hold_p99_ms", "ms"),
    ("serve.send_errors", "count"),
    ("serve.malformed_datagrams", "count"),
    ("serve.unanswered", "count"),
    ("gen.retransmits", "count"),
    ("serve.cpu_busy_ratio", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("attribution.coverage", "ratio"),
    ("op_fail_ratio", "ratio"),
    ("max_rate_ops_s", "ops/s"),
];

/// Per-layer values being filled in; unset names stay 0.
pub struct Layers {
    values: Vec<f64>,
}

impl Layers {
    /// All metrics at 0.
    pub fn new() -> Self {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a per-layer metric (a bug in this crate).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.values[i] = value;
    }

    /// Appends every per-layer metric to `o`.
    pub fn emit(&self, o: &mut Outcome) {
        for (&(name, unit), &v) in PER_LAYER.iter().zip(&self.values) {
            o.metric(name, v, unit);
        }
    }
}

impl Default for Layers {
    fn default() -> Self {
        Self::new()
    }
}
