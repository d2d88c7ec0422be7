//! Exact statistics over raw samples, process probes, and the result
//! line the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank percentile of `sorted` (ascending) at percent `p`
/// (0–100): the sample of rank `⌈p/100 · len⌉`, clamped to `1..=len`.
/// Returns `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Raw samples with their percentiles computed exactly.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Nearest-rank percentile at percent `p` (0–100); 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p).unwrap_or(0.0)
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Largest sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU seconds (user + system) this process has used so far, read from
/// `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after `)`.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU seconds the calling thread has run, read from
/// `/proc/thread-self/schedstat` (nanosecond resolution).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// Kernel clock ticks per second as used by `/proc/*/stat`. Linux fixes
/// `USER_HZ` at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The end-to-end metric values of one run (`peak_rss_mib` is read when
/// they are appended).
pub(crate) struct E2e {
    /// `setup_s`.
    pub(crate) setup_s: f64,
    /// `sim_wall_s`.
    pub(crate) sim_wall_s: f64,
    /// `hit_ratio`.
    pub(crate) hit_ratio: f64,
    /// `msgs_per_op`.
    pub(crate) msgs_per_op: f64,
    /// `get_p50_ms`, `get_p99_ms`.
    pub(crate) get: (f64, f64),
    /// `put_p50_ms`, `put_p99_ms`.
    pub(crate) put: (f64, f64),
}

/// What one benchmark invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations (or simulation runs) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends the end-to-end metrics, in `BENCHMARK.json` order (peak
    /// RSS is read now).
    pub(crate) fn end_to_end(&mut self, e: E2e) {
        self.metric("setup_s", e.setup_s, "s");
        self.metric("sim_wall_s", e.sim_wall_s, "s");
        self.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        self.metric("hit_ratio", e.hit_ratio, "ratio");
        self.metric("msgs_per_op", e.msgs_per_op, "msgs");
        self.metric("get_p50_ms", e.get.0, "ms");
        self.metric("get_p99_ms", e.get.1, "ms");
        self.metric("put_p50_ms", e.put.0, "ms");
        self.metric("put_p99_ms", e.put.1, "ms");
    }

    /// Appends a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The one-line JSON result object.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_sim::metrics::Histogram;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let mut odd = Samples::new();
        for v in [5.0, 1.0, 3.0] {
            odd.push(v);
        }
        assert_eq!(odd.median(), 3.0);
        assert_eq!(odd.len(), 3);
    }

    /// `Histogram::percentile` takes a percent (0–100), not a fraction:
    /// `percentile(0.5)` is the 0.5th percentile, far below the median.
    #[test]
    fn histogram_percentile_takes_percent_not_fraction() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let median = h.percentile(50.0);
        assert!((480..=520).contains(&median), "p50 = {median}");
        let p_half = h.percentile(0.5);
        assert!(
            p_half <= 5,
            "percentile(0.5) = {p_half} is the 0.5th percentile"
        );
        assert_ne!(h.percentile(0.5), median);
        assert!(h.percentile(99.0) >= 960);
        assert!(h.percentile(0.99) <= 10);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        let line = o.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
