//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Every span is folded into a per-name aggregate (count and
//! total time); the first [`SPAN_CAP`] spans are also kept verbatim and
//! written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Raw spans retained per run; the aggregates cover every span.
pub const SPAN_CAP: usize = 20_000;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers (e.g. `routing.on_upcall`).
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the retained list, if retained.
    pub parent: Option<u32>,
    /// Operation or request id shared by the spans of one operation.
    pub op: Option<u64>,
}

/// A span opened with [`SpanLog::open`] and not yet closed.
#[derive(Debug)]
#[must_use = "a span must be closed"]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    index: Option<u32>,
}

impl Open {
    /// The span's index in the retained list, if it was retained.
    pub fn index(&self) -> Option<u32> {
        self.index
    }
}

/// Count and summed duration of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
}

impl Aggregate {
    /// Summed duration in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// A bounded span log with exact per-name aggregates.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    aggregates: Vec<(&'static str, Aggregate)>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            aggregates: Vec::new(),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; its slot in the retained list (if
    /// any is left) is reserved at once, so children recorded before it
    /// closes can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: Option<u64>) -> Open {
        let start_ns = self.now_ns();
        let index = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        Open {
            name,
            start_ns,
            index,
        }
    }

    /// Sets the operation id of an open span (known only once the call
    /// it covers has returned).
    pub fn tag(&mut self, span: &Open, op: Option<u64>) {
        if let Some(i) = span.index {
            self.spans[i as usize].op = op;
        }
    }

    /// Closes `span` now and folds it into its aggregate; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, span: Open) -> u64 {
        let end_ns = self.now_ns();
        if let Some(i) = span.index {
            self.spans[i as usize].end_ns = end_ns;
        }
        let dur = end_ns.saturating_sub(span.start_ns);
        let agg = match self.aggregates.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, a)) => a,
            None => {
                self.aggregates.push((span.name, Aggregate::default()));
                &mut self.aggregates.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.total_ns += dur;
        dur
    }

    /// The aggregate of spans named `name` (zero when none).
    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.aggregates
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Aggregate::default(), |(_, a)| *a)
    }

    /// Writes the aggregates and the retained spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, a) in &self.aggregates {
            writeln!(
                out,
                "{{\"aggregate\": \"{name}\", \"count\": {}, \"total_ns\": {}}}",
                a.count, a.total_ns
            )?;
        }
        writeln!(
            out,
            "{{\"retained\": {}, \"dropped\": {}}}",
            self.spans.len(),
            self.dropped
        )?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}
