//! In-memory span recorder and the order statistics the report uses.
//!
//! Spans are recorded from the benchmark's own code around each public
//! library call it makes; nothing inside the library is instrumented. A
//! disabled [`Tracer`] records nothing and never reads the clock, so the
//! untraced runs that produce the end-to-end metrics pay one branch per
//! call site.

use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` is the index of the enclosing span plus one
/// (0 for a root span); `id` is the step or request the call belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans kept per tracer; later spans are counted but not stored, so a
/// long serving run cannot grow the trace without bound.
const MAX_SPANS: usize = 1 << 20;

/// Span recorder, owned by the thread that makes the calls it times.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

/// Handle of an open span (`None` when tracing is off or the span was not
/// stored).
pub type Open = Option<usize>;

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, tag: &'static str, id: u64) -> Open {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().map_or(0, |&p| p + 1);
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx as u32);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost
    /// first.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx as u32), "spans must close innermost first");
        }
    }

    /// Records a span whose bounds were measured elsewhere (a server-side
    /// interval reported back in a reply).
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            tag,
            start_ns: at(start),
            end_ns: at(end),
            parent: 0,
            id,
        });
    }

    /// Durations in µs of every span called `name` (any tag when `tag` is
    /// `None`).
    pub fn durations_us(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::micros)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `name tag id parent start_ns end_ns`, preceded by a header.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# spans={} dropped={}", self.spans.len(), self.dropped)?;
        writeln!(out, "name\ttag\tid\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.tag, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
