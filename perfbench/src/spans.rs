//! In-memory spans recorded around the benchmark's calls into each layer:
//! name, start, end and parent, written out as JSON lines when the run
//! ends. A layer's time is the self time of its spans.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use eval_trace::json::JsonObject;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name (`teacher.bank.abb`, `power.solve`, ...).
    pub name: &'static str,
    /// Nanoseconds from the recorder's origin to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin to the span's end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls into the layer the span covers: 1, or the batch size when
    /// one span times a loop of nanosecond-scale calls.
    pub calls: u64,
}

/// Records spans on one thread; spans nest by call order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span covering `calls` calls of layer `name`.
    pub fn span<T>(&self, name: &'static str, calls: u64, body: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                calls,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = body();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    /// A copy of every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time of each span (its duration minus its children's), ns.
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self-time statistics of every span named `name`.
    pub fn layer(&self, name: &str) -> LayerStat {
        let own = self.self_ns();
        let spans = self.spans.borrow();
        let mut stat = LayerStat::default();
        for (s, ns) in spans.iter().zip(own) {
            if s.name == name {
                stat.calls += s.calls;
                stat.total_ns += ns;
                stat.per_call_ns.push(ns as f64 / s.calls.max(1) as f64);
            }
        }
        stat
    }

    /// Writes the spans as JSON lines (one object per span).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.borrow().iter().zip(own).enumerate() {
            let mut obj = JsonObject::new()
                .u64("id", i as u64)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("self_ns", self_ns)
                .u64("calls", s.calls);
            if let Some(p) = s.parent {
                obj = obj.u64("parent", p as u64);
            }
            out.push_str(&obj.finish());
            out.push('\n');
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// Self-time statistics of one layer's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    /// Calls covered.
    pub calls: u64,
    /// Total self time, ns.
    pub total_ns: u64,
    /// Self time per call of each span, ns.
    pub per_call_ns: Vec<f64>,
}

impl LayerStat {
    /// Mean self time per call, ns (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// The `q` quantile of the per-span per-call times, ns.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        crate::quantile(&self.per_call_ns, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new();
        rec.span("outer", 1, || {
            rec.span("inner", 4, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = rec.self_ns();
        assert!(own[0] < spans[0].end_ns - spans[0].start_ns);
        assert!(own[0] >= 2_000_000, "{own:?}");
        let inner = rec.layer("inner");
        assert_eq!(inner.calls, 4);
        assert!(inner.mean_ns() >= 1_000_000.0);
    }
}
