//! In-memory span recorder.
//!
//! A span is one timed call into a library layer: name, start, end, the
//! span that caused it and the run it belongs to, plus a few numeric
//! attributes counted at the same boundary (bytes, events, score). Spans are
//! kept in memory while the run executes and written out as JSON lines when
//! it ends, so recording costs one clock read per boundary and no I/O. A
//! tracer made with [`Tracer::off`] records nothing, so the same replica can
//! run untraced and price the recording.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

/// A span that has started but not ended.
#[derive(Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Records the spans of one run. Shared by reference across worker threads.
pub struct Tracer {
    run: u64,
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(run: u64) -> Self {
        Tracer {
            run,
            on: true,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records no spans; [`Tracer::now`] still reads the clock.
    pub fn off(run: u64) -> Self {
        Tracer {
            on: false,
            ..Tracer::new(run)
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span under `parent` (0 = a root span).
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now(),
        }
    }

    /// Ends a span, attaching its attributes.
    pub fn close(&self, open: Open, attrs: Vec<(&'static str, f64)>) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        self.record(open, end_ns, attrs);
    }

    /// Records a span whose end was read earlier (lets a caller take one
    /// clock reading for the end of one span and the start of the next).
    pub fn record(&self, open: Open, end_ns: u64, attrs: Vec<(&'static str, f64)>) {
        if !self.on {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            attrs,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span id for its children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let open = self.open(name, parent);
        let out = f(open.id);
        self.close(open, Vec::new());
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        for s in spans.iter() {
            write!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                self.run, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}\"{k}\":{}", json_number(*v))?;
            }
            writeln!(out, "}}}}")?;
        }
        Ok(())
    }
}

/// A finite JSON number (non-finite values, which JSON cannot carry, as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
