//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer: a name, start and end (nanoseconds since the tracer's
//! origin), the span that caused it, and one root id per tick, solve
//! round or sweep batch. Nothing is written until the run ends. A
//! disabled tracer records nothing and never reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Layer call name, e.g. `serve.run_tick`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    /// This span's id (pass as the parent of nested spans).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span recorder. Shared by reference across worker threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn start(&self, name: &'static str, parent: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                start: 0,
            };
        }
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: self.now(),
        }
    }

    /// Closes `open`.
    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start: open.start,
                end,
            });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let open = self.start(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// Per-name totals: (span count, total ns, self ns). A span's self time
/// is its duration minus the part of its interval that its children
/// cover (children running in parallel on workers are merged first, so
/// self time never goes negative).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end.saturating_sub(s.start);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total - covered.min(total);
    }
    out
}

/// Writes the spans as JSON lines, one `{"id","parent","name","start_ns","end_ns"}`
/// object per span, followed by one `{"self_time": …}` summary line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start, s.end
        )?;
    }
    let summary: Vec<String> = self_times(spans)
        .iter()
        .map(|(name, (n, total, own))| {
            format!("\"{name}\": {{\"spans\": {n}, \"total_ns\": {total}, \"self_ns\": {own}}}")
        })
        .collect();
    writeln!(out, "{{\"self_time\": {{{}}}}}", summary.join(", "))?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "tick", 0, 100),
            // Two overlapping children on different workers: union 10..70.
            span(2, 1, "work", 10, 60),
            span(3, 1, "work", 30, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["tick"], (1, 100, 40));
        assert_eq!(t["work"], (2, 90, 90));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let open = t.start("x", 0);
        t.end(open);
        assert!(t.spans().is_empty());
    }
}
