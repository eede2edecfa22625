//! In-memory spans recorded from the benchmark's own calls into each
//! layer, written out as a Chrome `trace_event` file when the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the tracer's epoch;
/// `parent` 0 means a root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

/// A span that has started and not yet closed.
pub struct Open {
    pub id: u64,
    start: Instant,
}

/// Times operations; when enabled it also keeps every span. Disabled, an
/// open/close pair costs two clock reads and nothing else, so the
/// untraced run times exactly what the traced run times.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration.
    pub fn close(&self, open: Open, name: &'static str, parent: u64, request: u64) -> Duration {
        let end = Instant::now();
        let elapsed = end - open.start;
        if self.enabled {
            let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
            let span = Span {
                name,
                id: open.id,
                parent,
                request,
                start_ns: ns(open.start),
                end_ns: ns(end),
                thread: thread_index(),
            };
            self.spans
                .lock()
                .expect("span buffer lock is never poisoned")
                .push(span);
        }
        elapsed
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let open = self.open();
        let id = open.id;
        let out = f(id);
        self.close(open, name, parent, 0);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock is never poisoned")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Renders every span as Chrome `trace_event` JSON (complete "X"
    /// events; ids, parents and request ids ride in `args`). `meta`
    /// lands in `otherData`.
    pub fn to_chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"otherData\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {}",
                slicc_common::json_str(k),
                slicc_common::json_str(v)
            );
        }
        out.push_str("},\n\"traceEvents\": [\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}}}}}{sep}",
                slicc_common::json_str(s.name),
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.request,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A small stable per-thread number for the `tid` column.
fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let open = t.open();
        assert_eq!(open.id, 0);
        t.close(open, "x", 0, 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let t = Tracer::new(true);
        let parent = t.open();
        let pid = parent.id;
        t.span("child", pid, |_| ());
        t.close(parent, "parent", 0, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "parent").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(root.request, 7);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        let json = t.to_chrome_json(&[("host_cpus", "2".into())]);
        assert!(slicc_common::parse_json(&json).is_ok(), "{json}");
    }
}
