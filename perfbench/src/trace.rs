//! Spans recorded by the benchmark around its calls into each layer,
//! plus the switch for allocation counting.
//!
//! Spans are kept in memory and written out once, when the run ends, as
//! Chrome trace events (`.perfbench/trace/<workload>-seed<n>.json`,
//! loadable in Perfetto). The untraced run uses [`Tracer::off`], whose
//! spans cost one branch.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// While true, the binary's global allocator routes through
/// `ptb_obs::alloc::CountingAlloc`; otherwise straight to `System`.
/// Only the traced simulator pass turns it on.
pub static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

/// Allocation counts (allocations, bytes) accumulated while `f` runs.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = ptb_obs::alloc::snapshot();
    COUNT_ALLOCS.store(true, Ordering::SeqCst);
    let r = f();
    COUNT_ALLOCS.store(false, Ordering::SeqCst);
    let d = ptb_obs::alloc::snapshot().since(&before);
    (r, d.allocs, d.bytes)
}

/// Identifier of a recorded span (0 = no parent).
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.put`.
    pub name: &'static str,
    /// Enclosing span, or 0 for a root.
    pub parent: SpanId,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent its own children.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span lock");
            spans.push(Span {
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len()
        };
        let r = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span lock")[id - 1].end_ns = end;
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Write the spans as Chrome trace events to `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let spans = self.spans.lock().expect("span lock");
        let events: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    i + 1,
                    s.parent
                )
            })
            .collect();
        let text = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let t = Tracer::on();
        t.span("outer", 0, |id| {
            assert_eq!(id, 1);
            t.span("inner", id, |child| {
                assert_eq!(child, 2);
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let inner = t.durations_us("inner");
        assert_eq!(inner.len(), 1);
        assert!(inner[0] >= 2000.0);
        assert!(t.durations_us("outer")[0] >= inner[0]);
        let off = Tracer::off();
        assert_eq!(off.span("x", 0, |id| id), 0);
        assert!(off.durations_us("x").is_empty());
    }
}
