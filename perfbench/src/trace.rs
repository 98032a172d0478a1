//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around calls into
//! each layer's public functions (and by [`crate::tier::TimedTier`] around
//! disk-tier traffic). A span's name is `<layer>.<operation>`; the layer
//! part is what [`self_times`] groups by. Recording is off unless
//! [`set_enabled`] turned it on, so the untraced iterations pay one atomic
//! load per call site.
//!
//! Parent links: a span's parent is the innermost open span on its own
//! thread. Worker threads started inside a library call (the prepare and
//! cross-validation pools) have no open span of their own, so their
//! top-level spans adopt the innermost span open on the thread that enabled
//! tracing — that thread is blocked in the call that started the workers.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are seconds since the process's trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    /// The layer part of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Innermost open span of the leader, the thread that enabled tracing (0
/// if none).
static LEADER_TOP: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static IS_LEADER: Cell<bool> = const { Cell::new(false) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on or off. The calling thread becomes the leader whose
/// innermost span parents the spans of worker threads.
pub fn set_enabled(on: bool) {
    epoch();
    IS_LEADER.with(|d| d.set(true));
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Guard of one open span; records it when dropped.
#[must_use = "a span covers the guard's lifetime"]
pub struct SpanGuard {
    open: Option<(u64, u64, &'static str, Instant)>,
}

/// Opens a span named `name` (a no-op guard when tracing is off).
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let leader = IS_LEADER.with(Cell::get);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = match s.last() {
            Some(&p) => p,
            None if leader => 0,
            None => LEADER_TOP.load(Ordering::SeqCst),
        };
        s.push(id);
        parent
    });
    if leader {
        LEADER_TOP.store(id, Ordering::SeqCst);
    }
    SpanGuard {
        open: Some((id, parent, name, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let top = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.retain(|&x| x != id);
            s.last().copied().unwrap_or(0)
        });
        if IS_LEADER.with(Cell::get) {
            LEADER_TOP.store(top, Ordering::SeqCst);
        }
        let e = epoch();
        let span = Span {
            id,
            parent,
            name,
            start: start.duration_since(e).as_secs_f64(),
            end: end.duration_since(e).as_secs_f64(),
        };
        // Never panic in drop: a poisoned recorder just loses the span.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Removes and returns every recorded span, sorted by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
    spans
}

/// Durations (seconds) of every span named `name`, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Self time per layer: each span's duration minus the part of it that
/// its child spans cover (children on parallel workers may overlap each
/// other, so the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.layer()).or_default() += (s.seconds() - covered).max(0.0);
    }
    out
}

/// Writes the spans, one per line, and the per-layer self times as JSON.
///
/// # Errors
///
/// The file cannot be created or written.
pub fn write(path: &Path, spans: &[Span], self_times: &[(String, f64)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("{\"self_time_s\": {");
    let selfs: Vec<String> = self_times
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    out.push_str(&selfs.join(", "));
    out.push_str("},\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}}}{sep}",
            s.id, s.parent, s.name, s.start, s.end
        );
    }
    out.push_str("]}\n");
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start: f64, end: f64) -> Span {
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
        let spans = [
            sp(1, 0, "runtime.fold", 0.0, 10.0),
            sp(2, 1, "model.fit", 1.0, 5.0),
            sp(3, 1, "model.fit", 4.0, 6.0),
            sp(4, 2, "store.get", 2.0, 3.0),
        ];
        let t = self_times(&spans);
        assert!((t["runtime"] - 5.0).abs() < 1e-12);
        assert!((t["model"] - (3.0 + 2.0)).abs() < 1e-12);
        assert!((t["store"] - 1.0).abs() < 1e-12);
    }
}
