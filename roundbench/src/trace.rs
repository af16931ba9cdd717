//! In-memory span recorder for the traced run, plus the small statistics
//! helpers every workload shares.
//!
//! Spans are recorded around calls into the program's public functions,
//! from the benchmark's own code; nothing inside the program is
//! instrumented. Each thread appends to its own buffer (registered once in
//! a global list), so recording never contends across threads. Recording
//! is off unless [`set_enabled`] turned it on: a disabled [`span`] reads
//! one atomic and records nothing, which is what the untraced rounds of a
//! traced run pay.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `wire.upload_decode`.
    pub name: &'static str,
    /// Round the span belongs to.
    pub round: usize,
    /// Recording thread (dense index, 0 = first thread seen).
    pub thread: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
type Buffer = Arc<Mutex<Vec<Span>>>;
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

struct Local {
    thread: u32,
    buffer: Buffer,
    stack: RefCell<Vec<u64>>,
}

thread_local! {
    static LOCAL: Local = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry").push(Arc::clone(&buffer));
        Local {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            buffer,
            stack: RefCell::new(Vec::new()),
        }
    };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Release);
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    round: usize,
    start_ns: u64,
}

impl Guard {
    /// This span's id (0 when recording is off), for children opened on
    /// other threads via [`span_under`].
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            l.stack.borrow_mut().pop();
            l.buffer.lock().expect("span buffer").push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                round: self.round,
                thread: l.thread,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

fn open(name: &'static str, round: usize, parent: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Acquire) {
        return Guard {
            id: 0,
            parent: 0,
            name,
            round,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut stack = l.stack.borrow_mut();
        let p = parent.unwrap_or_else(|| stack.last().copied().unwrap_or(0));
        stack.push(id);
        p
    });
    Guard {
        id,
        parent,
        name,
        round,
        start_ns: now_ns(),
    }
}

/// Open a span whose parent is the innermost open span of this thread.
pub fn span(name: &'static str, round: usize) -> Guard {
    open(name, round, None)
}

/// Open a span under an explicit parent, typically one opened on another
/// thread (a client update inside the parallel client region).
pub fn span_under(name: &'static str, round: usize, parent: u64) -> Guard {
    open(name, round, Some(parent))
}

/// Run `f` inside a span.
pub fn timed<T>(name: &'static str, round: usize, f: impl FnOnce() -> T) -> T {
    let _g = span(name, round);
    f()
}

/// Drain every thread's recorded spans, ordered by start time.
pub fn take_all() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect("span registry").iter() {
        all.append(&mut buf.lock().expect("span buffer"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Every thread's recorded spans so far (kept for [`take_all`]), ordered
/// by start time.
pub fn snapshot() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect("span registry").iter() {
        all.extend(buf.lock().expect("span buffer").iter().cloned());
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Seconds of `parent` covered by none of `children` (the children are
/// spans on the parent's own thread; overlaps are merged, so nested or
/// overlapping children never count twice).
pub fn self_secs(parent: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (parent.end_ns - parent.start_ns - covered) as f64 * 1e-9
}

/// Exclusive seconds of each span: its duration minus every other listed
/// span nested inside it on the same thread. A worker that waits on a
/// nested parallel call may run another queued job (another client's
/// whole update) inline; that time belongs to the other span, so the
/// parallel region is never counted twice.
pub fn exclusive_secs(spans: &[&Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|s| {
            let inner: Vec<&Span> = spans
                .iter()
                .copied()
                .filter(|o| {
                    o.id != s.id
                        && o.thread == s.thread
                        && o.start_ns >= s.start_ns
                        && o.end_ns <= s.end_ns
                })
                .collect();
            self_secs(s, &inner)
        })
        .collect()
}

/// Per-round phase accounting of traced rounds: for every root span named
/// `root`, the inclusive seconds of its direct same-thread children summed
/// by name, and the root's self (unattributed) seconds.
pub struct PhaseTable {
    /// `(round, wall seconds, unattributed seconds)` per traced round.
    pub rounds: Vec<(usize, f64, f64)>,
    /// Phase name → inclusive seconds summed over every traced round.
    pub phases: BTreeMap<&'static str, f64>,
}

impl PhaseTable {
    /// Build the table from a span list.
    pub fn build(spans: &[Span], root: &str) -> PhaseTable {
        let mut rounds = Vec::new();
        let mut phases = BTreeMap::new();
        for r in spans.iter().filter(|s| s.name == root) {
            let children: Vec<&Span> = spans
                .iter()
                .filter(|c| c.parent == r.id && c.thread == r.thread)
                .collect();
            for c in &children {
                *phases.entry(c.name).or_insert(0.0) += c.secs();
            }
            rounds.push((r.round, r.secs(), self_secs(r, &children)));
        }
        PhaseTable { rounds, phases }
    }

    /// Total traced wall seconds.
    pub fn wall(&self) -> f64 {
        self.rounds.iter().map(|r| r.1).sum()
    }

    /// Share of traced round wall-clock no phase covers.
    pub fn unattributed_frac(&self) -> f64 {
        let wall = self.wall();
        if wall <= 0.0 {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.2).sum::<f64>() / wall
    }

    /// Mean inclusive seconds per traced round of one phase.
    pub fn per_round(&self, phase: &str) -> f64 {
        self.phases.get(phase).copied().unwrap_or(0.0) / self.rounds.len().max(1) as f64
    }
}

/// All spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// Mean duration of the spans named `name`, in seconds (0 when none).
pub fn mean_secs(spans: &[Span], name: &str) -> f64 {
    let v = named(spans, name);
    v.iter().map(|s| s.secs()).sum::<f64>() / v.len().max(1) as f64
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"round\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.round, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            round: 0,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let p = sp(1, 0, 0, 100);
        let a = sp(2, 1, 10, 40);
        let b = sp(3, 1, 30, 50);
        let c = sp(4, 1, 90, 120);
        // Covered: [10, 50] merged, plus [90, 100] clipped to the parent.
        let s = self_secs(&p, &[&a, &b, &c]);
        assert!((s - 50e-9).abs() < 1e-15, "{s}");
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }
}
