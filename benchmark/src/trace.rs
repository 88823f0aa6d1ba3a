//! The benchmark's own spans: recorded in memory around calls into the
//! program, folded into per-op layer times, and written out as a
//! chrome-trace file when the run ends. Nothing here touches the
//! program — tracing is off unless a traced workload records into it.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Marks a span with no parent / a span outside any op.
pub const NONE: u32 = u32::MAX;

/// Ops whose spans are kept for the chrome-trace file; later ops are
/// folded into the layer times and dropped, which bounds the file.
const TRACE_FILE_OPS: u32 = 16;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The op this span belongs to, or [`NONE`] (set-up, service threads).
    pub op_id: u32,
    pub tid: u32,
}

struct Sink {
    epoch: Instant,
    state: Mutex<SinkState>,
    next_tid: Mutex<u32>,
}

#[derive(Default)]
struct SinkState {
    /// Bumped by every drain, so a span still open across one (a service
    /// thread mid-kernel) is dropped instead of closing a stranger.
    generation: u32,
    spans: Vec<Span>,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        epoch: Instant::now(),
        state: Mutex::new(SinkState::default()),
        next_tid: Mutex::new(0),
    })
}

struct ThreadCtx {
    tid: u32,
    /// Open spans of this thread as `(index, generation)`, innermost last.
    stack: Vec<(u32, u32)>,
    op_id: u32,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx {
        tid: {
            let mut next = sink().next_tid.lock().expect("tid counter lock");
            *next += 1;
            *next
        },
        stack: Vec::new(),
        op_id: NONE,
    });
}

/// Off until a traced run turns it on: untraced runs, and the untraced
/// ops a traced run interleaves, record nothing.
static ENABLED: AtomicBool = AtomicBool::new(false);

pub fn set_enabled(on: bool) {
    // Relaxed: each thread only needs to see the switch eventually, and
    // the runs flip it while no op is in flight.
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; closes (records its end) when dropped.
pub struct SpanGuard {
    index: u32,
    generation: u32,
}

/// Opens a span under this thread's innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            index: NONE,
            generation: 0,
        };
    }
    let s = sink();
    let start_ns = s.epoch.elapsed().as_nanos() as u64;
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let mut state = s.state.lock().expect("span sink lock");
        let index = state.spans.len() as u32;
        let generation = state.generation;
        let parent = match ctx.stack.last() {
            Some(&(parent, g)) if g == generation => parent,
            _ => NONE,
        };
        state.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            op_id: ctx.op_id,
            tid: ctx.tid,
        });
        ctx.stack.push((index, generation));
        SpanGuard { index, generation }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.index == NONE {
            return;
        }
        let s = sink();
        let end_ns = s.epoch.elapsed().as_nanos() as u64;
        CTX.with(|ctx| {
            let popped = ctx.borrow_mut().stack.pop();
            debug_assert_eq!(
                popped,
                Some((self.index, self.generation)),
                "spans close innermost first"
            );
        });
        let mut state = s.state.lock().expect("span sink lock");
        if state.generation == self.generation {
            state.spans[self.index as usize].end_ns = end_ns;
        }
    }
}

/// Tags every span this thread opens from now on with `op_id`.
pub fn set_op(op_id: u32) {
    CTX.with(|ctx| ctx.borrow_mut().op_id = op_id);
}

/// Time inside spans of one name during one op.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Folded {
    pub calls: u32,
    pub total_ns: u64,
    /// Total minus the part covered by direct children.
    pub self_ns: u64,
    /// Part of the total spent in spans with no parent: what the op's
    /// stages add up to.
    pub root_ns: u64,
}

/// Everything recorded so far, folded per op and span name; the spans of
/// the first few ops are kept for the trace file, the rest are dropped.
#[derive(Default)]
pub struct Collected {
    pub per_op: BTreeMap<u32, BTreeMap<&'static str, Folded>>,
    kept: Vec<Span>,
}

impl Collected {
    /// Drains the sink into `self`. Call between ops: a span still open
    /// on another thread is recorded with zero length.
    pub fn drain(&mut self) {
        let spans = {
            let mut state = sink().state.lock().expect("span sink lock");
            state.generation += 1;
            std::mem::take(&mut state.spans)
        };
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let f = self
                .per_op
                .entry(s.op_id)
                .or_default()
                .entry(s.name)
                .or_default();
            f.calls += 1;
            f.total_ns += dur;
            f.self_ns += dur.saturating_sub(child_ns[i]);
            if s.parent == NONE {
                f.root_ns += dur;
            }
        }
        // Parent indices are positions in the drained batch; rebase them
        // onto the kept list (a kept span's parent is always kept too:
        // both carry the same op id or the parent opened first).
        let mut new_index = vec![NONE; spans.len()];
        for (i, s) in spans.into_iter().enumerate() {
            if s.op_id < TRACE_FILE_OPS || s.op_id == NONE {
                new_index[i] = self.kept.len() as u32;
                let parent = match s.parent {
                    NONE => NONE,
                    p => new_index[p as usize],
                };
                self.kept.push(Span { parent, ..s });
            }
        }
    }

    /// The kept spans as a chrome://tracing document: one complete
    /// (`ph:"X"`) event per span, `args` carrying parent and op id.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .kept
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let opt = |v: u32| Json::num((v != NONE).then_some(f64::from(v)));
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("cfpq-benchmark")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.tid))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            ("parent", opt(s.parent)),
                            ("op_id", opt(s.op_id)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only, and it looks at its own op ids only: the sink is
    // process-wide, and `cargo test` runs tests on parallel threads.
    #[test]
    fn spans_nest_fold_and_export() {
        drop(span("while-off"));
        set_enabled(true);
        set_op(3);
        {
            let _solve = span("solve");
            {
                let _k = span("kernel");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _k = span("kernel");
        }
        set_op(TRACE_FILE_OPS + 1);
        drop(span("late"));
        set_op(NONE);

        let mut c = Collected::default();
        c.drain();
        let op = &c.per_op[&3];
        assert_eq!(op["solve"].calls, 1);
        assert_eq!(op["kernel"].calls, 2);
        assert!(op["kernel"].total_ns >= 2_000_000);
        assert_eq!(
            op["solve"].self_ns,
            op["solve"].total_ns - op["kernel"].total_ns
        );
        assert_eq!(op["solve"].root_ns, op["solve"].total_ns);
        assert_eq!(op["kernel"].root_ns, 0);
        assert!(c.per_op.contains_key(&(TRACE_FILE_OPS + 1)));

        // Only the early op is kept for the file; parents point at the
        // kept copy of the solve span.
        assert!(c
            .kept
            .iter()
            .all(|s| s.name != "late" && s.name != "while-off"));
        let solve = c.kept.iter().position(|s| s.name == "solve").unwrap() as u32;
        let kernels: Vec<&Span> = c.kept.iter().filter(|s| s.name == "kernel").collect();
        assert_eq!(kernels.len(), 2);
        assert!(kernels.iter().all(|s| s.parent == solve && s.op_id == 3));
        let doc = c.chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), c.kept.len());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
