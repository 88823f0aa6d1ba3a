//! # cfpq-obs
//!
//! Dependency-free observability substrate for the CFPQ stack: span
//! tracing with typed attributes, a metrics registry (counters, gauges,
//! log-bucketed histograms) with Prometheus-text and JSON exposition,
//! and a chrome://tracing exporter.
//!
//! The design goal is *zero cost when off*: instrumentation sites call
//! [`span`], which performs a single thread-local read and returns an
//! inert guard when no [`Recorder`] is installed. Attribute values that
//! are expensive to compute (e.g. `nnz` popcounts) must be gated behind
//! [`SpanGuard::is_recording`], so an uninstrumented run does no extra
//! work beyond one predictable branch per site.
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//! let collector = Arc::new(cfpq_obs::SpanCollector::new());
//! let _session = cfpq_obs::install(collector.clone());
//! {
//!     let mut sp = cfpq_obs::span("solve");
//!     if sp.is_recording() {
//!         sp.attr_u64("nnz", 42);
//!     }
//! }
//! assert_eq!(collector.spans().len(), 1);
//! ```

pub mod metrics;
pub mod trace;

pub use metrics::{
    lint_prometheus_text, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
};
pub use trace::{validate_chrome_trace, Span, SpanCollector};

use std::cell::RefCell;
use std::sync::Arc;

/// Identifier of a span issued by a [`Recorder`].
///
/// `SpanId::NONE` (zero) is the absent id: it names "no parent" for
/// root spans and is what a disabled recorder hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span id (no parent / recorder disabled).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the absent id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A typed span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts: `nnz`, `sweep`, `products`, ...).
    U64(u64),
    /// Floating point (ratios, milliseconds).
    F64(f64),
    /// Static string (representation names, strategies).
    Str(&'static str),
    /// Owned string (per-nonterminal breakdowns).
    Text(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Text(v) => write!(f, "{v}"),
        }
    }
}

/// A key/value attribute attached to a span at close time.
pub type Attr = (&'static str, AttrValue);

/// Sink for span events.
///
/// Implementations must be cheap and non-blocking: `start`/`end` run on
/// hot paths (including device pool threads). The contract:
///
/// * `start` issues a fresh id (never `SpanId::NONE` while enabled) and
///   records the parent link; `end` closes the span and attaches its
///   attributes.
/// * `end` is called exactly once per `start`, on an arbitrary thread.
/// * A disabled recorder (`is_enabled() == false`) returns
///   `SpanId::NONE` from `start` and ignores `end`.
pub trait Recorder: Send + Sync {
    /// Whether spans are being captured. Callers use this to skip
    /// attribute computation entirely.
    fn is_enabled(&self) -> bool;
    /// Open a span. `parent` is `SpanId::NONE` for roots.
    fn start(&self, name: &'static str, parent: SpanId) -> SpanId;
    /// Close a span, attaching its attributes.
    fn end(&self, id: SpanId, attrs: Vec<Attr>);
}

/// The zero-cost default recorder: captures nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn start(&self, _name: &'static str, _parent: SpanId) -> SpanId {
        SpanId::NONE
    }
    fn end(&self, _id: SpanId, _attrs: Vec<Attr>) {}
}

struct ThreadContext {
    recorder: Arc<dyn Recorder>,
    current: SpanId,
}

thread_local! {
    static CONTEXT: RefCell<Option<ThreadContext>> = const { RefCell::new(None) };
}

/// Install `recorder` as this thread's active recorder.
///
/// Spans opened via [`span`] on this thread (and on device pool threads
/// the caller launches work onto — the pool propagates the context) go
/// to it until the returned guard drops, which restores whatever was
/// installed before. Guards nest LIFO.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub fn install(recorder: Arc<dyn Recorder>) -> InstallGuard {
    install_with_parent(recorder, SpanId::NONE)
}

/// Like [`install`], but spans opened at top level on this thread become
/// children of `parent` (a span id issued by the same recorder,
/// typically started on another thread). This is how cross-thread span
/// trees are stitched together.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub fn install_with_parent(recorder: Arc<dyn Recorder>, parent: SpanId) -> InstallGuard {
    let prev = CONTEXT.with(|c| {
        c.borrow_mut().replace(ThreadContext {
            recorder,
            current: parent,
        })
    });
    InstallGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// Restores the previously installed recorder (if any) on drop.
pub struct InstallGuard {
    prev: Option<ThreadContext>,
    // Tied to the installing thread: the TLS slot it must restore lives
    // there.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = CONTEXT.try_with(|c| *c.borrow_mut() = prev);
    }
}

/// Snapshot of this thread's recording context: the installed recorder
/// and the currently open span, if any. Used by the device pool to
/// re-install the caller's context on worker threads.
pub fn current_context() -> Option<(Arc<dyn Recorder>, SpanId)> {
    CONTEXT
        .try_with(|c| {
            c.borrow()
                .as_ref()
                .map(|ctx| (ctx.recorder.clone(), ctx.current))
        })
        .ok()
        .flatten()
}

/// Open a span named `name` under the thread's current span.
///
/// When no recorder is installed (or the installed one is disabled)
/// this is a single thread-local read returning an inert guard.
pub fn span(name: &'static str) -> SpanGuard {
    CONTEXT
        .try_with(|c| {
            let mut slot = c.borrow_mut();
            match slot.as_mut() {
                Some(ctx) if ctx.recorder.is_enabled() => {
                    let id = ctx.recorder.start(name, ctx.current);
                    let prev = ctx.current;
                    ctx.current = id;
                    SpanGuard {
                        active: Some(ActiveSpan {
                            recorder: ctx.recorder.clone(),
                            id,
                            prev,
                            attrs: Vec::new(),
                        }),
                    }
                }
                _ => SpanGuard { active: None },
            }
        })
        .unwrap_or(SpanGuard { active: None })
}

struct ActiveSpan {
    recorder: Arc<dyn Recorder>,
    id: SpanId,
    prev: SpanId,
    attrs: Vec<Attr>,
}

/// RAII guard for an open span; closes it (reporting wall time and
/// accumulated attributes) on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Whether this span is actually being captured. Gate any
    /// non-trivial attribute computation (popcounts, string building)
    /// on this.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// This span's id (`SpanId::NONE` when inert). Hand it to
    /// [`install_with_parent`] to parent work on another thread here.
    pub fn id(&self) -> SpanId {
        self.active.as_ref().map_or(SpanId::NONE, |a| a.id)
    }

    /// Attach an attribute (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: AttrValue) {
        if let Some(a) = self.active.as_mut() {
            a.attrs.push((key, value));
        }
    }

    /// Attach an unsigned integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        self.attr(key, AttrValue::U64(value));
    }

    /// Attach a static-string attribute.
    pub fn attr_str(&mut self, key: &'static str, value: &'static str) {
        self.attr(key, AttrValue::Str(value));
    }

    /// Attach an owned-string attribute.
    pub fn attr_text(&mut self, key: &'static str, value: String) {
        self.attr(key, AttrValue::Text(value));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let _ = CONTEXT.try_with(|c| {
                if let Some(ctx) = c.borrow_mut().as_mut() {
                    if ctx.current == active.id {
                        ctx.current = active.prev;
                    }
                }
            });
            active.recorder.end(active.id, active.attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_recorder_is_inert() {
        let mut sp = span("noop");
        assert!(!sp.is_recording());
        assert_eq!(sp.id(), SpanId::NONE);
        sp.attr_u64("ignored", 1);
    }

    #[test]
    fn noop_recorder_hands_out_none() {
        let rec = NoopRecorder;
        assert!(!rec.is_enabled());
        assert_eq!(rec.start("x", SpanId::NONE), SpanId::NONE);
    }

    #[test]
    fn install_guard_restores_previous_context() {
        let a = Arc::new(SpanCollector::new());
        let b = Arc::new(SpanCollector::new());
        let _ga = install(a.clone());
        {
            let _gb = install(b.clone());
            let _sp = span("inner");
        }
        let _sp = span("outer");
        drop(_sp);
        assert_eq!(b.spans().len(), 1);
        assert_eq!(a.spans().len(), 1);
        assert_eq!(a.spans()[0].name, "outer");
    }

    #[test]
    fn nesting_links_parents() {
        let rec = Arc::new(SpanCollector::new());
        let _g = install(rec.clone());
        let outer = span("outer");
        let outer_id = outer.id();
        {
            let inner = span("inner");
            assert!(inner.is_recording());
            drop(inner);
        }
        drop(outer);
        let spans = rec.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer_id.0);
    }
}
