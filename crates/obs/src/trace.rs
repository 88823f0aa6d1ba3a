//! The ring-buffer [`SpanCollector`], chrome://tracing export, and a
//! trace-format checker.
//!
//! The collector is lock-minimal: span ids come from one atomic, and
//! the open-span table / completed ring take a short mutex hold per
//! event (no allocation while locked beyond the span record itself).
//! The ring is bounded — when full, the oldest completed spans are
//! dropped and counted, so a long-running service can keep a collector
//! installed without unbounded growth.

use crate::{Attr, AttrValue, Recorder, SpanId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD_ID.try_with(|t| *t).unwrap_or(0)
}

/// A completed span captured by a [`SpanCollector`].
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Span name (static site label: `"kernel"`, `"sweep"`, ...).
    pub name: &'static str,
    /// Numeric id of the thread the span was opened on.
    pub thread: u64,
    /// Start time in microseconds since the collector was created.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Attributes attached at close time.
    pub attrs: Vec<Attr>,
}

impl Span {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

struct PendingSpan {
    name: &'static str,
    parent: u64,
    thread: u64,
    start: Instant,
}

/// Ring-buffer span recorder.
///
/// Install with [`crate::install`]; read back with [`Self::spans`].
/// Spans are reported on close, so a crash mid-span loses only the
/// open spans.
pub struct SpanCollector {
    epoch: Instant,
    next_id: AtomicU64,
    capacity: usize,
    pending: Mutex<HashMap<u64, PendingSpan>>,
    done: Mutex<VecDeque<Span>>,
    dropped: AtomicU64,
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanCollector {
    /// Collector holding up to 65 536 completed spans.
    pub fn new() -> Self {
        Self::with_capacity(65_536)
    }

    /// Collector holding up to `capacity` completed spans; older spans
    /// are dropped (and counted) once the ring is full.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanCollector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            capacity: capacity.max(1),
            pending: Mutex::new(HashMap::new()),
            done: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Completed spans, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .done
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }

    /// Number of completed spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The `k` longest completed spans, slowest first.
    pub fn top_slowest(&self, k: usize) -> Vec<Span> {
        let mut spans = self.spans();
        spans.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then(a.id.cmp(&b.id)));
        spans.truncate(k);
        spans
    }

    /// Export completed spans as chrome://tracing "trace event format"
    /// JSON (an array of `ph:"X"` complete events). Load the file via
    /// chrome://tracing or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"cfpq\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"span_id\":{},\"parent\":{}",
                crate::metrics::json_escape(s.name),
                s.start_us,
                s.dur_us,
                s.thread,
                s.id,
                s.parent,
            ));
            for (k, v) in &s.attrs {
                out.push_str(&format!(",\"{}\":", crate::metrics::json_escape(k)));
                match v {
                    AttrValue::U64(n) => out.push_str(&n.to_string()),
                    AttrValue::F64(n) if n.is_finite() => out.push_str(&n.to_string()),
                    AttrValue::F64(_) => out.push_str("null"),
                    AttrValue::Str(t) => {
                        out.push_str(&format!("\"{}\"", crate::metrics::json_escape(t)))
                    }
                    AttrValue::Text(t) => {
                        out.push_str(&format!("\"{}\"", crate::metrics::json_escape(t)))
                    }
                }
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

impl Recorder for SpanCollector {
    fn is_enabled(&self) -> bool {
        true
    }

    fn start(&self, name: &'static str, parent: SpanId) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let pending = PendingSpan {
            name,
            parent: parent.0,
            thread: thread_id(),
            start: Instant::now(),
        };
        self.pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, pending);
        SpanId(id)
    }

    fn end(&self, id: SpanId, attrs: Vec<Attr>) {
        if id.is_none() {
            return;
        }
        let Some(pending) = self
            .pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id.0)
        else {
            return;
        };
        // Truncate both endpoints against the same epoch and derive the
        // duration from the truncated values: floor() of a monotone
        // clock is monotone, so a child that really closed before its
        // parent can never be recorded closing after it (truncating
        // start and duration independently loses that invariant by 1us).
        let start_us = pending
            .start
            .saturating_duration_since(self.epoch)
            .as_micros() as u64;
        let end_us = self.epoch.elapsed().as_micros() as u64;
        let span = Span {
            id: id.0,
            parent: pending.parent,
            name: pending.name,
            thread: pending.thread,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            attrs,
        };
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        if done.len() >= self.capacity {
            done.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        done.push_back(span);
    }
}

/// Check structural well-formedness of a span forest: every non-root
/// parent id must resolve to a captured span that started no later than
/// and closed no earlier than the child.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".into());
    }
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        let Some(p) = by_id.get(&s.parent) else {
            return Err(format!(
                "span {} ({}) references missing parent {}",
                s.id, s.name, s.parent
            ));
        };
        if p.start_us > s.start_us {
            return Err(format!(
                "span {} ({}) starts at {}us before its parent {} ({}) at {}us",
                s.id, s.name, s.start_us, p.id, p.name, p.start_us
            ));
        }
        if p.start_us + p.dur_us < s.start_us + s.dur_us {
            return Err(format!(
                "span {} ({}) closes at {}us after its parent {} ({}) at {}us",
                s.id,
                s.name,
                s.start_us + s.dur_us,
                p.id,
                p.name,
                p.start_us + p.dur_us
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Chrome trace format checker: a minimal JSON reader (the crate is
// dependency-free) plus the structural rules chrome://tracing needs.
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected {lit})")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{', "'{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    let start = self.pos;
                    while self
                        .peek()
                        .map(|c| c != b'"' && c != b'\\' && c >= 0x20)
                        .unwrap_or(false)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8 in string"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .map(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut r = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.err("trailing garbage after JSON document"));
    }
    Ok(v)
}

/// Validate a chrome://tracing "trace event format" document: a JSON
/// array (or an object with a `traceEvents` array) of events, each with
/// string `name`/`ph`, numeric `ts`/`pid`/`tid`, and — for complete
/// (`ph:"X"`) events — a non-negative numeric `dur`. Returns the event
/// count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let events = match &doc {
        Json::Arr(events) => events,
        Json::Obj(_) => match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            _ => return Err("object form must carry a traceEvents array".into()),
        },
        _ => return Err("top level must be an array of trace events".into()),
    };
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| Err(format!("event {i}: {msg}"));
        if !matches!(ev, Json::Obj(_)) {
            return fail("not an object");
        }
        match ev.get("name") {
            Some(Json::Str(_)) => {}
            _ => return fail("missing string name"),
        }
        let ph = match ev.get("ph") {
            Some(Json::Str(ph)) if !ph.is_empty() => ph.clone(),
            _ => return fail("missing string ph"),
        };
        for key in ["ts", "pid", "tid"] {
            match ev.get(key) {
                Some(Json::Num(_)) => {}
                _ => return fail(&format!("missing numeric {key}")),
            }
        }
        if ph == "X" {
            match ev.get("dur") {
                Some(Json::Num(d)) if *d >= 0.0 => {}
                _ => return fail("complete event missing non-negative dur"),
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, install_with_parent, span};
    use std::sync::Arc;

    #[test]
    fn collector_captures_tree_and_attrs() {
        let rec = Arc::new(SpanCollector::new());
        let _g = install(rec.clone());
        {
            let mut outer = span("solve");
            outer.attr_str("mode", "cold");
            {
                let mut inner = span("sweep");
                inner.attr_u64("sweep", 1);
            }
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let sweep = spans.iter().find(|s| s.name == "sweep").unwrap();
        let solve = spans.iter().find(|s| s.name == "solve").unwrap();
        assert_eq!(sweep.parent, solve.id);
        assert_eq!(sweep.attr("sweep"), Some(&AttrValue::U64(1)));
        check_well_formed(&spans).unwrap();
    }

    #[test]
    fn ring_drops_oldest() {
        let rec = Arc::new(SpanCollector::with_capacity(2));
        let _g = install(rec.clone());
        for _ in 0..5 {
            let _sp = span("s");
        }
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn cross_thread_parenting() {
        let rec = Arc::new(SpanCollector::new());
        let _g = install(rec.clone());
        let outer = span("outer");
        let parent = outer.id();
        let rec2: Arc<dyn Recorder> = rec.clone();
        std::thread::spawn(move || {
            let _g = install_with_parent(rec2, parent);
            let _sp = span("remote");
        })
        .join()
        .unwrap();
        drop(outer);
        let spans = rec.spans();
        let remote = spans.iter().find(|s| s.name == "remote").unwrap();
        assert_eq!(remote.parent, parent.0);
        check_well_formed(&spans).unwrap();
    }

    #[test]
    fn chrome_trace_round_trips_through_checker() {
        let rec = Arc::new(SpanCollector::new());
        let _g = install(rec.clone());
        {
            let mut sp = span("kernel");
            sp.attr_u64("nnz", 12);
            sp.attr_str("repr", "csr");
            sp.attr_text("note", "quote \" backslash \\ done".to_string());
        }
        let json = rec.chrome_trace_json();
        assert_eq!(validate_chrome_trace(&json).unwrap(), 1);
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace("42").is_err());
        assert!(validate_chrome_trace("[{\"ph\":\"X\"}]").is_err());
        assert!(
            validate_chrome_trace("[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1}]")
                .is_err(),
            "complete event without dur must fail"
        );
        assert_eq!(validate_chrome_trace("[]").unwrap(), 0);
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}").unwrap(), 0);
    }

    #[test]
    fn well_formedness_detects_orphans() {
        let spans = vec![Span {
            id: 2,
            parent: 1,
            name: "child",
            thread: 1,
            start_us: 0,
            dur_us: 1,
            attrs: vec![],
        }];
        assert!(check_well_formed(&spans).is_err());
    }
}
