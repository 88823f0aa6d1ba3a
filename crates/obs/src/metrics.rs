//! Counters, gauges, and log-bucketed histograms with Prometheus-text
//! and JSON exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones over atomics: register once, then update lock-free on hot
//! paths. The [`MetricsRegistry`] owns the name → handle map and
//! renders exposition formats on demand.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous value (queue depths, epoch numbers).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
    /// Raise the gauge to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Index of the bucket `v` falls into: bucket 0 holds only zero, bucket
/// `i >= 1` holds `[2^(i-1), 2^i - 1]`. Every `u64` lands in exactly
/// one bucket.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (its Prometheus `le` label).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// Log2-bucketed latency/size histogram.
///
/// Samples are `u64`s (microseconds, nnz, ...); each lands in exactly
/// one of 65 buckets (zero, then one per power of two), so `observe` is
/// two relaxed atomic adds and quantile estimation reads 65 words.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum)
            .finish()
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Fold another histogram's samples into this one. The result is
    /// bucket-for-bucket identical to a histogram that observed the
    /// concatenation of both sample streams.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0
            .sum
            .fetch_add(other.0.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`); zero when empty. An over-estimate by at
    /// most 2x (the bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Consistent point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`], used for exposition so every
/// derived figure (cumulative buckets, count, quantiles) is computed
/// from one coherent read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing the `q`-quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// Escape a Prometheus `# HELP` text: backslash and newline.
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    help: BTreeMap<String, String>,
}

/// Name → metric map with exposition.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short lock and
/// returns a lock-free handle; get-or-create semantics make it safe to
/// call from multiple sites with the same name. Names should follow
/// Prometheus conventions (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsRegistry")
    }
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Attach `# HELP` text to a metric name.
    pub fn describe(&self, name: &str, help: &str) {
        self.lock().help.insert(name.to_string(), help.to_string());
    }

    /// Render the registry in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let help = |out: &mut String, name: &str| {
            if let Some(h) = inner.help.get(name) {
                out.push_str(&format!("# HELP {name} {}\n", escape_help(h)));
            }
        };
        for (name, c) in &inner.counters {
            help(&mut out, name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        for (name, g) in &inner.gauges {
            help(&mut out, name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
        }
        for (name, h) in &inner.histograms {
            help(&mut out, name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let snap = h.snapshot();
            let count = snap.count();
            let top = snap.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for (i, n) in snap.buckets.iter().enumerate().take(top + 1) {
                cumulative += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_upper_bound(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
            out.push_str(&format!("{name}_sum {}\n", snap.sum));
            out.push_str(&format!("{name}_count {count}\n"));
        }
        out
    }

    /// Render the registry as a JSON object with `counters`, `gauges`,
    /// and `histograms` (count, sum, p50/p90/p99 bucket bounds).
    pub fn json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, c) in &inner.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", json_escape(name), c.get()));
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for (name, g) in &inner.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", json_escape(name), g.get()));
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (name, h) in &inner.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let snap = h.snapshot();
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_escape(name),
                snap.count(),
                snap.sum,
                snap.quantile(0.5),
                snap.quantile(0.9),
                snap.quantile(0.99)
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Checks a Prometheus text exposition line by line: comment lines must
/// be well-formed `# HELP <name> <text>` / `# TYPE <name> <type>`
/// directives, every sample line must parse as
/// `name[{label="value",...}] value`, and every sample's base name must
/// have been declared by a preceding `# TYPE` line. Returns how many
/// non-empty lines were validated. This is the checker the test suites
/// run against [`MetricsRegistry::prometheus_text`] — the sibling of
/// [`crate::validate_chrome_trace`] for the other export format.
pub fn lint_prometheus_text(text: &str) -> Result<usize, String> {
    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    // A histogram series `x` exposes `x_bucket`/`x_sum`/`x_count`; its
    // TYPE line declares the base name.
    fn base_name(name: &str) -> &str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(b) = name.strip_suffix(suffix) {
                return b;
            }
        }
        name
    }
    let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut checked = 0usize;
    for (no, line) in text.lines().enumerate() {
        let n = no + 1;
        if line.is_empty() {
            continue;
        }
        checked += 1;
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let directive = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let tail = parts.next().unwrap_or("");
            if !is_name(name) {
                return Err(format!("line {n}: bad metric name {name:?}"));
            }
            match directive {
                "HELP" => {
                    // Escaping leaves no raw backslash-X other than \\ and \n.
                    let mut chars = tail.chars();
                    while let Some(c) = chars.next() {
                        if c == '\\' && !matches!(chars.next(), Some('\\') | Some('n')) {
                            return Err(format!("line {n}: bad HELP escape"));
                        }
                    }
                }
                "TYPE" => {
                    if !matches!(
                        tail,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: bad TYPE {tail:?}"));
                    }
                    if !typed.insert(name) {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                }
                _ => return Err(format!("line {n}: unknown directive {directive:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no sample value"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {n}: bad sample value {value:?}"));
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                // One pass over `k="v",...` with escape-aware quoting.
                let mut rest = labels;
                while !rest.is_empty() {
                    let (key, after) = rest
                        .split_once("=\"")
                        .ok_or_else(|| format!("line {n}: label without =\""))?;
                    if !is_name(key) {
                        return Err(format!("line {n}: bad label name {key:?}"));
                    }
                    let mut close = None;
                    let mut escaped = false;
                    for (i, c) in after.char_indices() {
                        if escaped {
                            if !matches!(c, '\\' | '"' | 'n') {
                                return Err(format!("line {n}: bad label escape"));
                            }
                            escaped = false;
                        } else if c == '\\' {
                            escaped = true;
                        } else if c == '"' {
                            close = Some(i);
                            break;
                        }
                    }
                    let close =
                        close.ok_or_else(|| format!("line {n}: unterminated label value"))?;
                    rest = after[close + 1..].trim_start_matches(',');
                }
                name
            }
            None => series,
        };
        if !is_name(name) {
            return Err(format!("line {n}: bad sample name {name:?}"));
        }
        if !typed.contains(base_name(name)) {
            return Err(format!("line {n}: sample {name} has no TYPE declaration"));
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("cfpq_events_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("cfpq_events_total").get(), 5);
        let g = reg.gauge("cfpq_depth");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    proptest! {
        /// Every sample lands in exactly one bucket, and that bucket's
        /// bounds contain it.
        #[test]
        fn every_sample_in_exactly_one_bucket(v in 0u64..u64::MAX) {
            let i = bucket_index(v);
            prop_assert!(i < HISTOGRAM_BUCKETS);
            prop_assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                prop_assert!(v > bucket_upper_bound(i - 1));
            }
            // No other bucket admits it under the same rule.
            let owners = (0..HISTOGRAM_BUCKETS)
                .filter(|&j| {
                    v <= bucket_upper_bound(j)
                        && (j == 0 || v > bucket_upper_bound(j - 1))
                })
                .count();
            prop_assert_eq!(owners, 1);
        }

        /// merge(h(a), h(b)) == h(a ++ b), bucket for bucket.
        #[test]
        fn merge_equals_concatenation(
            a in proptest::collection::vec(0u64..u64::MAX, 0..64),
            b in proptest::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let ha = Histogram::default();
            let hb = Histogram::default();
            let hc = Histogram::default();
            for &v in &a {
                ha.observe(v);
                hc.observe(v);
            }
            for &v in &b {
                hb.observe(v);
                hc.observe(v);
            }
            ha.merge(&hb);
            prop_assert_eq!(ha.snapshot(), hc.snapshot());
        }

        /// The quantile estimate's bucket actually contains at least
        /// q*count of the samples below or at it.
        #[test]
        fn quantile_is_an_upper_bound(
            samples in proptest::collection::vec(0u64..1_000_000, 1..64),
            q_ppm in 0u32..1_000_000,
        ) {
            let q = q_ppm as f64 / 1_000_000.0;
            let h = Histogram::default();
            for &v in &samples {
                h.observe(v);
            }
            let est = h.quantile(q);
            let at_or_below = samples.iter().filter(|&&v| v <= est).count() as f64;
            prop_assert!(at_or_below >= q * samples.len() as f64);
        }
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = MetricsRegistry::new();
        reg.describe(
            "cfpq_sheds_total",
            "requests shed\nwith newline \\ backslash",
        );
        reg.counter("cfpq_sheds_total").add(2);
        reg.gauge("cfpq_queue_depth").set(3);
        let h = reg.histogram("cfpq_wait_us");
        h.observe(0);
        h.observe(5);
        let text = reg.prometheus_text();
        assert!(
            text.contains("# HELP cfpq_sheds_total requests shed\\nwith newline \\\\ backslash\n")
        );
        assert!(text.contains("# TYPE cfpq_sheds_total counter\ncfpq_sheds_total 2\n"));
        assert!(text.contains("# TYPE cfpq_queue_depth gauge\ncfpq_queue_depth 3\n"));
        assert!(text.contains("cfpq_wait_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("cfpq_wait_us_bucket{le=\"7\"} 2\n"));
        assert!(text.contains("cfpq_wait_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("cfpq_wait_us_sum 5\n"));
        assert!(text.contains("cfpq_wait_us_count 2\n"));
    }

    #[test]
    fn help_and_json_escaping() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(json_escape("x\"\\\n\u{1}"), "x\\\"\\\\\\n\\u0001");
    }

    #[test]
    fn json_exposition_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.gauge("g").set(2);
        reg.histogram("h").observe(9);
        let json = reg.json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c\":1"));
        assert!(json.contains("\"g\":2"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn prometheus_linter_accepts_the_real_exposition() {
        // The linter must pass the registry's own output — including a
        // help string with characters that need escaping and a histogram
        // with its _bucket/_sum/_count family.
        let reg = MetricsRegistry::new();
        reg.describe("demo_total", "a counter with a \\ and a\nnewline");
        reg.counter("demo_total").add(3);
        reg.gauge("demo_depth").set(7);
        let h = reg.histogram("demo_us");
        for v in [1, 10, 100, 1_000, 10_000] {
            h.observe(v);
        }
        let text = reg.prometheus_text();
        let lines = lint_prometheus_text(&text).expect("registry output lints clean");
        assert!(lines > 5, "exposition has HELP/TYPE + samples");
    }

    #[test]
    fn prometheus_linter_rejects_malformed_exposition() {
        // A sample whose metric family has no TYPE declaration.
        assert!(lint_prometheus_text("orphan_total 3\n").is_err());
        // An illegal metric name.
        assert!(lint_prometheus_text("# TYPE 9bad counter\n9bad 1\n").is_err());
        // A non-numeric value.
        assert!(lint_prometheus_text("# TYPE ok_total counter\nok_total banana\n").is_err());
        // Duplicate TYPE for one family.
        assert!(
            lint_prometheus_text("# TYPE x_total counter\n# TYPE x_total gauge\nx_total 1\n")
                .is_err()
        );
        // An unterminated label value.
        assert!(lint_prometheus_text("# TYPE y_total counter\ny_total{le=\"0.5 1\n").is_err());
        // An unknown TYPE keyword.
        assert!(lint_prometheus_text("# TYPE z_total meter\nz_total 1\n").is_err());
    }
}
