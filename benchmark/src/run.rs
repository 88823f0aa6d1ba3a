//! One run of one workload: set-up, warm-up, the measured window, the
//! checks, and the metrics that come out — end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.

use crate::adapter::{self, KernelSnapshot, Oracle, SvcOpen, Verdict, Workload};
use crate::metrics::{
    Values, END_TO_END, KERNEL_CLASSES, PER_LAYER, RATES, RATE_WINDOW_SHARE, REFERENCE_RATE,
    TICKET_KINDS,
};
use crate::openloop::{self, Closures, RateRun, TicketRecord, TicketSpec};
use crate::stats::{median, Sample};
use crate::trace::{self, Collected, Folded};
use std::time::{Duration, Instant};

/// The eight workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 8] = [
    (
        "onto-cold",
        "cold Q1 on g3, full answer: index build, fixpoint and materialisation balanced",
    ),
    (
        "blocks-cold",
        "cold Dyck-1 on dense 512-node blocks, count only: the tile kernels dominate",
    ),
    (
        "sparse-cold",
        "cold Dyck-1 on a hypersparse graph with CSR: many sweeps, little kernel time",
    ),
    (
        "rpq-cold",
        "two regular path queries through the compiled NFA-to-WCNF route on a prebuilt index",
    ),
    (
        "single-path",
        "cold single-path closure plus 64 witness extractions: the length kernels",
    ),
    (
        "update-stream",
        "ten-edge batches with four cached closures repaired after each: writes beside reads",
    ),
    (
        "point-cold",
        "four-pair lookup on a fresh service over 102,400 nodes: pays for the full closure",
    ),
    (
        "svc-open",
        "open-loop ticket mix at 250/s beside a writer: dispatch latency and heavy-ticket tails",
    ),
];

/// Latency limit of the open-loop passes, from a ticket's due time. One worker
/// serves every queue, so a single heavy paths page (up to ~50 ms on the
/// reference box) sets the p99 of everything queued behind it; the limit
/// sits clear of that, or `max_rate_ok` would flip on noise.
const LATENCY_LIMIT_MS: f64 = 75.0;
/// A rate whose backlog takes longer than this to drain after the last
/// send is growing a queue, whatever its percentiles say.
const DRAIN_LIMIT_MS: f64 = 100.0;
/// A rate is not scored when the generator itself sent this late at p99:
/// the number would measure the scheduler, not the program.
const GEN_LATE_LIMIT_MS: f64 = 5.0;
const PUBLISH_EVERY: Duration = Duration::from_millis(200);

/// Ops whose solver and kernel counts are reported: a fixed prefix, so
/// the counts do not depend on how many ops the window had time for.
const COUNTED_OPS: usize = 32;

/// Timed ops a closed-loop run makes at least, however short the window:
/// 100 keeps ten samples beyond the 90th percentile.
const MIN_OPS: usize = 100;
/// Times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub oracle: Oracle,
}

impl RunConfig {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> Self {
        RunConfig {
            workload: workload.to_owned(),
            seed,
            seconds,
            traced,
            oracle: Oracle::Honest,
        }
    }
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer of a traced one.
    pub metrics: Values,
    /// Ways the run itself (not the program's answers) went wrong: a
    /// cross-check that did not hold, a trace that did not validate.
    pub faults: Vec<String>,
    /// Things worth a line on stderr that do not fail the run.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }
}

/// Puts the allocator in the state a long-running process is in.
///
/// glibc serves a block above its mmap threshold with fresh zeroed pages
/// from the kernel and hands them back on free, so such a block costs
/// page faults on every op. The threshold starts at 128 KiB and moves up
/// to the size of the largest block freed so far, 32 MiB at most — which
/// means how fast an op's large vectors are allocated depends on what
/// the process happened to free before. Left alone, that made identical
/// runs of one workload differ by a quarter (two modes, seconds apart in
/// the same process). Freeing one block just under the maximum pins the
/// threshold there from the first op on. The block is never touched, so
/// it does not show in `peak_rss_mb`. Harmless on other allocators.
fn settle_allocator() {
    const JUST_UNDER_MAX: usize = (32 << 20) - (64 << 10);
    drop(std::hint::black_box(Vec::<u8>::with_capacity(
        JUST_UNDER_MAX,
    )));
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    settle_allocator();
    if !WORKLOADS.iter().any(|(name, _)| *name == cfg.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {:?}; the workloads are {}",
            cfg.workload,
            names.join(", ")
        ));
    }
    let mut result = match (cfg.workload.as_str(), cfg.traced) {
        ("svc-open", false) => svc_open_end_to_end(cfg),
        ("svc-open", true) => svc_open_layers(cfg),
        (_, false) => closed_loop_end_to_end(cfg),
        (_, true) => closed_loop_layers(cfg),
    };
    let defs = if cfg.traced { PER_LAYER } else { END_TO_END };
    for name in result.metrics.undefined(defs) {
        result
            .faults
            .push(format!("metric {name} is not in the table"));
    }
    Ok(result)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MB; `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `build` [`SETUPS`] times; returns the last product and the median
/// time.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        median(&times).expect("at least one set-up"),
    )
}

// ---------------------------------------------------------------------------
// Closed loop, one client
// ---------------------------------------------------------------------------

/// The warm-up: 5 % of the window, three ops at least; discarded.
fn warm_up(w: &mut dyn Workload, seconds: f64, next_op: &mut usize) {
    let started = Instant::now();
    let mut done = 0;
    while done < 3 || started.elapsed().as_secs_f64() < seconds * 0.05 {
        w.op(*next_op);
        w.settle();
        *next_op += 1;
        done += 1;
    }
}

/// Sets `op_ms_p50`, `op_ms_p90` and `op_ms_p99` from every timed op of
/// the window; a percentile without ten samples beyond it stays unset.
fn set_latency(metrics: &mut Values, latencies_ms: Vec<f64>) {
    let sample = Sample::new(latencies_ms);
    let n = sample.n();
    metrics.set_n("op_ms_p50", sample.median(), n);
    metrics.set_n("op_ms_p90", sample.supported_percentile(0.9), n);
    metrics.set_n("op_ms_p99", sample.supported_percentile(0.99), n);
}

fn closed_loop_end_to_end(cfg: &RunConfig) -> RunResult {
    let (mut w, setup_s) = timed_setup(|| {
        adapter::closed_loop(&cfg.workload, cfg.seed, false).expect("a closed-loop workload")
    });
    let mut i = 0;
    warm_up(w.as_mut(), cfg.seconds, &mut i);

    let window = Instant::now();
    let mut latencies = Vec::new();
    while window.elapsed().as_secs_f64() < cfg.seconds || latencies.len() < MIN_OPS {
        latencies.push(ms(w.op(i)));
        w.settle();
        i += 1;
    }
    // The window's wall time: the ops, and the digest `settle` takes of
    // each answer for the check afterwards.
    let window_s = window.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let Verdict { attempted, failed } = w.verify(cfg.oracle);

    // Failed ops (none, on a healthy run) do not count as throughput.
    let failed_share = failed as f64 / attempted.max(1) as f64;
    let n = latencies.len();
    let mut metrics = Values::default();
    set_latency(&mut metrics, latencies);
    metrics.set_n(
        "ops_per_s",
        Some((1.0 - failed_share) * n as f64 / window_s),
        n,
    );
    metrics.set_n("failed_share", Some(failed_share), attempted as usize);
    metrics.set_n("setup_s", Some(setup_s), SETUPS);
    metrics.set_n("peak_rss_mb", rss, 1);
    RunResult {
        attempted,
        failed,
        metrics,
        faults: Vec::new(),
        notes: Vec::new(),
    }
}

/// Which part of a folded span a metric reads.
#[derive(Clone, Copy)]
enum Part {
    Total,
    SelfTime,
    PerCall,
}

/// Layer-time metrics read off the benchmark's spans: span name, metric,
/// part, and the factor from nanoseconds to the metric's unit.
const SPAN_METRICS: [(&str, &str, Part, f64); 16] = [
    (
        "core.session.index_build",
        "core.session.index_build_ms",
        Part::Total,
        1e-6,
    ),
    (
        "core.session.index_clone",
        "core.session.index_clone_ms",
        Part::Total,
        1e-6,
    ),
    ("grammar.wcnf", "grammar.wcnf_us", Part::Total, 1e-3),
    (
        "core.compile.lower",
        "core.compile.lower_us",
        Part::Total,
        1e-3,
    ),
    (
        "core.relational.solve",
        "core.relational.solve_ms",
        Part::Total,
        1e-6,
    ),
    (
        "core.relational.solve",
        "core.relational.self_ms",
        Part::SelfTime,
        1e-6,
    ),
    (
        "core.single_path.solve",
        "core.single_path.solve_ms",
        Part::Total,
        1e-6,
    ),
    (
        "core.single_path.solve",
        "core.single_path.self_ms",
        Part::SelfTime,
        1e-6,
    ),
    (
        "core.single_path.extract",
        "core.single_path.extract_us",
        Part::PerCall,
        1e-3,
    ),
    (
        "core.query.materialize",
        "core.query.materialize_ms",
        Part::Total,
        1e-6,
    ),
    (
        "core.session.add_edges",
        "core.session.add_edges_us",
        Part::Total,
        1e-3,
    ),
    (
        "core.session.repair_rel",
        "core.session.repair_rel_ms",
        Part::Total,
        1e-6,
    ),
    (
        "core.session.repair_sp",
        "core.session.repair_sp_ms",
        Part::Total,
        1e-6,
    ),
    ("service.up", "service.up_ms", Part::Total, 1e-6),
    ("service.down", "service.down_ms", Part::Total, 1e-6),
    (
        "service.enqueue",
        "service.enqueue_us_p50",
        Part::Total,
        1e-3,
    ),
];

/// Spans that wrap work outside the op's measured part.
const UNTIMED_SPAN: &str = "bench.untimed";

/// Sets every span-derived metric to its median over the ops (and the
/// set-up, op id `NONE`) that have the span.
fn span_metrics(spans: &Collected, metrics: &mut Values) {
    for (span, metric, part, scale) in SPAN_METRICS {
        let per_op: Vec<f64> = spans
            .per_op
            .iter()
            .filter_map(|(op, folded)| {
                let f: &Folded = folded.get(span)?;
                let calls = f64::from(f.calls);
                let ns = match part {
                    // Set-up may run a stage more than once; an op does not.
                    Part::Total if *op == trace::NONE => f.total_ns as f64 / calls,
                    Part::Total => f.total_ns as f64,
                    Part::SelfTime => f.self_ns as f64,
                    Part::PerCall => f.total_ns as f64 / calls,
                };
                Some(ns * scale)
            })
            .collect();
        if !per_op.is_empty() {
            let sample = Sample::new(per_op);
            metrics.set_n(metric, sample.median(), sample.n());
        }
    }
}

/// `matrix.*` from per-op kernel deltas: busy time as the median over all
/// ops, calls as the mean over the counted prefix.
fn kernel_metrics(per_op: &[(KernelSnapshot, f64)], metrics: &mut Values) {
    if per_op.is_empty() {
        return;
    }
    let counted = &per_op[..per_op.len().min(COUNTED_OPS)];
    let mean = |f: &dyn Fn(&KernelSnapshot) -> u64| {
        counted.iter().map(|(k, _)| f(k) as f64).sum::<f64>() / counted.len() as f64
    };
    for (c, class) in KERNEL_CLASSES.iter().enumerate() {
        let calls = mean(&|k| k.calls[c]);
        if calls > 0.0 {
            let busy = Sample::new(
                per_op
                    .iter()
                    .map(|(k, _)| k.busy_ns[c] as f64 / 1e6)
                    .collect(),
            );
            metrics.set_n(format!("matrix.{class}.calls"), Some(calls), counted.len());
            metrics.set_n(format!("matrix.{class}.busy_ms"), busy.median(), busy.n());
        }
    }
    metrics.set_n(
        "matrix.tiles_skipped",
        Some(mean(&|k| k.tiles_skipped)),
        counted.len(),
    );
    let share = Sample::new(
        per_op
            .iter()
            .map(|(k, op_ms)| k.busy_ns.iter().sum::<u64>() as f64 / 1e6 / op_ms)
            .collect(),
    );
    metrics.set_n("matrix.busy_share", share.median(), share.n());
}

fn closed_loop_layers(cfg: &RunConfig) -> RunResult {
    // Two instances of the workload on the same inputs: one on the raw
    // engine, one under `TimedEngine`. Their ops alternate, so drift in
    // the machine's speed hits both alike and the ratio of their medians
    // is the cost of tracing.
    let build = |traced| {
        adapter::closed_loop(&cfg.workload, cfg.seed, traced).expect("a closed-loop workload")
    };
    let mut raw = build(false);
    trace::set_enabled(true);
    let mut timed = build(true);
    trace::set_enabled(false);
    let (mut i_raw, mut i_timed) = (0, 0);
    warm_up(raw.as_mut(), cfg.seconds / 4.0, &mut i_raw);
    warm_up(timed.as_mut(), cfg.seconds / 4.0, &mut i_timed);

    let mut spans = Collected::default();
    spans.drain();
    let (mut raw_ms, mut timed_ms) = (Vec::new(), Vec::new());
    let mut kernels: Vec<(KernelSnapshot, f64)> = Vec::new();
    let mut counts: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let min_ops = MIN_OPS.div_ceil(4);
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < cfg.seconds || timed_ms.len() < min_ops {
        raw_ms.push(ms(raw.op(i_raw)));
        raw.settle();
        i_raw += 1;

        let op = timed_ms.len();
        trace::set_op(op as u32);
        trace::set_enabled(true);
        let op_ms = ms(timed.op(i_timed));
        trace::set_enabled(false);
        trace::set_op(trace::NONE);
        timed.settle();
        i_timed += 1;
        timed_ms.push(op_ms);
        if let Some(k) = timed.probe().kernels {
            kernels.push((k, op_ms));
        }
        if op < COUNTED_OPS {
            counts.push(timed.probe().counts.clone());
        }
        spans.drain();
    }
    let raw_verdict = raw.verify(cfg.oracle);
    let timed_verdict = timed.verify(cfg.oracle);
    let attempted = raw_verdict.attempted + timed_verdict.attempted;
    let failed = raw_verdict.failed + timed_verdict.failed;

    let mut metrics = Values::default();
    let mut faults = Vec::new();
    span_metrics(&spans, &mut metrics);
    kernel_metrics(&kernels, &mut metrics);
    for (name, value) in &timed.probe().facts {
        metrics.set(*name, *value);
    }
    // Count metrics: the mean over the counted prefix of ops.
    let mut names: Vec<&'static str> = counts.iter().flatten().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let values: Vec<f64> = counts
            .iter()
            .filter_map(|op| op.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        metrics.set_n(name, Some(mean), values.len());
    }
    // Every product the solvers report is one kernel call, exactly.
    for (op, ((k, _), op_counts)) in kernels.iter().zip(&counts).enumerate() {
        let count = |name: &str| {
            let found = op_counts.iter().find(|(n, _)| *n == name);
            found.map_or(0.0, |(_, v)| *v)
        };
        let (mul, len_mul) = (k.calls[0] as f64, k.calls[5] as f64);
        if mul != count("core.relational.products") || len_mul != count("core.single_path.products")
        {
            faults.push(format!(
                "op {op}: {mul} mul and {len_mul} len_mul kernel calls, but the solvers report {} and {} products",
                count("core.relational.products"),
                count("core.single_path.products"),
            ));
            break;
        }
    }

    let raw = Sample::new(raw_ms);
    let raw_p50 = raw.median().expect("ops ran");
    metrics.set_n("bench.op_ms_p50", Some(raw_p50), raw.n());
    metrics.set_n("bench.op_ms_p90", raw.supported_percentile(0.9), raw.n());
    let timed_sample = Sample::new(timed_ms);
    let timed_p50 = timed_sample.median().expect("ops ran");
    let stage_sums: Vec<f64> = spans
        .per_op
        .iter()
        .filter(|(op, _)| **op != trace::NONE)
        .map(|(_, folded)| {
            let roots = folded.iter().filter(|(name, _)| **name != UNTIMED_SPAN);
            roots.map(|(_, f)| f.root_ns).sum::<u64>() as f64 / 1e6
        })
        .collect();
    let stage_sum = Sample::new(stage_sums).median().expect("ops ran");
    metrics.set_n(
        "bench.trace_overhead_share",
        Some(timed_p50 / raw_p50 - 1.0),
        timed_sample.n(),
    );
    metrics.set_n(
        "bench.stage_sum_share",
        Some(stage_sum / raw_p50),
        timed_sample.n(),
    );
    metrics.set_n(
        "bench.failed_share",
        Some(failed as f64 / attempted as f64),
        attempted as usize,
    );
    write_trace(&cfg.workload, &spans, &mut faults);
    RunResult {
        attempted,
        failed,
        metrics,
        faults,
        notes: Vec::new(),
    }
}

/// Where traces and result files go: `benchmark/results/`, wherever the
/// command was started from.
pub fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Writes `trace-<workload>.json` and checks it with the program's own
/// chrome-trace validator.
fn write_trace(workload: &str, spans: &Collected, faults: &mut Vec<String>) {
    let text = spans.chrome_trace().render();
    if let Err(e) = adapter::validate_trace(&text) {
        faults.push(format!("the trace does not validate: {e}"));
    }
    let path = results_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(results_dir()).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        faults.push(format!("cannot write {}: {e}", path.display()));
    }
}

// ---------------------------------------------------------------------------
// svc-open: open loop
// ---------------------------------------------------------------------------

/// One rate's run, judged.
struct Judged {
    /// Latency from due time, ms, of every ticket after the warm-up 5 %,
    /// in the order the tickets were due.
    ordered_ms: Vec<f64>,
    /// The same, by `service.ticket_ms.<group>`.
    by_group: Vec<(&'static str, Sample)>,
    gen_late_ms_p99: f64,
    enqueue_us: Sample,
    drain_ms: f64,
    /// From the first due time to the last ticket resolving.
    wall_s: f64,
    attempted: u64,
    /// Tickets refused, errored, or answered wrongly.
    failed: u64,
    /// Of those, the ones that were answered — wrongly.
    wrong: u64,
    /// Tickets answered correctly within the latency limit.
    good: u64,
    publishes: Vec<f64>,
    /// `VmHWM` of the process when the pass ended.
    peak_rss_mb: Option<f64>,
}

fn judge(
    schedule: &[TicketSpec],
    run: &RateRun<adapter::SvcAnswer>,
    verdicts: &[bool],
    peak_rss_mb: Option<f64>,
) -> Judged {
    let skip = schedule.len() / 20;
    let lat = |keep: &dyn Fn(&TicketSpec) -> bool| {
        Sample::new(
            schedule
                .iter()
                .zip(&run.records)
                .skip(skip)
                .filter(|(spec, _)| keep(spec))
                .map(|(_, r)| r.latency_ns as f64 / 1e6)
                .collect(),
        )
    };
    let late = Sample::new(
        run.records
            .iter()
            .map(|r| r.sent_late_ns as f64 / 1e6)
            .collect(),
    );
    let count = |keep: &dyn Fn(&TicketRecord<adapter::SvcAnswer>, bool) -> bool| {
        let judged = run.records.iter().zip(verdicts);
        judged.filter(|(r, ok)| keep(r, **ok)).count() as u64
    };
    let ordered_ms: Vec<f64> = run
        .records
        .iter()
        .skip(skip)
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    let first_due_ns = schedule.first().map_or(0, |s| s.due_ns);
    let last_resolve_ns = run.records.iter().map(|r| r.resolved_ns).max().unwrap_or(0);
    Judged {
        ordered_ms,
        by_group: TICKET_KINDS
            .iter()
            .map(|g| (*g, lat(&|spec| spec.kind.group() == *g)))
            .collect(),
        gen_late_ms_p99: late.percentile(0.99).unwrap_or(0.0),
        enqueue_us: Sample::new(
            run.records
                .iter()
                .map(|r| r.enqueue_ns as f64 / 1e3)
                .collect(),
        ),
        drain_ms: run.drain_ns as f64 / 1e6,
        wall_s: last_resolve_ns.saturating_sub(first_due_ns) as f64 / 1e9,
        attempted: schedule.len() as u64,
        failed: count(&|_, ok| !ok),
        wrong: count(&|r, ok| !ok && r.outcome.is_ok()),
        good: count(&|r, ok| ok && r.latency_ns as f64 / 1e6 <= LATENCY_LIMIT_MS),
        publishes: run.publish_ns.iter().map(|ns| *ns as f64 / 1e6).collect(),
        peak_rss_mb,
    }
}

/// What came of driving the service through one or more rates.
struct SvcOutcome {
    /// One per rate, in order.
    judged: Vec<Judged>,
    /// `service.*` counters and kernel work, read just before shutdown.
    counters: Vec<(&'static str, f64)>,
    kernels: Option<KernelSnapshot>,
    down_ms: f64,
}

/// Drives `svc` through `(rate, seconds)` open-loop passes one after the
/// other (the writer keeps consuming held-out batches across them), shuts
/// it down, and judges every answer.
fn drive_passes<E: adapter::Engine>(
    svc: SvcOpen<E>,
    seed: u64,
    passes: &[(u32, f64)],
) -> SvcOutcome {
    let base = Closures {
        n_nodes: svc.n_nodes(),
        q1: &svc.base_q1,
        q2: &svc.base_q2,
        rpq: &svc.base_rpq,
    };
    let schedules: Vec<Vec<TicketSpec>> = passes
        .iter()
        .map(|(rate, seconds)| openloop::schedule(seed, *rate, *seconds, &base))
        .collect();
    let mut published = 0;
    let runs: Vec<(RateRun<adapter::SvcAnswer>, Option<f64>)> = schedules
        .iter()
        .map(|schedule| {
            let run = openloop::drive(&svc, schedule, PUBLISH_EVERY, published);
            published += run.publish_ns.len();
            (run, peak_rss_mb())
        })
        .collect();
    let counters = svc.service_counters();
    let kernels = svc.kernel_snapshot();
    let (down_ms, checker) = svc.down();
    let tickets: Vec<_> = schedules
        .iter()
        .zip(&runs)
        .flat_map(|(s, (r, _))| s.iter().zip(r.records.iter().map(|rec| &rec.outcome)))
        .collect();
    let verdicts = checker.check(&tickets, published);
    let mut offset = 0;
    let judged = schedules
        .iter()
        .zip(&runs)
        .map(|(schedule, (run, rss))| {
            let v = &verdicts[offset..offset + schedule.len()];
            offset += schedule.len();
            judge(schedule, run, v, *rss)
        })
        .collect();
    SvcOutcome {
        judged,
        counters,
        kernels,
        down_ms,
    }
}

/// The sweep both runs of `svc-open` make: every rate in turn, each for
/// its share of the window.
fn sweep<E: adapter::Engine>(svc: SvcOpen<E>, cfg: &RunConfig) -> SvcOutcome {
    let passes: Vec<(u32, f64)> = RATES
        .iter()
        .zip(RATE_WINDOW_SHARE)
        .map(|(rate, share)| (*rate, cfg.seconds * share))
        .collect();
    drive_passes(svc, cfg.seed, &passes)
}

/// What the sweep says of the service as its user sees it.
struct Swept<'a> {
    /// Per scored rate: the rate, its latencies, its supported p99 and
    /// its drain time. A rate whose generator ran late is not scored: the
    /// number would measure the scheduler, not the program.
    rates: Vec<(u32, Sample, Option<f64>, f64)>,
    /// Highest scored rate with p99 within the limit, no failed ticket
    /// and no backlog left to drain; 0 if none.
    max_rate_ok: u32,
    reference: &'a Judged,
    attempted: u64,
    failed: u64,
}

fn score<'a>(judged: &'a [Judged], notes: &mut Vec<String>) -> Swept<'a> {
    let mut rates = Vec::new();
    let mut max_rate_ok = 0;
    for (rate, j) in RATES.iter().zip(judged) {
        if j.gen_late_ms_p99 > GEN_LATE_LIMIT_MS {
            notes.push(format!(
                "rate {rate}/s not scored for max_rate_ok: the generator sent {:.2} ms late at p99 (limit {GEN_LATE_LIMIT_MS} ms)",
                j.gen_late_ms_p99
            ));
            continue;
        }
        let latency = Sample::new(j.ordered_ms.clone());
        let p99 = latency.supported_percentile(0.99);
        let ok = p99.is_some_and(|p| p <= LATENCY_LIMIT_MS)
            && j.failed == 0
            && j.drain_ms <= DRAIN_LIMIT_MS;
        if ok {
            max_rate_ok = max_rate_ok.max(*rate);
        }
        rates.push((*rate, latency, p99, j.drain_ms));
    }
    let reference = RATES
        .iter()
        .position(|r| *r == REFERENCE_RATE)
        .map(|i| &judged[i])
        .expect("the reference rate is one of the rates");
    // A rate the service cannot keep up with sheds tickets: that is what
    // the sweep looks for, and `max_rate_ok` reports it. What fails the
    // run is a failure at the reference rate, or a wrong answer anywhere.
    let failed = judged
        .iter()
        .zip(RATES)
        .map(|(j, rate)| {
            if rate == REFERENCE_RATE {
                j.failed
            } else {
                j.wrong
            }
        })
        .sum();
    Swept {
        rates,
        max_rate_ok,
        reference,
        attempted: judged.iter().map(|j| j.attempted).sum(),
        failed,
    }
}

fn svc_open_end_to_end(cfg: &RunConfig) -> RunResult {
    let (svc, setup_s) = timed_setup(|| SvcOpen::raw(cfg.seed));
    let outcome = sweep(svc, cfg);
    let mut notes = Vec::new();
    let swept = score(&outcome.judged, &mut notes);
    let reference = swept.reference;
    let mut metrics = Values::default();
    set_latency(&mut metrics, reference.ordered_ms.clone());
    metrics.set_n(
        "ops_per_s",
        Some(reference.good as f64 / reference.wall_s),
        reference.attempted as usize,
    );
    metrics.set("max_rate_ok", f64::from(swept.max_rate_ok));
    metrics.set_n(
        "failed_share",
        Some(swept.failed as f64 / swept.attempted as f64),
        swept.attempted as usize,
    );
    metrics.set_n("setup_s", Some(setup_s), SETUPS);
    // Like the latencies, memory is the reference pass's: the backlog a
    // rate beyond capacity piles up is what the sweep provokes, not what
    // a user at the reference rate sees.
    metrics.set_n("peak_rss_mb", reference.peak_rss_mb, 1);
    RunResult {
        attempted: swept.attempted,
        failed: swept.failed,
        metrics,
        faults: Vec::new(),
        notes,
    }
}

fn svc_open_layers(cfg: &RunConfig) -> RunResult {
    trace::set_enabled(true);
    let svc = SvcOpen::timed(cfg.seed);
    let up_ms = svc.up_ms;
    let facts = svc.facts.clone();
    let kernels_before = svc.kernel_snapshot();
    let SvcOutcome {
        judged,
        counters,
        kernels: kernels_after,
        down_ms,
    } = sweep(svc, cfg);
    trace::set_enabled(false);

    let mut metrics = Values::default();
    let mut notes = Vec::new();
    let mut faults = Vec::new();
    for (name, value) in facts.iter().chain(&counters) {
        metrics.set(*name, *value);
    }
    metrics.set("service.up_ms", up_ms);
    metrics.set("service.down_ms", down_ms);

    let swept = score(&judged, &mut notes);
    for (rate, latency, p99, drain_ms) in &swept.rates {
        let n = latency.n();
        metrics.set_n(format!("service.rate{rate}.p50_ms"), latency.median(), n);
        metrics.set_n(format!("service.rate{rate}.p99_ms"), *p99, n);
        metrics.set_n(format!("service.rate{rate}.drain_ms"), Some(*drain_ms), 1);
    }
    metrics.set("service.max_rate_ok", f64::from(swept.max_rate_ok));
    let reference = swept.reference;
    let latency = Sample::new(reference.ordered_ms.clone());
    metrics.set_n(
        "service.op_ms_p99",
        latency.supported_percentile(0.99),
        latency.n(),
    );
    metrics.set_n("bench.op_ms_p50", latency.median(), latency.n());
    metrics.set_n(
        "bench.op_ms_p90",
        latency.supported_percentile(0.9),
        latency.n(),
    );
    for (group, sample) in &reference.by_group {
        let name = |p| format!("service.ticket_ms.{group}.{p}");
        metrics.set_n(name("p50"), sample.median(), sample.n());
        metrics.set_n(name("p99"), sample.percentile(0.99), sample.n());
    }
    metrics.set_n(
        "service.enqueue_us_p50",
        reference.enqueue_us.median(),
        reference.enqueue_us.n(),
    );
    let late = judged.iter().map(|j| j.gen_late_ms_p99).fold(0.0, f64::max);
    metrics.set("service.gen_late_ms_p99", late);
    let publishes = Sample::new(judged.iter().flat_map(|j| j.publishes.clone()).collect());
    metrics.set_n("service.publish_ms_p50", publishes.median(), publishes.n());
    metrics.set_n(
        "service.publish_ms_p90",
        publishes.percentile(0.9),
        publishes.n(),
    );

    // Kernels run when an epoch is published (every cached closure is
    // repaired then), so the matrix layer is reported per publish.
    if let (Some(before), Some(after), true) = (kernels_before, kernels_after, publishes.n() > 0) {
        let work = after.since(before);
        let per_publish = publishes.n() as f64;
        for (c, class) in KERNEL_CLASSES.iter().enumerate() {
            if work.calls[c] > 0 {
                metrics.set(
                    format!("matrix.{class}.calls"),
                    work.calls[c] as f64 / per_publish,
                );
                metrics.set(
                    format!("matrix.{class}.busy_ms"),
                    work.busy_ns[c] as f64 / 1e6 / per_publish,
                );
            }
        }
        metrics.set(
            "matrix.tiles_skipped",
            work.tiles_skipped as f64 / per_publish,
        );
        let busy_ms = work.busy_ns.iter().sum::<u64>() as f64 / 1e6;
        let publish_ms: f64 = judged.iter().flat_map(|j| &j.publishes).sum();
        metrics.set("matrix.busy_share", busy_ms / publish_ms);
    }

    let (attempted, failed) = (swept.attempted, swept.failed);
    metrics.set_n(
        "bench.failed_share",
        Some(failed as f64 / attempted as f64),
        attempted as usize,
    );
    let mut spans = Collected::default();
    spans.drain();
    span_metrics(&spans, &mut metrics);
    write_trace(&cfg.workload, &spans, &mut faults);
    RunResult {
        attempted,
        failed,
        metrics,
        faults,
        notes,
    }
}
