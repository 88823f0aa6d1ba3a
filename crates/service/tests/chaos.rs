//! Deterministic chaos suite: drives the service through scheduled
//! worker panics, forced overload, deadline expiry, stalled shutdown,
//! and interrupted epoch publishes — on all five engines — and asserts
//! the failure contract exactly: every ticket resolves to an answer or
//! a typed error within a bounded wait (zero hung waits), the service
//! keeps serving after every fault, and post-fault epochs stay
//! byte-identical to a sequential execution.
//!
//! Faults come from [`FaultInjector`] schedules, not sleeps-and-hope:
//! the injector panics (or stalls) at fixed kernel-launch indices of a
//! global operation counter, so each scenario replays the same faults
//! at the same places on every run.

use cfpq_core::query::{solve, Backend};
use cfpq_graph::{generators, Graph};
use cfpq_matrix::{
    DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
};
use cfpq_service::faults::{silence_injected_panics, FaultInjector, FaultPlan};
use cfpq_service::{CfpqService, ServiceConfig, ServiceEngine, ServiceError, ServiceStats, Ticket};
use std::time::{Duration, Instant};

/// Hang detector: every wait in this suite is bounded by this.
const LONG: Duration = Duration::from_secs(30);

fn wait_bounded(t: Ticket) -> Result<cfpq_service::TicketAnswer, ServiceError> {
    t.wait_timeout(LONG).expect("ticket hung past the bound")
}

fn total<E: ServiceEngine>(service: &CfpqService<E>, f: fn(&ServiceStats) -> u64) -> u64 {
    service.stats().iter().map(f).sum()
}

/// Supervisors respawn asynchronously (the restart is counted after the
/// batch's tickets are already resolved); give them a moment.
fn await_restarts<E: ServiceEngine>(service: &CfpqService<E>, expect: u64) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while total(service, |s| s.worker_restarts) < expect {
        assert!(
            Instant::now() < deadline,
            "supervisors must respawn panicked workers promptly"
        );
        std::thread::yield_now();
    }
    assert_eq!(total(service, |s| s.worker_restarts), expect);
}

fn chain_graph() -> Graph {
    generators::word_chain(&["a", "a", "b"])
}

fn chain_grammar() -> cfpq_grammar::Cfg {
    cfpq_grammar::Cfg::parse("S -> a S b | a b").unwrap()
}

/// A publish does not wait for a read: a reader cold-solving a query in
/// the current epoch holds no lock the publish's copy of that epoch
/// takes, so `add_edges` returns while the stalled solve still runs (the
/// copy starts the query's cell empty, and its first read solves it).
#[test]
fn a_publish_does_not_wait_for_a_solving_reader() {
    let stall = FaultPlan::none().with_delay_every(1, Duration::from_millis(100));
    let injector = FaultInjector::new(SparseEngine, stall);
    let graph = chain_graph();
    let service = CfpqService::with_config(injector.clone(), &graph, ServiceConfig::new(1));
    let q = service.prepare(&chain_grammar()).unwrap();
    let snapshot = service.snapshot();
    let reader = std::thread::spawn(move || snapshot.evaluate(q).start_pairs().to_vec());
    // Op 1 is the first to stall: the reader is inside its cold solve.
    let deadline = Instant::now() + LONG;
    while injector.ops() < 2 {
        assert!(
            Instant::now() < deadline,
            "the reader never started its solve"
        );
        std::thread::yield_now();
    }
    assert_eq!(service.add_edges(&[(3, "b", 4)]), 1);
    assert!(!reader.is_finished(), "the publish waited for the reader");
    assert_eq!(reader.join().unwrap(), [(1, 3)]);
    let answer = wait_bounded(service.enqueue(q, vec![]).unwrap()).unwrap();
    assert_eq!(answer.pairs, [(0, 4), (1, 3)]);
}

/// Scheduled panics kill exactly the batches they land in; retries
/// re-run the interrupted solve (the epoch cell is left empty on
/// unwind) and the post-fault epochs stay byte-identical to a
/// sequential execution. Runs the same schedule on all five engines.
#[test]
fn scheduled_panics_are_isolated_and_recovered_on_all_engines() {
    silence_injected_panics();
    fn check<E: ServiceEngine + Clone>(raw: E) {
        let grammar = chain_grammar();
        let graph = chain_graph();
        // Ops 0 and 1: the first two kernel launches — the cold solve's
        // first attempt dies, the retry dies, the third succeeds.
        let injector = FaultInjector::new(raw, FaultPlan::panic_on([0, 1]));
        let service = CfpqService::with_config(injector.clone(), &graph, ServiceConfig::new(1));
        let q = service.prepare(&grammar).unwrap();

        let mut failures = 0;
        let answer = loop {
            match wait_bounded(service.enqueue(q, vec![]).unwrap()) {
                Ok(a) => break a,
                Err(ServiceError::WorkerPanicked) => failures += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(failures, 2, "exactly the scheduled panics fired");
        assert_eq!(injector.panics_injected(), 2);
        assert_eq!(answer.epoch, 0);
        let sequential = solve(&graph, &grammar, Backend::Sparse).unwrap();
        assert_eq!(answer.pairs, sequential.start_pairs());
        assert_eq!(total(&service, |s| s.worker_panics), 2);
        await_restarts(&service, 2);

        // The service keeps serving *and* publishing after the faults:
        // the post-fault epoch is byte-identical to sequential.
        assert_eq!(service.add_edges(&[(3, "b", 4)]), 1);
        let after = wait_bounded(service.enqueue(q, vec![]).unwrap()).unwrap();
        assert_eq!(after.epoch, 1);
        let mut grown = chain_graph();
        grown.add_edge_named(3, "b", 4);
        let sequential = solve(&grown, &grammar, Backend::Sparse).unwrap();
        assert_eq!(after.pairs, sequential.start_pairs());
        // Cache hits stay cheap post-recovery.
        let again = wait_bounded(service.enqueue(q, vec![]).unwrap()).unwrap();
        assert_eq!(again.pairs, after.pairs);
    }
    check(DenseEngine);
    check(SparseEngine);
    check(ParDenseEngine::new(Device::new(2)));
    check(ParSparseEngine::new(Device::new(2)));
    check(TiledEngine::new(Device::new(2)));
}

/// A panic inside a source-restricted solve — the cold one of a
/// named-pair ticket, then an extension of the closure it left — takes
/// the closure down with it: the ticket fails typed, nothing half-grown
/// is ever probed, and the retry solves again from the sources. Answers
/// before, between and after the faults equal the sequential ones.
#[test]
fn panics_inside_a_restricted_solve_discard_the_closure() {
    silence_injected_panics();
    fn check<E: ServiceEngine + Clone>(raw: E) {
        let grammar = chain_grammar();
        let graph = generators::word_chain(&["a", "a", "a", "b", "b", "b"]);
        let full = solve(&graph, &grammar, Backend::Sparse).unwrap();
        // How many kernel launches the first lookup takes, fault-free.
        let lookup: Vec<(u32, u32)> = vec![(2, 4), (2, 5)];
        let clean = {
            let counting = FaultInjector::new(raw.clone(), FaultPlan::none());
            let service = CfpqService::with_config(counting.clone(), &graph, ServiceConfig::new(1));
            let q = service.prepare(&grammar).unwrap();
            wait_bounded(service.enqueue(q, lookup.clone()).unwrap()).unwrap();
            counting.ops()
        };
        assert!(clean >= 2, "the lookup launches kernels");

        // Op 1 dies inside the cold restricted solve; its retry runs ops
        // 2..2+clean; the op right after lands in the extension below.
        let second = 2 + clean;
        let injector = FaultInjector::new(raw, FaultPlan::panic_on([1, second]));
        let service = CfpqService::with_config(injector.clone(), &graph, ServiceConfig::new(1));
        let q = service.prepare(&grammar).unwrap();
        let ask = |wanted: &[(u32, u32)]| {
            let mut failures = 0;
            loop {
                match wait_bounded(service.enqueue(q, wanted.to_vec()).unwrap()) {
                    Ok(a) => break (a.pairs, failures),
                    Err(ServiceError::WorkerPanicked) => failures += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        };
        let expect = |wanted: &[(u32, u32)]| -> Vec<(u32, u32)> {
            let mut hits: Vec<(u32, u32)> = wanted
                .iter()
                .copied()
                .filter(|&(i, j)| full.contains("S", i, j))
                .collect();
            hits.sort_unstable();
            hits
        };

        assert_eq!(ask(&lookup), (expect(&lookup), 1), "cold solve, one fault");
        assert_eq!(injector.ops(), second);
        // Rows 0 and 1 are new: the extension's first launch is `second`.
        let wider: Vec<(u32, u32)> = vec![(0, 6), (1, 5), (1, 6), (2, 4)];
        assert_eq!(ask(&wider), (expect(&wider), 1), "extension, one fault");
        assert_eq!(injector.panics_injected(), 2);
        // The faulted extension took the first closure with it, so this
        // epoch solved from sources twice — and serves from what the
        // second solve left.
        assert_eq!(total(&service, |s| s.cold_solves), 2);
        let ops = injector.ops();
        assert_eq!(ask(&wider), (expect(&wider), 0));
        assert_eq!(injector.ops(), ops, "covered rows launch nothing");
        assert_eq!(total(&service, |s| s.worker_panics), 2);
        await_restarts(&service, 2);
    }
    check(DenseEngine);
    check(SparseEngine);
    check(ParDenseEngine::new(Device::new(2)));
    check(ParSparseEngine::new(Device::new(2)));
    check(TiledEngine::new(Device::new(2)));
}

/// Forced overload: one worker pinned inside a stalled cold solve, a
/// burst past `max_queued` — the surplus sheds `Overloaded` with a
/// retry hint at enqueue time, and the requests that did queue expire
/// to `Deadline` at dispatch (the worker surfaces them long after their
/// deadline). Runs on all five engines.
#[test]
fn overload_sheds_and_deadlines_expire_on_all_engines() {
    silence_injected_panics();
    fn check<E: ServiceEngine + Clone>(raw: E) {
        let grammar = chain_grammar();
        let graph = chain_graph();
        // Every kernel launch after the first stalls 50ms: the cold
        // solve (several launches) pins the single worker for a few
        // hundred ms — the window the burst lands in.
        let injector = FaultInjector::new(
            raw,
            FaultPlan::none().with_delay_every(1, Duration::from_millis(50)),
        );
        let config = ServiceConfig::new(1)
            .with_max_queued(2)
            .with_default_deadline(Duration::from_millis(35));
        let service = CfpqService::with_config(injector.clone(), &graph, config);
        let q = service.prepare(&grammar).unwrap();

        // t0 is dispatched immediately (within its deadline) and then
        // holds the worker inside the stalled solve.
        let t0 = service.enqueue(q, vec![]).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let mut kept = Vec::new();
        let mut sheds = 0u64;
        for _ in 0..10 {
            match service.enqueue(q, vec![]) {
                Ok(t) => kept.push(t),
                Err(e @ ServiceError::Overloaded { .. }) => {
                    assert!(e.retry_after().unwrap() > Duration::ZERO);
                    sheds += 1;
                }
                Err(e) => panic!("unexpected enqueue error: {e}"),
            }
        }
        assert_eq!(kept.len() as u64 + sheds, 10);
        assert!(sheds >= 8, "the burst overruns max_queued=2 (shed {sheds})");
        assert!(
            wait_bounded(t0).is_ok(),
            "the in-flight request beats its deadline (dispatched before the stall)"
        );
        assert!(
            injector.ops() >= 3,
            "the stalled solve must span the deadline window"
        );
        // Everything that queued behind the stall expired at dispatch.
        let kept_n = kept.len() as u64;
        for t in kept {
            assert_eq!(wait_bounded(t), Err(ServiceError::Deadline));
        }
        assert_eq!(total(&service, |s| s.requests_shed), sheds);
        assert_eq!(total(&service, |s| s.deadline_expired), kept_n);
        assert_eq!(total(&service, |s| s.worker_panics), 0);
    }
    check(DenseEngine);
    check(SparseEngine);
    check(ParDenseEngine::new(Device::new(2)));
    check(ParSparseEngine::new(Device::new(2)));
    check(TiledEngine::new(Device::new(2)));
}

/// Bounded shutdown under a stalled worker: the in-flight batch runs to
/// completion, everything still queued past the drain bound resolves
/// `ShuttingDown`, later enqueues are rejected, and drop stays clean.
#[test]
fn stalled_shutdown_resolves_queued_tickets_typed() {
    silence_injected_panics();
    let grammar = chain_grammar();
    let graph = chain_graph();
    let injector = FaultInjector::new(
        SparseEngine,
        FaultPlan::none().with_delay_every(1, Duration::from_millis(50)),
    );
    let service = CfpqService::with_config(injector, &graph, ServiceConfig::new(1));
    let q = service.prepare(&grammar).unwrap();

    let t0 = service.enqueue(q, vec![]).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let queued: Vec<Ticket> = (0..3)
        .map(|_| service.enqueue(q, vec![]).unwrap())
        .collect();
    // Zero drain bound: whatever the stalled worker has not dispatched
    // fails typed, right now.
    assert_eq!(service.shutdown_within(Duration::ZERO), 3);
    for t in queued {
        assert_eq!(wait_bounded(t), Err(ServiceError::ShuttingDown));
    }
    // The in-flight batch still completes (its kernel work is finite).
    assert!(wait_bounded(t0).is_ok());
    assert_eq!(
        service.enqueue(q, vec![]).err(),
        Some(ServiceError::ShuttingDown)
    );
    assert_eq!(service.shutdown(), 0, "second shutdown is a no-op");
    // Snapshots survive shutdown: the epoch store outlives the pool.
    assert_eq!(service.snapshot().evaluate(q).start_pairs(), &[(1, 3)]);
}

/// A panic mid-`add_edges` (an injected fault inside the repair) must
/// leave the *old* epoch published and serving — publishes are
/// all-or-nothing — and a retried publish succeeds and matches the
/// sequential answer.
#[test]
fn interrupted_publishes_keep_the_old_epoch_serving() {
    silence_injected_panics();
    let grammar = chain_grammar();
    let graph = chain_graph();

    // Calibrate: count the kernel launches of the epoch-0 cold solve,
    // so the schedule can target the first launch of the *repair*.
    let probe = FaultInjector::new(SparseEngine, FaultPlan::none());
    {
        let service = CfpqService::with_config(probe.clone(), &graph, ServiceConfig::new(1));
        let q = service.prepare(&grammar).unwrap();
        wait_bounded(service.enqueue(q, vec![]).unwrap()).unwrap();
    }
    let cold_ops = probe.ops();
    assert!(cold_ops > 0);

    let injector = FaultInjector::new(SparseEngine, FaultPlan::panic_on([cold_ops]));
    let service = CfpqService::with_config(injector.clone(), &graph, ServiceConfig::new(1));
    let q = service.prepare(&grammar).unwrap();
    let before = wait_bounded(service.enqueue(q, vec![]).unwrap()).unwrap();
    assert_eq!(before.pairs, vec![(1, 3)]);
    assert_eq!(injector.ops(), cold_ops, "replay matches the calibration");

    // The repair's first kernel launch panics: the publish must abort
    // as a unit. The panic surfaces to the *caller* of add_edges.
    let publish = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        service.add_edges(&[(3, "b", 4)])
    }));
    assert!(publish.is_err(), "the scheduled repair fault fired");
    assert_eq!(injector.panics_injected(), 1);
    assert_eq!(
        service.current_epoch(),
        0,
        "the failed publish left epoch 0"
    );
    let still = wait_bounded(service.enqueue(q, vec![]).unwrap()).unwrap();
    assert_eq!(
        (still.epoch, still.pairs),
        (0, vec![(1, 3)]),
        "old epoch serves"
    );

    // The retry (schedule exhausted) publishes epoch 1, byte-identical
    // to the sequential answer on the updated graph.
    assert_eq!(service.add_edges(&[(3, "b", 4)]), 1);
    let after = wait_bounded(service.enqueue(q, vec![]).unwrap()).unwrap();
    assert_eq!((after.epoch, after.pairs), (1, vec![(0, 4), (1, 3)]));
    assert_eq!(
        total(&service, |s| s.worker_panics),
        0,
        "the fault hit the writer path, not a worker"
    );
}
