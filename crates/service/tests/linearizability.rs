//! Fixed-seed linearizability suite for the concurrent query service.
//!
//! N reader threads evaluate prepared queries — relational,
//! single-path, NFA-compiled regular path queries, *and* paged
//! all-path enumeration, through direct snapshot reads *and* scheduler
//! tickets — while a writer applies a
//! fixed sequence of `add_edges` batches. Every answer the service
//! hands out is tagged with the epoch it was computed against, and
//! epochs are totally ordered (writers are serialized), so
//! linearizability reduces to: **every observation must equal the
//! sequential answer on the graph state of its epoch**. The suite
//! replays the epoch sequence after the threads join and checks each
//! recorded `(epoch, pairs)` observation against a from-scratch solve of
//! that epoch's graph — and each `(epoch, pages)` paths observation
//! against a from-scratch enumeration — on all five engines.
//!
//! Tickets that name pairs are answered by probing the closure, tickets
//! that name none by extracting `R_S`; the two routes must agree. Every
//! reader therefore also sends named-pair tickets down the Rel, Sp and
//! Paths queues and the suite checks each against its epoch's *full*
//! answer filtered to the named pairs. The named set mixes hits, misses
//! and node ids the graph does not have (some of which the writer's
//! growth batch brings into range mid-run): those must read "not
//! related", never panic a worker.
//!
//! A second scenario keeps the service cold — named-pair tickets only,
//! so each epoch serves them from a source-restricted closure it grows
//! on demand — and checks the same filtered-full-answer contract across
//! publishes and across the one full-answer ticket that switches the
//! query over to the all-pairs closure.
//!
//! Inputs are generated from a fixed RNG seed (same scheme as the other
//! fixed-seed suites), so CI replays identical interleaving *inputs* on
//! every run; the thread count is tunable via `CFPQ_LIN_THREADS` (the CI
//! stress job bumps it).

use cfpq_core::all_paths::{PageRequest, PathEnumerator};
use cfpq_core::regular::Nfa;
use cfpq_core::relational::FixpointSolver;
use cfpq_core::session::GraphIndex;
use cfpq_core::solve_regular;
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, Wcnf};
use cfpq_graph::{generators, Graph};
use cfpq_matrix::{
    DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
};
use cfpq_service::faults::{silence_injected_panics, FaultInjector, FaultPlan};
use cfpq_service::{Backoff, CfpqService, PairPaths, ServiceConfig, ServiceEngine, ServiceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Base RNG seed shared with the workspace's other fixed-seed suites.
const RNG_SEED: u64 = 0x5E4_71CE;

/// Sets its flag when dropped. A writer holds one for the readers'
/// `done` flag, so a writer that panics still ends their loops, and the
/// panic fails the test instead of hanging it in the scope's join.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Reader threads per engine run (the CI stress job raises this).
fn n_readers() -> usize {
    std::env::var("CFPQ_LIN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// One generated workload: a base graph plus a fixed sequence of update
/// batches (every batch inserts at least one genuinely new edge, so each
/// publishes exactly one epoch).
struct Workload {
    base: Graph,
    batches: Vec<Vec<(u32, String, u32)>>,
}

/// Generates the workload from the fixed seed: a sparse random base
/// graph over labels {a, b} and batches that mix new a/b edges, an edge
/// on a label the grammar never mentions, and an edge naming an unseen
/// node id (exercising node-universe growth mid-service).
fn workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 8usize;
    let base = generators::random_graph(n, 14, &["a", "b"], rng.gen_range(0u64..1 << 32));
    let mut batches: Vec<Vec<(u32, String, u32)>> = Vec::new();
    let mut have: std::collections::HashSet<(u32, String, u32)> = base
        .edges()
        .iter()
        .map(|e| (e.from, base.label_name(e.label).to_owned(), e.to))
        .collect();
    for b in 0..5 {
        let mut batch: Vec<(u32, String, u32)> = Vec::new();
        let batch_size = rng.gen_range(1usize..4);
        while batch.len() < batch_size {
            let label = if rng.gen_bool(0.5) { "a" } else { "b" };
            let edge = (
                rng.gen_range(0u32..n as u32),
                label.to_owned(),
                rng.gen_range(0u32..n as u32),
            );
            if have.insert(edge.clone()) {
                batch.push(edge);
            }
        }
        if b == 2 {
            // A label outside the query alphabet: publishes an epoch
            // whose answers must be unchanged.
            batch.push((0, "padding".to_owned(), 1));
        }
        if b == 3 {
            // An unseen node id: the epoch builder must widen every
            // cached closure.
            batch.push((n as u32 - 1, "b".to_owned(), n as u32 + 2));
        }
        batches.push(batch);
    }
    Workload { base, batches }
}

/// The fixed page bounds every paths-ticket reader uses (small enough
/// to stay far under the default service quota, large enough that pages
/// are usually exhausted).
fn path_req() -> PageRequest {
    PageRequest {
        offset: 0,
        limit: 8,
        max_len: 8,
    }
}

/// The pairs every named-pair ticket asks for: all of `[0, 12)²` — the
/// base graph has 8 nodes and grows to 11, so ids 11 (always) and 8–10
/// (until the growth batch) are out of range — plus two ids far outside
/// any universe and a duplicate.
fn named_pairs() -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = (0..12u32)
        .flat_map(|i| (0..12u32).map(move |j| (i, j)))
        .collect();
    pairs.extend([(u32::MAX, 0), (0, u32::MAX), (0, 0)]);
    pairs
}

/// What a named-pair ticket must answer with: the epoch's full relation
/// restricted to [`named_pairs`] (both are sorted and duplicate-free).
fn restrict(full: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let named = named_pairs();
    full.iter().copied().filter(|p| named.contains(p)).collect()
}

/// The sequential all-path reference: for each epoch, a from-scratch
/// enumeration of every start pair on that epoch's replayed graph. The
/// replay interns labels in the same first-appearance order as the
/// service's evolving index, so pages compare by raw label id.
fn reference_paths(workload: &Workload, wcnf: &Wcnf) -> Vec<Vec<PairPaths>> {
    let mut graph = workload.base.clone();
    let mut expected = Vec::new();
    let mut push_epoch = |graph: &Graph| {
        let rel = FixpointSolver::new(&SparseEngine).solve(graph, wcnf);
        let index = GraphIndex::build(SparseEngine, graph);
        let mut enumerator = PathEnumerator::new(wcnf);
        expected.push(
            rel.pairs(wcnf.start)
                .into_iter()
                .map(|(i, j)| {
                    let page = enumerator.page(&index, &rel, wcnf.start, i, j, path_req());
                    PairPaths {
                        from: i,
                        to: j,
                        paths: page.paths,
                        exhausted: page.exhausted,
                    }
                })
                .collect(),
        );
    };
    push_epoch(&graph);
    for batch in &workload.batches {
        for (u, label, v) in batch {
            graph.add_edge_named(*u, label, *v);
        }
        push_epoch(&graph);
    }
    expected
}

/// The sequential RPQ reference: each epoch's graph evaluated by the
/// standalone product-graph oracle (independent of the compiled
/// RSM pipeline the service actually runs).
fn reference_rpq(workload: &Workload, nfa: &Nfa) -> Vec<Vec<(u32, u32)>> {
    let mut graph = workload.base.clone();
    let mut expected = vec![solve_regular(&SparseEngine, &graph, nfa).pairs()];
    for batch in &workload.batches {
        for (u, label, v) in batch {
            graph.add_edge_named(*u, label, *v);
        }
        expected.push(solve_regular(&SparseEngine, &graph, nfa).pairs());
    }
    expected
}

/// The sequential reference: graph states epoch by epoch, solved from
/// scratch.
fn reference_answers(workload: &Workload, wcnf: &Wcnf) -> Vec<Vec<(u32, u32)>> {
    let mut graph = workload.base.clone();
    let mut expected = vec![FixpointSolver::new(&SparseEngine)
        .solve(&graph, wcnf)
        .pairs(wcnf.start)];
    for batch in &workload.batches {
        for (u, label, v) in batch {
            graph.add_edge_named(*u, label, *v);
        }
        expected.push(
            FixpointSolver::new(&SparseEngine)
                .solve(&graph, wcnf)
                .pairs(wcnf.start),
        );
    }
    expected
}

/// Runs the concurrent scenario on one engine and checks every recorded
/// observation against its epoch's sequential answer.
fn check_engine<E: ServiceEngine>(engine: E, workload: &Workload, grammar: &Cfg, wcnf: &Wcnf) {
    let expected = reference_answers(workload, wcnf);
    let expected_paths = reference_paths(workload, wcnf);
    // The RPQ rides the same scheduler via the compiled RSM pipeline; the
    // reference is the independent product-graph oracle, replayed per epoch.
    let nfa = Nfa::star_then("a", "b");
    let expected_rpq = reference_rpq(workload, &nfa);
    let service = CfpqService::with_config(engine, &workload.base, ServiceConfig::new(2));
    let rel = service.prepare(grammar).unwrap();
    let sp = service.prepare_single_path(grammar).unwrap();
    let rpq = service.prepare_regular(&nfa);

    // (epoch, pairs, what) observations from every reader, plus
    // (epoch, pages) observations from the paths-ticket rounds and
    // (epoch, pairs) observations from the RPQ-ticket rounds.
    type Obs = (u64, Vec<(u32, u32)>, &'static str);
    type PathObs = (u64, Vec<PairPaths>);
    type RpqObs = (u64, Vec<(u32, u32)>);
    // (epoch, pairs, pages of a paths ticket, what) from the named-pair
    // ticket rounds.
    type NamedObs = (u64, Vec<(u32, u32)>, Option<Vec<PairPaths>>, &'static str);
    let done = AtomicBool::new(false);
    type AllObs = (Vec<Obs>, Vec<PathObs>, Vec<RpqObs>, Vec<NamedObs>);
    let (observations, path_observations, rpq_observations, named_observations): AllObs =
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..n_readers())
                .map(|r| {
                    let service = &service;
                    let done = &done;
                    s.spawn(move || {
                        let mut obs: Vec<Obs> = Vec::new();
                        let mut path_obs: Vec<PathObs> = Vec::new();
                        let mut rpq_obs: Vec<RpqObs> = Vec::new();
                        let mut named_obs: Vec<NamedObs> = Vec::new();
                        let mut round = 0usize;
                        // Keep reading until the writer finished, then once
                        // more so the final epoch is always observed — and
                        // always complete one full rotation so every query
                        // form (including the RPQ arm) is exercised even
                        // when the writer outpaces the readers.
                        let mut after_done = 0;
                        while after_done < 2 || round < 8 {
                            if done.load(Ordering::Relaxed) {
                                after_done += 1;
                            }
                            match (round + r) % 8 {
                                0 => {
                                    let snap = service.snapshot();
                                    obs.push((
                                        snap.epoch(),
                                        snap.evaluate(rel).start_pairs().to_vec(),
                                        "snapshot",
                                    ));
                                }
                                1 => {
                                    let t = service.enqueue(rel, vec![]).unwrap();
                                    let a = t.wait().unwrap();
                                    obs.push((a.epoch, a.pairs, "ticket"));
                                }
                                2 => {
                                    let snap = service.snapshot();
                                    let idx = snap.evaluate_single_path(sp);
                                    obs.push((snap.epoch(), idx.pairs(wcnf.start), "single-path"));
                                }
                                3 => {
                                    let t = service.enqueue_paths(rel, vec![], path_req()).unwrap();
                                    let a = t.wait().unwrap();
                                    path_obs.push((
                                        a.epoch,
                                        a.paths.expect("paths ticket answers with pages"),
                                    ));
                                }
                                4 => {
                                    let t = service.enqueue(rpq, vec![]).unwrap();
                                    let a = t.wait().unwrap();
                                    rpq_obs.push((a.epoch, a.pairs));
                                }
                                5 => {
                                    let t = service.enqueue(rel, named_pairs()).unwrap();
                                    let a = t.wait().unwrap();
                                    named_obs.push((a.epoch, a.pairs, None, "named ticket"));
                                }
                                6 => {
                                    let t = service.enqueue_single_path(sp, named_pairs()).unwrap();
                                    let a = t.wait().unwrap();
                                    named_obs.push((a.epoch, a.pairs, None, "named sp ticket"));
                                }
                                _ => {
                                    let t = service
                                        .enqueue_paths(rel, named_pairs(), path_req())
                                        .unwrap();
                                    let a = t.wait().unwrap();
                                    named_obs.push((
                                        a.epoch,
                                        a.pairs,
                                        a.paths,
                                        "named paths ticket",
                                    ));
                                }
                            }
                            round += 1;
                        }
                        (obs, path_obs, rpq_obs, named_obs)
                    })
                })
                .collect();

            // The writer: apply the batches in order, interleaved with the
            // readers above.
            let writing = SetOnDrop(&done);
            for batch in &workload.batches {
                let edges: Vec<(u32, &str, u32)> =
                    batch.iter().map(|(u, l, v)| (*u, l.as_str(), *v)).collect();
                let inserted = service.add_edges(&edges);
                assert!(inserted > 0, "every generated batch publishes an epoch");
            }
            drop(writing);

            let mut obs = Vec::new();
            let mut path_obs = Vec::new();
            let mut rpq_obs = Vec::new();
            let mut named_obs = Vec::new();
            for r in readers {
                let (o, p, q, n) = r.join().expect("reader panicked");
                obs.extend(o);
                path_obs.extend(p);
                rpq_obs.extend(q);
                named_obs.extend(n);
            }
            (obs, path_obs, rpq_obs, named_obs)
        });

    assert_eq!(
        service.current_epoch(),
        workload.batches.len() as u64,
        "one epoch per batch"
    );
    assert!(!observations.is_empty());
    let mut seen_epochs: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for (epoch, pairs, what) in observations {
        seen_epochs.insert(epoch);
        assert_eq!(
            &pairs, &expected[epoch as usize],
            "{what} observation at epoch {epoch} diverges from the sequential execution"
        );
    }
    // Every paths ticket must have streamed exactly the pages a
    // sequential enumeration of its epoch's graph streams: answered
    // within one epoch (never mixing two), deterministically ordered,
    // truncation flags included.
    for (epoch, pages) in path_observations {
        seen_epochs.insert(epoch);
        assert_eq!(
            &pages, &expected_paths[epoch as usize],
            "paths observation at epoch {epoch} diverges from the sequential enumeration"
        );
    }
    // Every RPQ ticket — evaluated through the compiled RSM pipeline,
    // incrementally repaired across epochs — must match the standalone
    // product-graph oracle's answer on its epoch's graph.
    assert!(!rpq_observations.is_empty());
    for (epoch, pairs) in rpq_observations {
        seen_epochs.insert(epoch);
        assert_eq!(
            &pairs, &expected_rpq[epoch as usize],
            "rpq observation at epoch {epoch} diverges from the product-graph oracle"
        );
    }
    // Every named-pair ticket — probed on the closure, never extracted —
    // must equal its epoch's full answer restricted to the named pairs,
    // on all three queues; a paths ticket's pages likewise.
    assert!(!named_observations.is_empty());
    for (epoch, pairs, pages, what) in named_observations {
        seen_epochs.insert(epoch);
        let wanted = restrict(&expected[epoch as usize]);
        assert_eq!(
            pairs, wanted,
            "{what} at epoch {epoch} diverges from the filtered full answer"
        );
        if let Some(pages) = pages {
            let wanted_pages: Vec<PairPaths> = expected_paths[epoch as usize]
                .iter()
                .filter(|p| wanted.contains(&(p.from, p.to)))
                .cloned()
                .collect();
            assert_eq!(
                pages, wanted_pages,
                "{what} at epoch {epoch} diverges from the filtered full enumeration"
            );
        }
    }
    // The post-writer read guarantees the final state was observed.
    assert!(seen_epochs.contains(&(workload.batches.len() as u64)));
}

#[test]
fn concurrent_observations_match_a_sequential_execution() {
    let grammar = Cfg::parse("S -> a S b | a b | S S").unwrap();
    let wcnf = grammar.to_wcnf(CnfOptions::default()).unwrap();
    for case in 0..3u64 {
        let w = workload(RNG_SEED.wrapping_add(case));
        check_engine(SparseEngine, &w, &grammar, &wcnf);
        check_engine(DenseEngine, &w, &grammar, &wcnf);
        check_engine(ParDenseEngine::new(Device::new(2)), &w, &grammar, &wcnf);
        check_engine(ParSparseEngine::new(Device::new(2)), &w, &grammar, &wcnf);
        check_engine(TiledEngine::new(Device::new(2)), &w, &grammar, &wcnf);
    }
}

/// Named-pair tickets on a service that holds no all-pairs closure are
/// served from a source-restricted closure, grown ticket by ticket and
/// dropped at every publish. Two clients keep asking for different rows
/// — so both workers extend the same closure concurrently — while the
/// writer publishes epochs and, half-way, sends the one full-answer
/// ticket that makes the service solve (and from then on carry) the
/// whole closure. Every answer must equal its epoch's full answer
/// filtered to the pairs it named, whichever closure served it.
fn check_cold_named_tickets<E: ServiceEngine>(engine: E, workload: &Workload, grammar: &Cfg) {
    let wcnf = grammar.to_wcnf(CnfOptions::default()).unwrap();
    let expected = reference_answers(workload, &wcnf);
    let service = CfpqService::with_config(engine, &workload.base, ServiceConfig::new(2));
    let rel = service.prepare(grammar).unwrap();
    const FULL_AFTER_BATCH: usize = 2;

    type NamedObs = (u64, Vec<(u32, u32)>, Vec<(u32, u32)>);
    let done = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let observations: Vec<NamedObs> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u32)
            .map(|c| {
                let service = &service;
                let done = &done;
                let served = &served;
                s.spawn(move || {
                    let mut obs: Vec<NamedObs> = Vec::new();
                    let mut round = 0u32;
                    let mut after_done = 0;
                    while after_done < 2 || round < 12 {
                        if done.load(Ordering::Relaxed) {
                            after_done += 1;
                        }
                        // Two source rows per ticket, rotating through
                        // (and past) the node universe.
                        let rows = [(round * 2 + c) % 13, (round * 5 + 3 * c) % 13];
                        let mut wanted: Vec<(u32, u32)> = rows
                            .iter()
                            .flat_map(|&i| (0..12u32).map(move |j| (i, j)))
                            .collect();
                        wanted.push((rows[0], u32::MAX));
                        let answer = service
                            .enqueue(rel, wanted.clone())
                            .unwrap()
                            .wait()
                            .unwrap();
                        obs.push((answer.epoch, wanted, answer.pairs));
                        served.fetch_add(1, Ordering::Relaxed);
                        round += 1;
                    }
                    obs
                })
            })
            .collect();
        let writing = SetOnDrop(&done);
        for (b, batch) in workload.batches.iter().enumerate() {
            // Every epoch gets to serve a ticket that was enqueued on it.
            // A client stops only after `done`, so one that stopped
            // before panicked, and would never serve the rest.
            let seen = served.load(Ordering::Relaxed);
            while served.load(Ordering::Relaxed) < seen + 3 {
                assert!(
                    !clients.iter().any(|c| c.is_finished()),
                    "a client stopped before the writer finished"
                );
                std::thread::yield_now();
            }
            let edges: Vec<(u32, &str, u32)> =
                batch.iter().map(|(u, l, v)| (*u, l.as_str(), *v)).collect();
            assert!(service.add_edges(&edges) > 0);
            if b == FULL_AFTER_BATCH {
                let full = service.enqueue(rel, vec![]).unwrap().wait().unwrap();
                assert_eq!(full.pairs, expected[full.epoch as usize]);
            }
        }
        drop(writing);
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client panicked"))
            .collect()
    });

    assert!(!observations.is_empty());
    for (epoch, wanted, pairs) in &observations {
        let full = &expected[*epoch as usize];
        let mut filtered: Vec<(u32, u32)> = wanted
            .iter()
            .copied()
            .filter(|p| full.binary_search(p).is_ok())
            .collect();
        filtered.sort_unstable();
        filtered.dedup();
        assert_eq!(
            pairs, &filtered,
            "named ticket at epoch {epoch} diverges from the filtered full answer"
        );
    }
    // Which closure served: before the full-answer ticket no epoch had an
    // all-pairs closure to carry over, so whatever it served it solved
    // from the sources; afterwards every epoch inherits the repaired one.
    // A source-restricted solve launches products only if some row it
    // was asked for has something to derive: an epoch whose tickets all
    // named rows with an empty answer (rows past the universe, or nodes
    // no path leaves) solved without one.
    let productive: Vec<u64> = observations
        .iter()
        .filter(|(epoch, wanted, _)| {
            let full = &expected[*epoch as usize];
            wanted
                .iter()
                .any(|&(i, _)| full.iter().any(|&(row, _)| row == i))
        })
        .map(|(epoch, _, _)| *epoch)
        .collect();
    let stats = service.stats();
    let (sourced, carried) = stats.split_at(FULL_AFTER_BATCH + 2);
    for s in sourced {
        assert_eq!(s.repairs, 0, "epoch {}: nothing to carry over", s.epoch);
        assert!(s.cold_solves >= 1, "epoch {}: solved from sources", s.epoch);
        if productive.contains(&s.epoch) {
            assert!(s.cold_products > 0, "epoch {}", s.epoch);
        }
    }
    for s in carried {
        assert_eq!((s.repairs, s.cold_solves), (1, 0), "epoch {}", s.epoch);
    }
}

#[test]
fn cold_named_tickets_match_the_filtered_full_answer() {
    let grammar = Cfg::parse("S -> a S b | a b | S S").unwrap();
    let w = workload(RNG_SEED.wrapping_add(11));
    check_cold_named_tickets(SparseEngine, &w, &grammar);
    check_cold_named_tickets(DenseEngine, &w, &grammar);
    check_cold_named_tickets(ParDenseEngine::new(Device::new(2)), &w, &grammar);
    check_cold_named_tickets(ParSparseEngine::new(Device::new(2)), &w, &grammar);
    check_cold_named_tickets(TiledEngine::new(Device::new(2)), &w, &grammar);
}

/// The chaos variant: the same fixed-seed workload, served through a
/// [`FaultInjector`] that panics workers at scheduled kernel launches,
/// under a queue bound small enough that overload shedding fires
/// mid-run, interleaved with the writer's `add_edges` batches (the
/// writer retries batches whose repair a fault interrupts). The
/// linearizability bar does not move: every *surviving* answer must
/// equal the sequential answer of its epoch, every ticket must resolve
/// within a bounded wait (zero hung waits), panics must be accounted
/// exactly (injected = caught by the writer + isolated in workers =
/// workers respawned), and the post-fault final epoch must match the
/// sequential execution.
#[test]
fn chaos_observations_match_a_sequential_execution() {
    silence_injected_panics();
    const LONG: Duration = Duration::from_secs(30);
    let grammar = Cfg::parse("S -> a S b | a b | S S").unwrap();
    let wcnf = grammar.to_wcnf(CnfOptions::default()).unwrap();
    let w = workload(RNG_SEED.wrapping_add(7));
    let expected = reference_answers(&w, &wcnf);

    // Ops 2/11/23 land inside the epoch-0 cold solves (served by
    // workers) or the first repairs (run by the writer) — both recovery
    // paths get exercised on every run; the stall keeps cold solves
    // slow enough that the forced-overload window below is reliable.
    let injector = FaultInjector::new(
        SparseEngine,
        FaultPlan::panic_on([2, 11, 23]).with_delay_every(2, Duration::from_millis(5)),
    );
    let service = CfpqService::with_config(
        injector.clone(),
        &w.base,
        ServiceConfig::new(2).with_max_queued(4),
    );
    let rel = service.prepare(&grammar).unwrap();
    let sp = service.prepare_single_path(&grammar).unwrap();

    let done = AtomicBool::new(false);
    let (observations, writer_caught, sheds) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..n_readers())
            .map(|r| {
                let service = &service;
                let done = &done;
                s.spawn(move || {
                    let mut backoff = Backoff::new(RNG_SEED ^ r as u64);
                    type Observation = (u64, Vec<(u32, u32)>, &'static str);
                    let mut obs: Vec<Observation> = Vec::new();
                    let mut round = 0usize;
                    let mut after_done = 0;
                    while after_done < 2 {
                        if done.load(Ordering::Relaxed) {
                            after_done += 1;
                        }
                        // Retry the request until it survives: shed load
                        // backs off, a panicked batch re-enqueues (the
                        // interrupted solve retries on the same epoch
                        // cell), anything else is a contract violation.
                        loop {
                            let enqueued = if round.is_multiple_of(2) {
                                service.enqueue(rel, vec![]).map(|t| (t, "ticket"))
                            } else {
                                service.enqueue_single_path(sp, vec![]).map(|t| (t, "sp"))
                            };
                            match enqueued {
                                Ok((t, what)) => {
                                    match t.wait_timeout(LONG).expect("ticket hung past bound") {
                                        Ok(a) => {
                                            backoff.reset();
                                            obs.push((a.epoch, a.pairs, what));
                                            break;
                                        }
                                        Err(ServiceError::WorkerPanicked) => continue,
                                        Err(e) => panic!("unexpected ticket error: {e}"),
                                    }
                                }
                                Err(ServiceError::Overloaded { retry_after, .. }) => {
                                    std::thread::sleep(retry_after.min(backoff.next_delay()));
                                }
                                Err(e) => panic!("unexpected enqueue error: {e}"),
                            }
                        }
                        round += 1;
                    }
                    obs
                })
            })
            .collect();

        // The writer: apply every batch (retrying when an injected
        // fault interrupts the repair — the failed publish must leave
        // the old epoch serving), and force an overload window halfway
        // through by pinning both workers on cold solves of fresh
        // queries while bursting past the queue bound.
        let writing = SetOnDrop(&done);
        let mut writer_caught = 0u64;
        let mut sheds = 0u64;
        let mut burst_tickets = Vec::new();
        for (b, batch) in w.batches.iter().enumerate() {
            let edges: Vec<(u32, &str, u32)> =
                batch.iter().map(|(u, l, v)| (*u, l.as_str(), *v)).collect();
            loop {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.add_edges(&edges)
                })) {
                    Ok(inserted) => {
                        assert!(inserted > 0, "every generated batch publishes an epoch");
                        break;
                    }
                    Err(_) => writer_caught += 1,
                }
            }
            if b == 2 {
                // Blockers: two fresh queries, cold in this epoch, one
                // per worker queue — their stalled solves hold both
                // workers long enough for the burst to hit the bound.
                // The readers may fill the queue first: a blocker then
                // backs off and retries, as they do.
                let blockers: Vec<_> = (0..2)
                    .map(|i| {
                        let q = service.prepare(&grammar).unwrap();
                        let mut backoff = Backoff::new(RNG_SEED ^ (0xB10C + i));
                        loop {
                            match service.enqueue(q, vec![]) {
                                Ok(t) => break t,
                                Err(ServiceError::Overloaded { retry_after, .. }) => {
                                    std::thread::sleep(retry_after.min(backoff.next_delay()));
                                }
                                Err(e) => panic!("unexpected blocker error: {e}"),
                            }
                        }
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(10));
                for _ in 0..64 {
                    match service.enqueue(rel, vec![]) {
                        Ok(t) => burst_tickets.push(t),
                        Err(ServiceError::Overloaded { retry_after, .. }) => {
                            assert!(retry_after > Duration::ZERO);
                            sheds += 1;
                        }
                        Err(e) => panic!("unexpected burst error: {e}"),
                    }
                }
                for t in blockers {
                    // A blocker may absorb a scheduled panic; either
                    // way it resolves within the bound.
                    let outcome = t.wait_timeout(LONG).expect("blocker hung past bound");
                    assert!(matches!(outcome, Ok(_) | Err(ServiceError::WorkerPanicked)));
                }
            }
        }
        drop(writing);

        let mut obs = Vec::new();
        for r in readers {
            obs.extend(r.join().expect("reader panicked"));
        }
        for t in burst_tickets {
            // A burst batch may land on an epoch whose rel closure was
            // never demanded (so its serve is a cold solve) and absorb
            // a scheduled panic — retry it like any other client.
            let mut ticket = t;
            let a = loop {
                match ticket
                    .wait_timeout(LONG)
                    .expect("burst ticket hung past bound")
                {
                    Ok(a) => break a,
                    Err(ServiceError::WorkerPanicked) => {
                        ticket = service.enqueue(rel, vec![]).unwrap();
                    }
                    Err(e) => panic!("unexpected burst outcome: {e}"),
                }
            };
            obs.push((a.epoch, a.pairs, "burst"));
        }
        (obs, writer_caught, sheds)
    });

    // Linearizability under faults: every surviving answer equals the
    // sequential answer of its epoch.
    assert!(!observations.is_empty());
    for (epoch, pairs, what) in &observations {
        assert_eq!(
            pairs, &expected[*epoch as usize],
            "{what} observation at epoch {epoch} diverges from the sequential execution"
        );
    }
    assert_eq!(service.current_epoch(), w.batches.len() as u64);
    let final_answer = service.enqueue(rel, vec![]).unwrap().wait().unwrap();
    assert_eq!(final_answer.pairs, *expected.last().unwrap());

    // Fault accounting: the whole schedule fired, and every injected
    // panic was either caught by the writer's retry loop or isolated
    // into a worker batch (and that worker respawned).
    assert_eq!(injector.panics_injected(), 3, "the schedule fired fully");
    let total =
        |f: fn(&cfpq_service::ServiceStats) -> u64| -> u64 { service.stats().iter().map(f).sum() };
    assert_eq!(writer_caught + total(|s| s.worker_panics), 3);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while total(|s| s.worker_restarts) < total(|s| s.worker_panics) {
        assert!(
            std::time::Instant::now() < deadline,
            "supervisors must respawn panicked workers promptly"
        );
        std::thread::yield_now();
    }
    assert_eq!(total(|s| s.worker_restarts), total(|s| s.worker_panics));
    // The forced-overload window shed load (readers also shed under the
    // tight bound; the burst guarantees at least one).
    assert!(sheds >= 1, "the burst must overrun the queue bound");
    assert!(total(|s| s.requests_shed) >= sheds);
}

#[test]
fn ticket_epochs_are_monotone_per_thread() {
    // A single caller's tickets must never observe epochs going
    // backwards: the scheduler serves each batch against the epoch
    // current at service time, and epochs only advance.
    let grammar = Cfg::parse("S -> a S b | a b").unwrap();
    let w = workload(RNG_SEED ^ 0xABCD);
    let service = CfpqService::with_config(SparseEngine, &w.base, ServiceConfig::new(2));
    let rel = service.prepare(&grammar).unwrap();
    let mut last = 0u64;
    for batch in &w.batches {
        let t = service.enqueue(rel, vec![]).unwrap();
        let a = t.wait().unwrap();
        assert!(a.epoch >= last, "epoch went backwards");
        last = a.epoch;
        let edges: Vec<(u32, &str, u32)> =
            batch.iter().map(|(u, l, v)| (*u, l.as_str(), *v)).collect();
        service.add_edges(&edges);
    }
    let final_answer = service.enqueue(rel, vec![]).unwrap().wait().unwrap();
    assert_eq!(final_answer.epoch, w.batches.len() as u64);
}
