//! Serving queries concurrently: the `cfpq-service` walkthrough.
//!
//! ```text
//! cargo run --release --example service
//! ```
//!
//! Spins up a [`CfpqService`] over an ontology graph with one
//! [`Parallelism`] budget split between the scheduler workers and the
//! kernel device, fires a burst of client requests through the
//! multi-queue scheduler, publishes an edge update, and shows (a)
//! snapshot isolation — a reader pinned to the old epoch keeps its
//! answers — (b) the per-epoch [`ServiceStats`]: the update was a
//! cheap incremental repair, and batched requests shared one cached
//! closure — (c) path pages: two batches of one epoch page one pair
//! alike from the enumerator kept in the closure's cell, and a page of
//! the next epoch equals a fresh enumeration over its graph — and (d)
//! the epoch index gauges: the publish copied only the label matrix its
//! batch wrote to, and a label no query reads was never built. Q1 is
//! also prepared single-path, and the one length closure behind both of
//! its handles is repaired once per publish. It asserts all of this, so
//! CI runs it as a check.

use cfpq::prelude::*;
use cfpq::service::ServiceConfig;

fn main() {
    // One thread budget for the whole process: 2 scheduler workers, each
    // running its batches on a device of budget / workers threads, itself
    // counted — never oversubscribed.
    let budget = Parallelism::new(4);
    let (config, device) = ServiceConfig::from_parallelism(budget, 2);
    println!(
        "budget: {} threads -> {} scheduler workers + {}-worker device",
        budget.total(),
        config.workers,
        device.n_workers()
    );

    let mut graph = cfpq::graph::ontology::dataset("skos")
        .expect("bundled dataset")
        .to_graph();
    // A label no query below reads: it keeps its pairs and never gets a
    // matrix.
    graph.add_edge_named(0, "padding", 1);
    graph.add_edge_named(1, "padding", 2);
    // The service starts over a clone of this index. Clones share their
    // labels, so whatever the service's reads build shows here too.
    let shared = GraphIndex::build(ParSparseEngine::new(device), &graph);
    let service = CfpqService::over(shared.clone(), config);
    let q1 = service
        .prepare(&cfpq::grammar::queries::query1())
        .expect("Q1 normalizes");
    // Q1 for §5 witness lengths too: both handles read one length
    // closure, whose support is Q1's relation.
    let query = PreparedQuery::new(&cfpq::grammar::queries::query1()).expect("Q1 normalizes");
    let sp = service.prepare_single_path_query(query.clone());

    // A burst of concurrent clients: each enqueues a request and waits
    // on its ticket. All requests share one grammar, so the scheduler
    // batches them and a single cold solve serves the entire burst.
    std::thread::scope(|s| {
        for client in 0..8 {
            let service = &service;
            s.spawn(move || {
                let ticket = service.enqueue(q1, vec![]).expect("q1 is registered");
                let answer = ticket.wait().expect("no faults in this walkthrough");
                println!(
                    "client {client}: {} pairs @ epoch {}",
                    answer.pairs.len(),
                    answer.epoch
                );
            });
        }
    });

    // Page one pair twice in epoch 0, in two batches: the second batch
    // pages from the enumerator the first left in the closure's cell.
    let pair = service.evaluate(q1).start_pairs()[0];
    let req = PageRequest {
        offset: 0,
        limit: 4,
        max_len: 6,
    };
    let page = |service: &CfpqService<_>| {
        let ticket = service.enqueue_paths(q1, vec![pair], req);
        let answer = ticket.expect("q1 is registered").wait().expect("no faults");
        let mut pages = answer.paths.expect("a paths ticket");
        (answer.epoch, pages.remove(0))
    };
    let (first, second) = (page(&service), page(&service));
    println!(
        "paths {pair:?}: {} paths @ epoch {}, equal in a second batch: {}",
        first.1.paths.len(),
        first.0,
        first == second
    );
    assert_eq!(first, second, "one epoch pages one pair alike");

    // Pin a snapshot, then update the graph: the snapshot is immutable,
    // the new epoch repairs the cached closure instead of re-solving.
    let before = service.snapshot();
    let pairs_before = before.evaluate(q1).start_count();
    let batch = [(0, "subClassOf", 1), (1, "subClassOf", 2)];
    let inserted = service.add_edges(&batch);
    let after = service.snapshot();
    println!(
        "update: {inserted} new edges, epoch {} -> {}",
        before.epoch(),
        after.epoch()
    );
    let pairs_old = before.evaluate(q1).start_count();
    let pairs_new = after.evaluate(q1).start_count();
    println!(
        "R_S: {pairs_old} pairs on the old snapshot (unchanged: {}), {pairs_new} on the new epoch",
        pairs_old == pairs_before,
    );
    assert_eq!(
        pairs_old, pairs_before,
        "the publish left the old epoch alone"
    );

    let start = query.wcnf().start;
    assert_eq!(after.evaluate_single_path(sp).count(start), pairs_new);

    println!("\nper-epoch stats:");
    let stats = service.stats();
    // The publish repaired the one closure epoch 0 had solved for Q1's
    // two handles, so both reads of epoch 1 above were hits.
    let epoch1 = (stats[1].repairs, stats[1].cold_solves, stats[1].cache_hits);
    assert_eq!(epoch1, (1, 0, 2), "epoch 1: one repair, no cold solve");
    for s in stats {
        println!(
            "  epoch {}: served {:>3}  hits {:>3}  cold {} ({} products)  \
             repairs {} ({} products)  publish {:.2} ms",
            s.epoch,
            s.queries_served,
            s.cache_hits,
            s.cold_solves,
            s.cold_products,
            s.repairs,
            s.repair_products,
            s.publish_ms
        );
    }

    // A page of the new epoch is the page a fresh enumerator serves over
    // the new graph: nothing derived from epoch 0 reached it.
    let mut index = GraphIndex::build(SparseEngine, &graph);
    index.add_edges(&batch);
    let (wcnf, closure) = (query.wcnf(), solve_prepared(&index, &query));
    let fresh = PathEnumerator::new(wcnf).page(&index, &closure, wcnf.start, pair.0, pair.1, req);
    let (epoch, paged) = page(&service);
    println!(
        "paths {pair:?} @ epoch {epoch}: {} paths, equal to a fresh enumeration: {}",
        paged.paths.len(),
        (&paged.paths, paged.exhausted) == (&fresh.paths, fresh.exhausted)
    );
    assert_eq!(epoch, after.epoch());
    assert_eq!(
        (paged.paths, paged.exhausted),
        (fresh.paths, fresh.exhausted)
    );

    // Epochs share the label matrices a batch leaves alone: the publish
    // copied `subClassOf`'s matrix — as an index that took the same
    // batch holds it — and nothing else.
    let metrics = service.metrics();
    let index_bytes = metrics.gauge("cfpq_epoch_index_bytes").get();
    let copied = metrics.gauge("cfpq_epoch_index_copied_bytes").get();
    println!(
        "  epoch {}: index {index_bytes} bytes, {copied} copied by its publish",
        after.epoch()
    );
    let sub_class_of = index.adjacency("subClassOf").expect("a skos label");
    assert_eq!(
        copied,
        sub_class_of.bytes() as u64,
        "the publish copied subClassOf"
    );
    assert!(copied < index_bytes, "and shared every other label");

    // Q1 read subClassOf, so the first read built it, once, for every
    // index that shares the label; no read ever built `padding`, which
    // costs its two pairs.
    let built = |label| shared.is_built(label).expect("a label of the graph");
    println!(
        "  labels: subClassOf built {}, padding built {}",
        built("subClassOf"),
        built("padding")
    );
    assert!(built("subClassOf"), "built by the service's first read");
    assert!(!built("padding"), "a label no query reads stays unbuilt");
}
