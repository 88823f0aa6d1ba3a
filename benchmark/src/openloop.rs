//! The open-loop load driver of `svc-open`: a seeded ticket schedule, a
//! generator that sends each ticket when it is *due*, waiters that time
//! it from that instant (so a stall charges every ticket it delays), and
//! one writer thread that publishes edge batches on a fixed period.
//!
//! The driver knows the service only through [`Service`], so the
//! arithmetic here is tested against a fake.

use crate::stats::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Q1Lookup,
    Q2Lookup,
    RpqLookup,
    SpLookup,
    PathsPage,
    FullQ2,
}

impl Kind {
    /// The ticket mix, in percent.
    const MIX: [(Kind, u32); 6] = [
        (Kind::Q1Lookup, 40),
        (Kind::Q2Lookup, 30),
        (Kind::RpqLookup, 20),
        (Kind::SpLookup, 4),
        (Kind::PathsPage, 4),
        (Kind::FullQ2, 2),
    ];

    /// The `service.ticket_ms.<group>.*` metric family the kind reports to.
    pub fn group(self) -> &'static str {
        match self {
            Kind::Q1Lookup | Kind::Q2Lookup | Kind::RpqLookup => "lookup",
            Kind::SpLookup => "sp",
            Kind::PathsPage => "paths",
            Kind::FullQ2 => "full",
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TicketSpec {
    /// When the ticket is due, from the start of the run.
    pub due_ns: u64,
    pub kind: Kind,
    /// Requested pairs; empty asks for the full answer.
    pub pairs: Vec<(u32, u32)>,
}

/// The base-epoch closures lookups draw half of their pairs from.
pub struct Closures<'a> {
    pub n_nodes: u32,
    pub q1: &'a [(u32, u32)],
    pub q2: &'a [(u32, u32)],
    pub rpq: &'a [(u32, u32)],
}

/// Poisson arrivals at `rate` per second for `seconds`, kinds drawn from
/// the mix; a lookup asks for 1–4 pairs, each from the base closure or
/// uniformly random with equal odds (so answers mix hits and misses).
///
/// The number of tickets is fixed at `rate × seconds` and their due times
/// are independent and uniform over the window — a Poisson process given
/// its count — so throughput does not carry the ±2 % a free count would
/// add at 2,500 tickets.
pub fn schedule(seed: u64, rate: u32, seconds: f64, base: &Closures<'_>) -> Vec<TicketSpec> {
    let mut rng = Rng::stream(seed, 0x5C4E_D01E ^ u64::from(rate));
    let horizon_ns = seconds * 1e9;
    let count = (f64::from(rate) * seconds).round() as usize;
    let mut dues: Vec<u64> = (0..count)
        .map(|_| (rng.unit() * horizon_ns) as u64)
        .collect();
    dues.sort_unstable();
    let mut out = Vec::with_capacity(count);
    for due_ns in dues {
        let mut roll = rng.below(100) as u32;
        let kind = Kind::MIX
            .iter()
            .find(|(_, share)| {
                let hit = roll < *share;
                roll = roll.saturating_sub(*share);
                hit
            })
            .map(|(k, _)| *k)
            .expect("mix shares add up to 100");
        let closure = match kind {
            Kind::Q1Lookup | Kind::SpLookup | Kind::PathsPage => base.q1,
            Kind::Q2Lookup | Kind::FullQ2 => base.q2,
            Kind::RpqLookup => base.rpq,
        };
        let n_pairs = 1 + rng.below(4);
        let mut draw = |from_closure: bool| {
            if from_closure && !closure.is_empty() {
                closure[rng.below(closure.len())]
            } else {
                (
                    rng.below(base.n_nodes as usize) as u32,
                    rng.below(base.n_nodes as usize) as u32,
                )
            }
        };
        let pairs = match kind {
            Kind::FullQ2 => Vec::new(),
            // A page of witnesses is asked for a pair that has some.
            Kind::PathsPage => vec![draw(true)],
            _ => (0..n_pairs).map(|i| draw(i % 2 == 0)).collect(),
        };
        out.push(TicketSpec {
            due_ns,
            kind,
            pairs,
        });
    }
    out
}

/// What the driver needs of the service under test.
pub trait Service: Sync {
    type Pending: Send;
    type Answer: Send;
    /// Submits the ticket; `Err` if the service refused it.
    fn send(&self, spec: &TicketSpec) -> Result<Self::Pending, String>;
    /// Blocks until the ticket is resolved.
    fn wait(&self, pending: Self::Pending) -> Result<Self::Answer, String>;
    /// Publishes held-out edge batch `batch`; `false` once none is left.
    fn publish(&self, batch: usize) -> bool;
}

pub struct TicketRecord<A> {
    /// When a waiter saw the ticket resolved, from the start of the pass.
    pub resolved_ns: u64,
    /// From the ticket's due time to that moment.
    pub latency_ns: u64,
    /// How late after its due time the generator sent it.
    pub sent_late_ns: u64,
    /// Time inside the `send` call.
    pub enqueue_ns: u64,
    pub outcome: Result<A, String>,
}

pub struct RateRun<A> {
    /// One record per scheduled ticket, in schedule order.
    pub records: Vec<TicketRecord<A>>,
    /// From the last send to the last ticket resolving.
    pub drain_ns: u64,
    /// Wall time of every `publish` call the writer made.
    pub publish_ns: Vec<u64>,
}

/// Threads blocked in `wait`, one ticket each. They sleep until the
/// service wakes them, so a cache-hit lookup is timed at its own speed
/// (tens of microseconds) with no thread polling for it — a polling
/// reader on a two-core box competes with the service's worker for the
/// core exactly when a ticket has just been sent. Tickets beyond this
/// many outstanding are observed as waiters come free; at rates the
/// service keeps up with there are a handful at most.
const WAITERS: usize = 64;
/// The generator sleeps until this long before a ticket is due and spins
/// the rest: a sleep alone overshoots by the kernel's timer slack (50 µs
/// and more), which a latency counted from the due time would include.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(120);

/// What travels from the generator to a waiter: schedule index, how late
/// the send was, time inside `send`, and the pending ticket.
type Sent<P> = (usize, u64, u64, P);

/// The writer: publishes batch `first_batch`, `first_batch + 1`, … every
/// `publish_every` from `t0` until `done` is set or the service reports
/// no batch left; returns the wall time of every publish.
fn write<S: Service>(
    svc: &S,
    t0: Instant,
    publish_every: Duration,
    first_batch: usize,
    done: &AtomicBool,
) -> Vec<u64> {
    let mut publish_ns = Vec::new();
    loop {
        let due = publish_every * (publish_ns.len() as u32 + 1);
        while t0.elapsed() < due {
            if done.load(Ordering::Acquire) {
                return publish_ns;
            }
            let left = due.saturating_sub(t0.elapsed());
            std::thread::sleep(left.min(Duration::from_millis(5)));
        }
        let started = Instant::now();
        if !svc.publish(first_batch + publish_ns.len()) {
            return publish_ns;
        }
        publish_ns.push(started.elapsed().as_nanos() as u64);
    }
}

/// Runs one open-loop pass over `schedule`: this thread sends every
/// ticket when it is due, waiter threads time them from that instant to
/// resolution, and a writer publishes batch `first_batch`,
/// `first_batch + 1`, … every `publish_every` until every ticket is
/// resolved or the service reports no batch left.
pub fn drive<S: Service>(
    svc: &S,
    schedule: &[TicketSpec],
    publish_every: Duration,
    first_batch: usize,
) -> RateRun<S::Answer> {
    let done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Sent<S::Pending>>();
    let rx = Mutex::new(rx);
    let t0 = Instant::now();
    let since_t0 = |at: Instant| (at - t0).as_nanos() as u64;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| write(svc, t0, publish_every, first_batch, &done));
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    loop {
                        // Holding the lock while blocked in `recv` is the
                        // point: the other idle waiters queue behind it.
                        let next = rx.lock().expect("a waiter panicked").recv();
                        let Ok((index, sent_late_ns, enqueue_ns, pending)) = next else {
                            return seen;
                        };
                        let outcome = svc.wait(pending);
                        let resolved_ns = since_t0(Instant::now());
                        seen.push((
                            index,
                            TicketRecord {
                                resolved_ns,
                                latency_ns: resolved_ns - schedule[index].due_ns,
                                sent_late_ns,
                                enqueue_ns,
                                outcome,
                            },
                        ));
                    }
                })
            })
            .collect();

        let mut refused = Vec::new();
        let mut last_send_ns = 0;
        for (index, spec) in schedule.iter().enumerate() {
            let due = Duration::from_nanos(spec.due_ns);
            if let Some(nap) = due.checked_sub(t0.elapsed() + SPIN_BEFORE_DUE) {
                std::thread::sleep(nap);
            }
            while t0.elapsed() < due {
                std::hint::spin_loop();
            }
            let before = Instant::now();
            let sent = svc.send(spec);
            let after = Instant::now();
            let sent_late_ns = since_t0(before) - spec.due_ns;
            let enqueue_ns = (after - before).as_nanos() as u64;
            last_send_ns = since_t0(after);
            match sent {
                Ok(pending) => tx
                    .send((index, sent_late_ns, enqueue_ns, pending))
                    .expect("waiters outlive the generator"),
                Err(e) => refused.push((
                    index,
                    TicketRecord {
                        resolved_ns: last_send_ns,
                        latency_ns: last_send_ns - spec.due_ns,
                        sent_late_ns,
                        enqueue_ns,
                        outcome: Err(e),
                    },
                )),
            }
        }
        drop(tx);

        let mut seen = refused;
        for w in waiters {
            seen.extend(w.join().expect("a waiter panicked"));
        }
        done.store(true, Ordering::Release);
        let publish_ns = writer.join().expect("the writer panicked");
        seen.sort_unstable_by_key(|(index, _)| *index);
        let last_resolve_ns = seen.iter().map(|(_, r)| r.resolved_ns).max().unwrap_or(0);
        RateRun {
            drain_ns: last_resolve_ns.saturating_sub(last_send_ns),
            records: seen.into_iter().map(|(_, record)| record).collect(),
            publish_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn closures() -> [Vec<(u32, u32)>; 3] {
        [
            (0..50).map(|i| (i, i + 1)).collect(),
            (0..20).map(|i| (i + 2, i)).collect(),
            vec![(7, 7)],
        ]
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let [q1, q2, rpq] = closures();
        let base = Closures {
            n_nodes: 100,
            q1: &q1,
            q2: &q2,
            rpq: &rpq,
        };
        let a = schedule(1, 2000, 0.5, &base);
        assert_eq!(a, schedule(1, 2000, 0.5, &base));
        assert_ne!(a, schedule(2, 2000, 0.5, &base));
        assert_ne!(a, schedule(1, 1000, 0.5, &base));
        // Exactly rate × seconds tickets, in due order, inside the horizon.
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 500_000_000);
        // Every kind appears, lookups ask for 1–4 pairs, full answers none.
        for (kind, _) in Kind::MIX {
            assert!(a.iter().any(|t| t.kind == kind), "{kind:?} missing");
        }
        assert!(a.iter().all(|t| match t.kind {
            Kind::FullQ2 => t.pairs.is_empty(),
            Kind::PathsPage => t.pairs.len() == 1 && q1.contains(&t.pairs[0]),
            _ => (1..=4).contains(&t.pairs.len()),
        }));
    }

    /// Resolves a ticket a millisecond after it was sent; refuses every
    /// 7th ticket.
    struct Fake {
        sent: AtomicUsize,
        published: Mutex<Vec<usize>>,
    }

    impl Service for Fake {
        type Pending = Instant;
        type Answer = usize;
        fn send(&self, spec: &TicketSpec) -> Result<Instant, String> {
            let n = self.sent.fetch_add(1, Ordering::Relaxed);
            if n % 7 == 6 {
                return Err("shed".into());
            }
            assert!(spec.due_ns > 0);
            Ok(Instant::now() + Duration::from_millis(1))
        }
        fn wait(&self, ready_at: Instant) -> Result<usize, String> {
            std::thread::sleep(ready_at.saturating_duration_since(Instant::now()));
            Ok(42)
        }
        fn publish(&self, batch: usize) -> bool {
            let mut p = self.published.lock().unwrap();
            p.push(batch);
            p.len() < 3
        }
    }

    #[test]
    fn every_ticket_is_timed_from_its_due_time() {
        let [q1, q2, rpq] = closures();
        let base = Closures {
            n_nodes: 100,
            q1: &q1,
            q2: &q2,
            rpq: &rpq,
        };
        let sched = schedule(3, 1000, 0.1, &base);
        let fake = Fake {
            sent: AtomicUsize::new(0),
            published: Mutex::new(Vec::new()),
        };
        let run = drive(&fake, &sched, Duration::from_millis(10), 5);
        assert_eq!(run.records.len(), sched.len());
        let refused = run.records.iter().filter(|r| r.outcome.is_err()).count();
        assert_eq!(refused, sched.len() / 7);
        for r in &run.records {
            // Latency counts from the due time, so it covers the lateness
            // of the send as well as the millisecond the answer takes.
            assert!(r.latency_ns >= r.sent_late_ns + r.enqueue_ns);
            match &r.outcome {
                Ok(answer) => assert!(*answer == 42 && r.latency_ns >= 1_000_000),
                Err(e) => assert_eq!(e, "shed"),
            }
        }
        let last = run.records.iter().map(|r| r.resolved_ns).max().unwrap();
        assert!(last >= sched.last().unwrap().due_ns);
        // The writer starts at `first_batch` and stops when told "none left".
        assert_eq!(*fake.published.lock().unwrap(), vec![5, 6, 7]);
        assert_eq!(run.publish_ns.len(), 2);
    }
}
