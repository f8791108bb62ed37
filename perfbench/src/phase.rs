//! The load generator: one process, one thread per connection, no
//! ticker thread and no spawning.
//!
//! Both connections take the next request from the shared plan. In the
//! open loop a request is due at `k × interval` from the phase start; a
//! connection that picks up a request early sleeps until it is due, and
//! one that picks it up late sends at once. Latency runs from the due
//! time to the reply, so a stall also charges the requests queued behind
//! it (no coordinated omission); how late sends went out is the
//! generator's lag. In the closed loop each connection sends its next
//! request as soon as its previous reply lands.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use plasma_data::vector::SparseVector;
use plasma_server::Request;

use crate::client::{Conn, Reply};
use crate::plan::Op;
use crate::trace::Tracer;

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Position in the plan.
    pub index: usize,
    /// The connection that sent it.
    pub conn: usize,
    /// What was sent.
    pub op: Op,
    /// Due time, ns from the phase start (the send time in a closed loop).
    pub due_ns: u64,
    /// Send time, ns from the phase start.
    pub sent_ns: u64,
    /// Reply time, ns from the phase start.
    pub done_ns: u64,
    /// The reply.
    pub reply: Result<Reply, String>,
}

impl Done {
    /// Milliseconds from due time to reply.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// Milliseconds the send went out after its due time.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }
}

/// What one phase produced.
#[derive(Debug)]
pub struct PhaseOut {
    /// Every request, in plan order.
    pub done: Vec<Done>,
    /// Seconds from the phase start to the last reply.
    pub wall_s: f64,
    /// Watch-delta frames counted on the connections during the phase.
    pub watch_deltas: u64,
}

/// Span names for a probe and an ingest request.
pub type SpanNames = [&'static str; 2];

/// Runs `ops` over `conns`, one thread per connection: open loop at
/// `interval` when given, closed loop otherwise. With a tracer, each
/// request also records a span around its call, named by `SpanNames`.
pub fn run_phase(
    conns: &mut [Conn],
    ops: &[Op],
    batches: &[Vec<SparseVector>],
    interval: Option<Duration>,
    tracer: Option<(&Tracer, SpanNames)>,
) -> PhaseOut {
    let next = AtomicUsize::new(0);
    let out = Mutex::new((Vec::with_capacity(ops.len()), 0u64));
    let start = Instant::now();
    std::thread::scope(|s| {
        for (conn_id, conn) in conns.iter_mut().enumerate() {
            let (next, out) = (&next, &out);
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut deltas = 0;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&op) = ops.get(index) else { break };
                    let due_ns = match interval {
                        Some(iv) => {
                            let due = iv.as_nanos() as u64 * index as u64;
                            let now = start.elapsed().as_nanos() as u64;
                            if due > now {
                                std::thread::sleep(Duration::from_nanos(due - now));
                            }
                            Some(due)
                        }
                        None => None,
                    };
                    let sent_ns = start.elapsed().as_nanos() as u64;
                    let request = match op {
                        Op::Probe(threshold) => Request::Probe { threshold },
                        Op::Ingest(batch) => Request::Ingest {
                            records: batches[batch].clone(),
                        },
                    };
                    let reply = match tracer {
                        Some((tracer, [probe, ingest])) => {
                            let name = match op {
                                Op::Probe(_) => probe,
                                Op::Ingest(_) => ingest,
                            };
                            tracer.span(name, Some(index), || conn.call(request))
                        }
                        None => conn.call(request),
                    };
                    let done_ns = start.elapsed().as_nanos() as u64;
                    deltas += conn.take_watch_deltas();
                    mine.push(Done {
                        index,
                        conn: conn_id,
                        op,
                        due_ns: due_ns.unwrap_or(sent_ns).min(sent_ns),
                        sent_ns,
                        done_ns,
                        reply,
                    });
                }
                let mut out = out.lock().expect("phase output lock");
                out.0.extend(mine);
                out.1 += deltas;
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (mut done, watch_deltas) = out.into_inner().expect("phase output lock");
    done.sort_by_key(|d| d.index);
    PhaseOut {
        done,
        wall_s,
        watch_deltas,
    }
}
