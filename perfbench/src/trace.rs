//! The traced run: per-layer metrics from spans recorded in the
//! benchmark's own code around calls into each layer's public functions.
//!
//! Nothing inside the program is instrumented. The run first measures the
//! open-loop phase untraced and again with a client span around every
//! request (the difference in the open-loop probe p50 is the tracing overhead).
//! It then replays the workload's closed-loop plan, inputs and
//! concurrency against each layer in turn:
//!
//! | span | public call |
//! |---|---|
//! | `handler.*` | `Connection::handle` through `InProcClient` |
//! | `streaming.*` | `StreamingSession::probe` / `ingest` on forks of one master |
//! | `wire.*` | `Request::decode`, `Response::encode` |
//! | `candidates.gen` | `candidates::exhaustive`, `BandBuckets::extend_and_generate` |
//! | `cache.probe` | `SharedKnowledgeCache::probe`, warmed as in set-up |
//! | `cumulative.fold` | `CumulativeCurve::from_estimates` + `merge_min_variance` |
//! | `sketch.*` | `Sketcher::sketch_all`, `Sketcher::extend_batch` |
//! | `durable.*` | `CorpusStore::log_ingest`, `wait_durable`, `write_snapshot`, `durable::recover` |
//!
//! Wait and self times are differences between replays: the streaming
//! probe span with the plan's writers minus the same probes with none,
//! the ingest span with the workload's watches minus without, and the
//! handler probe span minus the streaming probe span. Counters come from
//! replies and `memory_stats`. Spans are kept in memory and written as
//! JSON lines next to the scratch directory when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use plasma_core::cache::{CacheCapacity, CacheRegistry, SharedKnowledgeCache};
use plasma_core::cumulative::{default_grid, CumulativeCurve};
use plasma_core::durable::{self, CorpusStore};
use plasma_core::streaming::StreamingSession;
use plasma_data::similarity::Similarity;
use plasma_lsh::candidates::{self, BandBuckets};
use plasma_lsh::{LshFamily, Sketcher};
use plasma_server::{Request, Response};

use crate::client::Reply;
use crate::metrics::Report;
use crate::phase::{run_phase, Done};
use crate::plan::{Op, LADDER};
use crate::run::{finish, inputs_for, open_phase, Opts};
use crate::stats::{mean, percentile};
use crate::workload::{check_phase, latencies, Inputs, Params, Stack, Tally, CONNECTIONS};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request (plan index) the call serves, when it serves one.
    pub id: Option<usize>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span buffer.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, id: Option<usize>, f: impl FnOnce() -> R) -> R {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Mean duration of the spans called `name`, in ms (0 when none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span buffer lock");
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        mean(&ms).unwrap_or(0.0)
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer lock").iter() {
            let id = s.id.map_or("null".to_string(), |i| i.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f(state, index, op)` for every op, one thread per state, each
/// thread taking the next op of the shared plan.
fn replay<S: Send>(states: &mut [S], ops: &[Op], f: impl Fn(&mut S, usize, Op) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for state in states.iter_mut() {
            let (next, f) = (&next, &f);
            s.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&op) = ops.get(index) else { break };
                f(state, index, op);
            });
        }
    });
}

/// The replayed work: the closed-loop plan over every connection, then
/// the serial ingests that follow it where the workload has them.
fn segments(params: &Params, closed: &[Op]) -> Vec<(Vec<Op>, usize)> {
    let mut segments = vec![(closed.to_vec(), CONNECTIONS)];
    if params.epilogue_ingests > 0 {
        segments.push(((0..params.epilogue_ingests).map(Op::Ingest).collect(), 1));
    }
    segments
}

fn family() -> LshFamily {
    LshFamily::for_measure(Similarity::Cosine)
}

/// Runs the traced measurements and returns the per-layer report.
pub fn run(opts: &Opts, scratch: &Path) -> Result<Report, String> {
    let params = opts.workload.params();
    let (inputs, open_ops, closed_ops) = inputs_for(&params, opts);
    let segments = segments(&params, &closed_ops);
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut setups = Vec::new();

    // Untraced and traced open-loop phases: overhead and generator lag.
    let (mut stack, untraced) = open_phase(
        &params,
        &inputs,
        &open_ops,
        &scratch.join("open"),
        &mut setups,
        None,
    )?;
    check_phase(
        &params,
        &inputs,
        &untraced,
        &mut stack,
        opts.wrong_reference,
        &mut tally,
    );
    drop(stack);
    let (mut stack, traced) = open_phase(
        &params,
        &inputs,
        &open_ops,
        &scratch.join("traced"),
        &mut setups,
        Some(&tracer),
    )?;
    check_phase(
        &params,
        &inputs,
        &traced,
        &mut stack,
        opts.wrong_reference,
        &mut tally,
    );
    drop(stack);
    let p50 = |done: &[Done]| percentile(&latencies(done, false), 50.0);
    report.set(
        "trace.overhead_ms",
        p50(&traced.done)? - p50(&untraced.done)?,
    );
    let both = [
        latencies(&untraced.done, false),
        latencies(&traced.done, false),
    ]
    .concat();
    report.set("client.probe_p50_ms", p50(&untraced.done)?);
    report.set("client.probe_p90_ms", percentile(&both, 90.0)?);
    report.set("client.probe_p95_ms", percentile(&both, 95.0)?);
    let lags: Vec<f64> = untraced.done.iter().map(Done::lag_ms).collect();
    report.set("loadgen.lag_p50_ms", percentile(&lags, 50.0)?);
    report.set(
        "loadgen.lag_max_ms",
        lags.iter().copied().fold(0.0, f64::max),
    );

    handler_layer(
        &params,
        &inputs,
        &segments,
        scratch,
        &tracer,
        &mut tally,
        &mut report,
        opts,
    )?;
    let replies = streaming_layer(&params, &inputs, &segments, &tracer, &mut report);
    report.set(
        "handler.self_ms",
        report.metrics["handler.probe_ms"] - report.metrics["streaming.probe_ms"],
    );
    wire_layer(&inputs, &segments, &replies, &tracer, &mut report);
    engine_layers(&params, &inputs, &segments, &tracer, &mut report);
    durable_layer(&params, &inputs, &segments, scratch, &tracer, &mut report)?;

    let path = opts.work_dir.join(format!(
        "trace-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    finish(&mut report, tally);
    Ok(report)
}

/// `Connection::handle` through in-process clients over a service set up
/// as the workload's: per-verb handler spans, and the counters replies
/// and `memory_stats` carry.
#[allow(clippy::too_many_arguments)]
fn handler_layer(
    params: &Params,
    inputs: &Inputs,
    segments: &[(Vec<Op>, usize)],
    scratch: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
    report: &mut Report,
    opts: &Opts,
) -> Result<(), String> {
    let inproc = Params {
        tcp: false,
        ..*params
    };
    let (mut stack, _) = Stack::setup(&inproc, inputs, &scratch.join("handler"))?;
    let memory = |stack: &mut Stack| match stack.conns[0].call(Request::MemoryStats) {
        Ok(Reply::Memory {
            memo_bytes,
            bucket_build_records,
        }) => Ok((memo_bytes, bucket_build_records)),
        other => Err(format!("memory_stats answered {other:?}")),
    };
    let (_, built_before) = memory(&mut stack)?;
    let deltas_before = stack.deltas_seen;
    let mut done = Vec::new();
    for (ops, threads) in segments {
        let out = run_phase(
            &mut stack.conns[..*threads],
            ops,
            &inputs.batches,
            None,
            Some((tracer, ["handler.probe", "handler.ingest"])),
        );
        check_phase(
            &inproc,
            inputs,
            &out,
            &mut stack,
            opts.wrong_reference,
            tally,
        );
        done.extend(out.done);
    }
    let (memo_bytes, built_after) = memory(&mut stack)?;
    report.set("handler.probe_ms", tracer.mean_ms("handler.probe"));
    report.set("handler.ingest_ms", tracer.mean_ms("handler.ingest"));
    report.set(
        "handler.ingest_p90_ms",
        percentile(&latencies(&done, true), 90.0)?,
    );

    let (mut candidates, mut pruned, mut hits, mut hashes, mut probes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for d in &done {
        if let Ok(Reply::Probe {
            candidates: c,
            pruned: p,
            cache_hits: h,
            hashes: x,
            ..
        }) = &d.reply
        {
            candidates += c;
            pruned += p;
            hits += h;
            hashes += x;
            probes += 1;
        }
    }
    let probes = probes.max(1) as f64;
    report.set("candidates.per_probe", candidates as f64 / probes);
    report.set(
        "candidates.bucket_build_records",
        (built_after - built_before) as f64,
    );
    report.set("cache.hit_share", hits as f64 / candidates.max(1) as f64);
    report.set("cache.hashes_per_probe", hashes as f64 / probes);
    report.set("cache.memo_bytes", memo_bytes as f64);
    report.set(
        "bayes.prune_share",
        pruned as f64 / candidates.max(1) as f64,
    );

    let ingests = done
        .iter()
        .filter(|d| matches!(d.op, Op::Ingest(_)))
        .count() as u64;
    let watches = if params.watch.is_some() {
        CONNECTIONS as u64
    } else {
        0
    };
    let deltas = stack.settle_watch_deltas(watches * (1 + ingests)) - deltas_before;
    report.set(
        "watch.deltas_per_ingest",
        deltas as f64 / ingests.max(1) as f64,
    );
    let (acked, syncs) = stack
        .service()
        .wal_sync_stats()
        .iter()
        .fold((0, 0), |(a, s), (_, st)| {
            (a + st.acked_appends, s + st.syncs)
        });
    report.set("durable.syncs_per_ack", syncs as f64 / acked.max(1) as f64);
    Ok(())
}

/// One streaming replay: forks of a master built from the same records
/// and config, warmed as in set-up, replaying `segments`; probe and
/// ingest spans are recorded under the names in `spans`. `writers` false
/// drops the ingests; `watches` false skips the watch registrations.
fn streaming_replay(
    params: &Params,
    inputs: &Inputs,
    segments: &[(Vec<Op>, usize)],
    tracer: &Tracer,
    spans: (&'static str, &'static str),
    writers: bool,
    watches: bool,
) -> Vec<Response> {
    let master = StreamingSession::from_records(
        inputs.initial.clone(),
        Similarity::Cosine,
        params.apss_cfg(),
    );
    let mut forks: Vec<StreamingSession> = (0..CONNECTIONS).map(|_| master.fork()).collect();
    let mut handles = Vec::new();
    match params.watch {
        Some(threshold) if watches => {
            for fork in &forks {
                handles.push(fork.watch(threshold));
            }
        }
        // The same evaluation a registration runs, so the memo and the
        // lazily built cache start warm either way.
        Some(threshold) => {
            forks[0].probe(threshold);
        }
        None => {
            for &t in &LADDER {
                forks[0].probe(t);
            }
        }
    }
    let replies = Mutex::new(Vec::new());
    for (ops, threads) in segments {
        let ops: Vec<Op> = ops
            .iter()
            .copied()
            .filter(|op| writers || matches!(op, Op::Probe(_)))
            .collect();
        replay(&mut forks[..*threads], &ops, |fork, index, op| match op {
            Op::Probe(t) => {
                let report = tracer.span(spans.0, Some(index), || fork.probe(t));
                let response = Response::from_probe(&report, fork.epoch());
                replies.lock().expect("reply buffer lock").push(response);
            }
            Op::Ingest(b) => {
                tracer.span(spans.1, Some(index), || fork.ingest(&inputs.batches[b]));
            }
        });
        for h in &handles {
            h.drain();
        }
    }
    replies.into_inner().expect("reply buffer lock")
}

/// The streaming spans; returns the probe answers of the replay with the
/// workload's writers and watches, for the wire layer to encode.
fn streaming_layer(
    params: &Params,
    inputs: &Inputs,
    segments: &[(Vec<Op>, usize)],
    tracer: &Tracer,
    report: &mut Report,
) -> Vec<Response> {
    let replies = streaming_replay(
        params,
        inputs,
        segments,
        tracer,
        ("streaming.probe", "streaming.ingest"),
        true,
        true,
    );
    streaming_replay(
        params,
        inputs,
        segments,
        tracer,
        ("streaming.probe_unwatched", "streaming.ingest_unwatched"),
        true,
        false,
    );
    streaming_replay(
        params,
        inputs,
        segments,
        tracer,
        ("streaming.probe_alone", "streaming.ingest_none"),
        false,
        true,
    );
    let probe = tracer.mean_ms("streaming.probe");
    let ingest = tracer.mean_ms("streaming.ingest");
    report.set("streaming.probe_ms", probe);
    report.set("streaming.ingest_ms", ingest);
    report.set(
        "streaming.probe_wait_ms",
        probe - tracer.mean_ms("streaming.probe_alone"),
    );
    report.set(
        "watch.eval_ms",
        ingest - tracer.mean_ms("streaming.ingest_unwatched"),
    );
    replies
}

/// Wire codec costs: every planned request decoded from its frame, every
/// probe answer of the streaming replay encoded as its reply frame.
fn wire_layer(
    inputs: &Inputs,
    segments: &[(Vec<Op>, usize)],
    replies: &[Response],
    tracer: &Tracer,
    report: &mut Report,
) {
    for (ops, _) in segments {
        for (index, op) in ops.iter().enumerate() {
            let request = match *op {
                Op::Probe(threshold) => Request::Probe { threshold },
                Op::Ingest(b) => Request::Ingest {
                    records: inputs.batches[b].clone(),
                },
            };
            let frame = request.encode();
            let decoded = tracer.span("wire.decode", Some(index), || Request::decode(&frame));
            assert!(decoded.is_ok(), "a planned request failed to decode");
        }
    }
    let mut bytes = Vec::new();
    for (index, response) in replies.iter().enumerate() {
        let frame = tracer.span("wire.encode", Some(index), || response.encode());
        bytes.push(frame.len() as f64);
    }
    report.set("wire.decode_us", tracer.mean_ms("wire.decode") * 1e3);
    report.set("wire.encode_us", tracer.mean_ms("wire.encode") * 1e3);
    report.set("wire.reply_bytes", mean(&bytes).unwrap_or(0.0));
}

/// Candidate generation, the memo cache, the curve fold and sketching,
/// each called directly.
fn engine_layers(
    params: &Params,
    inputs: &Inputs,
    segments: &[(Vec<Op>, usize)],
    tracer: &Tracer,
    report: &mut Report,
) {
    let cfg = params.apss_cfg();
    let sketcher =
        Sketcher::new(family(), cfg.n_hashes, cfg.seed).with_parallelism(cfg.parallelism);
    let mut sketches = None;
    for _ in 0..3 {
        sketches = Some(tracer.span("sketch.publish", None, || {
            sketcher.sketch_all(&inputs.initial)
        }));
    }
    let initial_sketches = sketches.expect("sketched above");
    report.set("sketch.publish_ms", tracer.mean_ms("sketch.publish"));

    // Growth in the replay's ingest order: batch sketching and, for
    // banded corpora, bucket extension.
    let mut grown = initial_sketches.clone();
    let mut buckets = params.bands.map(|(b, w)| BandBuckets::new(b, w));
    let mut n = inputs.initial.len();
    let mut generate = |grown: &plasma_lsh::SketchSet, n: usize| match buckets.as_mut() {
        Some(buckets) => {
            tracer.span("candidates.gen", None, || {
                buckets.extend_and_generate(grown).len()
            });
        }
        None => {
            tracer.span("candidates.gen", None, || candidates::exhaustive(n).len());
        }
    };
    generate(&grown, n);
    for (ops, _) in segments {
        for op in ops {
            match *op {
                Op::Ingest(b) => {
                    let batch = &inputs.batches[b];
                    tracer.span("sketch.batch", None, || {
                        sketcher.extend_batch(batch, &mut grown)
                    });
                    n += batch.len();
                    if params.bands.is_some() {
                        generate(&grown, n);
                    }
                }
                Op::Probe(_) if params.bands.is_none() => generate(&grown, n),
                Op::Probe(_) => {}
            }
        }
    }
    report.set("sketch.batch_ms", tracer.mean_ms("sketch.batch"));
    report.set("candidates.gen_ms", tracer.mean_ms("candidates.gen"));

    // The memo cache alone, warmed as in set-up, under the plan's probes
    // and concurrency; each answer folded into a curve as a session does.
    let cache = SharedKnowledgeCache::new(initial_sketches);
    match params.watch {
        Some(t) => {
            cache.probe(&inputs.initial, Similarity::Cosine, t, &cfg);
        }
        None => {
            for &t in &LADDER {
                cache.probe(&inputs.initial, Similarity::Cosine, t, &cfg);
            }
        }
    }
    let grid = default_grid(0.05);
    let hits = Mutex::new(Vec::new());
    let mut curves: Vec<Option<CumulativeCurve>> = (0..CONNECTIONS).map(|_| None).collect();
    let probes: Vec<Op> = segments[0]
        .0
        .iter()
        .copied()
        .filter(|op| matches!(op, Op::Probe(_)))
        .collect();
    replay(&mut curves, &probes, |curve, index, op| {
        let Op::Probe(t) = op else { return };
        let result = tracer.span("cache.probe", Some(index), || {
            cache.probe(&inputs.initial, Similarity::Cosine, t, &cfg)
        });
        hits.lock()
            .expect("hit buffer lock")
            .push(result.stats.cache_hits as f64);
        tracer.span("cumulative.fold", Some(index), || {
            let fresh = CumulativeCurve::from_estimates(
                family(),
                cfg.bayes,
                result.estimates.iter().map(|(_, _, e)| e),
                &grid,
            );
            *curve = Some(match curve.as_ref() {
                Some(prev) => prev.merge_min_variance(&fresh),
                None => fresh,
            });
        });
    });
    let probe_ms = tracer.mean_ms("cache.probe");
    let hits = mean(&hits.into_inner().expect("hit buffer lock")).unwrap_or(0.0);
    report.set("cache.probe_ms", probe_ms);
    report.set(
        "cache.us_per_hit",
        if hits > 0.0 {
            probe_ms * 1e3 / hits
        } else {
            0.0
        },
    );
    report.set("cumulative.fold_ms", tracer.mean_ms("cumulative.fold"));
}

/// The WAL and snapshot store alone: an epoch-0 snapshot, the replay's
/// ingests logged by its writers (log under one lock, wait for the
/// covering sync outside it, as the serving layer does), then recovery.
fn durable_layer(
    params: &Params,
    inputs: &Inputs,
    segments: &[(Vec<Op>, usize)],
    scratch: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let cfg = params.apss_cfg();
    let dir = scratch.join("durable");
    let fp = CacheRegistry::fingerprint(&inputs.initial, Similarity::Cosine, &cfg);
    let store = CorpusStore::open(&dir, fp).map_err(|e| e.to_string())?;
    let sketcher =
        Sketcher::new(family(), cfg.n_hashes, cfg.seed).with_parallelism(cfg.parallelism);
    let sketches = sketcher.sketch_all(&inputs.initial);
    tracer
        .span("durable.snapshot", None, || {
            store.write_snapshot(&inputs.initial, &sketches)
        })
        .map_err(|e| e.to_string())?;
    let log = Mutex::new((0u64, inputs.initial.len()));
    let failure = Mutex::new(None);
    for (ops, threads) in segments {
        let ingests: Vec<Op> = ops
            .iter()
            .copied()
            .filter(|op| matches!(op, Op::Ingest(_)))
            .collect();
        let mut slots = vec![(); *threads];
        replay(&mut slots, &ingests, |_, index, op| {
            let Op::Ingest(b) = op else { return };
            let batch = &inputs.batches[b];
            let mark = {
                let mut log = log.lock().expect("log order lock");
                log.0 += 1;
                let (epoch, start) = (log.0, log.1);
                log.1 += batch.len();
                tracer.span("durable.log", Some(index), || {
                    store.log_ingest(epoch, start, batch)
                })
            };
            let res = mark.and_then(|m| {
                tracer.span("durable.sync_wait", Some(index), || store.wait_durable(m))
            });
            if let Err(e) = res {
                failure
                    .lock()
                    .expect("failure lock")
                    .get_or_insert(e.to_string());
            }
        });
    }
    if let Some(e) = failure.into_inner().expect("failure lock") {
        return Err(format!("durable replay: {e}"));
    }
    drop(store);
    let recovered = tracer
        .span("durable.recover", None, || {
            durable::recover(&dir, Similarity::Cosine, cfg, CacheCapacity::unbounded())
        })
        .map_err(|e| e.to_string())?;
    let expected = log.into_inner().expect("log order lock").1;
    if recovered.session.len() != expected {
        return Err(format!(
            "recovery restored {} records; the replay logged {expected}",
            recovered.session.len()
        ));
    }
    report.set("durable.log_ms", tracer.mean_ms("durable.log"));
    report.set("durable.sync_wait_ms", tracer.mean_ms("durable.sync_wait"));
    report.set("durable.snapshot_ms", tracer.mean_ms("durable.snapshot"));
    report.set("durable.recover_ms", tracer.mean_ms("durable.recover"));
    Ok(())
}
