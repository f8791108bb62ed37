//! The two workloads: their inputs, set-up, phases, answer checks and
//! restart.
//!
//! * `reprobe` — the paper's interactive loop on a warm cache. One
//!   ~400-record corpus with the default publish configuration
//!   (exhaustive candidates, BayesLSH-Lite), warmed by one probe per
//!   ladder rung. One in-process connection attaches streaming, the other
//!   pinned. The timed phases send only ladder probes, every one a full
//!   memo hit. After them the streaming connection appends single
//!   records one at a time (the analyst adding documents to a warm
//!   corpus), which gives the ingest latencies and the WAL that
//!   `restart_s` replays.
//! * `live_ingest` — a durable corpus growing while analysts probe and
//!   watch. A TCP server in this process over a fresh data directory
//!   (fsync on); ~1000 records published with 8×8 banded candidates;
//!   both connections attach streaming and watch at 0.7. The timed phases
//!   mix 70% ladder probes with 30% ingests of 5-record batches.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plasma_core::apss::ApssConfig;
use plasma_data::datasets::corpus::CorpusSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_server::{InProcClient, ProbeClient, ProbeServer, ProbeService, PublishCfg, Request};

use crate::check::{History, Reference};
use crate::client::{Conn, Reply};
use crate::phase::{Done, PhaseOut};
use crate::plan::{self, Op, Stream, LADDER};
use crate::stats::median;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm-cache re-probes, no writer during the timed phases.
    Reprobe,
    /// Probes, ingests and watches on a growing durable corpus.
    LiveIngest,
}

/// Everything that shapes a workload. The open-loop rates are committed
/// here, calibrated once against `capacity_rps` on the host described in
/// `perfbench/README.md`; they are never recomputed per run, so every
/// commit faces the same offered load.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Records published at set-up.
    pub initial_records: usize,
    /// Records per ingest batch.
    pub batch_records: usize,
    /// Banded candidate generation `(bands, width)`; `None` = exhaustive.
    pub bands: Option<(usize, usize)>,
    /// Serve over TCP loopback (else through the handler in-process).
    pub tcp: bool,
    /// The second connection attaches pinned (else streaming).
    pub second_pinned: bool,
    /// Each connection registers a watch at this threshold.
    pub watch: Option<f64>,
    /// Committed open-loop offered rate, requests per second.
    pub rate_hz: f64,
    /// Share of each phase's requests that are ingests.
    pub ingest_share: f64,
    /// Requests in the closed-loop phase.
    pub closed_requests: usize,
    /// Serial ingests after the timed phases (0 = none).
    pub epilogue_ingests: usize,
}

/// Client connections (and client threads) every workload uses.
pub const CONNECTIONS: usize = 2;

/// Threshold of the probe that checks a restarted corpus.
pub const CHECK_THRESHOLD: f64 = 0.7;

/// Restarts per run; `restart_s` is their median.
pub const RESTARTS: usize = 9;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Reprobe, Workload::LiveIngest];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reprobe => "reprobe",
            Workload::LiveIngest => "live_ingest",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape.
    pub fn params(self) -> Params {
        match self {
            Workload::Reprobe => Params {
                initial_records: 400,
                batch_records: 1,
                bands: None,
                tcp: false,
                second_pinned: true,
                watch: None,
                rate_hz: 12.0,
                ingest_share: 0.0,
                closed_requests: 200,
                epilogue_ingests: 200,
            },
            Workload::LiveIngest => Params {
                initial_records: 1000,
                batch_records: 5,
                bands: Some((8, 8)),
                tcp: true,
                second_pinned: false,
                watch: Some(0.7),
                rate_hz: 25.0,
                ingest_share: 0.3,
                closed_requests: 400,
                epilogue_ingests: 0,
            },
        }
    }
}

impl Params {
    /// The publish configuration every set-up sends.
    pub fn publish_cfg(&self) -> PublishCfg {
        PublishCfg {
            bands: self.bands,
            ..PublishCfg::default()
        }
    }

    /// The engine configuration that publish configuration resolves to.
    pub fn apss_cfg(&self) -> ApssConfig {
        self.publish_cfg().to_apss_config()
    }

    /// The open-loop plan for a phase of `seconds`.
    pub fn open_plan(&self, seed: u64, seconds: u64) -> Vec<Op> {
        let requests = (self.rate_hz * seconds as f64).round() as usize;
        let ingests = (requests as f64 * self.ingest_share).round() as usize;
        plan::plan(seed, Stream::Open, requests, ingests)
    }

    /// The closed-loop plan.
    pub fn closed_plan(&self, seed: u64) -> Vec<Op> {
        let ingests = (self.closed_requests as f64 * self.ingest_share).round() as usize;
        plan::plan(seed, Stream::Closed, self.closed_requests, ingests)
    }
}

/// The generated corpus: what set-up publishes and the batches ingests
/// send, all a pure function of the seed.
pub struct Inputs {
    /// Records published at set-up.
    pub initial: Vec<SparseVector>,
    /// Ingest batches, indexed by [`Op::Ingest`].
    pub batches: Vec<Vec<SparseVector>>,
}

impl Inputs {
    /// An rcv1-like TF-IDF corpus with enough batches for `batches`.
    pub fn generate(params: &Params, seed: u64, batches: usize) -> Inputs {
        let total = params.initial_records + batches * params.batch_records;
        let records = CorpusSpec::new("rcv1-like", total, 20_000, 20)
            .generate(seed)
            .records;
        let (initial, rest) = records.split_at(params.initial_records);
        Inputs {
            initial: initial.to_vec(),
            batches: rest
                .chunks(params.batch_records)
                .map(<[SparseVector]>::to_vec)
                .collect(),
        }
    }
}

/// A set-up serving stack: the service over its data directory, the TCP
/// server when the workload uses one, and the attached connections.
pub struct Stack {
    service: Option<Arc<ProbeService>>,
    server: Option<ProbeServer>,
    /// The attached client connections.
    pub conns: Vec<Conn>,
    /// The published corpus's fingerprint.
    pub fingerprint: String,
    /// Watch-delta frames already counted.
    pub deltas_seen: u64,
}

impl Stack {
    /// Builds the stack over an empty `dir` and returns it with the
    /// set-up seconds: from an empty service until the corpus is
    /// published, sessions attached, and warm-up probes or watch
    /// registrations done.
    pub fn setup(params: &Params, inputs: &Inputs, dir: &Path) -> Result<(Stack, f64), String> {
        let started = Instant::now();
        let (service, reports) = ProbeService::with_data_dir(dir)
            .map_err(|e| format!("cannot open the data directory: {e}"))?;
        if !reports.is_empty() {
            return Err("the set-up data directory was not empty".into());
        }
        let service = Arc::new(service);
        let mut stack = Stack {
            service: Some(service.clone()),
            server: None,
            conns: Vec::new(),
            fingerprint: String::new(),
            deltas_seen: 0,
        };
        if params.tcp {
            let server = ProbeServer::start(service, "127.0.0.1:0")
                .map_err(|e| format!("cannot bind the loopback server: {e}"))?;
            let addr = server.local_addr();
            stack.server = Some(server);
            for _ in 0..CONNECTIONS {
                let client = ProbeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                stack.conns.push(Conn::Tcp(client));
            }
        } else {
            for _ in 0..CONNECTIONS {
                stack
                    .conns
                    .push(Conn::InProc(Box::new(InProcClient::new(service.clone()))));
            }
        }
        stack.fingerprint = match stack.conns[0].call(Request::Publish {
            name: "perfbench".into(),
            measure: Similarity::Cosine,
            records: inputs.initial.clone(),
            cfg: params.publish_cfg(),
        })? {
            Reply::Published { fingerprint } => fingerprint,
            other => return Err(format!("publish answered {other:?}")),
        };
        for (k, conn) in stack.conns.iter_mut().enumerate() {
            conn.call(Request::Attach {
                fingerprint: stack.fingerprint.clone(),
                pinned: params.second_pinned && k == 1,
                declared_measure: None,
            })?;
        }
        match params.watch {
            Some(threshold) => {
                for conn in &mut stack.conns {
                    conn.call(Request::Watch { threshold })?;
                }
            }
            None => {
                for &threshold in &LADDER {
                    stack.conns[0].call(Request::Probe { threshold })?;
                }
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        stack.deltas_seen = stack.conns.iter_mut().map(Conn::take_watch_deltas).sum();
        Ok((stack, seconds))
    }

    /// Counts every watch delta still in flight, up to `expected`.
    pub fn settle_watch_deltas(&mut self, expected: u64) -> u64 {
        let started = Instant::now();
        let mut seen = self.deltas_seen;
        loop {
            seen += self
                .conns
                .iter_mut()
                .map(Conn::take_watch_deltas)
                .sum::<u64>();
            if seen >= expected || started.elapsed() > Duration::from_secs(5) {
                break;
            }
            for conn in &mut self.conns {
                seen = conn.await_watch_deltas(seen, expected, Duration::from_millis(20));
            }
        }
        self.deltas_seen = seen;
        seen
    }

    /// The service, for counters the wire does not carry.
    pub fn service(&self) -> &Arc<ProbeService> {
        self.service.as_ref().expect("the stack is live")
    }

    /// Closes the connections, drains and stops the server, and drops
    /// the service, so the data directory is quiescent.
    pub fn shutdown(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
        self.service = None;
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Recovers the corpus in `dir` into a fresh service and probes it once:
/// the seconds until the recovered corpus answered, and the answer.
pub fn restart(dir: &Path, fingerprint: &str) -> Result<(f64, Reply), String> {
    let started = Instant::now();
    let (service, reports) = ProbeService::with_data_dir(dir)
        .map_err(|e| format!("cannot reopen the data directory: {e}"))?;
    for report in &reports {
        if let Err(e) = &report.outcome {
            return Err(format!("recovery refused {}: {e}", report.fingerprint));
        }
    }
    let mut conn = Conn::InProc(Box::new(InProcClient::new(Arc::new(service))));
    conn.call(Request::Attach {
        fingerprint: fingerprint.to_string(),
        pinned: false,
        declared_measure: None,
    })?;
    let reply = conn.call(Request::Probe {
        threshold: CHECK_THRESHOLD,
    })?;
    Ok((started.elapsed().as_secs_f64(), reply))
}

/// Requests sent and answer checks failed, across a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored or answered wrongly.
    pub failed: u64,
    /// What went wrong, first few kept.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records a problem that is not tied to one request.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    fn request_failed(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }
}

/// Checks one phase: every reply against the cold reference at its
/// epoch, the ingest receipts, and (with watches) the delta count.
/// Returns the phase's reference for the restart check.
pub fn check_phase(
    params: &Params,
    inputs: &Inputs,
    out: &PhaseOut,
    stack: &mut Stack,
    wrong_reference: bool,
    tally: &mut Tally,
) -> Option<Reference> {
    let started = Instant::now();
    tally.attempted += out.done.len() as u64;
    for d in &out.done {
        if let Err(e) = &d.reply {
            tally.request_failed(format!("request {} failed: {e}", d.index));
        }
    }
    let history = match History::from_receipts(&out.done, params.initial_records, &inputs.batches) {
        Ok(h) => h,
        Err(e) => {
            tally.problem(e);
            return None;
        }
    };
    let records = history.corpus(&inputs.initial, &inputs.batches);
    let mut reference = Reference::new(
        records,
        history.sizes.clone(),
        params.apss_cfg(),
        wrong_reference,
    );
    let probes: Vec<&Done> = out
        .done
        .iter()
        .filter(|d| matches!(d.op, Op::Probe(_)) && d.reply.is_ok())
        .collect();
    for d in &probes {
        let (Op::Probe(t), Ok(reply)) = (d.op, &d.reply) else {
            continue;
        };
        if let Err(e) = reference.check_probe(t, reply) {
            tally.request_failed(e);
        }
    }
    // One literal cold session per phase, at the epoch of the middle
    // probe, over every threshold probed at that epoch.
    if let Some(mid) = probes.get(probes.len() / 2) {
        if let Ok(Reply::Probe { epoch, .. }) = &mid.reply {
            let mut thresholds: Vec<f64> = probes
                .iter()
                .filter_map(|d| match (&d.op, &d.reply) {
                    (Op::Probe(t), Ok(Reply::Probe { epoch: e, .. })) if e == epoch => Some(*t),
                    _ => None,
                })
                .collect();
            thresholds.sort_by(f64::total_cmp);
            thresholds.dedup();
            if let Err(e) = reference.spot_check(*epoch, &thresholds) {
                tally.problem(e);
            }
        }
    }
    if params.watch.is_some() {
        let ingests = history.order.len() as u64;
        let expected = stack.conns.len() as u64 * (1 + ingests);
        stack.deltas_seen += out.watch_deltas;
        let seen = stack.settle_watch_deltas(expected);
        if seen != expected {
            tally.problem(format!(
                "{seen} watch deltas arrived; {} watches over {ingests} ingests owe {expected}",
                stack.conns.len()
            ));
        }
    }
    eprintln!(
        "perfbench: checked {} replies in {:.2} s",
        out.done.len(),
        started.elapsed().as_secs_f64()
    );
    Some(reference)
}

/// Restarts `dir` [`RESTARTS`] times, checks each recovered answer
/// against the reference at the final epoch, and returns the median
/// seconds.
pub fn timed_restarts(
    dir: &Path,
    fingerprint: &str,
    reference: Option<&mut Reference>,
    final_epoch: u64,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut reference = reference;
    let mut seconds = Vec::new();
    for _ in 0..RESTARTS {
        let (secs, reply) = restart(dir, fingerprint)?;
        tally.attempted += 1;
        seconds.push(secs);
        let Reply::Probe { epoch, .. } = &reply else {
            tally.request_failed("the restarted corpus did not answer the probe".into());
            continue;
        };
        if *epoch != final_epoch {
            tally.request_failed(format!(
                "the restarted corpus answered at epoch {epoch}, not {final_epoch}"
            ));
            continue;
        }
        match reference.as_deref_mut() {
            Some(reference) => {
                if let Err(e) = reference.check_probe(CHECK_THRESHOLD, &reply) {
                    tally.request_failed(format!("after restart: {e}"));
                }
            }
            None => tally.problem("no reference answer for the restart check".into()),
        }
    }
    Ok(median(&seconds).expect("at least one restart"))
}

/// Latencies (ms) of the successful requests of one kind.
pub fn latencies(done: &[Done], ingest: bool) -> Vec<f64> {
    done.iter()
        .filter(|d| matches!(d.op, Op::Ingest(_)) == ingest && d.reply.is_ok())
        .map(Done::latency_ms)
        .collect()
}

/// The peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
