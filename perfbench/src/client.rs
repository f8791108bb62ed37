//! One client connection, in-process (through the handler) or over TCP
//! loopback (through the wire), with replies reduced to what the answer
//! checks need.

use std::time::{Duration, Instant};

use plasma_server::json::Json;
use plasma_server::{InProcClient, ProbeClient, Request, Response};

/// A probe pair `(i, j, similarity)` as the reply carried it.
pub type Pair = (u32, u32, f64);

/// The parts of a reply the benchmark checks.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A probe answer.
    Probe {
        /// Corpus epoch the probe saw.
        epoch: u64,
        /// Pairs at or above the threshold, in reply order.
        pairs: Vec<Pair>,
        /// Candidates evaluated.
        candidates: u64,
        /// Candidates pruned.
        pruned: u64,
        /// Candidates answered from the memo alone.
        cache_hits: u64,
        /// Hashes compared.
        hashes: u64,
    },
    /// An ingest receipt.
    Ingested {
        /// Corpus epoch after the ingest.
        epoch: u64,
        /// Corpus size after the ingest.
        total_records: usize,
    },
    /// A publish receipt.
    Published {
        /// The corpus fingerprint.
        fingerprint: String,
    },
    /// `memory_stats`.
    Memory {
        /// Accounted memo bytes.
        memo_bytes: u64,
        /// Lifetime records bucketed for banded candidates.
        bucket_build_records: u64,
    },
    /// Any other successful reply.
    Ok,
}

/// One client connection.
pub enum Conn {
    /// Through `Connection::handle`, no wire.
    InProc(Box<InProcClient>),
    /// Through the TCP server and the JSON-lines wire.
    Tcp(ProbeClient),
}

impl Conn {
    /// Sends one request and waits for its reply. A structured error
    /// reply is an `Err`.
    pub fn call(&mut self, request: Request) -> Result<Reply, String> {
        match self {
            Conn::InProc(c) => from_response(c.request(request)),
            Conn::Tcp(c) => {
                let frame = c.request(&request).map_err(|e| format!("io: {e}"))?;
                from_frame(&frame.json).map_err(|e| format!("{e}: {}", frame.raw))
            }
        }
    }

    /// Watch-delta frames received so far and not yet counted. In-process
    /// connections first pull deltas other connections' ingests queued.
    pub fn take_watch_deltas(&mut self) -> u64 {
        match self {
            Conn::InProc(c) => {
                c.pump_watch_frames();
                c.take_events()
                    .iter()
                    .filter(|e| matches!(e, Response::WatchDeltaEvent { .. }))
                    .count() as u64
            }
            Conn::Tcp(c) => c
                .take_events()
                .iter()
                .filter(|f| f.frame_type() == "watch_delta")
                .count() as u64,
        }
    }

    /// Counts delta frames until `expected` have arrived in total (with
    /// `seen` already counted) or `timeout` passes; TCP pushes may still
    /// be in flight when the last reply lands.
    pub fn await_watch_deltas(&mut self, mut seen: u64, expected: u64, timeout: Duration) -> u64 {
        let started = Instant::now();
        seen += self.take_watch_deltas();
        while seen < expected && started.elapsed() < timeout {
            match self {
                Conn::InProc(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    seen += self.take_watch_deltas();
                }
                Conn::Tcp(c) => match c.poll_event(Duration::from_millis(50)) {
                    Ok(Some(frame)) if frame.frame_type() == "watch_delta" => seen += 1,
                    Ok(_) => {}
                    Err(_) => break,
                },
            }
        }
        seen
    }
}

fn from_response(response: Response) -> Result<Reply, String> {
    Ok(match response {
        Response::ProbeResult {
            epoch,
            pairs,
            candidates,
            pruned,
            cache_hits,
            hashes_compared,
            ..
        } => Reply::Probe {
            epoch,
            pairs: pairs.iter().map(|p| (p.i, p.j, p.similarity)).collect(),
            candidates,
            pruned,
            cache_hits,
            hashes: hashes_compared,
        },
        Response::Ingested {
            epoch,
            total_records,
            ..
        } => Reply::Ingested {
            epoch,
            total_records,
        },
        Response::Published { fingerprint, .. } => Reply::Published { fingerprint },
        Response::MemoryStatsResult {
            memo_bytes,
            bucket_build_records,
            ..
        } => Reply::Memory {
            memo_bytes: memo_bytes as u64,
            bucket_build_records,
        },
        Response::Error { code, message } => return Err(format!("{code:?}: {message}")),
        _ => Reply::Ok,
    })
}

fn field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply lacks an integer '{key}'"))
}

fn from_frame(json: &Json) -> Result<Reply, String> {
    let kind = json.get("type").and_then(Json::as_str).unwrap_or("");
    Ok(match kind {
        "probe_result" => {
            let rows = json
                .get("pairs")
                .and_then(Json::as_arr)
                .ok_or("probe reply lacks 'pairs'")?;
            let pairs = rows
                .iter()
                .map(|row| match row.as_arr() {
                    Some([i, j, s]) => match (i.as_u64(), j.as_u64(), s.as_f64()) {
                        (Some(i), Some(j), Some(s)) => Ok((i as u32, j as u32, s)),
                        _ => Err("malformed pair".to_string()),
                    },
                    _ => Err("malformed pair".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Reply::Probe {
                epoch: field(json, "epoch")?,
                pairs,
                candidates: field(json, "candidates")?,
                pruned: field(json, "pruned")?,
                cache_hits: field(json, "cache_hits")?,
                hashes: field(json, "hashes_compared")?,
            }
        }
        "ingested" => Reply::Ingested {
            epoch: field(json, "epoch")?,
            total_records: field(json, "total_records")? as usize,
        },
        "published" => Reply::Published {
            fingerprint: json
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("publish reply lacks a fingerprint")?
                .to_string(),
        },
        "memory_stats" => Reply::Memory {
            memo_bytes: field(json, "memo_bytes")?,
            bucket_build_records: field(json, "bucket_build_records")?,
        },
        "error" => {
            return Err(format!(
                "error {}",
                json.get("code").and_then(Json::as_str).unwrap_or("?")
            ))
        }
        _ => Reply::Ok,
    })
}
