//! Request plans: fixed lists of operations, pure functions of the seed.
//!
//! A plan names every request a phase sends, in order. The open-loop
//! phase fires request `k` at `k × interval`; the closed-loop phase sends
//! the same kind of plan back to back. Because the plan is fixed, both
//! commits under comparison do the same work, and in `live_ingest` the
//! corpus grows by the same amount on both.

use plasma_data::rng::{sample_without_replacement, substream};
use plasma_data::zipf::Zipf;

/// The probe-threshold ladder an analyst walks (rank 0 most popular).
pub const LADDER: [f64; 9] = [0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5];

/// Zipf exponent of the threshold popularity over [`LADDER`].
pub const LADDER_ZIPF_S: f64 = 1.1;

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Probe the attached corpus at this threshold.
    Probe(f64),
    /// Ingest the pre-generated batch with this index (batches are
    /// numbered in plan order).
    Ingest(usize),
}

/// Substream ids, so each phase's plan and the corpus draw from
/// independent random streams of the one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// The open-loop phase's plan.
    Open = 1,
    /// The closed-loop phase's plan.
    Closed = 2,
}

/// A plan of `requests` operations of which exactly `ingests` are
/// ingests, at positions drawn from the seed; the rest are Zipf ladder
/// probes. `ingests == 0` gives a probe-only plan.
pub fn plan(seed: u64, stream: Stream, requests: usize, ingests: usize) -> Vec<Op> {
    assert!(
        ingests <= requests,
        "a plan cannot hold more ingests than requests"
    );
    let mut rng = substream(seed, 0x5eed_0000 + stream as u64);
    let mut is_ingest = vec![false; requests];
    for pos in sample_without_replacement(&mut rng, requests, ingests) {
        is_ingest[pos as usize] = true;
    }
    let ladder = Zipf::new(LADDER.len(), LADDER_ZIPF_S);
    let mut next_batch = 0;
    is_ingest
        .into_iter()
        .map(|ingest| {
            if ingest {
                next_batch += 1;
                Op::Ingest(next_batch - 1)
            } else {
                Op::Probe(LADDER[ladder.sample(&mut rng)])
            }
        })
        .collect()
}

/// Probes and ingests in a plan.
pub fn counts(ops: &[Op]) -> (usize, usize) {
    let ingests = ops.iter().filter(|op| matches!(op, Op::Ingest(_))).count();
    (ops.len() - ingests, ingests)
}
