//! Reference answers, computed outside the timed phases.
//!
//! The corpus a reply saw is fixed by its epoch: the published records
//! followed by the ingested batches in the order the receipts' epochs
//! put them. [`Reference`] answers `(epoch, threshold)` by running the
//! cold batch engine (`apss_with_sketches`, no memo, no serving layer)
//! once per threshold over the phase's final corpus and keeping the pairs
//! whose records both lie in the epoch's prefix. Pair evaluation reads
//! only the two records' sketches, so that subset is the cold answer of
//! the prefix; [`Reference::spot_check`] confirms it per phase against a
//! literal cold `Session::from_records` probe of the prefix itself.

use std::collections::HashMap;

use plasma_core::apss::{apss_with_sketches, build_sketches, ApssConfig};
use plasma_core::session::Session;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_lsh::sketch::SketchSet;

use crate::client::{Pair, Reply};
use crate::phase::Done;
use crate::plan::Op;

/// The epoch history of one phase, rebuilt from its ingest receipts.
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    /// Batch index adopted at epoch `e + 1`.
    pub order: Vec<usize>,
    /// Corpus size at epoch `e` (index 0 is the published corpus).
    pub sizes: Vec<usize>,
}

impl History {
    /// Checks the receipts of `done` and rebuilds the epoch order. Each
    /// connection's receipts must carry strictly increasing epochs, the
    /// epochs together must be exactly `1..=ingests`, each receipt's
    /// `total_records` must match the corpus its epoch implies, and the
    /// last must be the planned final size.
    pub fn from_receipts(
        done: &[Done],
        initial: usize,
        batches: &[Vec<SparseVector>],
    ) -> Result<History, String> {
        let mut receipts = Vec::new();
        let mut last_epoch: HashMap<usize, u64> = HashMap::new();
        for d in done {
            if let (
                Op::Ingest(batch),
                Ok(Reply::Ingested {
                    epoch,
                    total_records,
                }),
            ) = (d.op, &d.reply)
            {
                let conn = d.conn;
                if let Some(prev) = last_epoch.insert(conn, *epoch) {
                    if *epoch <= prev {
                        return Err(format!(
                            "connection {conn} saw epoch {epoch} after epoch {prev}"
                        ));
                    }
                }
                receipts.push((*epoch, *total_records, batch));
            }
        }
        receipts.sort_by_key(|r| r.0);
        let mut sizes = vec![initial];
        let mut order = Vec::new();
        for (k, &(epoch, total, batch)) in receipts.iter().enumerate() {
            if epoch != k as u64 + 1 {
                return Err(format!("ingest receipts skip or repeat epoch {}", k + 1));
            }
            let size = sizes[k] + batches[batch].len();
            if total != size {
                return Err(format!(
                    "epoch {epoch} reported {total} records, expected {size}"
                ));
            }
            sizes.push(size);
            order.push(batch);
        }
        let planned: usize = initial
            + done
                .iter()
                .filter_map(|d| match d.op {
                    Op::Ingest(b) => Some(batches[b].len()),
                    Op::Probe(_) => None,
                })
                .sum::<usize>();
        let last = *sizes.last().expect("sizes starts non-empty");
        if last != planned {
            return Err(format!(
                "the corpus ended at {last} records; the plan grows it to {planned}"
            ));
        }
        Ok(History { order, sizes })
    }

    /// The phase's final corpus, in epoch order.
    pub fn corpus(
        &self,
        initial: &[SparseVector],
        batches: &[Vec<SparseVector>],
    ) -> Vec<SparseVector> {
        let mut records = initial.to_vec();
        for &b in &self.order {
            records.extend_from_slice(&batches[b]);
        }
        records
    }
}

/// Cold reference answers for one phase.
pub struct Reference {
    records: Vec<SparseVector>,
    sizes: Vec<usize>,
    cfg: ApssConfig,
    sketches: SketchSet,
    full: HashMap<u64, Vec<Pair>>,
    /// Deliberately wrong answers, for the checker's own negative test.
    corrupt: bool,
}

impl Reference {
    /// References over `records` (the final corpus) whose epoch `e`
    /// covers the first `sizes[e]` records.
    pub fn new(
        records: Vec<SparseVector>,
        sizes: Vec<usize>,
        cfg: ApssConfig,
        corrupt: bool,
    ) -> Self {
        let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
        Reference {
            records,
            sizes,
            cfg,
            sketches,
            full: HashMap::new(),
            corrupt,
        }
    }

    /// The cold answer at `(epoch, threshold)`.
    pub fn expected(&mut self, epoch: u64, threshold: f64) -> Result<Vec<Pair>, String> {
        let n = *self
            .sizes
            .get(epoch as usize)
            .ok_or_else(|| format!("no ingest receipt produced epoch {epoch}"))?
            as u32;
        let (records, sketches, cfg) = (&self.records, &self.sketches, &self.cfg);
        let full = self.full.entry(threshold.to_bits()).or_insert_with(|| {
            let mut pairs: Vec<Pair> =
                apss_with_sketches(records, Similarity::Cosine, sketches, threshold, cfg)
                    .pairs
                    .iter()
                    .map(|p| (p.i, p.j, p.similarity))
                    .collect();
            pairs.sort_by_key(|p| (p.0, p.1));
            pairs
        });
        let mut pairs: Vec<Pair> = full.iter().copied().filter(|p| p.1 < n).collect();
        if self.corrupt {
            match pairs.pop() {
                Some(_) => {}
                None => pairs.push((0, 1, 1.0)),
            }
        }
        Ok(pairs)
    }

    /// Compares a probe reply with the reference at its epoch.
    pub fn check_probe(&mut self, threshold: f64, reply: &Reply) -> Result<(), String> {
        let Reply::Probe { epoch, pairs, .. } = reply else {
            return Err("a probe was answered with another reply type".into());
        };
        let expected = self.expected(*epoch, threshold)?;
        if *pairs != expected {
            return Err(format!(
                "probe at {threshold} (epoch {epoch}) returned {} pairs; the cold reference has {}",
                pairs.len(),
                expected.len()
            ));
        }
        Ok(())
    }

    /// Confirms the prefix shortcut at `epoch`: a literal cold
    /// `Session::from_records` over the epoch's prefix must give the same
    /// pairs at every threshold in `thresholds`.
    pub fn spot_check(&mut self, epoch: u64, thresholds: &[f64]) -> Result<(), String> {
        let n = self.sizes[epoch as usize];
        let mut session =
            Session::from_records(self.records[..n].to_vec(), Similarity::Cosine, self.cfg);
        for &t in thresholds {
            let mut cold: Vec<Pair> = session
                .probe(t)
                .pairs
                .iter()
                .map(|p| (p.i, p.j, p.similarity))
                .collect();
            cold.sort_by_key(|p| (p.0, p.1));
            if self.expected(epoch, t)? != cold {
                return Err(format!(
                    "cold session over the epoch-{epoch} prefix disagrees with the reference at {t}"
                ));
            }
        }
        Ok(())
    }
}
