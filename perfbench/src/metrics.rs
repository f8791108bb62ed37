//! The metric catalogue and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of names and
//! units the benchmark prints; `BENCHMARK.json` at the repository root
//! must name exactly the same metrics (a test checks it), and
//! [`Report::to_json`] refuses a report that is missing one or adds one.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by each untraced
/// run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("capacity_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
    ("restart_s", "s"),
];

/// `(name, unit)` of every per-layer metric, printed by each traced run.
/// Names are `<layer>.<quantity>`; the layer is the module whose public
/// calls the span wraps.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("handler.probe_ms", "ms"),
    ("handler.ingest_ms", "ms"),
    ("handler.ingest_p90_ms", "ms"),
    ("handler.self_ms", "ms"),
    ("streaming.probe_ms", "ms"),
    ("streaming.ingest_ms", "ms"),
    ("streaming.probe_wait_ms", "ms"),
    ("candidates.per_probe", "count"),
    ("candidates.gen_ms", "ms"),
    ("candidates.bucket_build_records", "count"),
    ("cache.probe_ms", "ms"),
    ("cache.us_per_hit", "us"),
    ("cache.hit_share", "ratio"),
    ("cache.hashes_per_probe", "count"),
    ("cache.memo_bytes", "bytes"),
    ("bayes.prune_share", "ratio"),
    ("cumulative.fold_ms", "ms"),
    ("sketch.publish_ms", "ms"),
    ("sketch.batch_ms", "ms"),
    ("durable.log_ms", "ms"),
    ("durable.sync_wait_ms", "ms"),
    ("durable.syncs_per_ack", "ratio"),
    ("durable.snapshot_ms", "ms"),
    ("durable.recover_ms", "ms"),
    ("watch.eval_ms", "ms"),
    ("watch.deltas_per_ingest", "count"),
    ("client.probe_p50_ms", "ms"),
    ("client.probe_p90_ms", "ms"),
    ("client.probe_p95_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("loadgen.lag_p50_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
];

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Every reply matched its reference answer.
    pub correct: bool,
    /// Requests sent across the run's timed phases.
    pub attempted: u64,
    /// Requests that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line for `catalogue` ([`END_TO_END`] or [`PER_LAYER`]).
    /// Refuses a report whose metric names differ from the catalogue or
    /// whose values are not finite.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let extra: Vec<_> = self
            .metrics
            .keys()
            .filter(|k| !catalogue.iter().any(|(name, _)| name == *k))
            .collect();
        if !extra.is_empty() {
            return Err(format!("metrics outside the catalogue: {extra:?}"));
        }
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}
