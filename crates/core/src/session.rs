//! The interactive session driver (Fig. 2.1's workflow).
//!
//! A [`Session`] owns a dataset and (a handle to) its knowledge cache.
//! Each [`probe`](crate::streaming::StreamingSession::probe) runs
//! BayesLSH APSS at a threshold, memoizes everything, and returns a
//! [`ProbeReport`] carrying the pair count, the updated Cumulative APSS
//! Graph (with error bars), the epoch it evaluated, and timing — the
//! full feedback loop a user iterates on; the triangle/density cues
//! follow from its pairs. Probes after the first reuse sketches and pair
//! memos, so they are cheap; that asymmetry is the knowledge-caching
//! result of §2.3.3.
//!
//! There is one session type: `Session` is another name for
//! [`StreamingSession`], whose corpus may also grow by `ingest` while
//! users probe it (see [`crate::streaming`] for epochs, forks, and
//! shared caches).

use crate::apss::SimilarPair;
use crate::cumulative::CumulativeCurve;
use crate::streaming::StreamingSession;

/// An interactive PLASMA-HD session over one dataset — the name the
/// paper's probe loop uses for a [`StreamingSession`] that never ingests.
///
/// ```
/// use plasma_core::{ApssConfig, Session};
/// use plasma_data::datasets::gaussian::GaussianSpec;
///
/// let ds = GaussianSpec::new("doc", 40, 6, 2).generate(7);
/// let mut session = Session::new(&ds, ApssConfig::default());
///
/// // The first probe pays for sketching; re-probes ride the cache.
/// let first = session.probe(0.8);
/// assert!(first.sketch_seconds > 0.0);
///
/// // Re-probing the same threshold is answered entirely from the
/// // knowledge cache: zero new hash comparisons, identical pairs.
/// let again = session.probe(0.8);
/// assert_eq!(again.sketch_seconds, 0.0);
/// assert_eq!(again.hashes_compared, 0);
/// assert_eq!(again.cache_hits, again.candidates);
/// assert_eq!(again.pairs, first.pairs);
/// ```
pub type Session = StreamingSession;

/// What one probe returns to the user.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The probed threshold.
    pub threshold: f64,
    /// The corpus epoch the probe evaluated: the sketch snapshot it read
    /// covers exactly the records ingested up to this epoch (0 before any
    /// growth). Read under the same corpus read guard the probe held, so
    /// a concurrent ingest can never mislabel it.
    pub epoch: u64,
    /// Pairs meeting the threshold.
    pub pairs: Vec<SimilarPair>,
    /// Updated Cumulative APSS Graph estimate (merged across probes).
    pub curve: CumulativeCurve,
    /// Seconds spent on this probe (sketching charged to the first).
    pub seconds: f64,
    /// Sketch seconds charged to this probe (non-zero only on the first).
    pub sketch_seconds: f64,
    /// Candidates evaluated / pruned / cache hits.
    pub candidates: u64,
    /// Candidates pruned by Eq. 2.1.
    pub pruned: u64,
    /// Pair evaluations answered entirely from the knowledge cache
    /// (zero new hash comparisons for that pair).
    pub cache_hits: u64,
    /// Hashes compared during this probe.
    pub hashes_compared: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apss::ApssConfig;
    use plasma_data::datasets::gaussian::GaussianSpec;
    use plasma_data::datasets::Dataset;
    use plasma_data::similarity::pair_counts_at_thresholds;

    fn dataset() -> Dataset {
        GaussianSpec {
            separation: 4.0,
            spread: 0.6,
            ..GaussianSpec::new("session-test", 60, 8, 3)
        }
        .generate(41)
    }

    #[test]
    fn first_probe_pays_sketch_cost_later_probes_do_not() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r1 = s.probe(0.9);
        let r2 = s.probe(0.7);
        assert!(r1.sketch_seconds > 0.0);
        assert_eq!(r2.sketch_seconds, 0.0);
        assert!(r2.cache_hits > 0);
    }

    #[test]
    fn curve_estimate_tracks_ground_truth_at_probed_threshold() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r = s.probe(0.7);
        // Ground truth at the probed threshold.
        let truth = pair_counts_at_thresholds(&ds.records, ds.measure, &[0.7])[0];
        let idx = r
            .curve
            .thresholds
            .iter()
            .position(|&t| (t - 0.7).abs() < 0.026)
            .expect("grid covers 0.7");
        let est = r.curve.expected[idx];
        let rel = (est - truth as f64).abs() / (truth as f64).max(1.0);
        assert!(rel < 0.35, "estimate {est} vs truth {truth} (rel {rel})");
    }

    #[test]
    fn suggestion_points_at_knee() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        s.probe(0.8);
        let next = s.suggest_next_threshold();
        assert!(next.is_some());
        let t = next.expect("some");
        assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn cues_computed_from_pairs() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r = s.probe(0.6);
        let cue = s.triangle_cue(&r.pairs);
        // Well-separated clusters at threshold 0.6 → triangles exist.
        assert!(cue.total_triangles > 0);
        let dp = s.density_plot(&r.pairs);
        assert!(dp.max_clique >= 3);
    }

    #[test]
    fn merged_curve_tightens_with_second_probe() {
        let ds = dataset();
        let mut s = Session::new(&ds, ApssConfig::default());
        let r1 = s.probe(0.9);
        let sum_sd_before: f64 = r1.curve.std_dev.iter().sum();
        let r2 = s.probe(0.5);
        let sum_sd_after: f64 = r2.curve.std_dev.iter().sum();
        assert!(
            sum_sd_after <= sum_sd_before + 1e-9,
            "min-variance merge can only tighten: {sum_sd_before} → {sum_sd_after}"
        );
    }
}
