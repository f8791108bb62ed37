//! Work counters of the row-major knowledge cache: a fully warm probe
//! locks each memo row's stripe once, publishes nothing, and allocates
//! per probe rather than per candidate; a hot row concentrated in one
//! stripe stays within a byte cap without changing any output.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plasma_core::apss::{build_sketches, ApssConfig, CandidateStrategy};
use plasma_core::cache::{CacheCapacity, EvictionPolicy, STRIPES};
use plasma_core::{ApssResult, SharedKnowledgeCache};
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;

/// Counts allocations (including reallocations) made by the current
/// thread, so tests running in parallel in this binary do not see each
/// other's work.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no heap memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's layout contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` was allocated by `System` (every allocation in
        // this binary goes through it) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn dataset(n: usize, seed: u64) -> Vec<SparseVector> {
    GaussianSpec {
        separation: 4.0,
        spread: 0.6,
        ..GaussianSpec::new("warm", n, 8, 3)
    }
    .generate(seed)
    .records
}

/// An exhaustive single-worker cache over `n` records after one cold
/// probe at 0.7 (returned), so re-probing 0.7 is answered entirely from
/// the memos.
fn warmed(
    n: usize,
) -> (
    Vec<SparseVector>,
    ApssConfig,
    SharedKnowledgeCache,
    ApssResult,
) {
    let records = dataset(n, 5);
    let cfg = ApssConfig {
        parallelism: Some(1),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::new(sketches);
    let cold = cache.probe(&records, Similarity::Cosine, 0.7, &cfg);
    assert_eq!(cold.stats.candidates as usize, n * (n - 1) / 2);
    assert_eq!(cold.stats.cache_hits, 0);
    (records, cfg, cache, cold)
}

#[test]
fn pure_hit_probe_locks_each_row_once_and_publishes_nothing() {
    let n = 120;
    let (records, cfg, cache, cold) = warmed(n);
    // Cold: every row run reads once and publishes once. Row n-1 has no
    // candidate, so there are n-1 runs.
    let rows = n as u64 - 1;
    assert_eq!(cache.memory_stats().stripe_locks, 2 * rows);

    let before = cache.memory_stats();
    let warm = cache.probe(&records, Similarity::Cosine, 0.7, &cfg);
    let after = cache.memory_stats();
    assert_eq!(warm.stats.hashes_compared, 0);
    assert_eq!(warm.stats.cache_hits, warm.stats.candidates);
    assert_eq!(warm.pairs, cold.pairs);
    assert_eq!(
        after.stripe_locks - before.stripe_locks,
        rows,
        "one stripe lock per row run, none per pair and none to publish"
    );
    // Nothing was published: the memo pool is exactly as it was.
    assert_eq!(after.entries, before.entries);
    assert_eq!(after.memo_bytes, before.memo_bytes);
    assert_eq!(after.peak_memo_bytes, before.peak_memo_bytes);
    assert_eq!(after.cache_hits - before.cache_hits, warm.stats.candidates);
}

#[test]
fn pure_hit_probe_allocates_per_probe_not_per_candidate() {
    let n = 200;
    let (records, cfg, cache, _) = warmed(n);

    let start = allocations();
    let warm = cache.probe(&records, Similarity::Cosine, 0.7, &cfg);
    let warm_allocations = allocations() - start;
    assert_eq!(warm.stats.cache_hits, warm.stats.candidates);
    assert!(
        warm_allocations < n as u64,
        "a pure-hit probe over {} candidates allocated {warm_allocations} times",
        warm.stats.candidates
    );

    // The counter does see per-pair work: a cold probe builds a profile
    // per candidate.
    let (sketches, _) = build_sketches(&records, Similarity::Cosine, &cfg);
    let cold_cache = SharedKnowledgeCache::new(sketches);
    let start = allocations();
    let cold = cold_cache.probe(&records, Similarity::Cosine, 0.7, &cfg);
    assert!(allocations() - start >= cold.stats.candidates);
}

/// A banded corpus whose record 0 is copied to every third slot: the
/// copies share every band bucket, so row 0 — one stripe — holds a memo
/// for each of them.
fn hot_row_corpus() -> Vec<SparseVector> {
    let base = dataset(150, 11);
    let hub = base[0].clone();
    base.into_iter()
        .enumerate()
        .map(|(k, r)| if k % 3 == 0 { hub.clone() } else { r })
        .collect()
}

fn run(
    records: &[SparseVector],
    capacity: CacheCapacity,
    threads: usize,
) -> (Vec<ApssResult>, SharedKnowledgeCache) {
    let cfg = ApssConfig {
        candidates: CandidateStrategy::Banded { bands: 8, width: 8 },
        parallelism: Some(threads),
        ..ApssConfig::default()
    };
    let (sketches, _) = build_sketches(records, Similarity::Cosine, &cfg);
    let cache = SharedKnowledgeCache::with_capacity(sketches, capacity);
    let results = [0.9, 0.6, 0.75, 0.6, 0.5]
        .iter()
        .map(|&t| {
            let r = cache.probe(records, Similarity::Cosine, t, &cfg);
            if let Some(cap) = capacity.max_bytes() {
                let bytes = cache.memo_bytes();
                assert!(bytes <= cap, "{bytes} memo bytes over the {cap}-byte cap");
            }
            r
        })
        .collect();
    (results, cache)
}

fn assert_same_outputs(a: &ApssResult, b: &ApssResult, label: &str) {
    assert_eq!(a.pairs, b.pairs, "{label}: pairs");
    assert_eq!(a.estimates.len(), b.estimates.len(), "{label}");
    for (x, y) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!((x.0, x.1), (y.0, y.1), "{label}: estimate ids");
        assert_eq!(x.2.decision, y.2.decision, "{label}: decision");
        assert_eq!(x.2.matches, y.2.matches, "{label}: matches");
        assert_eq!(x.2.hashes, y.2.hashes, "{label}: hashes");
        assert_eq!(
            x.2.map_similarity.to_bits(),
            y.2.map_similarity.to_bits(),
            "{label}: MAP"
        );
        assert_eq!(x.2.variance.to_bits(), y.2.variance.to_bits(), "{label}");
    }
    assert_eq!(a.stats.candidates, b.stats.candidates, "{label}");
    assert_eq!(a.stats.pruned, b.stats.pruned, "{label}");
    assert_eq!(a.stats.accepted, b.stats.accepted, "{label}");
    assert_eq!(a.stats.exhausted, b.stats.exhausted, "{label}");
}

#[test]
fn capped_cache_with_a_hot_row_keeps_the_cap_and_the_outputs() {
    let records = hot_row_corpus();
    let (reference, unbounded) = run(&records, CacheCapacity::unbounded(), 1);

    // Row 0 alone outweighs a stripe's share of the cap.
    let hot_row = reference[4].estimates.iter().filter(|e| e.0 == 0).count();
    assert!(hot_row >= 49, "row 0 holds {hot_row} candidates");
    let stats = unbounded.memory_stats();
    let cap = 32 << 10;
    assert!(hot_row * (stats.memo_bytes / stats.entries) > cap / STRIPES);
    assert!(stats.memo_bytes > cap, "the cap must bind");

    for policy in [
        EvictionPolicy::LeastRecentlyUsed,
        EvictionPolicy::ShallowestFirst,
    ] {
        for threads in [1, 4] {
            let capacity = CacheCapacity::bounded(cap).with_policy(policy);
            let (capped, cache) = run(&records, capacity, threads);
            for (q, (a, b)) in reference.iter().zip(&capped).enumerate() {
                assert_same_outputs(a, b, &format!("{policy:?} threads={threads} probe {q}"));
            }
            assert!(cache.memory_stats().evicted_entries > 0);
        }
    }
}
