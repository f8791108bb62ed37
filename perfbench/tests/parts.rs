//! Tests of the benchmark's own parts: plans, percentiles, the metric
//! catalogue against `BENCHMARK.json`, and the answer checker.

use perfbench::check::{History, Reference};
use perfbench::client::Reply;
use perfbench::metrics::{Report, END_TO_END, PER_LAYER};
use perfbench::phase::Done;
use perfbench::plan::{counts, plan, Op, Stream, LADDER};
use perfbench::stats::{median, percentile, TAIL_SAMPLES};
use perfbench::workload::{Inputs, Workload};
use plasma_core::session::Session;
use plasma_data::similarity::Similarity;
use plasma_server::json::{self, Json};

#[test]
fn plans_are_pure_functions_of_the_seed() {
    for stream in [Stream::Open, Stream::Closed] {
        assert_eq!(plan(7, stream, 300, 90), plan(7, stream, 300, 90));
        assert_ne!(plan(7, stream, 300, 90), plan(8, stream, 300, 90));
    }
    assert_ne!(
        plan(7, Stream::Open, 300, 90),
        plan(7, Stream::Closed, 300, 90)
    );
    for w in Workload::ALL {
        let p = w.params();
        assert_eq!(p.open_plan(3, 10), p.open_plan(3, 10));
        assert_eq!(p.closed_plan(3), p.closed_plan(3));
    }
}

#[test]
fn plans_hold_exactly_the_planned_ingests_in_batch_order() {
    let ops = plan(11, Stream::Open, 340, 102);
    assert_eq!(counts(&ops), (238, 102));
    let batches: Vec<usize> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Ingest(b) => Some(*b),
            Op::Probe(_) => None,
        })
        .collect();
    assert_eq!(batches, (0..102).collect::<Vec<_>>());
    assert!(ops.iter().all(|op| match op {
        Op::Probe(t) => LADDER.contains(t),
        Op::Ingest(_) => true,
    }));
    assert_eq!(counts(&plan(11, Stream::Open, 50, 0)), (50, 0));
}

#[test]
fn inputs_are_pure_functions_of_the_seed() {
    let p = Workload::LiveIngest.params();
    let (a, b) = (Inputs::generate(&p, 5, 4), Inputs::generate(&p, 5, 4));
    assert_eq!(a.initial, b.initial);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.batches.len(), 4);
    assert!(a.batches.iter().all(|batch| batch.len() == p.batch_records));
    assert_ne!(Inputs::generate(&p, 6, 4).initial, a.initial);
}

#[test]
fn nearest_rank_percentiles_are_exact_samples() {
    // Values that no power-of-two bucket boundary matches.
    let samples: Vec<f64> = (1..=200).rev().map(|i| i as f64 * 1.37).collect();
    assert_eq!(percentile(&samples, 50.0), Ok(100.0 * 1.37));
    assert_eq!(percentile(&samples, 95.0), Ok(190.0 * 1.37));
    assert_eq!(percentile(&samples, 90.0), Ok(180.0 * 1.37));
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
    assert_eq!(percentile(&[3.5; 21], 50.0), Ok(3.5));
}

#[test]
fn a_percentile_below_its_sample_floor_is_refused() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    // p95 of 100 samples has 5 beyond it; p99 of 1000 has exactly 10.
    assert!(percentile(&hundred, 95.0).is_err());
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
    assert!(percentile(&thousand, 99.5).is_err());
    assert!(percentile(&[], 50.0).is_err());
    assert!(percentile(&[1.0; TAIL_SAMPLES], 50.0).is_err());
    assert!(percentile(&hundred, 100.0).is_err());
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

fn names(list: &Json) -> Vec<(String, String, String)> {
    list.as_arr()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn every_printed_metric_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| names(doc.get(key).expect("metric list present"));
    let as_pairs = |l: &[(String, String, String)]| -> Vec<(String, String)> {
        l.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect()
    };
    let catalogue = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(as_pairs(&listed("end_to_end")), catalogue(END_TO_END));
    assert_eq!(as_pairs(&listed("per_layer")), catalogue(PER_LAYER));
    for (name, _, better) in listed("end_to_end")
        .iter()
        .chain(listed("per_layer").iter())
    {
        assert!(
            better == "lower" || better == "higher",
            "{name}: better = {better:?}"
        );
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn a_report_prints_exactly_its_catalogue() {
    let mut report = Report {
        correct: true,
        attempted: 3,
        ..Report::default()
    };
    for (name, _) in END_TO_END {
        report.set(name, 1.25);
    }
    let line = report.to_json(END_TO_END).expect("complete report");
    let doc = json::parse(&line).expect("the result line is JSON");
    let metrics = doc.get("metrics").expect("metrics");
    for (name, unit) in END_TO_END {
        let m = metrics.get(name).expect("every metric printed");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
    }
    assert!(
        report.to_json(PER_LAYER).is_err(),
        "a missing metric is refused"
    );
    report.set("cache.probe_ms", 1.0);
    assert!(
        report.to_json(END_TO_END).is_err(),
        "an extra metric is refused"
    );
}

fn done(index: usize, conn: usize, op: Op, reply: Reply) -> Done {
    Done {
        index,
        conn,
        op,
        due_ns: 0,
        sent_ns: 0,
        done_ns: 1,
        reply: Ok(reply),
    }
}

#[test]
fn the_checker_accepts_right_answers_and_rejects_wrong_ones() {
    let p = Workload::Reprobe.params();
    let inputs = Inputs::generate(&p, 9, 2);
    let records = [inputs.initial.clone(), inputs.batches.concat()].concat();
    let sizes = vec![
        p.initial_records,
        p.initial_records + 1,
        p.initial_records + 2,
    ];
    let t = 0.5;
    let cold =
        Session::from_records(inputs.initial.clone(), Similarity::Cosine, p.apss_cfg()).probe(t);
    let reply = Reply::Probe {
        epoch: 0,
        pairs: cold
            .pairs
            .iter()
            .map(|q| (q.i, q.j, q.similarity))
            .collect(),
        candidates: cold.candidates,
        pruned: cold.pruned,
        cache_hits: cold.cache_hits,
        hashes: cold.hashes_compared,
    };
    let mut right = Reference::new(records.clone(), sizes.clone(), p.apss_cfg(), false);
    assert_eq!(right.check_probe(t, &reply), Ok(()));
    assert_eq!(right.spot_check(2, &[t, 0.9]), Ok(()));
    let mut wrong = Reference::new(records, sizes, p.apss_cfg(), true);
    assert!(wrong.check_probe(t, &reply).is_err());
    assert!(wrong.spot_check(0, &[t]).is_err());
}

#[test]
fn receipts_rebuild_the_epoch_order_and_catch_gaps() {
    let p = Workload::LiveIngest.params();
    let inputs = Inputs::generate(&p, 4, 2);
    let n = p.initial_records;
    let receipt = |epoch, total_records| Reply::Ingested {
        epoch,
        total_records,
    };
    // Batch 1 reached the server first.
    let ok = [
        done(0, 0, Op::Ingest(0), receipt(2, n + 10)),
        done(1, 1, Op::Ingest(1), receipt(1, n + 5)),
    ];
    let history = History::from_receipts(&ok, n, &inputs.batches).expect("consistent receipts");
    assert_eq!(history.order, vec![1, 0]);
    assert_eq!(history.sizes, vec![n, n + 5, n + 10]);
    let gap = [
        done(0, 0, Op::Ingest(0), receipt(1, n + 5)),
        done(1, 1, Op::Ingest(1), receipt(3, n + 10)),
    ];
    assert!(History::from_receipts(&gap, n, &inputs.batches).is_err());
    let backwards = [
        done(0, 0, Op::Ingest(0), receipt(2, n + 10)),
        done(1, 0, Op::Ingest(1), receipt(1, n + 5)),
    ];
    assert!(History::from_receipts(&backwards, n, &inputs.batches).is_err());
}
