//! One benchmark run: set-ups, the open-loop and closed-loop phases,
//! restarts, answer checks, and the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::metrics::Report;
use crate::phase::{run_phase, PhaseOut};
use crate::plan::{self, Op};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::workload::{
    check_phase, latencies, peak_rss_mib, timed_restarts, Inputs, Params, Stack, Tally, Workload,
};

/// Open-loop and closed-loop phases per run, each on a fresh set-up.
pub const REPEATS: usize = 3;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of the corpus and the plans.
    pub seed: u64,
    /// Length of the open-loop phase.
    pub seconds: u64,
    /// Print per-layer metrics from a traced run instead.
    pub trace: bool,
    /// Corrupt every reference answer (the checker's negative test).
    pub wrong_reference: bool,
    /// Directory for data directories (removed when the run ends) and
    /// span dumps, relative to the working directory.
    pub work_dir: PathBuf,
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload and returns the report for the requested metric
/// set. An `Err` is a run that could not measure at all.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let scratch = ScratchDir(opts.work_dir.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    )));
    if scratch.0.exists() {
        std::fs::remove_dir_all(&scratch.0).map_err(|e| format!("cannot clear scratch: {e}"))?;
    }
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("cannot create scratch: {e}"))?;
    if opts.trace {
        trace::run(opts, &scratch.0)
    } else {
        end_to_end(opts, &scratch.0)
    }
}

/// Batches a run needs: enough for the larger phase plan.
pub fn inputs_for(params: &Params, opts: &Opts) -> (Inputs, Vec<Op>, Vec<Op>) {
    let open = params.open_plan(opts.seed, opts.seconds);
    let closed = params.closed_plan(opts.seed);
    let batches = plan::counts(&open)
        .1
        .max(plan::counts(&closed).1)
        .max(params.epilogue_ingests);
    (Inputs::generate(params, opts.seed, batches), open, closed)
}

/// The open-loop phase on a fresh set-up; returns the stack for the
/// restart and the phase output.
pub fn open_phase(
    params: &Params,
    inputs: &Inputs,
    ops: &[Op],
    dir: &Path,
    setups: &mut Vec<f64>,
    tracer: Option<&Tracer>,
) -> Result<(Stack, PhaseOut), String> {
    let (mut stack, secs) = Stack::setup(params, inputs, dir)?;
    setups.push(secs);
    let interval = Duration::from_secs_f64(1.0 / params.rate_hz);
    let out = run_phase(
        &mut stack.conns,
        ops,
        &inputs.batches,
        Some(interval),
        tracer.map(|t| (t, ["client.probe", "client.ingest"])),
    );
    Ok((stack, out))
}

fn end_to_end(opts: &Opts, scratch: &Path) -> Result<Report, String> {
    let params = opts.workload.params();
    let (inputs, open_ops, closed_ops) = inputs_for(&params, opts);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut report = Report::default();
    // Per-phase capacities; the metric is their median, so one phase
    // that the shared host slowed does not move it.
    let mut rates = Vec::new();
    let mut peak_rss = 0.0;

    // Each repeat runs an open-loop phase, whose answers are checked and
    // whose latencies are logged, then a closed-loop phase (and, where the
    // workload has them, serial ingests into its warm corpus), each on a
    // fresh set-up, so every metric samples the whole run. The
    // last repeat's data directory is the one restarted: the open phase's
    // in `live_ingest`, the ingested one in `reprobe`.
    let mut fingerprint = String::new();
    let mut reference = None;
    let mut restart_dir = PathBuf::new();
    let mut final_epoch = 0;
    for r in 0..REPEATS {
        let open_dir = scratch.join(format!("open-{r}"));
        let (mut stack, open) =
            open_phase(&params, &inputs, &open_ops, &open_dir, &mut setups, None)?;
        if r == 0 {
            // Input generation, one set-up and one phase: the peak before
            // any answer check allocates.
            peak_rss = peak_rss_mib()?;
        }
        log_phase("open", r, &open);
        reference = check_phase(
            &params,
            &inputs,
            &open,
            &mut stack,
            opts.wrong_reference,
            &mut tally,
        );
        if params.epilogue_ingests == 0 {
            restart_dir = open_dir;
            final_epoch = plan::counts(&open_ops).1 as u64;
        }
        fingerprint = stack.fingerprint.clone();
        drop(stack);

        let closed_dir = scratch.join(format!("closed-{r}"));
        let (mut stack, secs) = Stack::setup(&params, &inputs, &closed_dir)?;
        setups.push(secs);
        let closed = run_phase(&mut stack.conns, &closed_ops, &inputs.batches, None, None);
        log_phase("closed", r, &closed);
        rates.push(closed.done.len() as f64 / closed.wall_s);
        check_phase(
            &params,
            &inputs,
            &closed,
            &mut stack,
            opts.wrong_reference,
            &mut tally,
        );
        if params.epilogue_ingests > 0 {
            let ops: Vec<Op> = (0..params.epilogue_ingests).map(Op::Ingest).collect();
            let epilogue = run_phase(&mut stack.conns[..1], &ops, &inputs.batches, None, None);
            log_phase("ingest", r, &epilogue);
            reference = check_phase(
                &params,
                &inputs,
                &epilogue,
                &mut stack,
                opts.wrong_reference,
                &mut tally,
            );
            restart_dir = closed_dir;
            final_epoch = params.epilogue_ingests as u64;
        }
    }
    let restart_s = timed_restarts(
        &restart_dir,
        &fingerprint,
        reference.as_mut(),
        final_epoch,
        &mut tally,
    )?;

    let med = |v: &[f64]| median(v).expect("every repeat measured");
    report.set("setup_s", med(&setups));
    report.set("capacity_rps", med(&rates));
    report.set("peak_rss_mb", peak_rss);
    report.set("restart_s", restart_s);
    finish(&mut report, tally);
    Ok(report)
}

/// One progress line per phase on stderr.
fn log_phase(kind: &str, repeat: usize, out: &PhaseOut) {
    let p50 = |ingest| percentile(&latencies(&out.done, ingest), 50.0).unwrap_or(f64::NAN);
    eprintln!(
        "perfbench: {kind} phase {}/{REPEATS}: {} requests in {:.2} s, p50 probe {:.2} ms, ingest {:.2} ms",
        repeat + 1,
        out.done.len(),
        out.wall_s,
        p50(false),
        p50(true)
    );
}

/// Copies the tally into the report and prints its problems.
pub fn finish(report: &mut Report, tally: Tally) {
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.correct = tally.problems.is_empty() && tally.failed == 0;
    for p in &tally.problems {
        eprintln!("perfbench: check failed: {p}");
    }
}
