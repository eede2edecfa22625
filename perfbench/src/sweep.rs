//! `sweep`: Figures 10 and 11 at small scale on one fresh shared
//! `Runner` per batch (jobs = host CPUs), as `figures fig10 fig11 --scale
//! small` runs them: 40 requests, 24 simulated and 16 run-cache hits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use slicc_bench::{Experiment, ExperimentScale};
use slicc_sim::{ObsConfig, RunRequest, RunResult, Runner, RunnerStats, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

use crate::calib::{self, Calib};
use crate::layers::{self, Counts};
use crate::spans::Tracer;
use crate::{stats, Args, Loop, Named, Outcome};

/// Stable hash of the fig10 + fig11 markdown at [`crate::DEFAULT_SEED`].
pub const PINNED_MARKDOWN: u64 = 0xe9d1_8db7_a687_7178;

/// Fresh simulations and run-cache hits one batch must produce.
const SIMULATED: u64 = 24;
const HITS: u64 = 16;

pub struct Sweep {
    seed: u64,
    jobs: usize,
    /// fig10's then fig11's requests, in their submission order.
    fig10: Vec<RunRequest>,
    fig11: Vec<RunRequest>,
    /// Trace records per workload at this scale, in `Workload::ALL` order.
    records: Vec<u64>,
    tasks: u64,
}

fn req(w: Workload, scale: TraceScale, cfg: SimConfig) -> RunRequest {
    RunRequest::new(w, scale, cfg).with_obs(ObsConfig::disabled().with_metrics())
}

/// The requests `Experiment::Fig10` and `Experiment::Fig11` submit, at
/// trace seed `seed`. On the default seed every one of them must be in
/// the run cache after the experiments ran, which keeps this list
/// honest.
fn requests(seed: u64) -> (Vec<RunRequest>, Vec<RunRequest>) {
    let scale = ExperimentScale::Small.trace_scale().with_seed(seed);
    let base = SimConfig::paper_baseline;
    let fig10 = Workload::ALL
        .iter()
        .flat_map(|&w| SchedulerMode::ALL.map(|mode| req(w, scale, base().with_mode(mode))))
        .collect();
    let fig11 = Workload::ALL
        .iter()
        .flat_map(|&w| {
            [
                req(w, scale, base()),
                req(w, scale, base().with_next_line(1)),
                req(w, scale, base().with_mode(SchedulerMode::Slicc)),
                req(w, scale, base().with_mode(SchedulerMode::SliccPp)),
                req(w, scale, base().with_mode(SchedulerMode::SliccSw)),
                req(w, scale, base().with_pif_model()),
            ]
        })
        .collect();
    (fig10, fig11)
}

fn setup(seed: u64) -> Sweep {
    let (fig10, fig11) = requests(seed);
    let scale = ExperimentScale::Small.trace_scale().with_seed(seed);
    let records = Workload::ALL
        .iter()
        .map(|w| {
            let spec = w.spec(scale);
            spec.threads()
                .map(|t| spec.thread_trace(t).count() as u64)
                .sum()
        })
        .collect();
    Sweep {
        seed,
        jobs: crate::host_cpus(),
        fig10,
        fig11,
        records,
        tasks: u64::from(scale.tasks),
    }
}

/// Per-point checks: every transaction completed and one instruction per
/// trace record (SLICC-Pp's scout core retires extra instructions, so
/// there the trace is a lower bound).
fn check_point(r: &RunResult, req: &RunRequest, records: u64, tasks: u64) -> Result<(), String> {
    let m = &r.metrics;
    let what = format!("{} [{}]", req.workload, m.mode);
    if m.completed_threads != tasks {
        return Err(format!(
            "{what}: completed_threads {} != tasks {tasks}",
            m.completed_threads
        ));
    }
    let scouts = req.mode() == SchedulerMode::SliccPp;
    if (scouts && m.instructions < records) || (!scouts && m.instructions != records) {
        return Err(format!(
            "{what}: instructions {} vs trace records {records}",
            m.instructions
        ));
    }
    Ok(())
}

struct Batch {
    wall_s: f64,
    stats: RunnerStats,
    results: Vec<RunResult>,
    failures: Vec<String>,
}

fn batch(s: &Sweep, tracer: &Tracer, n: u64) -> Batch {
    let op = tracer.open();
    let parent = op.id;
    let runner = Runner::new(s.jobs);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if s.seed == crate::DEFAULT_SEED {
            let mut md = tracer.span("sweep.fig10", parent, |_| {
                Experiment::Fig10.run(ExperimentScale::Small, &runner)
            });
            md += &tracer.span("sweep.fig11", parent, |_| {
                Experiment::Fig11.run(ExperimentScale::Small, &runner)
            });
            Some(md)
        } else {
            tracer.span("sweep.fig10", parent, |_| runner.run_metrics(&s.fig10));
            tracer.span("sweep.fig11", parent, |_| runner.run_metrics(&s.fig11));
            None
        }
    }));
    let wall_s = tracer.close(op, "sweep.batch", 0, n).as_secs_f64();
    let stats = runner.stats();

    let mut failures = Vec::new();
    match &ran {
        Err(_) => failures.push("a sweep point failed".to_string()),
        Ok(Some(md)) if slicc_common::stable_hash_of(md.as_str()) != PINNED_MARKDOWN => failures
            .push(format!(
                "markdown hash {:016x} != pinned {PINNED_MARKDOWN:016x}",
                slicc_common::stable_hash_of(md.as_str())
            )),
        Ok(_) => {}
    }
    if stats.cache_misses != SIMULATED || stats.cache_hits != HITS || stats.failed_points != 0 {
        failures.push(format!(
            "runner simulated {} / hit {} / failed {} (want {SIMULATED} / {HITS} / 0)",
            stats.cache_misses, stats.cache_hits, stats.failed_points
        ));
    }
    let mut results = Vec::new();
    for req in s.fig10.iter().chain(&s.fig11) {
        let w = Workload::ALL
            .iter()
            .position(|&w| w == req.workload)
            .expect("known workload");
        match runner.cached_result(req.stable_key()) {
            Some(r) => {
                if let Err(e) = check_point(&r, req, s.records[w], s.tasks) {
                    failures.push(e);
                }
                results.push(r);
            }
            None => failures.push(format!(
                "{} [{}] is not in the run cache",
                req.workload,
                req.mode()
            )),
        }
    }
    Batch {
        wall_s,
        stats,
        results,
        failures,
    }
}

struct SweepLoop {
    out: Loop,
    last: Option<Batch>,
}

fn measure(s: &Sweep, args: &Args, tracer: &Tracer) -> SweepLoop {
    let budget = crate::loop_budget(args);
    let start = Instant::now();
    // The batch keeps `jobs` CPUs busy; calibrate all of them.
    let mut calib = Calib::new(s.jobs);
    let mut out = Loop::default();
    let mut n = 0;
    let mut last = None;
    let mut mips = Vec::new();
    let mut iter_s = Vec::new();
    let mut before = calib.sample();
    while crate::time_for_another(start, budget, &iter_s) {
        let b = batch(s, tracer, n);
        let after = calib.sample();
        let scale = calib::scale(before, after);
        before = after;
        iter_s.push(b.wall_s + after.cost_s);
        // Each of the 40 requests is one attempted operation; a failed
        // batch-level check counts once.
        out.attempted += (s.fig10.len() + s.fig11.len()) as u64;
        if b.failures.is_empty() {
            out.op_s.push(b.wall_s);
            out.scale.push(scale);
            mips.push(b.stats.sim_ips() / scale / 1e6);
        }
        for f in &b.failures {
            out.fail(format!("batch {n}: {f}"));
        }
        last = Some(b);
        n += 1;
    }
    out.peak_rss_mb = crate::peak_rss_mb();
    let norm = out.norm_op_s();
    let done = norm.len();
    out.sim_mips = stats::median(&mips).unwrap_or(f64::NAN);
    out.ops_per_s = done as f64 / norm.iter().sum::<f64>();
    out.named = vec![
        Named::new(
            "sweep_s",
            stats::median(&norm).ok_or_else(|| "no batches".into()),
            "s",
            done,
        ),
        Named::new(
            "sweep_s_measured",
            stats::median(&out.op_s).ok_or_else(|| "no batches".into()),
            "s",
            done,
        ),
        Named::new(
            "sim_mips",
            stats::median(&mips).ok_or_else(|| "no batches".into()),
            "M instr/s",
            done,
        ),
    ];
    SweepLoop { out, last }
}

pub fn run(args: &Args) -> Outcome {
    // Set-up runs on one thread.
    let (s, setup_s) = crate::repeated_setup(Some(Calib::new(1)), || setup(args.seed));
    if !args.trace {
        let m = measure(&s, args, &Tracer::new(false));
        return Outcome {
            setup_s,
            loops: vec![m.out],
            layers: Vec::new(),
            spans: None,
        };
    }
    let untraced = measure(&s, args, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = measure(&s, args, &tracer);

    // Simulated counts and host time over the distinct simulated points
    // of the last traced batch.
    let mut counts = Counts::default();
    let mut sim_ns = 0.0;
    let mut seen = std::collections::BTreeSet::new();
    let last = traced.last.as_ref().expect("the traced loop ran a batch");
    for (r, req) in last.results.iter().zip(s.fig10.iter().chain(&s.fig11)) {
        if seen.insert(req.stable_key()) {
            counts.add(&r.metrics);
            sim_ns += r.wall.as_nanos() as f64;
        }
    }
    let scale = ExperimentScale::Small.trace_scale().with_seed(args.seed);
    let specs: Vec<_> = Workload::ALL
        .iter()
        .map(|w| (w.spec(scale), SimConfig::paper_baseline()))
        .collect();
    let mut layers = tracer.span("replay", 0, |id| layers::replay(&specs, &tracer, id));
    let engine = layers::engine_metrics(sim_ns, counts.instructions, &counts, &layers);
    layers.extend(engine);
    layers.extend(counts.metrics());
    let point_s_max = last
        .results
        .iter()
        .map(|r| r.wall.as_secs_f64())
        .fold(0.0, f64::max);
    let busy_s = last.stats.busy_nanos as f64 / 1e9;
    layers.extend([
        ("runner.simulated", last.stats.cache_misses as f64),
        ("runner.cache_hits", last.stats.cache_hits as f64),
        ("runner.spec_builds", last.stats.spec_builds as f64),
        ("runner.point_s_max", point_s_max),
        (
            "runner.parallel_efficiency",
            busy_s / (s.jobs as f64 * last.wall_s),
        ),
    ]);
    layers.extend(crate::serve::probe(args.seed, &tracer));
    layers.push((
        "tracing.overhead_ratio",
        crate::overhead_ratio(&untraced.out, &traced.out),
    ));
    Outcome {
        setup_s,
        loops: vec![untraced.out, traced.out],
        layers,
        spans: Some(tracer),
    }
}
