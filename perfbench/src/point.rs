//! `oltp-point`: one TPC-C-1 point on the Table-2 machine in SLICC-SW
//! mode, with the paper-like code footprint (`TraceScale::paper_like()`
//! segments) and [`TASKS`] transactions, simulated from scratch (spec
//! build included) on every repetition, one after another.

use slicc_sim::{RunMetrics, RunRequest, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

use crate::calib::{self, Calib};
use crate::layers::{self, Counts};
use crate::spans::Tracer;
use crate::{stats, Args, Loop, Named, Outcome};

/// `RunMetrics::digest` of the point at [`crate::DEFAULT_SEED`].
pub const PINNED_DIGEST: u64 = 0xc585_eb42_02fd_3ea0;

/// Transactions per point. `paper_like()` has 160, about 4–5 s a point
/// on a 2-vCPU host: six points in a 30-second run, too few for a median
/// that holds still when the host's speed moves second by second. 32
/// keep the code paths and footprint and give about 25 points a run.
const TASKS: u32 = 32;

pub struct Point {
    req: RunRequest,
    tasks: u64,
    records: u64,
}

/// Builds the request and counts the trace records it must retire.
fn setup(seed: u64) -> Point {
    let req = RunRequest::new(
        Workload::TpcC1,
        TraceScale::paper_like().with_tasks(TASKS).with_seed(seed),
        SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw),
    );
    let spec = req.spec();
    let records = spec
        .threads()
        .map(|t| spec.thread_trace(t).count() as u64)
        .sum();
    Point {
        tasks: u64::from(spec.num_tasks),
        records,
        req,
    }
}

/// The output checks: every transaction completed, one instruction per
/// trace record, and on the default seed the pinned digest.
pub fn check(m: &RunMetrics, tasks: u64, records: u64, pinned: Option<u64>) -> Result<(), String> {
    if m.completed_threads != tasks {
        return Err(format!(
            "completed_threads {} != tasks {tasks}",
            m.completed_threads
        ));
    }
    if m.instructions != records {
        return Err(format!(
            "instructions {} != trace records {records}",
            m.instructions
        ));
    }
    match pinned {
        Some(want) if m.digest() != want => {
            Err(format!("digest {:016x} != pinned {want:016x}", m.digest()))
        }
        _ => Ok(()),
    }
}

struct PointLoop {
    out: Loop,
    last: Option<RunMetrics>,
}

/// Points run on the calling thread (`point_threads` is 1 by default).
fn calib() -> Calib {
    Calib::new(1)
}

fn measure(p: &Point, args: &Args, tracer: &Tracer) -> PointLoop {
    let pinned = (args.seed == crate::DEFAULT_SEED).then_some(PINNED_DIGEST);
    let budget = crate::loop_budget(args);
    let start = std::time::Instant::now();
    let mut calib = calib();
    let mut out = Loop::default();
    let mut mips = Vec::new();
    let mut iter_s = Vec::new();
    let mut last = None;
    let mut before = calib.sample();
    while crate::time_for_another(start, budget, &iter_s) {
        let op = tracer.open();
        let result = p.req.try_execute();
        let took = tracer.close(op, "point", 0, out.attempted).as_secs_f64();
        let after = calib.sample();
        let scale = calib::scale(before, after);
        before = after;
        iter_s.push(took + after.cost_s);
        out.attempted += 1;
        match result {
            Ok(r) => match check(&r.metrics, p.tasks, p.records, pinned) {
                Ok(()) => {
                    out.op_s.push(took);
                    out.scale.push(scale);
                    mips.push(r.metrics.instructions as f64 / (took * scale) / 1e6);
                    last = Some(r.metrics);
                }
                Err(e) => out.fail(format!("point {}: {e}", out.attempted)),
            },
            Err(e) => out.fail(format!("point {}: {e}", out.attempted)),
        }
    }
    let norm = out.norm_op_s();
    out.sim_mips = stats::median(&mips).unwrap_or(f64::NAN);
    out.ops_per_s = norm.len() as f64 / norm.iter().sum::<f64>();
    out.peak_rss_mb = crate::peak_rss_mb();
    let n = norm.len();
    out.named = vec![
        Named::new(
            "sim_mips",
            stats::median(&mips).ok_or_else(|| "no points".into()),
            "M instr/s",
            n,
        ),
        Named::new(
            "point_s",
            stats::median(&norm).ok_or_else(|| "no points".into()),
            "s",
            n,
        ),
        Named::new(
            "point_s_measured",
            stats::median(&out.op_s).ok_or_else(|| "no points".into()),
            "s",
            n,
        ),
    ];
    PointLoop { out, last }
}

pub fn run(args: &Args) -> Outcome {
    let (p, setup_s) = crate::repeated_setup(Some(calib()), || setup(args.seed));
    if !args.trace {
        let m = measure(&p, args, &Tracer::new(false));
        return Outcome {
            setup_s,
            loops: vec![m.out],
            layers: Vec::new(),
            spans: None,
        };
    }
    let untraced = measure(&p, args, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = measure(&p, args, &tracer);

    let mut counts = Counts::default();
    if let Some(m) = &traced.last {
        counts.add(m);
    }
    let specs = vec![(p.req.spec(), p.req.config.clone())];
    let mut layers = tracer.span("replay", 0, |id| layers::replay(&specs, &tracer, id));
    // Every traced point simulates the same instructions.
    let instructions = counts.instructions * traced.out.op_s.len() as u64;
    let sim_ns = traced.out.op_s.iter().sum::<f64>() * 1e9;
    let engine = layers::engine_metrics(sim_ns, instructions, &counts, &layers);
    layers.extend(engine);
    layers.extend(counts.metrics());
    // The runner is bypassed: each point runs on the calling thread.
    let point_s_max = traced.out.op_s.iter().cloned().fold(0.0, f64::max);
    layers.extend([
        ("runner.simulated", 0.0),
        ("runner.cache_hits", 0.0),
        ("runner.spec_builds", 0.0),
        ("runner.point_s_max", point_s_max),
        ("runner.parallel_efficiency", 1.0),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_a_tampered_digest() {
        let m = RunMetrics {
            instructions: 10,
            completed_threads: 2,
            ..Default::default()
        };
        assert!(check(&m, 2, 10, Some(m.digest())).is_ok());
        assert!(
            check(&m, 2, 10, Some(m.digest() ^ 1)).is_err(),
            "tampered digest passes"
        );
        assert!(check(&m, 2, 10, None).is_ok());
        assert!(
            check(&m, 3, 10, None).is_err(),
            "missing transaction passes"
        );
        assert!(check(&m, 2, 11, None).is_err(), "lost record passes");
    }
}
