//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp-point|sweep|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload sets up several times (the median is `setup_s`), then
//! runs its closed loop for `--seconds`, checks every output, and prints
//! one JSON object as the last line of stdout. The CPU-bound workloads
//! report their times at nominal host speed (see `calib.rs`). `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the loop untraced for half the
//! time and traced for the other half, replays each layer's public
//! functions on the workload's own generated input, writes the span file
//! under `.bench_out/`, and reports the per-layer metrics. A readable
//! table of everything measured goes to stderr. `BENCHMARK.json` at the
//! repository root records why each workload and metric exists.

mod calib;
mod layers;
mod point;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The trace seed every scale ships with (`TraceScale::*().seed`). On
/// this seed the benchmark also checks pinned digests.
pub const DEFAULT_SEED: u64 = 0x51cc;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Reported with `--trace 0`, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("sim_mips", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
];

/// Reported with `--trace 1`, on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_ns_per_record", "ns"),
    ("trace.records", "count"),
    ("system.ns_per_access", "ns"),
    ("cache.l1i_accesses", "count"),
    ("cache.l1i_misses", "count"),
    ("cache.l1d_accesses", "count"),
    ("cache.l1d_misses", "count"),
    ("cache.l1_ns_per_access", "ns"),
    ("cache.bloom_ns_per_op", "ns"),
    ("core.agent_ns_per_fetch", "ns"),
    ("core.migrations", "count"),
    ("core.migration_match_ratio", "ratio"),
    ("cpu.tlb_misses", "count"),
    ("cpu.tlb_ns_per_access", "ns"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.store_invalidations", "count"),
    ("mem.dram_accesses", "count"),
    ("mem.dram_row_hit_ratio", "ratio"),
    ("mem.l2_ns_per_access", "ns"),
    ("mem.dram_ns_per_access", "ns"),
    ("noc.unicasts", "count"),
    ("noc.broadcasts", "count"),
    ("noc.hops", "count"),
    ("engine.ns_per_instr", "ns"),
    ("engine.residual_ns_per_instr", "ns"),
    ("runner.simulated", "count"),
    ("runner.cache_hits", "count"),
    ("runner.spec_builds", "count"),
    ("runner.point_s_max", "s"),
    ("runner.parallel_efficiency", "ratio"),
    ("service.hit_us", "us"),
    ("service.cold_ms", "ms"),
    ("service.coalesced_hits", "count"),
    ("service.shed", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("server.event_to_result_us", "us"),
    ("server.residual_us", "us"),
    ("tracing.overhead_ratio", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    OltpPoint,
    Sweep,
    ServeMix,
}

impl WorkloadKind {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "oltp-point" => WorkloadKind::OltpPoint,
            "sweep" => WorkloadKind::Sweep,
            "serve-mix" => WorkloadKind::ServeMix,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            WorkloadKind::OltpPoint => "oltp-point",
            WorkloadKind::Sweep => "sweep",
            WorkloadKind::ServeMix => "serve-mix",
        }
    }
}

pub struct Args {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload oltp-point|sweep|serve-mix --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// A workload-specific end-to-end figure (see README.md), shown in the stderr
/// report with its sample count.
pub struct Named {
    pub name: &'static str,
    pub value: Result<f64, String>,
    pub unit: &'static str,
    pub samples: usize,
}

impl Named {
    pub fn new(
        name: &'static str,
        value: Result<f64, String>,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Named {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one measured loop produced.
#[derive(Default)]
pub struct Loop {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Seconds per unit of work (point, batch, or warm-key round trip),
    /// as measured.
    pub op_s: Vec<f64>,
    /// Host-speed factor of each `op_s` entry ([`calib::scale`]); empty
    /// when the workload reports raw times.
    pub scale: Vec<f64>,
    pub ops_per_s: f64,
    pub sim_mips: f64,
    /// Peak resident memory when the timed loop ended, before the
    /// benchmark's own output checks.
    pub peak_rss_mb: Option<f64>,
    pub named: Vec<Named>,
}

impl Loop {
    /// `op_s` at nominal host speed (as measured when not calibrated).
    pub fn norm_op_s(&self) -> Vec<f64> {
        if self.scale.is_empty() {
            return self.op_s.clone();
        }
        self.op_s.iter().zip(&self.scale).map(|(t, k)| t * k).collect()
    }

    pub fn op_p50_ms(&self) -> f64 {
        stats::median(&self.norm_op_s()).map_or(f64::NAN, |s| s * 1e3)
    }

    /// Host speed over the loop: the median of [`Loop::scale`].
    pub fn host_speed(&self) -> Named {
        Named::new(
            "host_speed",
            stats::median(&self.scale).ok_or_else(|| "not calibrated".into()),
            "x nominal",
            self.scale.len(),
        )
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// A workload's whole run: the untraced loop (or, traced, both halves)
/// plus per-layer figures when traced.
pub struct Outcome {
    pub setup_s: f64,
    pub loops: Vec<Loop>,
    pub layers: Vec<(&'static str, f64)>,
    pub spans: Option<spans::Tracer>,
}

/// Runs `setup` [`SETUPS`] times and keeps the last state; returns it
/// with the median set-up time, at nominal host speed when `calib` is
/// given.
pub fn repeated_setup<T>(
    mut calib: Option<calib::Calib>,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    let mut times = Vec::new();
    let mut state = None;
    let mut before = calib.as_mut().map(calib::Calib::sample);
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        let took = t.elapsed().as_secs_f64();
        let after = calib.as_mut().map(calib::Calib::sample);
        times.push(match (before, after) {
            (Some(b), Some(a)) => took * calib::scale(b, a),
            _ => took,
        });
        before = after;
    }
    (
        state.expect("SETUPS > 0"),
        stats::median(&times).expect("SETUPS > 0"),
    )
}

/// The run time of each loop: the whole budget untraced, or half
/// untraced and half traced.
pub fn loop_budget(args: &Args) -> Duration {
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    Duration::from_secs_f64(secs)
}

/// Whether another iteration, taking the median of `done` (seconds of
/// earlier iterations), still ends within `budget`. The first always runs.
pub fn time_for_another(start: Instant, budget: Duration, done: &[f64]) -> bool {
    let next = stats::median(done).unwrap_or(0.0);
    start.elapsed().as_secs_f64() + next <= budget.as_secs_f64()
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (Linux `VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `tracing.overhead_ratio`: traced op median over untraced, minus one.
pub fn overhead_ratio(untraced: &Loop, traced: &Loop) -> f64 {
    traced.op_p50_ms() / untraced.op_p50_ms() - 1.0
}

fn metric_json(out: &mut String, first: &mut bool, name: &str, value: f64, unit: &str) {
    let sep = if *first { "" } else { ", " };
    *first = false;
    let _ = write!(
        out,
        "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let outcome = match args.workload {
        WorkloadKind::OltpPoint => point::run(&args),
        WorkloadKind::Sweep => sweep::run(&args),
        WorkloadKind::ServeMix => serve::run(&args),
    };

    let attempted: u64 = outcome.loops.iter().map(|l| l.attempted).sum();
    let failures: Vec<&String> = outcome.loops.iter().flat_map(|l| &l.failures).collect();
    let failed = failures.len() as u64;
    let main_loop = outcome.loops.first().expect("every workload runs a loop");
    let rss = main_loop.peak_rss_mb;

    // The readable report.
    eprintln!(
        "== {} seed={} seconds={} trace={} host_cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cpus()
    );
    eprintln!("{:<34} {:>16} {:<9} samples", "metric", "value", "unit");
    let row = |name: &str, value: &Result<f64, String>, unit: &str, n: usize| match value {
        Ok(v) => eprintln!("{name:<34} {v:>16.4} {unit:<9} {n}"),
        Err(why) => eprintln!("{name:<34} {:>16} {unit:<9} {n} ({why})", "n/a"),
    };
    row("setup_s", &Ok(outcome.setup_s), "s", SETUPS);
    for named in &main_loop.named {
        row(named.name, &named.value, named.unit, named.samples);
    }
    if !main_loop.scale.is_empty() {
        let speed = main_loop.host_speed();
        row(speed.name, &speed.value, speed.unit, speed.samples);
    }
    let error_rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    row(
        "peak_rss_mb",
        &rss.ok_or_else(|| "no /proc/self/status".into()),
        "MiB",
        1,
    );
    row("error_rate", &Ok(error_rate), "ratio", attempted as usize);
    for why in failures.iter().take(10) {
        eprintln!("FAILED: {why}");
    }

    let mut values: Vec<(&str, f64)> = Vec::new();
    if args.trace {
        if let [untraced, traced] = &outcome.loops[..] {
            eprintln!(
                "tracing overhead: op_p50_ms {:.4} traced - {:.4} untraced = {:.4} ms",
                traced.op_p50_ms(),
                untraced.op_p50_ms(),
                traced.op_p50_ms() - untraced.op_p50_ms()
            );
        }
        eprintln!("-- per layer (host_cpus={})", host_cpus());
        for (name, unit) in PER_LAYER {
            let v = outcome
                .layers
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            eprintln!("{name:<34} {v:>16.4} {unit}");
            values.push((name, v));
        }
        if let Some(tracer) = &outcome.spans {
            let path = format!(
                ".bench_out/spans-{}-seed{}.json",
                args.workload.name(),
                args.seed
            );
            let mut meta = vec![
                ("workload", args.workload.name().to_string()),
                ("seed", args.seed.to_string()),
                ("host_cpus", host_cpus().to_string()),
            ];
            for (name, v) in &values {
                meta.push((name, v.to_string()));
            }
            let written = std::fs::create_dir_all(".bench_out")
                .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(&meta)));
            match written {
                Ok(()) => eprintln!("spans: {} written to {path}", tracer.spans().len()),
                Err(e) => eprintln!("spans: could not write {path}: {e}"),
            }
        }
    } else {
        values.push(("setup_s", outcome.setup_s));
        values.push(("op_p50_ms", main_loop.op_p50_ms()));
        values.push(("ops_per_s", main_loop.ops_per_s));
        values.push(("sim_mips", main_loop.sim_mips));
        values.push(("peak_rss_mb", rss.unwrap_or(f64::NAN)));
    }

    let finite = values.iter().all(|(_, v)| v.is_finite());
    let mut metrics = String::new();
    let mut first = true;
    let units = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in units {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v);
        metric_json(
            &mut metrics,
            &mut first,
            name,
            if v.is_finite() { v } else { 0.0 },
            unit,
        );
    }
    let correct = failed == 0 && attempted > 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicc_common::{parse_json, JsonValue};

    fn names_in(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let items = match doc.get(key) {
            Some(JsonValue::Array(items)) => items,
            other => panic!("BENCHMARK.json {key} is not an array: {other:?}"),
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json_exactly() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = match doc.get("workloads") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
                .collect(),
            other => panic!("workloads is not an array: {other:?}"),
        };
        let ours: Vec<&str> = [
            WorkloadKind::OltpPoint,
            WorkloadKind::Sweep,
            WorkloadKind::ServeMix,
        ]
        .iter()
        .map(|w| w.name())
        .collect();
        assert_eq!(workloads, ours);
        for w in ours {
            assert_eq!(WorkloadKind::parse(w).map(WorkloadKind::name), Some(w));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sweep --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (WorkloadKind::Sweep, 7, 2.5, true)
        );
        assert!(parse_args(&argv("--workload nope --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload sweep --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload sweep --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sweep")).is_err());
    }
}
