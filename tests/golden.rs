//! Golden-determinism gate for simulator performance work.
//!
//! The digests below were captured on the *pre-optimization* hot path
//! (before the allocation-free memory system, bitmask cache lookup, spec
//! memoization, and idle-set engine landed). Every scheduler mode's full
//! [`slicc_sim::RunMetrics`] must reproduce them exactly: optimizing the
//! simulator must never change what it simulates. If a *deliberate* model
//! change lands, re-capture with `cargo test --test golden -- --nocapture`
//! and update the table in the same commit that changes the model.

use slicc_sim::{ObsConfig, RunControl, RunRequest, RunSession, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

/// Golden digests of the full metrics struct, one per mode, on the tiny
/// TPC-C-1 workload under `SimConfig::tiny_test()`. Re-captured once for
/// the split-step engine (DESIGN.md §13): deferring cross-core coherence
/// effects to step barriers is a deliberate, uniformly-applied model
/// change, so the digests moved exactly once.
const GOLDEN: [(SchedulerMode, u64); 5] = [
    (SchedulerMode::Baseline, 0xbd28ed3fc9c55726),
    (SchedulerMode::Slicc, 0x33c3295a1792268b),
    (SchedulerMode::SliccSw, 0x6e9bc22167b0a6a7),
    (SchedulerMode::SliccPp, 0xc8ff72fac95fc811),
    (SchedulerMode::Steps, 0xe8e91436bdd53261),
];

fn digest_of(mode: SchedulerMode) -> u64 {
    let req = RunRequest::new(
        Workload::TpcC1,
        TraceScale::tiny(),
        SimConfig::tiny_test().with_mode(mode),
    );
    req.try_execute().expect("tiny point completes").metrics.digest()
}

#[test]
fn metrics_are_byte_identical_to_pre_optimization_capture() {
    let mut drifted = Vec::new();
    for (mode, want) in GOLDEN {
        let got = digest_of(mode);
        println!("    (SchedulerMode::{mode:?}, 0x{got:016x}),");
        if got != want {
            drifted.push((mode, want, got));
        }
    }
    assert!(
        drifted.is_empty(),
        "simulated results drifted from the golden capture: {drifted:x?}"
    );
}

#[test]
fn digest_is_stable_across_runs_and_sensitive_to_results() {
    let a = digest_of(SchedulerMode::Slicc);
    let b = digest_of(SchedulerMode::Slicc);
    assert_eq!(a, b, "same point must digest identically");
    assert_ne!(a, digest_of(SchedulerMode::Baseline), "different runs must differ");
}

/// Every [`RunSession`] composition — quiescent, observed,
/// controlled-but-never-fired — must simulate the same machine: each
/// reproduces the golden digest in every mode. This is the equivalence
/// contract that let PR 6 collapse the engine's entry-point matrix into
/// the one session builder.
#[test]
fn run_session_compositions_all_match_the_golden_digest_in_every_mode() {
    for (mode, want) in GOLDEN {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        let cfg = SimConfig::tiny_test().with_mode(mode);

        let quiescent =
            RunSession::new(&spec, &cfg).unwrap().run().unwrap().metrics.digest();
        let observed = RunSession::new(&spec, &cfg)
            .unwrap()
            .observe(ObsConfig::disabled().with_events().with_epochs(1_000))
            .run()
            .unwrap()
            .metrics
            .digest();
        let controlled = RunSession::new(&spec, &cfg)
            .unwrap()
            .control(RunControl::unbounded())
            .run()
            .unwrap()
            .metrics
            .digest();

        for (what, got) in [
            ("quiescent session", quiescent),
            ("observed session", observed),
            ("controlled session", controlled),
        ] {
            assert_eq!(got, want, "{mode:?}: {what} drifted from the golden digest");
        }
    }
}

/// Resource governance — a bounded cache, admission limits, a service
/// front door — must never change what a finished run computes: the
/// golden digests reproduce under a thrashing byte budget and through
/// [`slicc_sim::SimService`] submission alike (DESIGN.md §12).
#[test]
fn governed_runners_reproduce_the_golden_digests() {
    use slicc_sim::{Runner, ServiceConfig, SimService};
    use std::sync::Arc;

    let runner = Arc::new(Runner::new(2));
    runner.set_cache_bytes(64); // far below one entry: every insert evicts
    let service = SimService::new(
        Arc::clone(&runner),
        ServiceConfig { max_inflight: 2, queue_limit: 8 },
    );
    for (mode, want) in GOLDEN {
        let req = RunRequest::new(
            Workload::TpcC1,
            TraceScale::tiny(),
            SimConfig::tiny_test().with_mode(mode),
        );
        let got = service.submit(&req).expect("governed submission completes").metrics.digest();
        assert_eq!(got, want, "{mode:?}: governance changed a simulated result");
    }
    assert!(runner.stats().cache_bytes <= 64, "the byte budget must hold");
}

/// `decode_threads` parallelizes trace *generation*, never the
/// simulation itself: a point with more feeders must be byte-identical
/// to its single-threaded twin (and to the golden capture) in every mode.
#[test]
fn decode_threads_never_change_simulated_results() {
    for (mode, want) in GOLDEN {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        let mut cfg = SimConfig::tiny_test().with_mode(mode);
        cfg.decode_threads = 4;
        let wide = RunSession::new(&spec, &cfg).unwrap().run().unwrap().metrics.digest();
        assert_eq!(wide, want, "{mode:?}: 4 decode threads drifted from the golden digest");
    }
}

/// The decode feed only moves *who* generates each chunk of a thread's
/// records — the committer inline, or a pooled feeder ahead of it —
/// never the order: `decode_threads = 1` (no feeder) and the default
/// (a feeder whenever the CPU budget has a spare CPU) land on the same
/// golden digest in every mode.
#[test]
fn the_default_decode_feed_matches_the_unfed_point() {
    let default = SimConfig::tiny_test().decode_threads;
    assert_eq!(default, 2, "the committer plus one feeder by default");
    for (mode, want) in GOLDEN {
        for decode_threads in [1, default] {
            let spec = Workload::TpcC1.spec(TraceScale::tiny());
            let mut cfg = SimConfig::tiny_test().with_mode(mode);
            cfg.decode_threads = decode_threads;
            let got = RunSession::new(&spec, &cfg).unwrap().run().unwrap().metrics.digest();
            assert_eq!(got, want, "{mode:?}: decode_threads={decode_threads} drifted");
        }
    }
}

/// Metrics capture (the registry snapshot + engine profile) observes a
/// run's timing and counters; it must never touch what is simulated.
/// Every mode, profiled, lands on the golden digest byte-for-byte — and
/// the profiled runs actually carry a profile, so this is not vacuous.
#[test]
fn metrics_capture_never_changes_simulated_results() {
    for (mode, want) in GOLDEN {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        let cfg = SimConfig::tiny_test().with_mode(mode);
        let outcome = RunSession::new(&spec, &cfg)
            .unwrap()
            .observe(ObsConfig::disabled().with_metrics())
            .run()
            .unwrap();
        assert_eq!(
            outcome.metrics.digest(),
            want,
            "{mode:?}: metrics capture drifted from the golden digest"
        );
        let profile = outcome
            .obs
            .as_ref()
            .and_then(|o| o.engine_profile)
            .expect("metrics capture must attach an engine profile");
        assert!(profile.steps > 0, "{mode:?}: the profiler must have counted steps");
    }
}

/// Digests of every record of every thread's generated trace, per
/// workload and scale. The simulator digests above cover only TPC-C-1;
/// these pin the generator itself — including the TPC-E mix and the
/// MapReduce `Streaming` data path — so a generator optimization that
/// drifts any workload's stream fails here first.
const TRACE_GOLDEN: [(Workload, &str, u64); 8] = [
    (Workload::TpcC1, "tiny", 0xfcd5c242e4c858c6),
    (Workload::TpcC10, "tiny", 0x59ac373d97993fe5),
    (Workload::TpcE, "tiny", 0x72474b50b9dded13),
    (Workload::MapReduce, "tiny", 0x282cf9f4f5cf914d),
    (Workload::TpcC1, "small", 0x62369aa43e3713c3),
    (Workload::TpcC10, "small", 0xf07550883a531d13),
    (Workload::TpcE, "small", 0xa1480d0180629d7d),
    (Workload::MapReduce, "small", 0x164cac287c4f06ad),
];

fn trace_digest(workload: Workload, scale: TraceScale) -> u64 {
    let spec = workload.spec(scale);
    let mut h = slicc_common::StableHasher::new();
    for thread in spec.threads() {
        h.write_u64(thread.raw() as u64);
        for rec in spec.thread_trace(thread) {
            h.write_u64(rec.pc.raw());
            match rec.data {
                Some(d) => {
                    h.write_u64(d.addr.raw());
                    h.write_u64(1 + d.is_store as u64);
                }
                None => h.write_u64(0),
            }
        }
    }
    h.finish()
}

#[test]
fn every_workload_generates_its_pinned_record_stream() {
    let mut drifted = Vec::new();
    for (workload, scale_name, want) in TRACE_GOLDEN {
        let scale = match scale_name {
            "tiny" => TraceScale::tiny(),
            _ => TraceScale::small(),
        };
        let got = trace_digest(workload, scale);
        println!("    (Workload::{workload:?}, \"{scale_name}\", 0x{got:016x}),");
        if got != want {
            drifted.push((workload, scale_name, want, got));
        }
    }
    assert!(drifted.is_empty(), "generated traces drifted from the pinned capture: {drifted:x?}");
}
