//! Decode-feed drills (DESIGN §11): a point's pooled feeder must be
//! halted, and its CPU seat released, on every way a committer can
//! leave its run loop, and the process-wide CPU budget must keep
//! feeders off CPUs that a runner's jobs already fill.
//!
//! Every test here reads the process-wide budget, so they run one at a
//! time under [`serial`], with the budget pinned to two CPUs: one
//! committer plus one feeder, on any host.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use slicc_common::pool;
use slicc_sim::{
    decode_feed_stats, InjectedFault, RunControl, RunRequest, RunSession, Runner, SchedulerMode,
    SimConfig, SimConfigBuilder, SimError,
};
use slicc_trace::{TraceScale, Workload};

/// Longest any drill may take before it counts as hung.
const PROMPT: Duration = Duration::from_secs(20);

/// Runs `f` alone in this binary, with a two-CPU budget, and checks
/// that it leaves no seat taken.
fn serial(f: impl FnOnce()) {
    static SERIAL: Mutex<()> = Mutex::new(());
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    pool::override_cpu_budget(Some(2));
    assert_eq!(pool::busy_seats(), 0, "a previous drill leaked a seat");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    pool::override_cpu_budget(None);
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
    assert_eq!(pool::busy_seats(), 0, "every seat must be released on exit");
}

/// Runs one TPC-C-1 session at `scale` under `cfg` and `ctrl` on its
/// own thread, failing the test if it does not return within
/// [`PROMPT`]. Returns the session's result, or `None` if it panicked.
fn run_promptly(
    scale: TraceScale,
    cfg: SimConfig,
    ctrl: Option<RunControl>,
) -> Option<Result<(), SimError>> {
    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    let session = std::thread::spawn(move || {
        let spec = Workload::TpcC1.spec(scale);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let session = RunSession::new(&spec, &cfg).expect("valid config");
            let session = match ctrl {
                Some(ctrl) => session.control(ctrl),
                None => session,
            };
            session.run().map(|_| ())
        }));
        let _ = tx.send(outcome.ok());
    });
    let outcome = rx.recv_timeout(PROMPT).unwrap_or_else(|_| {
        panic!("the session hung for {:?}: a feeder outlived its committer", started.elapsed())
    });
    session.join().expect("the session thread catches its own panic");
    outcome
}

#[test]
fn every_committer_exit_halts_the_feeder_and_releases_its_seat() {
    serial(|| {
        let expired = || RunControl { cancel: Default::default(), deadline: Some(Instant::now()) };
        let cancelled = || {
            let ctrl = RunControl::unbounded();
            ctrl.cancel.cancel();
            ctrl
        };
        let stall = SimConfigBuilder::tiny_test()
            .inject_fault(InjectedFault::StallAt { step: 50 })
            .watchdog_steps(500)
            .build()
            .unwrap();
        let panic = SimConfigBuilder::tiny_test().inject_fault(InjectedFault::Panic).build().unwrap();
        let fuel = SimConfigBuilder::tiny_test().watchdog_steps(40).build().unwrap();
        let drills: [(&str, SimConfig, Option<RunControl>); 5] = [
            ("injected panic", panic, None),
            ("pre-cancelled session", SimConfig::tiny_test(), Some(cancelled())),
            ("expired deadline", SimConfig::tiny_test(), Some(expired())),
            ("watchdog fuel", fuel, None),
            ("injected stall", stall, None),
        ];
        for (name, cfg, ctrl) in drills {
            let admitted = decode_feed_stats().feeders_admitted;
            let outcome = run_promptly(TraceScale::tiny(), cfg, ctrl);
            assert!(
                decode_feed_stats().feeders_admitted > admitted,
                "{name}: the drill must run with a feeder admitted"
            );
            match (name, outcome) {
                ("injected panic", None) => {}
                ("pre-cancelled session", Some(Err(SimError::Cancelled(_)))) => {}
                ("expired deadline", Some(Err(SimError::DeadlineExceeded(_)))) => {}
                ("watchdog fuel" | "injected stall", Some(Err(SimError::Livelock(_)))) => {}
                (name, other) => panic!("{name}: unexpected outcome {other:?}"),
            }
            assert_eq!(pool::busy_seats(), 0, "{name}: the feeder's seat must be released");
        }
    });
}

#[test]
fn a_zero_task_point_asks_for_no_feeder_and_returns_promptly() {
    serial(|| {
        // No thread means no slot to fill: a feeder started on such a
        // feed once spun forever after halt, and the pool join with it.
        let before = decode_feed_stats();
        let outcome = run_promptly(TraceScale::tiny().with_tasks(0), SimConfig::tiny_test(), None);
        assert!(matches!(outcome, Some(Ok(()))), "a zero-task point completes: {outcome:?}");
        let after = decode_feed_stats();
        assert_eq!(after.feeders_admitted, before.feeders_admitted, "nothing to fill, no feeder");
        assert_eq!(after.feeders_refused, before.feeders_refused, "and no seat asked for");
    });
}

#[test]
fn a_fed_point_is_byte_identical_to_an_unfed_one_and_counts_its_chunks() {
    serial(|| {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        let mut unfed = SimConfig::tiny_test();
        unfed.decode_threads = 1;
        let before = decode_feed_stats();
        let want = RunSession::new(&spec, &unfed).unwrap().run().unwrap().metrics.digest();
        let mid = decode_feed_stats();
        assert_eq!(mid.feeders_admitted, before.feeders_admitted, "decode_threads = 1 wants none");
        assert_eq!(mid.chunks_fed, before.chunks_fed, "no feeder, no fed chunk");
        assert!(mid.chunks_inline > before.chunks_inline);
        let got = RunSession::new(&spec, &SimConfig::tiny_test()).unwrap().run().unwrap();
        let after = decode_feed_stats();
        assert_eq!(got.metrics.digest(), want);
        assert_eq!(after.feeders_admitted, mid.feeders_admitted + 1, "a spare CPU admits one");
        assert_eq!(
            after.chunks_fed + after.chunks_inline - mid.chunks_fed - mid.chunks_inline,
            mid.chunks_inline - before.chunks_inline,
            "fed or inline, the point refills its rings exactly as often"
        );
    });
}

#[test]
fn a_runner_with_every_cpu_busy_admits_no_feeder() {
    serial(|| {
        // One job per CPU of the budget `serial` pins.
        let runner = Runner::new(2);
        let reqs: Vec<RunRequest> = [SchedulerMode::Baseline, SchedulerMode::Slicc]
            .into_iter()
            .map(|mode| {
                RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
                    .with_mode(mode)
            })
            .collect();
        let before = decode_feed_stats();
        for outcome in runner.run_all(&reqs) {
            outcome.expect("tiny point completes");
        }
        let after = decode_feed_stats();
        assert_eq!(
            after.feeders_admitted, before.feeders_admitted,
            "jobs = nproc leaves no CPU for a feeder while every job is busy"
        );
        assert_eq!(after.feeders_refused - before.feeders_refused, reqs.len() as u64);
    });
}

#[test]
fn a_running_feeder_retires_when_a_committer_needs_its_cpu() {
    serial(|| {
        // A point long enough to still be running when the second
        // committer (played by this thread's seat) arrives.
        let req = RunRequest::new(
            Workload::TpcC1,
            TraceScale::small(),
            SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw),
        );
        let admitted = decode_feed_stats().feeders_admitted;
        std::thread::scope(|s| {
            let point = s.spawn(|| req.try_execute().expect("the point completes"));
            let deadline = Instant::now() + PROMPT;
            while decode_feed_stats().feeders_admitted == admitted {
                assert!(Instant::now() < deadline, "the feeder was never admitted");
                std::thread::yield_now();
            }
            assert_eq!(pool::busy_seats(), 2, "committer + feeder fill the budget");
            let committer = pool::seat();
            while pool::busy_seats() > 2 && !point.is_finished() {
                assert!(Instant::now() < deadline, "the feeder never retired");
                std::thread::yield_now();
            }
            assert!(!point.is_finished(), "retirement must not wait for the point to end");
            drop(committer);
            point.join().expect("the point completes after its feeder retired");
        });
    });
}
