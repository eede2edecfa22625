//! A process-global, lazily-built worker pool with a scoped fork-join API,
//! and the process-wide CPU budget that decides who may use it.
//!
//! The pool runs the engine's decode feeders. It amortizes thread creation across the whole process:
//! threads are spawned on demand (counted in [`spinups`], surfaced through
//! `RunnerStats`), capped at the host's available parallelism, and parked
//! idle between bursts.
//!
//! # Scoped API
//!
//! [`scope`] is a miniature `std::thread::scope` built on pooled threads:
//! closures spawned inside the scope may borrow from the enclosing stack
//! frame, and `scope` does not return until every spawned closure has
//! finished. Two properties make it deadlock-free even when the pool is
//! saturated by *other* scopes:
//!
//! - **The joining caller participates.** While waiting, the scope's own
//!   still-queued closures are stolen back and run inline on the joining
//!   thread, so a scope always makes progress with zero free pool threads.
//! - **Jobs are tagged per scope**, so the steal never runs another
//!   scope's work on a stack it might outlive.
//!
//! Panics inside a spawned closure are caught at the task boundary and
//! re-raised from [`scope`] after every task has settled, mirroring the
//! `std::thread::scope` contract.
//!
//! # CPU budget
//!
//! A [`Seat`] is one busy simulation thread. Work that must run takes a
//! seat unconditionally ([`seat`], [`seat_thread`]): a point's committer
//! for its run loop, a runner worker for its whole batch. Optional work
//! — a decode feeder — is admitted only while fewer seats are taken than
//! the host has CPUs ([`try_seat`]), and gives its seat back as soon as
//! [`over_budget`] reports that mandatory work has pushed the count past
//! the limit. So optional helpers only ever soak up CPUs nobody else
//! wants: a runner with `jobs = nproc` admits none while every job runs.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use crate::sync::lock_unpoisoned;

/// A queued unit of work: the owning scope's tag plus the erased closure.
/// The closure is claimed-`'static` via [`Scope::spawn`]'s lifetime
/// erasure; the scope's join barrier is what actually upholds the claim.
type Job = (u64, Box<dyn FnOnce() + Send + 'static>);

struct PoolState {
    queue: VecDeque<Job>,
    /// Workers currently parked in `wait` with nothing to run.
    idle: usize,
    /// OS threads ever spawned and still alive (workers never exit).
    spawned: usize,
}

/// The process-global pool. Private: all access goes through [`scope`].
struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
    limit: usize,
    spinups: AtomicU64,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), idle: 0, spawned: 0 }),
        work: Condvar::new(),
        limit: host_cpus(),
        spinups: AtomicU64::new(0),
    })
}

/// How many OS threads the global pool has ever spawned. Threads are
/// reused across calls, so a steady workload converges to a constant
/// spin-up count no matter how many scopes it opens; `RunnerStats`
/// reports this to make the reuse visible.
pub fn spinups() -> u64 {
    POOL.get().map(|p| p.spinups.load(Ordering::Relaxed)).unwrap_or(0)
}

impl Pool {
    fn submit(&'static self, tag: u64, job: Box<dyn FnOnce() + Send + 'static>) {
        let mut st = lock_unpoisoned(&self.state);
        st.queue.push_back((tag, job));
        // Spawn a worker only when nobody is parked to take the job and
        // the cap leaves headroom; otherwise an existing worker (or the
        // joining caller, via steal) will get to it.
        if st.idle == 0 && st.spawned < self.limit {
            st.spawned += 1;
            self.spinups.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name("slicc-pool".into())
                .spawn(move || self.worker_loop())
                .expect("spawning a pool worker");
        }
        drop(st);
        self.work.notify_one();
    }

    fn worker_loop(&'static self) {
        loop {
            let job = {
                let mut st = lock_unpoisoned(&self.state);
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    st.idle += 1;
                    st = self.work.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                    st.idle -= 1;
                }
            };
            // Task panics were already caught by the scope wrapper; a Job
            // never unwinds into the worker loop.
            (job.1)();
        }
    }

    /// Removes and returns one still-queued job belonging to `tag`, if any.
    fn steal_tagged(&'static self, tag: u64) -> Option<Box<dyn FnOnce() + Send + 'static>> {
        let mut st = lock_unpoisoned(&self.state);
        let pos = st.queue.iter().position(|(t, _)| *t == tag)?;
        st.queue.remove(pos).map(|(_, job)| job)
    }
}

#[derive(Default)]
struct ScopeStatus {
    outstanding: usize,
    panicked: bool,
}

#[derive(Default)]
struct ScopeSync {
    status: Mutex<ScopeStatus>,
    done: Condvar,
}

/// A handle for spawning borrowing closures onto the global pool; created
/// by [`scope`], joined before [`scope`] returns.
pub struct Scope<'env> {
    sync: Arc<ScopeSync>,
    tag: u64,
    // Invariant in 'env, like std::thread::scope: the compiler may not
    // shrink the lifetime the spawned closures were checked against.
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queues `f` on the global pool. `f` may borrow anything that lives
    /// for `'env`; the enclosing [`scope`] call joins every spawned
    /// closure before returning, which is what makes the borrow sound.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        lock_unpoisoned(&self.sync.status).outstanding += 1;
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the closure only runs before `scope` returns (the join
        // barrier in `scope` waits for `outstanding == 0` and steals
        // queued jobs back), so every `'env` borrow it captures is still
        // live whenever it executes. Lifetime erasure to 'static is how
        // the job crosses into the process-global queue.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        let sync = Arc::clone(&self.sync);
        pool().submit(
            self.tag,
            Box::new(move || {
                if catch_unwind(AssertUnwindSafe(boxed)).is_err() {
                    lock_unpoisoned(&sync.status).panicked = true;
                }
                lock_unpoisoned(&sync.status).outstanding -= 1;
                sync.done.notify_all();
            }),
        );
    }

    /// Blocks until every closure spawned on this scope has finished,
    /// running the scope's own still-queued closures inline while waiting.
    fn join(&self) {
        loop {
            // Caller participation: drain our queued jobs on this thread
            // so the scope completes even when every pool worker is busy
            // with other scopes' work.
            while let Some(job) = pool().steal_tagged(self.tag) {
                job();
            }
            let status = lock_unpoisoned(&self.sync.status);
            if status.outstanding == 0 {
                return;
            }
            // A short timeout re-arms the steal loop: a job can land in
            // the queue after our drain but find no free worker, and no
            // completion signal would ever wake us for it.
            let (status, _) = self
                .sync
                .done
                .wait_timeout(status, Duration::from_millis(1))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            drop(status);
        }
    }
}

/// Runs `f` with a [`Scope`] whose spawned closures execute on the global
/// worker pool, then joins them all before returning. Panics from spawned
/// closures are re-raised here after the join; a panic from `f` itself
/// still joins every already-spawned closure before propagating.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let scope = Scope {
        sync: Arc::new(ScopeSync::default()),
        tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    scope.join();
    let panicked = lock_unpoisoned(&scope.sync.status).panicked;
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(value) => {
            if panicked {
                panic!("a closure spawned on a pool scope panicked");
            }
            value
        }
    }
}

/// The host's available parallelism (which follows CPU affinity), at
/// least 1.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1)
}

/// Busy simulation threads against a CPU limit (see the module docs).
struct Budget {
    busy: AtomicUsize,
    limit: AtomicUsize,
}

impl Budget {
    fn new(limit: usize) -> Self {
        Budget { busy: AtomicUsize::new(0), limit: AtomicUsize::new(limit) }
    }

    fn limit(&self) -> usize {
        self.limit.load(Ordering::Relaxed)
    }

    fn seat(&'static self) -> Seat {
        self.busy.fetch_add(1, Ordering::SeqCst);
        Seat { budget: self }
    }

    fn try_seat(&'static self) -> Option<Seat> {
        let limit = self.limit();
        self.busy
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |busy| (busy < limit).then_some(busy + 1))
            .ok()
            .map(|_| Seat { budget: self })
    }

    fn over(&self) -> bool {
        self.busy.load(Ordering::SeqCst) > self.limit()
    }
}

/// The process-wide budget, limited to the host's CPUs.
fn budget() -> &'static Budget {
    static BUDGET: OnceLock<Budget> = OnceLock::new();
    BUDGET.get_or_init(|| Budget::new(host_cpus()))
}

thread_local! {
    /// Whether the calling thread already holds a bound seat.
    static SEATED: Cell<bool> = const { Cell::new(false) };
}

/// One busy simulation thread in the CPU budget; released on drop.
#[must_use = "a seat is released as soon as it is dropped"]
pub struct Seat {
    budget: &'static Budget,
}

impl Seat {
    /// Binds this seat to the calling thread for as long as the returned
    /// guard lives, so a committer that later runs on this thread
    /// ([`seat_thread`]) reuses it instead of counting the thread twice.
    pub fn bind(self) -> ThreadSeat {
        SEATED.with(|s| s.set(true));
        ThreadSeat { _seat: self, _not_send: PhantomData }
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        self.budget.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A [`Seat`] bound to the thread that holds it (see [`Seat::bind`]).
#[must_use = "a seat is released as soon as it is dropped"]
pub struct ThreadSeat {
    _seat: Seat,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ThreadSeat {
    fn drop(&mut self) {
        SEATED.with(|s| s.set(false));
    }
}

/// Takes a seat unconditionally: mandatory work counts itself even when
/// it pushes the budget past its limit.
pub fn seat() -> Seat {
    budget().seat()
}

/// Seats the calling thread unless it already holds a bound seat (a
/// runner worker's), in which case the work it does is already counted.
pub fn seat_thread() -> Option<ThreadSeat> {
    if SEATED.with(Cell::get) {
        None
    } else {
        Some(seat().bind())
    }
}

/// Admits optional work: a seat only while fewer seats are taken than
/// the budget's limit.
pub fn try_seat() -> Option<Seat> {
    budget().try_seat()
}

/// Whether mandatory work has pushed the busy count past the limit, the
/// signal for optional work to give its seat back.
pub fn over_budget() -> bool {
    budget().over()
}

/// Seats currently taken, process-wide.
pub fn busy_seats() -> usize {
    budget().busy.load(Ordering::SeqCst)
}

/// Replaces the budget's CPU limit (`None` restores the host's count).
/// For tests that need a fixed number of spare CPUs on any host.
#[doc(hidden)]
pub fn override_cpu_budget(limit: Option<usize>) {
    budget().limit.store(limit.unwrap_or_else(host_cpus).max(1), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_spawned_closure_and_joins() {
        let hits = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64, "join must wait for all closures");
    }

    #[test]
    fn scoped_closures_may_borrow_the_stack() {
        let data = [1u64, 2, 3, 4];
        let sum = Mutex::new(0u64);
        scope(|s| {
            for chunk in data.chunks(2) {
                s.spawn(|| {
                    *lock_unpoisoned(&sum) += chunk.iter().sum::<u64>();
                });
            }
        });
        assert_eq!(*lock_unpoisoned(&sum), 10);
    }

    #[test]
    fn nested_scopes_complete_even_when_saturated() {
        // Open more concurrent scopes than the pool has threads; caller
        // participation must keep every scope finishing.
        let total = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn panics_propagate_after_the_join() {
        let survivor = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {
                    survivor.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "the task panic must re-raise from scope()");
        assert_eq!(survivor.load(Ordering::Relaxed), 1, "sibling tasks still run to completion");
    }

    #[test]
    fn spinups_are_counted_and_bounded_by_the_host() {
        // 100 sequential one-task scopes would naively cost 100 thread
        // spawns; the pool must reuse workers, so the lifetime spin-up
        // count stays under the hard cap (available parallelism), which
        // is also shared with every other test in this binary.
        for _ in 0..100 {
            scope(|s| {
                s.spawn(|| {});
            });
        }
        let cap = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;
        assert!(spinups() >= 1, "at least one worker must have spun up");
        assert!(
            spinups() <= cap,
            "spin-ups ({}) must never exceed the worker cap ({cap})",
            spinups()
        );
    }

    /// A private budget, so the process-wide one other tests share is
    /// never disturbed.
    fn private_budget(limit: usize) -> &'static Budget {
        Box::leak(Box::new(Budget::new(limit)))
    }

    #[test]
    fn optional_seats_are_admitted_only_below_the_limit() {
        let b = private_budget(2);
        let committer = b.seat();
        let feeder = b.try_seat().expect("one CPU is spare");
        assert!(b.try_seat().is_none(), "committer + feeder fill a 2-CPU budget");
        assert!(!b.over(), "exactly at the limit is not over it");
        drop(feeder);
        let again = b.try_seat().expect("a released seat is admissible again");
        // A second committer counts itself regardless, and the running
        // feeder must see the budget is over so it can retire.
        let second = b.seat();
        assert!(b.over());
        drop(again);
        assert!(!b.over());
        assert!(b.try_seat().is_none(), "two committers leave no CPU spare");
        drop((committer, second));
        assert_eq!(b.busy.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn optional_admissions_never_exceed_the_limit_under_contention() {
        let b = private_budget(3);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        if let Some(seat) = b.try_seat() {
                            peak.fetch_max(b.busy.load(Ordering::SeqCst), Ordering::Relaxed);
                            drop(seat);
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::Relaxed) <= 3, "admission overshot the limit");
        assert_eq!(b.busy.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_bound_seat_makes_the_thread_count_once() {
        std::thread::spawn(|| {
            let outer = seat().bind();
            assert!(seat_thread().is_none(), "a seated thread is not counted twice");
            drop(outer);
            let inner = seat_thread().expect("an unseated thread takes a seat");
            assert!(seat_thread().is_none());
            drop(inner);
        })
        .join()
        .unwrap();
    }
}
