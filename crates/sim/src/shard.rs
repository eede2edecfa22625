//! Intra-point parallelism: the decode feed, private segments,
//! speculation slots, lanes.
//!
//! The sharded engine (DESIGN §13) splits every core step into a
//! **private segment** — a run of records that provably touch only the
//! core's own site (L1-I hits in already-cached blocks, L1-D hits with
//! the right dirtiness) — followed by at most one **blocking record**
//! that needs shared state (the L2 NUCA, the directory, the NoC, other
//! cores' blooms). Private segments are pure functions of the site +
//! stream state they start from, so the committer can *speculatively*
//! dispatch the next segment of a core to a shard lane while it commits
//! other cores, then collect the result when that core is popped —
//! metrics stay byte-identical to running every segment inline, because
//! nothing can touch a core's site or its running thread's stream
//! between that core's steps (all thread movement happens inside the
//! core's own step; cross-core effects queue in mailboxes drained at
//! step barriers).
//!
//! This module holds the pieces both sides share:
//!
//! - [`Feed`]/[`ThreadStream`]: every thread's record stream, one
//!   order-preserving feed that a pooled feeder may fill ahead of the
//!   committer (DESIGN §11), drained through a ring with `peek`/`advance`
//!   split so classification can look at a record without consuming it;
//! - [`run_segment`]: the private-segment executor (used inline by the
//!   committer at `point_threads = 1`, by shard lanes otherwise);
//! - [`SpecSlot`]/[`LaneSet`]: the per-core speculation slot state
//!   machine (`Empty → Queued → Running → Done`) and the lane worker
//!   queues that drive it. The committer can steal a `Queued` task and
//!   run it inline, so a saturated worker pool degrades to sequential
//!   execution instead of deadlocking.

use crate::system::{CoreSite, SegmentParams};
use slicc_common::pool::{self, Seat};
use slicc_common::{lock_unpoisoned, CoreId, ThreadId};
use slicc_obs::{CoreSink, EventKind, LaneStat};
use slicc_trace::{Record, ThreadTrace, WorkloadSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, TryLockError};
use std::time::Instant;

/// Records processed per engine step before re-entering the heap.
pub(crate) const BATCH: usize = 100;

/// Records decoded per refill of a thread's reusable ring. Larger than
/// [`BATCH`] so one refill feeds several heap steps; any value is
/// semantics-preserving (the ring replays the generator's exact stream).
pub(crate) const DECODE_BATCH: usize = 256;

/// Filled [`DECODE_BATCH`] chunks a thread's feed holds ahead of its
/// ring, at most. With the ring's own buffer, a fed thread owns
/// `FEED_DEPTH + 1` chunk buffers.
pub(crate) const FEED_DEPTH: usize = 2;

static CHUNKS_FED: AtomicU64 = AtomicU64::new(0);
static CHUNKS_INLINE: AtomicU64 = AtomicU64::new(0);
static FEEDERS_ADMITTED: AtomicU64 = AtomicU64::new(0);
static FEEDERS_REFUSED: AtomicU64 = AtomicU64::new(0);

/// Process-wide decode-feed counters since start-up, exported through
/// the §14 registry as `engine_decode_*`. They live outside
/// `RunMetrics` because how records reach a ring never changes what is
/// simulated, so they must not move a digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeFeedStats {
    /// Ring refills served by a chunk a feeder had filled ahead.
    pub chunks_fed: u64,
    /// Ring refills the committer generated itself.
    pub chunks_inline: u64,
    /// Feeders the CPU budget admitted.
    pub feeders_admitted: u64,
    /// Points that wanted a feeder and were refused one by the CPU
    /// budget (counted once per point).
    pub feeders_refused: u64,
}

/// A snapshot of the process-wide [`DecodeFeedStats`].
pub fn decode_feed_stats() -> DecodeFeedStats {
    DecodeFeedStats {
        chunks_fed: CHUNKS_FED.load(Ordering::Relaxed),
        chunks_inline: CHUNKS_INLINE.load(Ordering::Relaxed),
        feeders_admitted: FEEDERS_ADMITTED.load(Ordering::Relaxed),
        feeders_refused: FEEDERS_REFUSED.load(Ordering::Relaxed),
    }
}

/// One thread's share of the feed: its generator, the chunks filled
/// ahead of its ring (in generator order), and the empty buffers a
/// feeder may fill. Every chunk is produced under this slot's lock, by
/// whichever side gets there first, so the stream is the generator's
/// exact order whether a feeder runs, races or never starts.
struct FeedSlot<'a> {
    trace: ThreadTrace<'a>,
    ready: VecDeque<Vec<Record>>,
    spare: Vec<Vec<Record>>,
    /// The generator has run dry; no further chunk exists.
    exhausted: bool,
}

impl FeedSlot<'_> {
    fn mark_exhausted(&mut self) {
        self.exhausted = true;
        self.spare.clear();
    }
}

/// Every thread's record stream for one point, fillable ahead of the
/// committer by one pooled feeder (see [`Feed::admit`]). The feeder
/// never allocates: the committer provisions each slot's chunk buffers
/// once on admission, and a ring hands its drained buffer back for
/// every chunk it takes.
pub(crate) struct Feed<'a> {
    slots: Vec<Mutex<FeedSlot<'a>>>,
    /// The running feeder's seat; given back by [`Feed::retire`] or
    /// [`Feed::halt`].
    seat: Mutex<Option<Seat>>,
    /// Whether a feeder was admitted (refills then wake it when parked).
    fed: AtomicBool,
    halted: AtomicBool,
    /// Ring refills so far; a feeder parks only if none happened since
    /// its last fruitless pass.
    refills: AtomicU64,
    /// Feeders parked on `wake`; the committer signals only when > 0.
    parked: AtomicUsize,
    wake_lock: Mutex<()>,
    wake: Condvar,
}

impl<'a> Feed<'a> {
    pub(crate) fn new(traces: impl IntoIterator<Item = ThreadTrace<'a>>) -> Self {
        let slot = |trace| {
            Mutex::new(FeedSlot { trace, ready: VecDeque::new(), spare: Vec::new(), exhausted: false })
        };
        Feed {
            slots: traces.into_iter().map(slot).collect(),
            seat: Mutex::new(None),
            fed: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            refills: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Asks the CPU budget for one feeder's seat. On success provisions
    /// every unfinished slot's chunk buffers and returns true: the caller
    /// must then start [`Feed::run_feeder`]. A feed with no thread (a
    /// zero-task point) has nothing to fill and asks for no seat.
    pub(crate) fn admit(&self) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let Some(seat) = pool::try_seat() else {
            FEEDERS_REFUSED.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        *lock_unpoisoned(&self.seat) = Some(seat);
        FEEDERS_ADMITTED.fetch_add(1, Ordering::Relaxed);
        self.provision();
        true
    }

    /// Gives every unfinished slot its [`FEED_DEPTH`] chunk buffers and
    /// FIFO room, so a feeder can fill ahead without allocating.
    fn provision(&self) {
        for slot in &self.slots {
            let mut slot = lock_unpoisoned(slot);
            if !slot.exhausted {
                slot.ready.reserve_exact(FEED_DEPTH);
                slot.spare = (0..FEED_DEPTH).map(|_| Vec::with_capacity(DECODE_BATCH)).collect();
            }
        }
        self.fed.store(true, Ordering::SeqCst);
    }

    /// Refills thread `t`'s drained `ring` with its next chunk: a ready
    /// one if a feeder got there first, else generated inline under the
    /// slot's lock. Returns false once the generator is exhausted.
    fn refill(&self, t: usize, ring: &mut Vec<Record>) -> bool {
        let mut slot = lock_unpoisoned(&self.slots[t]);
        ring.clear();
        if let Some(chunk) = slot.ready.pop_front() {
            let drained = std::mem::replace(ring, chunk);
            slot.spare.push(drained);
            drop(slot);
            CHUNKS_FED.fetch_add(1, Ordering::Relaxed);
        } else {
            if slot.exhausted || slot.trace.fill(ring, DECODE_BATCH) == 0 {
                slot.mark_exhausted();
                return false;
            }
            drop(slot);
            CHUNKS_INLINE.fetch_add(1, Ordering::Relaxed);
        }
        if self.fed.load(Ordering::Relaxed) {
            self.nudge();
        }
        true
    }

    /// Counts a refill and wakes a parked feeder: the FIFO it drained, or
    /// the one it found empty, has room again.
    fn nudge(&self) {
        self.refills.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = lock_unpoisoned(&self.wake_lock);
            self.wake.notify_all();
        }
    }

    /// Fills one chunk ahead for thread `t` if its FIFO has room. Skips a
    /// slot the committer holds: it is refilling that ring right now.
    fn top_up(&self, t: usize) -> bool {
        let mut slot = match self.slots[t].try_lock() {
            Ok(slot) => slot,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        if slot.exhausted || slot.ready.len() >= FEED_DEPTH {
            return false;
        }
        let Some(mut chunk) = slot.spare.pop() else {
            return false;
        };
        if slot.trace.fill(&mut chunk, DECODE_BATCH) == 0 {
            slot.mark_exhausted();
            return false;
        }
        slot.ready.push_back(chunk);
        true
    }

    /// The feeder body, run on a pool thread: round-robin over the
    /// threads topping up each FIFO, park while all are full, and return
    /// on [`Feed::halt`] or — giving its seat back — as soon as the CPU
    /// budget is over its limit.
    pub(crate) fn run_feeder(&self) {
        loop {
            // Checked before every pass, not only per slot: a halted feed
            // with no slot must not spin through empty passes.
            if self.halted.load(Ordering::SeqCst) {
                return;
            }
            let seen = self.refills.load(Ordering::SeqCst);
            let mut filled = false;
            for t in 0..self.slots.len() {
                if self.halted.load(Ordering::SeqCst) {
                    return;
                }
                if self.top_up(t) {
                    filled = true;
                    if pool::over_budget() {
                        return self.retire();
                    }
                }
            }
            if !filled {
                let mut guard = lock_unpoisoned(&self.wake_lock);
                self.parked.fetch_add(1, Ordering::SeqCst);
                while self.refills.load(Ordering::SeqCst) == seen
                    && !self.halted.load(Ordering::SeqCst)
                {
                    guard = self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
                self.parked.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                if pool::over_budget() {
                    return self.retire();
                }
            }
        }
    }

    /// Gives the feeder's seat back; the committer generates inline
    /// whatever the feeder would have filled.
    fn retire(&self) {
        lock_unpoisoned(&self.seat).take();
    }

    /// Stops the feeder and releases its seat. Idempotent; called by
    /// [`HaltGuard`] on every committer exit.
    pub(crate) fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
        {
            let _guard = lock_unpoisoned(&self.wake_lock);
            self.wake.notify_all();
        }
        lock_unpoisoned(&self.seat).take();
    }
}

/// Halts a [`Feed`]'s feeder when dropped, so no committer exit —
/// error, cancellation, deadline, watchdog or panic — can leave a feeder
/// parked (the pool scope joins it) or holding a CPU seat.
pub(crate) struct HaltGuard<'x, 'a>(pub(crate) &'x Feed<'a>);

impl Drop for HaltGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.halt();
    }
}

/// One thread's record stream: a reusable ring drained from the
/// thread's slot of the [`Feed`]. Checked out alongside its core's site
/// when a segment is speculated.
pub(crate) struct ThreadStream<'a> {
    feed: Arc<Feed<'a>>,
    thread: usize,
    ring: Vec<Record>,
    pos: usize,
    /// Records actually executed (diagnostics; equals the old
    /// `ThreadTrace::emitted` exactly, which batching would overcount).
    executed: u64,
}

impl<'a> ThreadStream<'a> {
    /// Thread `thread`'s stream over `feed`.
    pub(crate) fn new(feed: Arc<Feed<'a>>, thread: usize) -> Self {
        ThreadStream { feed, thread, ring: Vec::new(), pos: 0, executed: 0 }
    }

    /// The next record without consuming it, refilling the ring one
    /// [`DECODE_BATCH`] chunk at a time. Returns `None` exactly when the
    /// generator is exhausted: the feed changes who decodes, never what.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<Record> {
        if let Some(&rec) = self.ring.get(self.pos) {
            return Some(rec);
        }
        self.pos = 0;
        if !self.feed.refill(self.thread, &mut self.ring) {
            return None;
        }
        Some(self.ring[0])
    }

    /// Consumes the record last returned by [`ThreadStream::peek`].
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.pos += 1;
        self.executed += 1;
    }

    /// Peek + advance, for callers that never split the two.
    #[inline]
    pub(crate) fn next(&mut self) -> Option<Record> {
        let rec = self.peek()?;
        self.advance();
        Some(rec)
    }

    /// Records executed so far (diagnostics).
    pub(crate) fn executed(&self) -> u64 {
        self.executed
    }
}

/// Why a private segment stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopReason {
    /// The next record needs shared state; it was peeked, not consumed.
    /// The committer re-peeks and executes it through the full
    /// `System::ifetch`/`data_access` path, which ends the step.
    Blocking,
    /// The stream is exhausted: the thread completes.
    Exhausted,
    /// [`BATCH`] private records ran; the step ends to keep the heap
    /// cadence bounded, no blocking record pending.
    BatchCap,
}

/// What one private segment did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegmentReport {
    /// Private records executed (each one L1 hit, timer-charged locally).
    pub(crate) records: u32,
    pub(crate) stop: StopReason,
}

/// Executes one private segment: up to [`BATCH`] records that are all
/// classifiable as private against the current site state. A record is
/// private iff its fetch either stays in the current block or hits an
/// already-cached block with no fetch side-channel configured
/// (prefetcher / PIF / bloom-accuracy probe), and its data access (if
/// any) hits the L1-D — dirty, for stores (a store to a clean line
/// needs a directory upgrade). Everything else stops the segment with
/// [`StopReason::Blocking`], leaving the record un-consumed.
///
/// The execution bodies mirror the hit paths of `System::ifetch` /
/// `System::data_access` exactly (see `CoreSite::private_ifetch_hit` /
/// `private_data_hit`), so a segment run here is byte-equivalent to the
/// same records run inline by the sequential engine.
pub(crate) fn run_segment(
    site: &mut CoreSite,
    stream: &mut ThreadStream<'_>,
    sink: &mut CoreSink,
    core: CoreId,
    thread: ThreadId,
    spec: &WorkloadSpec,
    params: &SegmentParams,
) -> SegmentReport {
    let mut records: u32 = 0;
    while (records as usize) < BATCH {
        let Some(rec) = stream.peek() else {
            return SegmentReport { records, stop: StopReason::Exhausted };
        };
        let block = rec.pc.block_default();
        // One probe per cache classifies the record, and execution below
        // reuses the ways it found: the L1-I and L1-D are distinct
        // caches, so nothing in between can move either block.
        let mut ihit = None;
        if site.last_iblock != Some(block) {
            match site.l1i.probe(block) {
                Some(hit) if !params.fetch_transition_blocks => ihit = Some(hit),
                _ => return SegmentReport { records, stop: StopReason::Blocking },
            }
        }
        let mut dhit = None;
        if let Some(d) = rec.data {
            let dblock = d.addr.block_default();
            match site.l1d.probe(dblock) {
                // A store to a clean line needs a directory upgrade.
                Some(hit) if hit.dirty || !d.is_store => dhit = Some((dblock, d.is_store, hit)),
                _ => return SegmentReport { records, stop: StopReason::Blocking },
            }
        }

        // Private: consume and execute against the site alone, in the
        // exact order of the sequential per-record body.
        stream.advance();
        site.timer.retire_instruction();
        if let Some(hit) = ihit {
            site.last_iblock = Some(block);
            let fetch_start = if sink.is_enabled() { site.timer.now() } else { 0 };
            site.private_ifetch_hit(block, hit, params);
            if params.uses_agents {
                site.agent.on_fetch(true, None);
            }
            if sink.is_enabled() {
                let segment = spec.pool.segment_of_block(block);
                if segment != site.last_segment {
                    site.last_segment = segment;
                    if let Some(segment) = segment {
                        sink.record(
                            core,
                            fetch_start,
                            EventKind::SegmentBoundary { thread: thread.raw(), segment },
                        );
                    }
                }
            }
        }
        if let Some((dblock, is_store, hit)) = dhit {
            site.private_data_hit(dblock, is_store, hit, params);
        }
        records += 1;
    }
    SegmentReport { records, stop: StopReason::BatchCap }
}

/// Everything a speculated segment needs, checked out of the engine:
/// the core's site, the running thread's stream, and the core's event
/// ring. Ownership transfers through the slot mutex, so lanes never
/// alias engine state.
/// How a collected speculation arrived at the committer: finished ahead
/// of time (the only outcome that buys wall-clock), finished only after
/// the committer blocked on it, or stolen back and run inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CollectKind {
    Overlapped,
    Waited,
    Stolen,
}

pub(crate) struct SpecTask<'a> {
    pub(crate) core: CoreId,
    pub(crate) thread: ThreadId,
    pub(crate) site: Box<CoreSite>,
    pub(crate) stream: ThreadStream<'a>,
    pub(crate) sink: CoreSink,
}

enum SlotState<'a> {
    /// Nothing speculated for this core.
    Empty,
    /// Dispatched, not yet picked up by a lane; the committer may steal
    /// it and run it inline.
    Queued(SpecTask<'a>),
    /// A lane is executing the segment; the committer waits on `done`.
    Running,
    /// Segment finished; the task (with mutated site/stream) waits for
    /// collection.
    Done(SpecTask<'a>, SegmentReport),
}

struct SpecSlot<'a> {
    state: Mutex<SlotState<'a>>,
    done: Condvar,
}

struct LaneQueue {
    queue: Mutex<VecDeque<usize>>,
    work: Condvar,
}

/// One lane's profiling cells (task count, busy/idle wall time). Only
/// written when the lane set was built with profiling on; reads fold
/// into [`LaneStat`]s for the lane-profile report.
#[derive(Default)]
struct LaneCells {
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
    idle_nanos: AtomicU64,
}

/// The shard lanes of one parallel point: a per-core speculation slot
/// plus `lanes` worker queues. The partition maps each core to one lane
/// so a core's segments always run on the same worker (site state
/// stays cache-warm on that worker's CPU), but correctness never
/// depends on the mapping — any partition yields identical digests.
pub(crate) struct LaneSet<'a> {
    slots: Vec<SpecSlot<'a>>,
    lanes: Vec<LaneQueue>,
    stats: Vec<LaneCells>,
    profile: bool,
    shutdown: AtomicBool,
}

fn run_task(task: &mut SpecTask<'_>, spec: &WorkloadSpec, params: &SegmentParams) -> SegmentReport {
    run_segment(
        &mut task.site,
        &mut task.stream,
        &mut task.sink,
        task.core,
        task.thread,
        spec,
        params,
    )
}

impl<'a> LaneSet<'a> {
    pub(crate) fn new(cores: usize, lanes: usize, profile: bool) -> Self {
        let lanes = lanes.max(1);
        LaneSet {
            slots: (0..cores)
                .map(|_| SpecSlot { state: Mutex::new(SlotState::Empty), done: Condvar::new() })
                .collect(),
            lanes: (0..lanes)
                .map(|_| LaneQueue { queue: Mutex::new(VecDeque::new()), work: Condvar::new() })
                .collect(),
            stats: (0..lanes).map(|_| LaneCells::default()).collect(),
            profile,
            shutdown: AtomicBool::new(false),
        }
    }

    pub(crate) fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Folds the per-lane profiling cells into reportable stats (all
    /// zeros when profiling was off).
    pub(crate) fn lane_stats(&self) -> Vec<LaneStat> {
        self.stats
            .iter()
            .map(|c| LaneStat {
                tasks: c.tasks.load(Ordering::Relaxed),
                busy_nanos: c.busy_nanos.load(Ordering::Relaxed),
                idle_nanos: c.idle_nanos.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Queues a speculated segment for `core` on `lane`.
    pub(crate) fn dispatch(&self, core_idx: usize, lane: usize, task: SpecTask<'a>) {
        {
            let mut state = lock_unpoisoned(&self.slots[core_idx].state);
            debug_assert!(matches!(*state, SlotState::Empty), "dispatch over a live slot");
            *state = SlotState::Queued(task);
        }
        let lane = &self.lanes[lane];
        lock_unpoisoned(&lane.queue).push_back(core_idx);
        lane.work.notify_one();
    }

    /// Collects the speculated segment for `core`: takes the finished
    /// result, waits for a running one, or steals a still-queued one and
    /// runs it inline on the calling (committer) thread — the
    /// degradation path that keeps a starved worker pool deadlock-free.
    /// The third return reports how the result arrived — genuinely
    /// overlapped, waited-for, or stolen — feeding the priming throttle.
    pub(crate) fn collect(
        &self,
        core_idx: usize,
        spec: &WorkloadSpec,
        params: &SegmentParams,
    ) -> (SpecTask<'a>, SegmentReport, CollectKind) {
        let slot = &self.slots[core_idx];
        let mut state = lock_unpoisoned(&slot.state);
        let mut waited = false;
        loop {
            match std::mem::replace(&mut *state, SlotState::Empty) {
                SlotState::Queued(mut task) => {
                    drop(state);
                    let report = run_task(&mut task, spec, params);
                    return (task, report, CollectKind::Stolen);
                }
                SlotState::Done(task, report) => {
                    let kind =
                        if waited { CollectKind::Waited } else { CollectKind::Overlapped };
                    return (task, report, kind);
                }
                SlotState::Running => {
                    waited = true;
                    *state = SlotState::Running;
                    state = slot
                        .done
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                SlotState::Empty => unreachable!("collect on a core that was never primed"),
            }
        }
    }

    /// Lane worker body: pop a core index, claim its queued task, run
    /// the segment locklessly, publish the result. Queue entries are
    /// hints, not ownership — a stale entry (the committer stole the
    /// task) is skipped by the state machine.
    pub(crate) fn drive(&self, lane: usize, spec: &WorkloadSpec, params: &SegmentParams) {
        loop {
            let idle_t0 = self.profile.then(Instant::now);
            let core_idx = {
                let q = &self.lanes[lane];
                let mut queue = lock_unpoisoned(&q.queue);
                loop {
                    if let Some(c) = queue.pop_front() {
                        break c;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        if let Some(t0) = idle_t0 {
                            self.stats[lane]
                                .idle_nanos
                                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                        return;
                    }
                    queue =
                        q.work.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            if let Some(t0) = idle_t0 {
                self.stats[lane]
                    .idle_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            let slot = &self.slots[core_idx];
            let mut task = {
                let mut state = lock_unpoisoned(&slot.state);
                match std::mem::replace(&mut *state, SlotState::Running) {
                    SlotState::Queued(task) => task,
                    other => {
                        // Stale hint: the committer already stole it (or
                        // this entry outlived a whole dispatch cycle).
                        *state = other;
                        continue;
                    }
                }
            };
            let busy_t0 = self.profile.then(Instant::now);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_task(&mut task, spec, params)
            }));
            if let Some(t0) = busy_t0 {
                let cells = &self.stats[lane];
                cells.tasks.fetch_add(1, Ordering::Relaxed);
                cells.busy_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            let report = match &outcome {
                Ok(report) => *report,
                // Keep the slot state machine coherent even if the
                // segment panicked (an engine bug): publish the task so
                // the committer never deadlocks, then re-raise; the pool
                // scope re-raises it again after the run, discarding the
                // poisoned result.
                Err(_) => SegmentReport { records: 0, stop: StopReason::Blocking },
            };
            {
                let mut state = lock_unpoisoned(&slot.state);
                *state = SlotState::Done(task, report);
            }
            slot.done.notify_all();
            if let Err(payload) = outcome {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Tells every lane worker to exit once its queue is empty.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for lane in &self.lanes {
            let _guard = lock_unpoisoned(&lane.queue);
            lane.work.notify_all();
        }
    }

    /// Drains every outstanding speculation for an error-path snapshot:
    /// queued tasks come back untouched (`None` report), running ones
    /// are waited out, finished ones are taken as-is. The caller checks
    /// everything back in before reading engine state.
    pub(crate) fn settle(&self) -> Vec<(SpecTask<'a>, Option<SegmentReport>)> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let mut state = lock_unpoisoned(&slot.state);
            loop {
                match std::mem::replace(&mut *state, SlotState::Empty) {
                    SlotState::Empty => break,
                    SlotState::Queued(task) => {
                        out.push((task, None));
                        break;
                    }
                    SlotState::Done(task, report) => {
                        out.push((task, Some(report)));
                        break;
                    }
                    SlotState::Running => {
                        *state = SlotState::Running;
                        state = slot
                            .done
                            .wait(state)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            }
        }
        out
    }
}

/// Shuts the lanes down when dropped, so a committer panic can never
/// leave lane workers parked forever (the pool scope joins them).
pub(crate) struct ShutdownGuard<'x, 'a>(pub(crate) &'x LaneSet<'a>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicc_trace::{TraceScale, Workload};

    fn feed_of(spec: &WorkloadSpec) -> Arc<Feed<'_>> {
        Arc::new(Feed::new(spec.threads().map(|t| spec.thread_trace(t))))
    }

    /// Every thread's stream straight from its generator.
    fn generated(spec: &WorkloadSpec) -> Vec<Vec<Record>> {
        spec.threads().map(|t| spec.thread_trace(t).collect()).collect()
    }

    /// Drains every thread's stream, interleaving the threads a few
    /// records at a time the way the committer moves between cores.
    fn drain_interleaved(feed: &Arc<Feed<'_>>) -> Vec<Vec<Record>> {
        let n = feed.slots.len();
        let mut streams: Vec<ThreadStream<'_>> =
            (0..n).map(|t| ThreadStream::new(Arc::clone(feed), t)).collect();
        let mut out = vec![Vec::new(); n];
        let mut live = n;
        while live > 0 {
            live = 0;
            for (t, stream) in streams.iter_mut().enumerate() {
                for _ in 0..(37 + 11 * t) {
                    match stream.next() {
                        Some(rec) => out[t].push(rec),
                        None => break,
                    }
                }
                if stream.peek().is_some() {
                    live += 1;
                }
            }
        }
        for (t, stream) in streams.iter().enumerate() {
            assert_eq!(stream.executed(), out[t].len() as u64);
        }
        out
    }

    fn specs() -> Vec<WorkloadSpec> {
        Workload::ALL.iter().map(|w| w.spec(TraceScale::tiny())).collect()
    }

    #[test]
    fn streams_match_the_generator_with_no_feeder() {
        for spec in specs() {
            let feed = feed_of(&spec);
            assert_eq!(drain_interleaved(&feed), generated(&spec), "{}", spec.name);
        }
    }

    #[test]
    fn streams_match_the_generator_with_the_feeder_run_ahead_first() {
        for spec in specs() {
            let feed = feed_of(&spec);
            feed.provision();
            while (0..feed.slots.len()).filter(|&t| feed.top_up(t)).count() > 0 {}
            for slot in &feed.slots {
                let slot = lock_unpoisoned(slot);
                assert!(slot.exhausted || slot.ready.len() == FEED_DEPTH, "FIFOs fill to depth");
                assert!(slot.ready.len() <= FEED_DEPTH);
            }
            assert_eq!(drain_interleaved(&feed), generated(&spec), "{}", spec.name);
        }
    }

    #[test]
    fn streams_match_the_generator_with_the_feeder_racing() {
        for spec in specs() {
            let feed = feed_of(&spec);
            feed.provision();
            let drained = std::thread::scope(|s| {
                let feeder = s.spawn(|| feed.run_feeder());
                let halt = HaltGuard(&feed);
                let drained = drain_interleaved(&feed);
                drop(halt);
                feeder.join().expect("the feeder exits on halt");
                drained
            });
            assert_eq!(drained, generated(&spec), "{}", spec.name);
        }
    }

    #[test]
    fn a_feed_with_no_thread_admits_no_feeder_and_a_halted_one_returns() {
        let feed = Feed::new(std::iter::empty());
        assert!(!feed.admit(), "nothing to fill, no seat taken");
        // Even started by hand, a feeder over no slot returns on halt
        // instead of spinning through empty passes.
        feed.provision();
        std::thread::scope(|s| {
            let feeder = s.spawn(|| feed.run_feeder());
            while feed.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            feed.halt();
            feeder.join().expect("a halted feeder over no slot returns");
        });
        feed.run_feeder();
    }

    #[test]
    fn a_parked_feeder_wakes_on_halt_and_a_drained_ring_recycles_its_buffer() {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        let feed = feed_of(&spec);
        feed.provision();
        std::thread::scope(|s| {
            // Nothing is consumed, so the feeder fills every FIFO and parks.
            let feeder = s.spawn(|| feed.run_feeder());
            while feed.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let mut stream = ThreadStream::new(Arc::clone(&feed), 0);
            stream.peek().expect("thread 0 has records");
            {
                let slot = lock_unpoisoned(&feed.slots[0]);
                // The ring took one ready chunk and handed its own buffer
                // back, so the slot still owns FEED_DEPTH buffers.
                assert_eq!(slot.ready.len() + slot.spare.len(), FEED_DEPTH);
            }
            feed.halt();
            feeder.join().expect("halt wakes a parked feeder");
        });
    }
}
