//! The split step's shared pieces: the decode feed and private segments.
//!
//! The engine (DESIGN §13) splits every core step into a **private
//! segment** — a run of records that provably touch only the core's own
//! site (L1-I hits in already-cached blocks, L1-D hits with the right
//! dirtiness) — followed by at most one **blocking record** that needs
//! shared state (the L2 NUCA, the directory, the NoC, other cores'
//! blooms). Cross-core effects queue in mailboxes drained at step
//! barriers, so nothing touches a core's site between that core's steps.
//!
//! This module holds:
//!
//! - [`Feed`]/[`ThreadStream`]: every thread's record stream, one
//!   order-preserving feed that a pooled feeder may fill ahead of the
//!   committer (DESIGN §11), drained through a ring with `peek`/`advance`
//!   split so classification can look at a record without consuming it;
//! - [`run_segment`]: the private-segment executor the committer runs at
//!   the start of every step.

use crate::system::{CoreSite, SegmentParams};
use slicc_common::pool::{self, Seat};
use slicc_common::{lock_unpoisoned, CoreId, ThreadId};
use slicc_obs::{EventKind, EventSink};
use slicc_trace::{Record, ThreadTrace, WorkloadSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, TryLockError};

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
/// thread's slot of the [`Feed`].
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
/// same records run through the full `System` paths.
pub(crate) fn run_segment(
    site: &mut CoreSite,
    stream: &mut ThreadStream<'_>,
    sink: &mut EventSink,
    core: CoreId,
    thread: ThreadId,
    spec: &WorkloadSpec,
    params: &SegmentParams,
) -> StopReason {
    let mut records: u32 = 0;
    while (records as usize) < BATCH {
        let Some(rec) = stream.peek() else {
            return StopReason::Exhausted;
        };
        let block = rec.pc.block_default();
        // One probe per cache classifies the record, and execution below
        // reuses the ways it found: the L1-I and L1-D are distinct
        // caches, so nothing in between can move either block.
        let mut ihit = None;
        if site.last_iblock != Some(block) {
            match site.l1i.probe(block) {
                Some(hit) if !params.fetch_transition_blocks => ihit = Some(hit),
                _ => return StopReason::Blocking,
            }
        }
        let mut dhit = None;
        if let Some(d) = rec.data {
            let dblock = d.addr.block_default();
            match site.l1d.probe(dblock) {
                // A store to a clean line needs a directory upgrade.
                Some(hit) if hit.dirty || !d.is_store => dhit = Some((dblock, d.is_store, hit)),
                _ => return StopReason::Blocking,
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
    StopReason::BatchCap
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
