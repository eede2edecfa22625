//! Per-thread deterministic trace generation.
//!
//! A [`ThreadTrace`] is an iterator of [`Record`]s for one transaction
//! (one worker thread). Construction derives the thread's RNG stream from
//! the workload seed and the thread id, picks the transaction type from
//! the mix, and expands the segment-visit plan; iteration then walks the
//! plan emitting instruction fetches and data references. The same
//! `(spec, thread)` pair always regenerates the identical stream.

use crate::access::{DataAccess, Record};
use crate::workload::{DataPattern, WorkloadSpec, DB_REGION_FIRST_BLOCK};
use slicc_common::{Addr, SplitMix64, ThreadId, TxnTypeId};

/// Capacity of the recently-touched private data block window.
const RECENT_WINDOW: usize = 8;
/// Blocks per control-flow cluster: a visit walks the segment as a
/// sequence of small clusters (functions / loop bodies), each repeated
/// `passes_per_visit` times before moving on. Re-reference distance is a
/// few blocks — what lets insertion policies (LIP/BIP/RRIP) promote live
/// blocks, as on real instruction streams.
const CLUSTER_BLOCKS: u32 = 6;
/// Data accesses per streamed block (sequential scan of 4-byte words
/// would give 16; MapReduce-style record parsing revisits a little less).
const STREAM_ACCESSES_PER_BLOCK: u64 = 16;

/// The deterministic access stream of one thread.
///
/// Created by [`WorkloadSpec::thread_trace`].
///
/// # Example
///
/// ```
/// use slicc_trace::{TraceScale, Workload};
/// use slicc_common::ThreadId;
///
/// let spec = Workload::MapReduce.spec(TraceScale::tiny());
/// let mut trace = spec.thread_trace(ThreadId::new(3));
/// let first = trace.next().expect("traces are non-empty");
/// assert!(first.pc.raw() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct ThreadTrace<'a> {
    spec: &'a WorkloadSpec,
    thread: ThreadId,
    txn_type: TxnTypeId,
    plan: Vec<u32>,
    /// Per plan-entry: the segment's fixed block-visit permutation (the
    /// code's layout — identical for every thread executing the segment).
    orders: Vec<std::sync::Arc<Vec<u32>>>,
    rng: SplitMix64,

    // Cursor into the plan: within a visit, the segment is walked as
    // clusters of CLUSTER_BLOCKS consecutive order-positions, each
    // cluster repeated `passes_per_visit` times.
    visit: usize,
    cluster: u32,
    pass: u32,
    /// Position within the current cluster (0..CLUSTER_BLOCKS).
    block: u32,
    instr: u32,
    finished: bool,
    /// Live blocks of the current visit's segment.
    seg_blocks: u32,
    /// Byte address of the current block, re-derived only when the
    /// cursor moves to a new block; each record's pc offsets from it.
    block_base: u64,

    // Data-access state.
    data: DataCursor,
    recent: Vec<u64>,
    recent_next: usize,
    emitted: u64,
}

/// The thread's data-reference pattern with every per-thread constant
/// resolved once at construction.
#[derive(Clone, Debug)]
enum DataCursor {
    OltpMix {
        p_hot: f64,
        /// `p_hot + p_recent`: the upper bound of the recent-block draw.
        p_hot_or_recent: f64,
        hot_store_frac: f64,
        /// Store rate on private blocks: they absorb the stores the
        /// read-mostly hot region does not, keeping the overall store
        /// fraction at `store_frac` (§5.5: 45%).
        private_store_frac: f64,
        hot_base: u64,
    },
    Streaming {
        /// First block of the thread's partition.
        base: u64,
        partition: u64,
        /// Current block within the partition.
        block: u64,
        /// Accesses made to the current block so far.
        touches: u64,
    },
}

impl<'a> ThreadTrace<'a> {
    /// Builds the trace generator for `thread`.
    pub(crate) fn new(spec: &'a WorkloadSpec, thread: ThreadId) -> Self {
        let mut rng = spec.thread_rng(thread);
        let txn_type = spec.choose_type(&mut rng);
        let plan = spec.expand_plan(txn_type, &mut rng);
        let mut order_cache: std::collections::HashMap<u32, std::sync::Arc<Vec<u32>>> =
            std::collections::HashMap::new();
        let orders = plan
            .iter()
            .map(|&seg| {
                order_cache
                    .entry(seg)
                    .or_insert_with(|| {
                        std::sync::Arc::new(segment_visit_order(
                            seg,
                            spec.pool.segment(seg).num_blocks(),
                            spec.code.sequential_run_blocks.max(1),
                        ))
                    })
                    .clone()
            })
            .collect();
        let data = &spec.data;
        let data = match data.pattern {
            DataPattern::OltpMix { p_hot, p_recent, hot_store_frac } => DataCursor::OltpMix {
                p_hot,
                p_hot_or_recent: p_hot + p_recent,
                hot_store_frac,
                private_store_frac: ((data.store_frac - p_hot * hot_store_frac) / (1.0 - p_hot))
                    .clamp(0.0, 1.0),
                hot_base: spec.hot_region_base(txn_type),
            },
            DataPattern::Streaming => {
                let partition = (data.db_blocks / spec.num_tasks.max(1) as u64).max(1);
                // Scans start at a per-thread offset and wrap within the
                // partition: aligned starts would phase-lock every
                // thread's DRAM channel/bank sequence.
                let offset = SplitMix64::new(0x5ca0 ^ thread.raw() as u64).next_below(partition);
                DataCursor::Streaming {
                    base: DB_REGION_FIRST_BLOCK + thread.raw() as u64 * partition,
                    partition,
                    block: offset,
                    touches: 0,
                }
            }
        };
        let mut trace = ThreadTrace {
            spec,
            thread,
            txn_type,
            plan,
            orders,
            rng,
            visit: 0,
            cluster: 0,
            pass: 0,
            block: 0,
            instr: 0,
            finished: false,
            seg_blocks: 0,
            block_base: 0,
            data,
            recent: Vec::with_capacity(RECENT_WINDOW),
            recent_next: 0,
            emitted: 0,
        };
        trace.locate_visit();
        trace
    }

    /// The thread this trace belongs to.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The transaction type this thread executes.
    pub fn txn_type(&self) -> TxnTypeId {
        self.txn_type
    }

    /// The expanded segment-visit plan (diagnostics; segment ids).
    pub fn plan(&self) -> &[u32] {
        &self.plan
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Batch-decodes up to `n` records, appending them to `buf`; returns
    /// how many were produced (fewer than `n` only at end of trace).
    ///
    /// Exactly equivalent to calling [`Iterator::next`] `n` times — the
    /// point is locality, not semantics: consumers that interleave one
    /// `next()` per simulated instruction pay for the generator's branchy
    /// cursor state machine on every step, while refilling a reusable
    /// ring in batches keeps that state resident and amortizes the calls.
    pub fn fill(&mut self, buf: &mut Vec<Record>, n: usize) -> usize {
        buf.reserve(n);
        let before = buf.len();
        for _ in 0..n {
            match self.next() {
                Some(rec) => buf.push(rec),
                None => break,
            }
        }
        buf.len() - before
    }

    /// Remembers a private data block in the recent window.
    fn remember(&mut self, block: u64) {
        if self.recent.len() < RECENT_WINDOW {
            self.recent.push(block);
        } else {
            self.recent[self.recent_next] = block;
            self.recent_next = (self.recent_next + 1) % RECENT_WINDOW;
        }
    }

    /// Generates this instruction's data reference, if any.
    #[inline]
    fn gen_data(&mut self) -> Option<DataAccess> {
        let data = &self.spec.data;
        if !self.rng.chance(data.data_ratio) {
            return None;
        }
        let (block, is_store) = match &mut self.data {
            &mut DataCursor::OltpMix {
                p_hot,
                p_hot_or_recent,
                hot_store_frac,
                private_store_frac,
                hot_base,
            } => {
                let r = self.rng.next_f64();
                if r < p_hot {
                    let b = hot_base + self.rng.next_below(data.hot_blocks);
                    (b, self.rng.chance(hot_store_frac))
                } else if r < p_hot_or_recent && !self.recent.is_empty() {
                    let idx = self.rng.next_below(self.recent.len() as u64) as usize;
                    (self.recent[idx], self.rng.chance(private_store_frac))
                } else {
                    let b = DB_REGION_FIRST_BLOCK + self.rng.next_below(data.db_blocks);
                    self.remember(b);
                    (b, self.rng.chance(private_store_frac))
                }
            }
            DataCursor::Streaming { base, partition, block, touches } => {
                let b = *base + *block;
                *touches += 1;
                if *touches == STREAM_ACCESSES_PER_BLOCK {
                    *touches = 0;
                    *block += 1;
                    if *block == *partition {
                        *block = 0;
                    }
                }
                (b, self.rng.chance(data.store_frac))
            }
        };
        Some(DataAccess { addr: Addr::new(block * 64), is_store })
    }

    /// Enters the current visit's segment and locates its first block.
    fn locate_visit(&mut self) {
        if let Some(&seg) = self.plan.get(self.visit) {
            self.seg_blocks = self.spec.pool.segment(seg).num_blocks();
            self.locate_block();
        } else {
            self.finished = true;
        }
    }

    /// Re-derives the current block's byte address from the cursor.
    fn locate_block(&mut self) {
        let seg = self.spec.pool.segment(self.plan[self.visit]);
        let pos = self.cluster * CLUSTER_BLOCKS + self.block;
        self.block_base = seg.block(self.orders[self.visit][pos as usize]).base_addr(64).raw();
    }

    /// Moves the cursor to the next block / cluster pass / cluster /
    /// visit, sampling control-flow skips.
    fn advance_block(&mut self) {
        // The last cluster of a segment may be short.
        let len = (self.seg_blocks - self.cluster * CLUSTER_BLOCKS).min(CLUSTER_BLOCKS);
        loop {
            self.block += 1;
            // Conditional control flow occasionally skips a block.
            if self.block < len && self.rng.chance(self.spec.code.skip_prob) {
                continue;
            }
            break;
        }
        if self.block >= len {
            self.block = 0;
            self.pass += 1;
            if self.pass >= self.spec.code.passes_per_visit {
                self.pass = 0;
                self.cluster += 1;
                if self.cluster * CLUSTER_BLOCKS >= self.seg_blocks {
                    self.cluster = 0;
                    self.visit += 1;
                    self.locate_visit();
                    return;
                }
            }
        }
        self.locate_block();
    }
}

/// The fixed block-visit permutation of one segment: short sequential
/// runs (basic blocks / small functions) in a shuffled order (the call
/// graph). Derived from the segment id only, so every thread walks the
/// same layout.
fn segment_visit_order(seg: u32, num_blocks: u32, run_len: u32) -> Vec<u32> {
    let mut rng = SplitMix64::new(0xc0de_1a11 ^ (seg as u64).wrapping_mul(0x9e37_79b9));
    // Cut 0..num_blocks into runs of 1..=2*run_len-1 blocks (mean run_len).
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < num_blocks {
        let len = (1 + rng.next_below(run_len.max(1) as u64) as u32).min(num_blocks - i);
        runs.push((i, len));
        i += len;
    }
    // Fisher-Yates shuffle of the runs.
    for k in (1..runs.len()).rev() {
        let j = rng.next_below(k as u64 + 1) as usize;
        runs.swap(k, j);
    }
    runs.into_iter().flat_map(|(start, len)| start..start + len).collect()
}

impl Iterator for ThreadTrace<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.finished {
            return None;
        }
        // 4-byte instructions from the current block's base.
        let pc = Addr::new(self.block_base + self.instr as u64 * 4);
        let data = self.gen_data();
        self.emitted += 1;

        self.instr += 1;
        if self.instr >= self.spec.code.instrs_per_block {
            self.instr = 0;
            self.advance_block();
        }
        Some(Record { pc, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TraceScale, Workload};
    use std::collections::HashSet;

    fn tiny_tpcc() -> crate::workload::WorkloadSpec {
        Workload::TpcC1.spec(TraceScale::tiny())
    }

    #[test]
    fn regeneration_is_identical() {
        let spec = tiny_tpcc();
        let a: Vec<_> = spec.thread_trace(ThreadId::new(2)).collect();
        let b: Vec<_> = spec.thread_trace(ThreadId::new(2)).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_threads_differ() {
        let spec = tiny_tpcc();
        let a: Vec<_> = spec.thread_trace(ThreadId::new(0)).collect();
        let b: Vec<_> = spec.thread_trace(ThreadId::new(1)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_type_matches_spec_thread_type() {
        let spec = Workload::TpcE.spec(TraceScale::tiny());
        for t in spec.threads() {
            assert_eq!(spec.thread_trace(t).txn_type(), spec.thread_type(t));
        }
    }

    #[test]
    fn instruction_addresses_stay_inside_planned_segments() {
        let spec = tiny_tpcc();
        let trace = spec.thread_trace(ThreadId::new(0));
        let plan: HashSet<u32> = trace.plan().iter().copied().collect();
        for rec in spec.thread_trace(ThreadId::new(0)) {
            let seg = spec.pool.segment_of_block(rec.pc.block(64)).expect("pc must be in a code segment");
            assert!(plan.contains(&seg), "pc in unplanned segment {seg}");
        }
    }

    #[test]
    fn store_fraction_is_roughly_45_percent() {
        let spec = Workload::TpcC1.spec(TraceScale::small());
        let (mut stores, mut total) = (0u64, 0u64);
        for rec in spec.thread_trace(ThreadId::new(1)) {
            if let Some(d) = rec.data {
                total += 1;
                if d.is_store {
                    stores += 1;
                }
            }
        }
        let frac = stores as f64 / total as f64;
        assert!((0.40..0.50).contains(&frac), "store fraction {frac}");
    }

    #[test]
    fn data_ratio_is_roughly_as_configured() {
        let spec = Workload::TpcC1.spec(TraceScale::small());
        let (mut with_data, mut total) = (0u64, 0u64);
        for rec in spec.thread_trace(ThreadId::new(0)) {
            total += 1;
            if rec.data.is_some() {
                with_data += 1;
            }
        }
        let frac = with_data as f64 / total as f64;
        assert!((frac - spec.data.data_ratio).abs() < 0.03, "data ratio {frac}");
    }

    #[test]
    fn same_type_threads_share_most_instruction_blocks() {
        let spec = Workload::TpcC1.spec(TraceScale::small());
        // Find two threads of the same type.
        let mut by_type = std::collections::HashMap::new();
        let mut pair = None;
        for t in spec.threads() {
            let ty = spec.thread_type(t);
            if let Some(&prev) = by_type.get(&ty) {
                pair = Some((prev, t));
                break;
            }
            by_type.insert(ty, t);
        }
        let (a, b) = pair.expect("two same-type threads exist");
        let blocks_of = |t| -> HashSet<u64> { spec.thread_trace(t).map(|r| r.pc.block(64).raw()).collect() };
        let (ba, bb) = (blocks_of(a), blocks_of(b));
        let inter = ba.intersection(&bb).count();
        let union = ba.union(&bb).count();
        let overlap = inter as f64 / union as f64;
        assert!(overlap > 0.9, "same-type block overlap only {overlap}");
    }

    #[test]
    fn streaming_data_is_sequential_and_partitioned() {
        let spec = Workload::MapReduce.spec(TraceScale::tiny());
        let partition = spec.data.db_blocks / spec.num_tasks as u64;
        let mut last = None;
        for rec in spec.thread_trace(ThreadId::new(2)) {
            if let Some(d) = rec.data {
                let block = d.addr.block(64).raw();
                let off = block - DB_REGION_FIRST_BLOCK;
                assert!(
                    (2 * partition..3 * partition).contains(&off),
                    "thread 2 strayed out of its partition: {off}"
                );
                if let Some(prev) = last {
                    assert!(block == prev || block == prev + 1, "stream must advance sequentially");
                }
                last = Some(block);
            }
        }
    }

    #[test]
    fn oltp_data_blocks_live_in_data_regions() {
        let spec = tiny_tpcc();
        for t in spec.threads() {
            for rec in spec.thread_trace(t) {
                if let Some(d) = rec.data {
                    let b = d.addr.block(64).raw();
                    assert!(
                        b >= crate::workload::HOT_REGION_FIRST_BLOCK,
                        "data block {b:#x} collides with code region"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_fill_is_equivalent_to_repeated_next() {
        let spec = tiny_tpcc();
        let one_by_one: Vec<Record> = spec.thread_trace(ThreadId::new(0)).collect();
        // Refill in awkward batch sizes (including across the end of the
        // trace) and require the identical record stream.
        let mut batched = Vec::new();
        let mut tr = spec.thread_trace(ThreadId::new(0));
        for n in [1, 7, 100, 3].iter().cycle() {
            if tr.fill(&mut batched, *n) < *n {
                break;
            }
        }
        assert_eq!(batched, one_by_one);
        assert_eq!(tr.emitted(), one_by_one.len() as u64);
        // A drained trace fills nothing.
        assert_eq!(tr.fill(&mut batched, 8), 0);
    }

    #[test]
    fn emitted_counter_tracks_length() {
        let spec = tiny_tpcc();
        let mut tr = spec.thread_trace(ThreadId::new(0));
        let mut n = 0;
        while tr.next().is_some() {
            n += 1;
        }
        assert_eq!(tr.emitted(), n);
    }

    #[test]
    fn trace_lengths_are_plausible() {
        // At tiny scale each transaction is still thousands of
        // instructions (plan of several visits x 16 blocks x 2 passes x
        // 12 instrs).
        let spec = tiny_tpcc();
        for t in spec.threads() {
            let len = spec.thread_trace(t).count();
            assert!(len > 500, "trace too short: {len}");
            assert!(len < 1_000_000, "trace too long: {len}");
        }
    }
}
