//! Per-layer figures for the traced run: simulated counts folded from the
//! workload's own `RunMetrics`, and host time per call of each layer's
//! public function, replayed from outside on the workload's generated
//! trace.

use std::hint::black_box;
use std::time::Instant;

use slicc_cache::{AccessKind, BloomSignature, Cache};
use slicc_common::{BlockAddr, CacheGeometry, CoreId};
use slicc_core::SliccAgent;
use slicc_cpu::Tlb;
use slicc_mem::{Dram, L2AccessKind, L2Nuca};
use slicc_sim::{RunMetrics, SimConfig, System};
use slicc_trace::{Record, WorkloadSpec};

use crate::spans::Tracer;

/// Records kept for the replays, across all specs of one workload. The
/// generation pass still walks every record; only the replays are
/// capped, so the traced run stays well inside its time limit.
const REPLAY_RECORDS: usize = 1_500_000;

/// Sums of the simulated counters over every point a workload ran.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub instructions: u64,
    pub i_accesses: u64,
    pub i_misses: u64,
    pub d_accesses: u64,
    pub d_misses: u64,
    pub migrations: u64,
    pub matched: u64,
    pub blocked: u64,
    pub tlb_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub store_invalidations: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
    pub unicasts: u64,
    pub broadcasts: u64,
    pub hops: u64,
}

impl Counts {
    pub fn add(&mut self, m: &RunMetrics) {
        self.instructions += m.instructions;
        self.i_accesses += m.i_accesses;
        self.i_misses += m.i_misses;
        self.d_accesses += m.d_accesses;
        self.d_misses += m.d_misses;
        self.migrations += m.migrations;
        self.matched += m.matched_migrations;
        self.blocked += m.blocked_migrations;
        self.tlb_misses += m.i_tlb_misses + m.d_tlb_misses;
        self.l2_hits += m.l2.hits;
        self.l2_misses += m.l2.misses;
        self.store_invalidations += m.l2.store_invalidations;
        self.dram_accesses += m.dram.total();
        self.dram_row_hits += m.dram.row_hits;
        self.unicasts += m.noc.unicasts;
        self.broadcasts += m.noc.broadcasts;
        self.hops += m.noc.unicast_hops;
    }

    /// L1 accesses (I + D) per simulated instruction.
    pub fn accesses_per_instr(&self) -> f64 {
        ratio(self.i_accesses + self.d_accesses, self.instructions)
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let l2 = self.l2_hits + self.l2_misses;
        vec![
            ("cache.l1i_accesses", self.i_accesses as f64),
            ("cache.l1i_misses", self.i_misses as f64),
            ("cache.l1d_accesses", self.d_accesses as f64),
            ("cache.l1d_misses", self.d_misses as f64),
            ("core.migrations", self.migrations as f64),
            (
                "core.migration_match_ratio",
                ratio(self.matched, self.migrations + self.blocked),
            ),
            ("cpu.tlb_misses", self.tlb_misses as f64),
            ("mem.l2_accesses", l2 as f64),
            ("mem.l2_hit_ratio", ratio(self.l2_hits, l2)),
            ("mem.store_invalidations", self.store_invalidations as f64),
            ("mem.dram_accesses", self.dram_accesses as f64),
            (
                "mem.dram_row_hit_ratio",
                ratio(self.dram_row_hits, self.dram_accesses),
            ),
            ("noc.unicasts", self.unicasts as f64),
            ("noc.broadcasts", self.broadcasts as f64),
            ("noc.hops", self.hops as f64),
        ]
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `engine.ns_per_instr` and its residual once trace generation and the
/// memory system's share are taken out. `sim_ns` is host time spent simulating `instructions`; `counts` gives
/// the access mix.
pub fn engine_metrics(
    sim_ns: f64,
    instructions: u64,
    counts: &Counts,
    replay: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        replay
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let per_instr = sim_ns / instructions.max(1) as f64;
    let residual = per_instr
        - get("trace.gen_ns_per_record")
        - get("system.ns_per_access") * counts.accesses_per_instr();
    vec![
        ("engine.ns_per_instr", per_instr),
        ("engine.residual_ns_per_instr", residual),
    ]
}

/// One L1 access of the replayed stream: the core it ran on, the block,
/// and whether the full system's L1 hit.
struct Access {
    core: CoreId,
    block: BlockAddr,
    /// `None` for an instruction fetch, `Some(is_store)` for data.
    data: Option<bool>,
    hit: bool,
}

/// Times each layer's public function on `specs`' generated traces, run
/// on each spec's machine. Thread `t` of a spec runs on core
/// `t % cores`, one thread after another.
pub fn replay(
    specs: &[(WorkloadSpec, SimConfig)],
    tracer: &Tracer,
    parent: u64,
) -> Vec<(&'static str, f64)> {
    // trace: generate every record of every thread, keeping a prefix of
    // each spec for the replays below.
    let per_spec = REPLAY_RECORDS / specs.len().max(1);
    let mut kept: Vec<Vec<(usize, Vec<Record>)>> = Vec::new();
    let mut records = 0usize;
    let gen_ns = tracer.span("replay.trace.gen", parent, |_| {
        let t = Instant::now();
        for (spec, _) in specs {
            for thread in spec.threads() {
                records += spec.thread_trace(thread).map(black_box).count();
            }
        }
        ns_per(t, records)
    });
    for (spec, _) in specs {
        let mut threads = Vec::new();
        let mut budget = per_spec;
        for thread in spec.threads() {
            if budget == 0 {
                break;
            }
            let recs: Vec<Record> = spec.thread_trace(thread).take(budget).collect();
            budget -= recs.len();
            threads.push((thread.raw() as usize, recs));
        }
        kept.push(threads);
    }

    // sim::system: the full memory hierarchy through System's entry points.
    let mut streams: Vec<Vec<Access>> = Vec::new();
    let mut sys_ops = 0usize;
    let sys_ns = tracer.span("replay.system", parent, |_| {
        let t = Instant::now();
        for ((_, cfg), threads) in specs.iter().zip(&kept) {
            let mut sys = System::new(cfg);
            let mut stream = Vec::new();
            // The engine's fetch-buffer model: the L1-I sees one access
            // per block transition on a core.
            let mut last_iblock = vec![None; cfg.cores];
            for (thread, recs) in threads {
                let core = CoreId::new((thread % cfg.cores) as u16);
                for r in recs {
                    let block = r.pc.block(64);
                    if last_iblock[core.index()] != Some(block) {
                        last_iblock[core.index()] = Some(block);
                        let hit = sys.ifetch(core, block);
                        stream.push(Access {
                            core,
                            block,
                            data: None,
                            hit,
                        });
                    }
                    if let Some(d) = r.data {
                        let block = d.addr.block(64);
                        let hit = sys.data_access(core, block, d.is_store);
                        stream.push(Access {
                            core,
                            block,
                            data: Some(d.is_store),
                            hit,
                        });
                    }
                }
            }
            sys_ops += stream.len();
            streams.push(stream);
        }
        ns_per(t, sys_ops)
    });

    let mut out = vec![
        ("trace.gen_ns_per_record", gen_ns),
        ("trace.records", records as f64),
        ("system.ns_per_access", sys_ns),
    ];
    let fetches = |s: &Vec<Access>| s.iter().filter(|a| a.data.is_none()).count();
    let total_fetches: usize = streams.iter().map(fetches).sum();

    // cache: one L1-I per spec on the fetch stream.
    let l1 = tracer.span("replay.cache.l1", parent, |_| {
        let t = Instant::now();
        for ((_, cfg), stream) in specs.iter().zip(&streams) {
            let geom = CacheGeometry::new(cfg.l1i_size, cfg.l1i_assoc, 64);
            let mut cache = Cache::new(geom, cfg.l1_policy, cfg.seed);
            for a in stream.iter().filter(|a| a.data.is_none()) {
                black_box(cache.access(a.block, AccessKind::Read));
            }
        }
        ns_per(t, total_fetches)
    });
    out.push(("cache.l1_ns_per_access", l1));

    // cache: the bloom signature, probed per fetch and filled per miss.
    let mut bloom_ops = 0usize;
    let bloom = tracer.span("replay.cache.bloom", parent, |_| {
        let t = Instant::now();
        for ((_, cfg), stream) in specs.iter().zip(&streams) {
            let geom = CacheGeometry::new(cfg.l1i_size, cfg.l1i_assoc, 64);
            let mut sig = BloomSignature::new(cfg.bloom_bits, geom);
            for a in stream.iter().filter(|a| a.data.is_none()) {
                black_box(sig.maybe_contains(a.block));
                bloom_ops += 1;
                if !a.hit {
                    sig.insert(a.block);
                    bloom_ops += 1;
                }
            }
        }
        ns_per(t, bloom_ops)
    });
    out.push(("cache.bloom_ns_per_op", bloom));

    // core: one SLICC agent per core, fed the L1-I hit/miss stream.
    let agent = tracer.span("replay.core.agent", parent, |_| {
        let t = Instant::now();
        for ((_, cfg), stream) in specs.iter().zip(&streams) {
            let mut agents: Vec<SliccAgent> = (0..cfg.cores)
                .map(|c| SliccAgent::new(CoreId::new(c as u16), cfg.slicc))
                .collect();
            for a in stream.iter().filter(|a| a.data.is_none()) {
                let agent = &mut agents[a.core.index()];
                agent.on_fetch(a.hit, None);
                black_box(agent.advice());
            }
        }
        ns_per(t, total_fetches)
    });
    out.push(("core.agent_ns_per_fetch", agent));

    // cpu: per-core I- and D-TLBs on every access's address.
    let tlb = tracer.span("replay.cpu.tlb", parent, |_| {
        let t = Instant::now();
        for ((_, cfg), stream) in specs.iter().zip(&streams) {
            let mut itlb: Vec<Tlb> = (0..cfg.cores)
                .map(|_| Tlb::with_page_bytes(cfg.itlb_entries, cfg.itlb_page_bytes))
                .collect();
            let mut dtlb: Vec<Tlb> = (0..cfg.cores).map(|_| Tlb::new(cfg.dtlb_entries)).collect();
            for a in stream {
                let tlbs = if a.data.is_none() {
                    &mut itlb
                } else {
                    &mut dtlb
                };
                black_box(tlbs[a.core.index()].access(a.block.base_addr(64)));
            }
        }
        ns_per(t, sys_ops)
    });
    out.push(("cpu.tlb_ns_per_access", tlb));

    // mem: the shared L2 on the L1-miss stream, then DRAM on its misses.
    let mut l2_ops = 0usize;
    let mut l2_misses: Vec<Vec<(BlockAddr, bool)>> = Vec::new();
    let l2 = tracer.span("replay.mem.l2", parent, |_| {
        let t = Instant::now();
        for ((_, cfg), stream) in specs.iter().zip(&streams) {
            let geom = CacheGeometry::new(cfg.l2_size, cfg.l2_assoc, 64);
            let mut l2 = L2Nuca::new(geom, cfg.l2_banks, cfg.l2_hit_latency, cfg.seed);
            let mut misses = Vec::new();
            for a in stream.iter().filter(|a| !a.hit) {
                let kind = match a.data {
                    None => L2AccessKind::IFetch,
                    Some(false) => L2AccessKind::DataRead,
                    Some(true) => L2AccessKind::DataWrite,
                };
                l2_ops += 1;
                if !l2.access(a.core, a.block, kind).hit {
                    misses.push((a.block, a.data == Some(true)));
                }
            }
            l2_misses.push(misses);
        }
        ns_per(t, l2_ops)
    });
    out.push(("mem.l2_ns_per_access", l2));

    let dram_ops: usize = l2_misses.iter().map(Vec::len).sum();
    let dram = tracer.span("replay.mem.dram", parent, |_| {
        let t = Instant::now();
        for ((_, cfg), misses) in specs.iter().zip(&l2_misses) {
            let mut dram = Dram::new(cfg.dram);
            let mut now = 0;
            for &(block, is_write) in misses {
                // Issue each access when the previous one completes.
                now = dram.access(block, now, is_write);
            }
            black_box(now);
        }
        ns_per(t, dram_ops)
    });
    out.push(("mem.dram_ns_per_access", dram));
    out
}
