//! Multicore system driver.
//!
//! A [`System`] owns N cores and the shared memory hierarchy and advances
//! them on one global clock (see `driver`). Baseline (software) runs
//! stream ops from kernel shards running on real threads through bounded
//! channels — generation is functional and instantaneous in simulated
//! time, the channel only bounds host memory. Accelerated runs instead
//! attach one [`Accelerator`] per core and consume the host callback ops
//! the engines produce.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use crate::accel::Accelerator;
use crate::core::{Core, CoreConfig, OpSource};
use crate::driver::{Clock, EngineFeed, EngineQueue, Feed};
use crate::imp::Imp;
use crate::machine::Machine;
use crate::memsys::{MemSys, MemSysConfig};
use crate::op::{Deps, Op, OpId, OpKind, Site};
use crate::stats::RunStats;

/// Full system configuration: core micro-architecture + memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemConfig {
    /// Core configuration (identical cores).
    pub core: CoreConfig,
    /// Memory system configuration.
    pub mem: MemSysConfig,
}

impl SystemConfig {
    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.mem.cores
    }
}

/// Batch size of the op channel: sends are amortized over this many ops.
const OP_BATCH: usize = 4096;

/// Machine implementation that streams ops to a simulated core through a
/// bounded channel of op batches (used by kernel shard threads).
#[derive(Debug)]
pub struct ChannelMachine {
    tx: SyncSender<Vec<Op>>,
    buf: Vec<Op>,
    next: u64,
}

impl ChannelMachine {
    fn new(tx: SyncSender<Vec<Op>>) -> Self {
        Self {
            tx,
            buf: Vec::with_capacity(OP_BATCH),
            next: 0,
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            // A send error means the simulator side hung up; the shard
            // just keeps generating into the void — results of aborted
            // runs are discarded by the caller.
            let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(OP_BATCH));
            let _ = self.tx.send(batch);
        }
    }
}

impl Drop for ChannelMachine {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Machine for ChannelMachine {
    fn emit(&mut self, site: Site, kind: OpKind, deps: Deps) -> OpId {
        self.next += 1;
        let id = OpId(self.next);
        self.buf.push(Op {
            id,
            site,
            kind,
            deps,
            visible_at: 0,
        });
        if self.buf.len() >= OP_BATCH {
            self.flush();
        }
        id
    }
}

/// Op source backed by a kernel shard's channel. It reads each received
/// batch in place, through a cursor.
struct ChannelSource {
    rx: Receiver<Vec<Op>>,
    batch: Vec<Op>,
    /// Index of the next op of `batch`.
    pos: usize,
    closed: bool,
}

impl ChannelSource {
    fn new(rx: Receiver<Vec<Op>>) -> Self {
        Self {
            rx,
            batch: Vec::new(),
            pos: 0,
            closed: false,
        }
    }

    /// Ensures an op is buffered or the stream is known closed.
    /// Blocking is safe: op generation takes zero simulated time.
    fn refill(&mut self) {
        while self.pos == self.batch.len() && !self.closed {
            match self.rx.recv() {
                Ok(batch) => {
                    self.batch = batch;
                    self.pos = 0;
                }
                Err(_) => self.closed = true,
            }
        }
    }
}

impl OpSource for ChannelSource {
    fn next_visible(&mut self, _now: u64) -> Option<Op> {
        self.refill();
        let op = *self.batch.get(self.pos)?;
        self.pos += 1;
        Some(op)
    }

    fn done(&mut self) -> bool {
        self.refill();
        self.closed
    }
}

impl Feed for ChannelSource {
    const SKIPS_IDLE: bool = true;
}

/// Depth in ops of the IMP's fetch lookahead window.
const IMP_WINDOW: usize = 256;

/// Ops staged between a shard's channel and its core in the IMP's fetch
/// lookahead window (Figure 15): the IMP observes each op as it enters.
struct ImpWindow {
    channel: ChannelSource,
    window: VecDeque<Op>,
    imp: Imp,
}

impl OpSource for ImpWindow {
    fn next_visible(&mut self, _now: u64) -> Option<Op> {
        self.window.pop_front()
    }

    fn done(&mut self) -> bool {
        self.channel.done() && self.window.is_empty()
    }
}

impl Feed for ImpWindow {
    fn stage(&mut self, now: u64, core: usize, mem: &mut MemSys) {
        while self.window.len() < IMP_WINDOW {
            let Some(op) = self.channel.next_visible(now) else {
                break;
            };
            self.imp.observe(&op, core, now, mem);
            self.window.push_back(op);
        }
    }
}

/// Hard cap on simulated cycles — a runaway-model backstop, far above any
/// legitimate run in this repository.
pub const CYCLE_LIMIT: u64 = 20_000_000_000;

/// Default no-forward-progress window of the [`System`] watchdog: far
/// beyond any legitimate stall (DRAM round trips are O(10²) cycles) but
/// cheap to hit when something genuinely wedges.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 10_000_000;

/// Typed failures of a simulation run, returned by every [`System`] run
/// entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// More kernel shards than cores.
    TooManyShards {
        /// Shards supplied.
        shards: usize,
        /// Cores available.
        cores: usize,
    },
    /// More accelerators than cores.
    TooManyAccelerators {
        /// Accelerators supplied.
        accels: usize,
        /// Cores available.
        cores: usize,
    },
    /// The progress watchdog detected no forward progress (deadlock or
    /// livelock, e.g. an outQ wedged against a stalled consumer).
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// No-progress window that elapsed.
        window: u64,
        /// Human-readable diagnostic dump of the wedged state.
        dump: String,
    },
    /// The hard [`CYCLE_LIMIT`] backstop was reached.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TooManyShards { shards, cores } => {
                write!(f, "more shards than cores ({shards} > {cores})")
            }
            SimError::TooManyAccelerators { accels, cores } => {
                write!(f, "more accelerators than cores ({accels} > {cores})")
            }
            SimError::Watchdog {
                cycle,
                window,
                dump,
            } => write!(
                f,
                "watchdog: no forward progress for {window} cycles at cycle {cycle}\n{dump}"
            ),
            SimError::CycleLimit { limit } => write!(f, "cycle limit exceeded ({limit} cycles)"),
        }
    }
}

impl std::error::Error for SimError {}

/// The simulated multicore system.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    mem: MemSys,
    cores: Vec<Core>,
    watchdog_cycles: u64,
}

impl System {
    /// Builds a system from `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        let mut sys = Self {
            mem: MemSys::new(cfg.mem),
            cores: (0..cfg.cores()).map(|i| Core::new(i, cfg.core)).collect(),
            cfg,
            watchdog_cycles: DEFAULT_WATCHDOG_CYCLES,
        };
        sys.mem.register_trace();
        tmu_trace::with(|t| {
            for (i, core) in sys.cores.iter_mut().enumerate() {
                core.set_trace(t.component(&format!("system.core{i}")));
            }
        });
        sys
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory hierarchy (statistics access after a run).
    pub fn mem(&self) -> &MemSys {
        &self.mem
    }

    /// Overrides the watchdog's no-forward-progress window (in cycles).
    /// Mostly for tests; the [`DEFAULT_WATCHDOG_CYCLES`] default is far
    /// beyond any legitimate stall.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog_cycles = cycles.max(1);
    }

    /// Runs one kernel shard per core; each shard generates its op stream
    /// on its own thread. Returns the run statistics, or a typed
    /// [`SimError`] on shard/core mismatch, watchdog abort, or cycle-limit
    /// overrun.
    pub fn run<F>(&mut self, shards: Vec<F>) -> Result<RunStats, SimError>
    where
        F: FnOnce(&mut ChannelMachine) + Send,
    {
        self.run_shards(shards, |channel| channel)
    }

    /// Runs with one borrowed accelerator per entry; core `i` consumes the
    /// callback ops produced by `engines[i]`. The engines stay with the
    /// caller, who reads their results after the run. The watchdog
    /// monitors committed ops, demand loads, engine traversal reads, and
    /// outQ lines; if none move for the configured window the run aborts
    /// with a diagnostic dump (see [`System::set_watchdog`]).
    pub fn run_accelerated<A: Accelerator>(
        &mut self,
        engines: &mut [A],
    ) -> Result<RunStats, SimError> {
        if engines.len() > self.cores.len() {
            return Err(SimError::TooManyAccelerators {
                accels: engines.len(),
                cores: self.cores.len(),
            });
        }
        let mut queues: Vec<EngineQueue> = engines.iter().map(|_| EngineQueue::default()).collect();
        let mut feeds: Vec<EngineFeed> = engines
            .iter_mut()
            .zip(&mut queues)
            .map(|(accel, queue)| EngineFeed { accel, queue })
            .collect();
        self.drive(&mut feeds)?;
        Ok(self.collect_stats())
    }

    /// Like [`System::run`], but with an Indirect Memory Prefetcher (IMP)
    /// attached to each core (§7.3, Figure 15). The IMP observes ops as
    /// they enter a fetch-lookahead window and prefetches trained indirect
    /// loads into L1.
    pub fn run_with_imp<F>(&mut self, shards: Vec<F>) -> Result<RunStats, SimError>
    where
        F: FnOnce(&mut ChannelMachine) + Send,
    {
        self.run_shards(shards, |channel| ImpWindow {
            channel,
            window: VecDeque::with_capacity(IMP_WINDOW),
            imp: Imp::new(),
        })
    }

    /// Runs each shard on its own thread, streaming its ops through a
    /// bounded channel into the feed `feed` wraps around it.
    fn run_shards<F, S: Feed>(
        &mut self,
        shards: Vec<F>,
        feed: fn(ChannelSource) -> S,
    ) -> Result<RunStats, SimError>
    where
        F: FnOnce(&mut ChannelMachine) + Send,
    {
        if shards.len() > self.cores.len() {
            return Err(SimError::TooManyShards {
                shards: shards.len(),
                cores: self.cores.len(),
            });
        }
        let mut feeds = Vec::with_capacity(shards.len());
        let mut result = Ok(());
        std::thread::scope(|scope| {
            for shard in shards {
                let (tx, rx) = sync_channel::<Vec<Op>>(16);
                feeds.push(feed(ChannelSource::new(rx)));
                scope.spawn(move || shard(&mut ChannelMachine::new(tx)));
            }
            result = self.drive(&mut feeds);
            // Drop the receivers before the scope joins the shard threads:
            // a wedged shard blocked in `send` wakes up with a disconnect
            // error and drains into the void instead of deadlocking the
            // join.
            feeds.clear();
        });
        result.map(|()| self.collect_stats())
    }

    /// Drives every core from its feed on a fresh clock (cores beyond the
    /// feeds sit idle) and equalizes the per-core cycle counts.
    fn drive<F: Feed>(&mut self, feeds: &mut [F]) -> Result<(), SimError> {
        let mut clock = Clock::new(self.watchdog_cycles);
        clock.drive(&mut self.cores, feeds, &mut self.mem, u64::MAX, None)?;
        self.finalize_cycles(clock.now);
        Ok(())
    }

    fn finalize_cycles(&mut self, now: u64) {
        // Equalize per-core cycle counts to the run length: cores that went
        // idle early spent the remainder waiting on the slowest core.
        for core in &mut self.cores {
            let idle_tail = now.saturating_sub(core.stats.cycles);
            core.stats.cycles = now;
            core.stats.frontend += idle_tail;
        }
    }

    fn collect_stats(&self) -> RunStats {
        let dram = self.mem.dram();
        let row_total = dram.row_hits + dram.row_misses;
        let stats = RunStats {
            cycles: self.cores.iter().map(|c| c.stats.cycles).max().unwrap_or(0),
            cores: self.cores.iter().map(|c| c.stats).collect(),
            dram_bytes: dram.bytes_moved(),
            dram_row_hit_rate: if row_total == 0 {
                0.0
            } else {
                dram.row_hits as f64 / row_total as f64
            },
            freq_ghz: self.cfg.core.freq_ghz,
            mem: self.mem.stats(),
        };
        // Publish the end-of-run registry to the installed tracer: the flat
        // stats dump and the figure pipeline then read one counter system.
        tmu_trace::with(|t| {
            t.registry_mut().merge(&stats.registry());
            let (traversals, hop_cycles) = self.mem.mesh().traffic();
            t.registry_mut()
                .set_counter("system.noc.traversals", traversals);
            t.registry_mut()
                .set_counter("system.noc.hop_cycles", hop_cycles);
        });
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::NullAccelerator;
    use crate::op::Deps;

    fn config(cores: usize) -> SystemConfig {
        SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(cores),
        }
    }

    #[test]
    fn single_core_run_completes() {
        let mut sys = System::new(config(1));
        let stats = sys
            .run(vec![|m: &mut ChannelMachine| {
                for i in 0..10_000u64 {
                    let a = m.load(Site(1), 0x10_000 + i * 8, 8, Deps::NONE);
                    m.fp_op(2, Deps::from(a));
                }
            }])
            .expect("runs");
        assert_eq!(stats.total().committed, 20_000);
        assert!(stats.cycles > 0);
        assert_eq!(stats.flops(), 20_000);
    }

    #[test]
    fn multicore_shares_bandwidth() {
        // The same streaming workload on 1 vs 8 cores: 8 cores do 8× the
        // work in less than 8× the time but more than 1× (shared DRAM).
        let shard = |c: usize| {
            move |m: &mut ChannelMachine| {
                for i in 0..50_000u64 {
                    m.load(
                        Site(1),
                        (c as u64 + 1) * 0x1_000_000 + i * 64,
                        8,
                        Deps::NONE,
                    );
                }
            }
        };
        let mut sys1 = System::new(config(1));
        let t1 = sys1.run(vec![shard(0)]).expect("runs").cycles;
        let mut sys8 = System::new(config(8));
        let t8 = sys8.run((0..8).map(shard).collect()).expect("runs").cycles;
        assert!(t8 < t1 * 8, "parallel run must be faster ({t8} vs {t1}×8)");
        assert!(
            t8 as f64 > t1 as f64 * 1.2,
            "8 streams must contend for DRAM ({t8} vs {t1})"
        );
    }

    #[test]
    fn stats_equalize_core_cycles() {
        let mut sys = System::new(config(2));
        let stats = sys
            .run(vec![
                |m: &mut ChannelMachine| {
                    for _ in 0..100 {
                        m.int_op(Deps::NONE);
                    }
                },
                |m: &mut ChannelMachine| {
                    for i in 0..5_000u64 {
                        m.load(Site(1), 0x40_000_000 + i * 4096, 8, Deps::from(OpId(i)));
                    }
                },
            ])
            .expect("runs");
        assert_eq!(stats.cores[0].cycles, stats.cores[1].cycles);
        assert_eq!(stats.cycles, stats.cores[0].cycles);
    }

    /// An accelerator that claims to be busy forever but never produces
    /// anything — the deadlock/livelock shape the watchdog must catch.
    #[derive(Debug)]
    struct WedgedAccel;

    impl Accelerator for WedgedAccel {
        fn tick(&mut self, _now: u64, _core: usize, _mem: &mut MemSys) {}
        fn drain_ops(&mut self, _out: &mut Vec<Op>) {}
        fn ack_chunk(&mut self, _chunk: u32, _now: u64) {}
        fn done(&self) -> bool {
            false
        }
        fn status_line(&self) -> String {
            "wedged: pretending to work, producing nothing".into()
        }
    }

    #[test]
    fn watchdog_fires_on_wedged_accelerator_with_dump() {
        let mut sys = System::new(config(1));
        sys.set_watchdog(10_000);
        match sys.run_accelerated(&mut [WedgedAccel]) {
            Err(SimError::Watchdog {
                cycle,
                window,
                dump,
            }) => {
                assert_eq!(window, 10_000);
                assert!((10_000..CYCLE_LIMIT).contains(&cycle));
                assert!(dump.contains("wedged"), "dump must carry accel status");
                assert!(dump.contains("core0"), "dump must carry core state");
            }
            other => panic!("expected watchdog abort, got {other:?}"),
        }
    }

    #[test]
    fn shard_overflow_is_a_typed_error() {
        let mut sys = System::new(config(1));
        let shards: Vec<fn(&mut ChannelMachine)> = vec![|_| {}, |_| {}];
        match sys.run(shards) {
            Err(SimError::TooManyShards {
                shards: 2,
                cores: 1,
            }) => {}
            other => panic!("expected TooManyShards, got {other:?}"),
        }
    }

    #[test]
    fn accelerated_run_with_null_accels_terminates() {
        let mut sys = System::new(config(2));
        let stats = sys
            .run_accelerated(&mut [NullAccelerator, NullAccelerator])
            .expect("runs");
        assert_eq!(stats.total().committed, 0);
    }

    /// A 2-core Table 5 system with every cache shrunk, so that a short run
    /// evicts through L1, L2 and the LLC.
    fn small_caches() -> SystemConfig {
        let mut cfg = config(2);
        cfg.mem.l1.size_bytes = 4 << 10;
        cfg.mem.l2.size_bytes = 32 << 10;
        cfg.mem.llc_slice.size_bytes = 64 << 10;
        cfg
    }

    /// Core `c`'s shard: index loads feeding irregular gathers, with a
    /// mostly-not-taken branch per element and strided stores every fourth.
    fn gathers_and_stores(c: u64) -> impl FnOnce(&mut ChannelMachine) + Send {
        move |m: &mut ChannelMachine| {
            let base = (c + 1) << 32;
            let mut x = 0x2545_F491_4F6C_DD1D ^ c;
            for i in 0..6_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let idx = m.load(Site(1), base + i * 4, 4, Deps::NONE);
                // Both cores gather from one shared 2 MB array.
                let g = m.load(Site(2), (x % (1 << 15)) * 64, 8, Deps::from(idx));
                let f = m.fp_op(2, Deps::from(g));
                m.branch(Site(3), x.is_multiple_of(16), Deps::from(idx));
                if i % 4 == 0 {
                    m.store(Site(4), base + (1 << 28) + i * 192, 8, Deps::from(f));
                }
            }
        }
    }

    /// The counters the core and memory hot path decide: run cycles; per
    /// core committing, frontend and backend cycles, mispredicts and the
    /// load-latency sum; per level hits, misses, merged and writebacks; per
    /// core L1 and L2 MSHR-full events; DRAM lines read and written, and
    /// row hits.
    fn hot_path_counters(sys: &System, stats: &RunStats) -> Vec<u64> {
        let mut v = vec![stats.cycles];
        for c in &stats.cores {
            v.extend([c.committing, c.frontend, c.backend, c.mispredicts]);
            v.push(c.load_latency_sum);
        }
        for l in [stats.mem.l1, stats.mem.l2, stats.mem.llc] {
            v.extend([l.hits, l.misses, l.merged, l.writebacks]);
        }
        for c in 0..stats.cores.len() {
            v.push(sys.mem().l1(c).mshrs.full_events);
            v.push(sys.mem().l2(c).mshrs.full_events);
        }
        v.extend([stats.mem.dram_lines_read, stats.mem.dram_lines_written]);
        v.push(stats.mem.dram_row_hits);
        v
    }

    /// Exact counters of a plain and an IMP run: a change to the data
    /// structures of the core, the caches or the prefetchers must leave
    /// every simulated number as it is.
    #[test]
    fn hot_path_counters_are_pinned() {
        let mut sys = System::new(small_caches());
        let stats = sys
            .run(vec![gathers_and_stores(0), gathers_and_stores(1)])
            .expect("runs");
        #[rustfmt::skip]
        assert_eq!(hot_path_counters(&sys, &stats), [
            143517,
            7958, 0, 135559, 686, 3192526,
            8002, 416, 135099, 680, 3232987,
            11517, 14989, 494, 2986,
            918, 12690, 2320, 2903,
            617, 26374, 27, 2814,
            3629, 0, 3758, 0,
            26374, 2814, 1645,
        ]);
        let mut sys = System::new(small_caches());
        let stats = sys
            .run_with_imp(vec![gathers_and_stores(0), gathers_and_stores(1)])
            .expect("runs");
        #[rustfmt::skip]
        assert_eq!(hot_path_counters(&sys, &stats), [
            49340,
            8971, 1356, 39013, 686, 137619,
            9038, 41, 40261, 680, 140879,
            11567, 14288, 1145, 2986,
            11446, 12752, 3322, 2902,
            689, 25652, 46, 2818,
            1, 505, 0, 571,
            25652, 2818, 1563,
        ]);
    }

    /// One op past 40 full channel batches.
    const LONG_STREAM: u64 = 40 * OP_BATCH as u64 + 1;

    fn long_stream(m: &mut ChannelMachine) {
        for _ in 0..LONG_STREAM {
            m.int_op(Deps::NONE);
        }
    }

    #[test]
    fn every_op_of_a_long_stream_commits() {
        let mut sys = System::new(config(2));
        let stats = sys.run(vec![long_stream, long_stream]).expect("runs");
        assert_eq!(stats.total().committed, 2 * LONG_STREAM);
        let mut sys = System::new(config(2));
        let stats = sys
            .run_with_imp(vec![long_stream, long_stream])
            .expect("runs");
        assert_eq!(stats.total().committed, 2 * LONG_STREAM);
    }

    #[test]
    fn dram_traffic_is_recorded() {
        let mut sys = System::new(config(1));
        let stats = sys
            .run(vec![|m: &mut ChannelMachine| {
                for i in 0..10_000u64 {
                    m.load(Site(1), 0x10_000_000 + i * 64, 8, Deps::NONE);
                }
            }])
            .expect("runs");
        // 10 000 distinct lines = 640 kB minimum of DRAM reads.
        assert!(
            stats.dram_bytes >= 10_000 * 64,
            "bytes = {}",
            stats.dram_bytes
        );
        assert!(stats.bandwidth_gbs() > 1.0);
    }
}
