//! Out-of-order core model.
//!
//! A ROB-based model with the structures that matter for sparse tensor
//! code: a gshare branch predictor whose mispredictions block fetch
//! (frontend stalls), load/store queues and L1 MSHRs that bound
//! memory-level parallelism (backend stalls), and in-order commit with
//! top-down cycle accounting matching the methodology of Figures 3 and 11.
//!
//! Ops carry explicit dependencies, so issue timing is
//! `max(dispatch + 1, producers ready)`; loads then traverse the memory
//! hierarchy. Wrong-path execution is not modeled — a misprediction costs
//! the fetch-redirect bubble, which is the first-order effect the paper
//! measures.

use std::collections::{BinaryHeap, VecDeque};

use crate::bpred::BranchPredictor;
use crate::memsys::MemSys;
use crate::op::{Op, OpKind};

/// Configuration of one core.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoreConfig {
    /// Ops dispatched into the ROB per cycle.
    pub fetch_width: usize,
    /// Ops committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Load-queue entries.
    pub lq: usize,
    /// Store-queue entries.
    pub sq: usize,
    /// Fetch-redirect penalty on a branch misprediction (cycles).
    pub mispredict_penalty: u64,
    /// Scalar integer latency.
    pub int_lat: u64,
    /// Scalar floating-point latency.
    pub fp_lat: u64,
    /// SIMD op latency.
    pub vec_lat: u64,
    /// SVE vector width in bits (8 f64 lanes at 512).
    pub sve_bits: u32,
    /// Load-issue ports (element loads and gather elements contend here).
    pub load_ports: usize,
    /// Store-issue ports.
    pub store_ports: usize,
    /// SIMD/FP pipes.
    pub vec_ports: usize,
    /// Clock frequency in GHz (for GFLOP/s conversion).
    pub freq_ghz: f64,
}

impl CoreConfig {
    /// The Table 5 Neoverse-N1-like core.
    pub fn neoverse_n1_like() -> Self {
        Self {
            fetch_width: 4,
            commit_width: 4,
            rob: 224,
            lq: 96,
            sq: 96,
            mispredict_penalty: 12,
            int_lat: 1,
            fp_lat: 4,
            vec_lat: 4,
            sve_bits: 512,
            load_ports: 2,
            store_ports: 1,
            vec_ports: 2,
            freq_ghz: 2.4,
        }
    }

    /// f64 lanes per SVE vector.
    pub fn sve_lanes(&self) -> usize {
        (self.sve_bits / 64) as usize
    }
}

/// Per-core cycle accounting in the style of Figures 3 and 11.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoreStats {
    /// Cycles in which at least one op committed.
    pub committing: u64,
    /// Cycles stalled with an empty ROB (fetch-bound).
    pub frontend: u64,
    /// Cycles stalled with an incomplete ROB head (memory/execute-bound).
    pub backend: u64,
    /// Total cycles simulated (including idle tail).
    pub cycles: u64,
    /// Ops committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Sum of load-to-use latencies (completion − issue).
    pub load_latency_sum: u64,
    /// FLOPs committed.
    pub flops: u64,
    /// Branches committed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
}

impl CoreStats {
    /// Average load-to-use latency in cycles.
    pub fn avg_load_to_use(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.loads as f64
        }
    }

    /// Fraction of cycles in each class `(committing, frontend, backend)`.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.cycles.max(1) as f64;
        (
            self.committing as f64 / total,
            self.frontend as f64 / total,
            self.backend as f64 / total,
        )
    }

    /// Merges another core's stats into this one (for aggregation).
    pub fn merge(&mut self, other: &CoreStats) {
        self.committing += other.committing;
        self.frontend += other.frontend;
        self.backend += other.backend;
        self.cycles += other.cycles;
        self.committed += other.committed;
        self.loads += other.loads;
        self.load_latency_sum += other.load_latency_sum;
        self.flops += other.flops;
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
    }
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    complete: u64,
    flops: u32,
    is_load: bool,
    load_latency: u32,
    is_branch: bool,
    chunk: Option<u32>,
}

/// Completion cycles of the ops in the ROB, by sequence number: a seq never
/// inserted, or removed since, reads 0, as an absent map key would.
///
/// Within one op stream ids are dense from 1 and the ROB holds at most
/// `rob` consecutive ones, and a new stream (ids restarting at 1) starts
/// only on an idle core. So the live ids fit a ring of
/// `rob.next_power_of_two()` slots indexed by `seq & mask` and tagged with
/// the seq.
#[derive(Debug)]
struct ReadyTable {
    /// `(seq, ready)` pairs; seq 0 (`OpId::NONE`, never an op's id) marks
    /// a free slot.
    slots: Vec<(u64, u64)>,
    mask: u64,
}

impl ReadyTable {
    fn new(rob: usize) -> Self {
        let n = rob.next_power_of_two();
        Self {
            slots: vec![(0, 0); n],
            mask: n as u64 - 1,
        }
    }

    fn get(&self, seq: u64) -> u64 {
        let (tag, ready) = self.slots[(seq & self.mask) as usize];
        if tag == seq {
            ready
        } else {
            0
        }
    }

    fn insert(&mut self, seq: u64, ready: u64) {
        let slot = &mut self.slots[(seq & self.mask) as usize];
        debug_assert!(
            slot.0 == 0 || slot.0 == seq,
            "op {seq} lands on live op {}: live ids must be consecutive within \
             one stream, and a new stream must start on an idle core",
            slot.0
        );
        *slot = (seq, ready);
    }

    fn remove(&mut self, seq: u64) {
        let slot = &mut self.slots[(seq & self.mask) as usize];
        if slot.0 == seq {
            *slot = (0, 0);
        }
    }
}

/// Source of the op stream consumed by a core.
pub trait OpSource {
    /// Returns the next op if one is available and visible at `now`.
    /// Returning `None` either means the stream ended ([`OpSource::done`])
    /// or nothing is deliverable yet this cycle.
    fn next_visible(&mut self, now: u64) -> Option<Op>;

    /// Whether the stream has ended (no more ops will ever arrive).
    fn done(&mut self) -> bool;

    /// Earliest future cycle at which a currently-withheld op becomes
    /// visible, if known (lets the system skip idle cycles).
    fn next_visible_at(&self) -> Option<u64> {
        None
    }
}

/// An [`OpSource`] over a pre-recorded op vector (tests, callbacks).
#[derive(Debug, Default)]
pub struct SliceSource {
    ops: VecDeque<Op>,
}

impl SliceSource {
    /// Creates a source over `ops`.
    pub fn new(ops: Vec<Op>) -> Self {
        Self { ops: ops.into() }
    }
}

impl OpSource for SliceSource {
    fn next_visible(&mut self, now: u64) -> Option<Op> {
        if self.ops.front().is_some_and(|op| op.visible_at <= now) {
            self.ops.pop_front()
        } else {
            None
        }
    }

    fn done(&mut self) -> bool {
        self.ops.is_empty()
    }

    fn next_visible_at(&self) -> Option<u64> {
        self.ops.front().map(|op| op.visible_at)
    }
}

/// The out-of-order core.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    id: usize,
    rob: VecDeque<RobEntry>,
    ready: ReadyTable,
    lq: BinaryHeap<std::cmp::Reverse<u64>>,
    sq: BinaryHeap<std::cmp::Reverse<u64>>,
    load_ports: Vec<u64>,
    store_ports: Vec<u64>,
    vec_ports: Vec<u64>,
    bpred: BranchPredictor,
    fetch_blocked_until: u64,
    /// Accumulated statistics.
    pub stats: CoreStats,
    trace: Option<tmu_trace::ComponentId>,
    /// Last emitted top-down class (0 committing, 1 frontend, 2 backend);
    /// 3 means "none yet" so the first classified cycle always emits.
    last_class: u8,
}

impl Core {
    /// Creates core `id` with configuration `cfg`.
    pub fn new(id: usize, cfg: CoreConfig) -> Self {
        Self {
            cfg,
            id,
            rob: VecDeque::with_capacity(cfg.rob),
            ready: ReadyTable::new(cfg.rob),
            lq: BinaryHeap::new(),
            sq: BinaryHeap::new(),
            load_ports: vec![0; cfg.load_ports.max(1)],
            store_ports: vec![0; cfg.store_ports.max(1)],
            vec_ports: vec![0; cfg.vec_ports.max(1)],
            bpred: BranchPredictor::default(),
            fetch_blocked_until: 0,
            stats: CoreStats::default(),
            trace: None,
            last_class: 3,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Attaches this core to a tracer component: subsequent ticks emit
    /// stall-class transitions and LSQ-stall events against `id` when a
    /// tracer is installed.
    pub fn set_trace(&mut self, id: tmu_trace::ComponentId) {
        self.trace = Some(id);
    }

    /// Whether the core has drained all in-flight work.
    pub fn idle(&self) -> bool {
        self.rob.is_empty()
    }

    /// Completion cycle of the ROB head, if any (for idle-cycle skipping).
    pub fn head_complete(&self) -> Option<u64> {
        self.rob.front().map(|e| e.complete)
    }

    /// Cycle until which fetch is blocked by a misprediction redirect.
    pub fn fetch_blocked(&self) -> u64 {
        self.fetch_blocked_until
    }

    /// Whether the ROB is at capacity.
    pub fn rob_full(&self) -> bool {
        self.rob.len() >= self.cfg.rob
    }

    /// Accounts for `delta` skipped idle cycles (clock-jump optimization):
    /// a core waiting on its ROB head is backend-stalled, an empty core is
    /// frontend-stalled.
    pub fn account_gap(&mut self, delta: u64) {
        self.stats.cycles += delta;
        if self.rob.is_empty() {
            self.stats.frontend += delta;
        } else {
            self.stats.backend += delta;
        }
    }

    fn dep_ready(&self, op: &Op) -> u64 {
        op.deps
            .iter()
            .map(|d| self.ready.get(d.0))
            .max()
            .unwrap_or(0)
    }

    /// Claims the earliest-free issue port at or after `t`; the port is
    /// then busy for one cycle. Models issue-width contention: gathers
    /// cracked into element loads serialize over the load ports.
    fn claim_port(ports: &mut [u64], t: u64) -> u64 {
        let slot = ports
            .iter_mut()
            .min_by_key(|free| **free)
            .expect("ports non-empty");
        let start = t.max(*slot);
        *slot = start + 1;
        start
    }

    /// Frees queue slots whose op completed at or before `t`; returns the
    /// cycle the next slot frees if the queue is at capacity.
    fn queue_gate(heap: &mut BinaryHeap<std::cmp::Reverse<u64>>, cap: usize, t: u64) -> u64 {
        while let Some(&std::cmp::Reverse(done)) = heap.peek() {
            if done <= t && !heap.is_empty() {
                heap.pop();
            } else {
                break;
            }
        }
        if heap.len() >= cap {
            heap.peek().map(|r| r.0).unwrap_or(t)
        } else {
            t
        }
    }

    /// Advances the core by one cycle. Committed chunk markers are pushed
    /// into `acks`. Returns the number of ops committed this cycle.
    pub fn tick(
        &mut self,
        now: u64,
        source: &mut dyn OpSource,
        mem: &mut MemSys,
        acks: &mut Vec<u32>,
    ) -> usize {
        // ---- Commit ----
        let mut committed = 0;
        while committed < self.cfg.commit_width {
            match self.rob.front() {
                Some(head) if head.complete <= now => {
                    let e = self.rob.pop_front().expect("peeked");
                    self.ready.remove(e.seq);
                    self.stats.committed += 1;
                    self.stats.flops += e.flops as u64;
                    if e.is_load {
                        self.stats.loads += 1;
                        self.stats.load_latency_sum += e.load_latency as u64;
                    }
                    if e.is_branch {
                        self.stats.branches += 1;
                    }
                    if let Some(chunk) = e.chunk {
                        acks.push(chunk);
                    }
                    committed += 1;
                }
                _ => break,
            }
        }

        // ---- Dispatch ----
        let mut dispatched = 0;
        if now >= self.fetch_blocked_until {
            while dispatched < self.cfg.fetch_width && self.rob.len() < self.cfg.rob {
                let Some(op) = source.next_visible(now) else {
                    break;
                };
                self.dispatch(op, now, mem);
                dispatched += 1;
                // A mispredicted branch ends the fetch group.
                if now < self.fetch_blocked_until {
                    break;
                }
            }
        }

        // ---- Cycle classification (top-down style) ----
        self.stats.cycles += 1;
        let class: u8 = if committed > 0 {
            self.stats.committing += 1;
            0
        } else if self.rob.is_empty() {
            self.stats.frontend += 1;
            1
        } else {
            self.stats.backend += 1;
            2
        };
        if class != self.last_class {
            self.last_class = class;
            if let Some(id) = self.trace {
                tmu_trace::record(id, now, tmu_trace::EventKind::StallClass, u64::from(class));
            }
        }
        committed
    }

    fn dispatch(&mut self, op: Op, now: u64, mem: &mut MemSys) {
        let dep_ready = self.dep_ready(&op);
        let exec_start = dep_ready.max(now + 1);
        let cfg = self.cfg;
        let mut entry = RobEntry {
            seq: op.id.0,
            complete: exec_start,
            flops: 0,
            is_load: false,
            load_latency: 0,
            is_branch: false,
            chunk: None,
        };
        match op.kind {
            OpKind::IntAlu => entry.complete = exec_start + cfg.int_lat,
            OpKind::FpAlu { flops } => {
                entry.complete = exec_start + cfg.fp_lat;
                entry.flops = flops;
            }
            OpKind::VecAlu { flops } => {
                let issue = Self::claim_port(&mut self.vec_ports, exec_start);
                entry.complete = issue + cfg.vec_lat;
                entry.flops = flops;
            }
            OpKind::Load { .. } | OpKind::VecLoad { .. } => {
                let (addr, bytes) = match op.kind {
                    OpKind::Load { addr, bytes } | OpKind::VecLoad { addr, bytes } => (addr, bytes),
                    _ => unreachable!(),
                };
                let gated = Self::queue_gate(&mut self.lq, cfg.lq, exec_start).max(exec_start);
                if gated > exec_start {
                    if let Some(id) = self.trace {
                        tmu_trace::record(
                            id,
                            now,
                            tmu_trace::EventKind::LsqStall,
                            gated - exec_start,
                        );
                    }
                }
                let issue = Self::claim_port(&mut self.load_ports, gated);
                let complete = mem.read(self.id, op.site, addr, bytes, issue);
                self.lq.push(std::cmp::Reverse(complete));
                entry.complete = complete;
                entry.is_load = true;
                entry.load_latency = (complete - issue) as u32;
            }
            OpKind::Store { addr, bytes } => {
                let gated = Self::queue_gate(&mut self.sq, cfg.sq, exec_start).max(exec_start);
                if gated > exec_start {
                    if let Some(id) = self.trace {
                        tmu_trace::record(
                            id,
                            now,
                            tmu_trace::EventKind::LsqStall,
                            gated - exec_start,
                        );
                    }
                }
                let issue = Self::claim_port(&mut self.store_ports, gated);
                let owned = mem.write(self.id, addr, bytes, issue);
                self.sq.push(std::cmp::Reverse(owned));
                // The store retires through the store buffer.
                entry.complete = issue + 1;
            }
            OpKind::Branch { taken } => {
                let resolve = exec_start + 1;
                entry.complete = resolve;
                entry.is_branch = true;
                if self.bpred.mispredicted(op.site.0, taken) {
                    self.stats.mispredicts += 1;
                    self.fetch_blocked_until = resolve + cfg.mispredict_penalty;
                }
            }
            OpKind::ChunkEnd { chunk } => {
                entry.complete = now;
                entry.chunk = Some(chunk);
            }
        }
        self.ready.insert(op.id.0, entry.complete);
        self.rob.push_back(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, VecMachine};
    use crate::memsys::MemSysConfig;
    use crate::op::{Deps, Site};

    fn run_to_completion(core: &mut Core, ops: Vec<Op>, mem: &mut MemSys) -> u64 {
        let mut src = SliceSource::new(ops);
        let mut acks = Vec::new();
        let mut now = 0;
        while !(src.done() && core.idle()) {
            core.tick(now, &mut src, mem, &mut acks);
            now += 1;
            assert!(now < 10_000_000, "runaway simulation");
        }
        now
    }

    #[test]
    fn independent_alu_ops_pipeline() {
        let mut m = VecMachine::new();
        for _ in 0..1000 {
            m.int_op(Deps::NONE);
        }
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut core = Core::new(0, CoreConfig::neoverse_n1_like());
        let cycles = run_to_completion(&mut core, m.take(), &mut mem);
        // 1000 ops at 4-wide ≈ 250 cycles (+pipeline fill).
        assert!(cycles < 400, "took {cycles}");
        assert_eq!(core.stats.committed, 1000);
        assert!(core.stats.committing > core.stats.backend);
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut m = VecMachine::new();
        let mut prev = m.fp_op(1, Deps::NONE);
        for _ in 0..99 {
            prev = m.fp_op(1, Deps::from(prev));
        }
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut core = Core::new(0, CoreConfig::neoverse_n1_like());
        let cycles = run_to_completion(&mut core, m.take(), &mut mem);
        // 100 chained fp ops × 4-cycle latency ≥ 400 cycles.
        assert!(cycles >= 400, "chain must serialize, took {cycles}");
    }

    #[test]
    fn random_branches_cause_frontend_stalls() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let mut m = VecMachine::new();
        for _ in 0..2000 {
            m.branch(Site(5), rng.gen(), Deps::NONE);
            m.int_op(Deps::NONE);
        }
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut core = Core::new(0, CoreConfig::neoverse_n1_like());
        run_to_completion(&mut core, m.take(), &mut mem);
        let (_, frontend, _) = core.stats.breakdown();
        assert!(
            frontend > 0.3,
            "random branches must produce frontend stalls, got {frontend}"
        );
        assert!(core.stats.mispredicts > 400);
    }

    #[test]
    fn dependent_misses_cause_backend_stalls() {
        // Pointer-chase with irregular strides (so no prefetcher can help):
        // each load's address depends on the previous one.
        let mut m = VecMachine::new();
        let mut prev = m.load(Site(1), 0x100_000, 8, Deps::NONE);
        for i in 1..200u64 {
            let addr = 0x100_000 + (i * 7919 % 512) * 8192;
            prev = m.load(Site(1), addr, 8, Deps::from(prev));
        }
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut core = Core::new(0, CoreConfig::neoverse_n1_like());
        run_to_completion(&mut core, m.take(), &mut mem);
        let (_, _, backend) = core.stats.breakdown();
        assert!(
            backend > 0.7,
            "serialized misses must be backend-bound, got {backend}"
        );
        assert!(core.stats.avg_load_to_use() > 50.0);
    }

    #[test]
    fn independent_misses_overlap() {
        // Same 200 distant lines but independent: MLP must compress time.
        let build = |dep: bool| {
            let mut m = VecMachine::new();
            let mut prev = m.load(Site(1), 0x100_000, 8, Deps::NONE);
            for i in 1..200u64 {
                let deps = if dep { Deps::from(prev) } else { Deps::NONE };
                prev = m.load(Site(1), 0x100_000 + i * 8192, 8, deps);
            }
            m.take()
        };
        let mut mem1 = MemSys::new(MemSysConfig::table5(1));
        let mut c1 = Core::new(0, CoreConfig::neoverse_n1_like());
        let serial = run_to_completion(&mut c1, build(true), &mut mem1);
        let mut mem2 = MemSys::new(MemSysConfig::table5(1));
        let mut c2 = Core::new(0, CoreConfig::neoverse_n1_like());
        let parallel = run_to_completion(&mut c2, build(false), &mut mem2);
        assert!(
            parallel * 4 < serial,
            "MLP should give ≥4× ({parallel} vs {serial})"
        );
    }

    #[test]
    fn chunk_markers_are_acked_in_order() {
        let mut m = VecMachine::new();
        m.int_op(Deps::NONE);
        m.emit(Site(0), OpKind::ChunkEnd { chunk: 0 }, Deps::NONE);
        m.int_op(Deps::NONE);
        m.emit(Site(0), OpKind::ChunkEnd { chunk: 1 }, Deps::NONE);
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut core = Core::new(0, CoreConfig::neoverse_n1_like());
        let mut src = SliceSource::new(m.take());
        let mut acks = Vec::new();
        let mut now = 0;
        while !(src.done() && core.idle()) {
            core.tick(now, &mut src, &mut mem, &mut acks);
            now += 1;
        }
        assert_eq!(acks, vec![0, 1]);
    }

    /// Drives a `ReadyTable` and a `HashMap` through the same random mix of
    /// dispatches, oldest-first commits and lookups. The id stream restarts
    /// at 1 only once the ROB has drained, as a new engine incarnation on a
    /// served core does.
    #[test]
    fn ready_table_matches_a_map() {
        use proptest::Strategy;
        use std::collections::HashMap;

        let mut rng = proptest::TestRng::for_test("core::ready_table_matches_a_map");
        let steps = proptest::collection::vec((0u8..100, 0u64..1_000_000), 600..1500);
        for rob in [1, 2, 3, 224] {
            for case in 0..24 {
                let mut table = ReadyTable::new(rob);
                let mut map: HashMap<u64, u64> = HashMap::new();
                let mut in_rob = VecDeque::new();
                let mut next = 1;
                let mut max_id = 1;
                for (i, (action, value)) in steps.generate(&mut rng).into_iter().enumerate() {
                    let lookup = match action {
                        0..=2 if in_rob.is_empty() => {
                            next = 1;
                            continue;
                        }
                        0..=49 if in_rob.len() < rob => {
                            table.insert(next, value);
                            map.insert(next, value);
                            in_rob.push_back(next);
                            max_id = max_id.max(next);
                            next += 1;
                            next - 1
                        }
                        0..=79 => match in_rob.pop_front() {
                            Some(seq) => {
                                table.remove(seq);
                                map.remove(&seq);
                                seq
                            }
                            None => continue,
                        },
                        _ => value % (max_id + 2),
                    };
                    for seq in [lookup, value % (max_id + 2)]
                        .into_iter()
                        .chain(in_rob.iter().copied())
                    {
                        assert_eq!(
                            table.get(seq),
                            map.get(&seq).copied().unwrap_or(0),
                            "rob {rob}, case {case}, step {i}: seq {seq}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn visible_at_gates_dispatch() {
        let mut m = VecMachine::new();
        m.visible_at = 100;
        m.int_op(Deps::NONE);
        let ops = m.take();
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut core = Core::new(0, CoreConfig::neoverse_n1_like());
        let mut src = SliceSource::new(ops);
        let mut acks = Vec::new();
        for now in 0..99 {
            core.tick(now, &mut src, &mut mem, &mut acks);
            assert!(core.idle(), "op must stay withheld until cycle 100");
        }
        core.tick(100, &mut src, &mut mem, &mut acks);
        assert!(!core.idle());
    }
}
