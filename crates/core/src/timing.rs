//! Cycle-timing model of the TMU, implementing [`tmu_sim::Accelerator`].
//!
//! The functional interpreter supplies the ordered step/load stream; this
//! module replays it with the hardware constraints of §5:
//!
//! * **TU queues** (§5.1/§5.5): each TU may run ahead of its consumption
//!   point by its stream-queue depth, set by the analytical sizing model
//!   from the shared per-lane storage — deeper queues ⇒ more MLP.
//! * **Memory arbiter** (§5.4): one cacheline request per cycle, leftmost
//!   layers prioritized, round-robin between TUs of a layer, in-order
//!   within a TU; same-line requests coalesce. Requests go to the LLC
//!   through the engine's own outstanding-request pool (128 in Table 5).
//! * **outQ construction** (§5.3): steps complete strictly in order once
//!   their gating loads are ready; callback entries are pushed one per
//!   cycle into the current chunk, which is written into the host L2 and
//!   handed to the core when full. Chunks are double-buffered: the engine
//!   stalls when it gets two chunks ahead of the core's acknowledgments —
//!   this coupling is what the Figure 13 read-to-write ratio measures.

use std::collections::VecDeque;
use std::sync::Arc;

use tmu_sim::{
    Accelerator, Deps, FaultKind, FaultPlan, FaultStats, Machine, MemSys, Op, OpId, OpKind, Site,
    VecMachine,
};

use crate::config::TmuConfig;
use crate::context::ContextSnapshot;
use crate::error::TmuError;
use crate::image::MemImage;
use crate::interp::{Interp, StepBatcher};
use crate::program::{Program, StreamDef};
use crate::steps::{ElemId, EntryShapes, MemLoad, OutQEntry, StepKind};

/// Steps the engine keeps generated ahead of its commit point.
const WINDOW: usize = 512;

/// Host-side compute attached to a TMU program: expands each outQ entry
/// into the ops of its callback function (§4.3).
///
/// `entry_load` is the op that read the entry from the memory-mapped outQ;
/// compute ops should depend on it. Implementations also perform the
/// *functional* computation (accumulate, store results into their own
/// buffers) so TMU runs can be checked against references.
pub trait CallbackHandler: Send {
    /// Handles one outQ entry.
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine);
}

/// Timing statistics of one outQ chunk.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChunkStat {
    /// Cycle the first entry was pushed.
    pub open: u64,
    /// Cycle the chunk was sealed (visible to the core).
    pub ready: u64,
    /// Cycle the core finished processing it (ack).
    pub ack: u64,
    /// Entries in the chunk.
    pub entries: u32,
}

/// Aggregate outQ statistics (Figure 13).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OutQStats {
    /// Per-chunk timings.
    pub chunks: Vec<ChunkStat>,
    /// Total entries marshaled.
    pub entries: u64,
    /// Cycles the engine spent stalled on the double-buffer gate.
    pub backpressure_cycles: u64,
    /// Fault-injection counters (all zero in fault-free runs).
    pub faults: FaultStats,
    /// Why the engine retired early, if it did (graceful degradation —
    /// the kernel should fall back to the software baseline).
    pub retired: Option<String>,
    /// Owning tenant of this outQ (0 for single-tenant runs). Stamped by
    /// [`TmuAccelerator::set_tenant`] so a scheduler multiplexing engines
    /// can attribute marshaled chunks to the job that produced them.
    pub tenant: u32,
}

/// Compact, chunk-free summary of an [`OutQStats`] — the form summed into
/// the `tmu.*` stats of `results/bench.json` rows (the per-chunk vector
/// is unbounded).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OutQSnapshot {
    /// Total entries marshaled.
    pub entries: u64,
    /// Number of sealed chunks.
    pub chunks: u64,
    /// Cycles the engine spent stalled on the double-buffer gate.
    pub backpressure_cycles: u64,
    /// The Figure 13 read-to-write ratio (0 when no complete chunks).
    pub read_to_write_ratio: f64,
    /// Faults injected into this engine (0 in fault-free runs).
    pub faults_injected: u64,
    /// Precise traps taken (quiesce + context save).
    pub fault_traps: u64,
    /// Context restores after fault service.
    pub fault_restores: u64,
    /// Whether the engine retired early on an unserviceable fault.
    pub retired: bool,
    /// Owning tenant of this outQ (0 for single-tenant runs).
    pub tenant: u32,
}

impl OutQStats {
    /// Summarizes into the fixed-size [`OutQSnapshot`] record.
    pub fn snapshot(&self) -> OutQSnapshot {
        OutQSnapshot {
            entries: self.entries,
            chunks: self.chunks.len() as u64,
            backpressure_cycles: self.backpressure_cycles,
            read_to_write_ratio: self.read_to_write_ratio(),
            faults_injected: self.faults.injected,
            fault_traps: self.faults.traps,
            fault_restores: self.faults.restores,
            retired: self.retired.is_some(),
            tenant: self.tenant,
        }
    }

    /// The read-to-write ratio of §7.1: core read time over TMU write
    /// time, averaged over all complete chunks. Below one means the core
    /// outpaces the engine.
    pub fn read_to_write_ratio(&self) -> f64 {
        let mut ratios = Vec::new();
        for c in &self.chunks {
            let write = c.ready.saturating_sub(c.open);
            let read = c.ack.saturating_sub(c.ready);
            if write > 0 && c.ack > 0 {
                ratios.push(read as f64 / write as f64);
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }
}

const UNISSUED: u64 = u64::MAX;

/// Ready-time table for loads, indexed by [`ElemId`] with a sliding base.
#[derive(Debug, Default)]
struct ReadyRing {
    base: u64,
    ring: VecDeque<u64>,
}

impl ReadyRing {
    /// Empties the ring, keeping its buffer; ids now start at `base`, and
    /// ids below it read as ready-at-0 (used after a context restore,
    /// where every load of an already-committed step is by definition
    /// complete).
    fn restart_at(&mut self, base: u64) {
        self.base = base;
        self.ring.clear();
    }

    fn push_unissued(&mut self, id: ElemId) {
        debug_assert_eq!(id, self.base + self.ring.len() as u64);
        self.ring.push_back(UNISSUED);
        // Bound memory: evict old, issued entries.
        while self.ring.len() > 1 << 20 && self.ring.front() != Some(&UNISSUED) {
            self.ring.pop_front();
            self.base += 1;
        }
    }

    fn set(&mut self, id: ElemId, ready: u64) {
        if id >= self.base {
            let off = (id - self.base) as usize;
            self.ring[off] = ready;
        }
    }

    /// Ready time of a load; evicted (ancient) ids read as ready-at-0,
    /// unissued ids as never-ready.
    fn get(&self, id: ElemId) -> u64 {
        if id < self.base {
            0
        } else {
            self.ring
                .get((id - self.base) as usize)
                .copied()
                .unwrap_or(UNISSUED)
        }
    }
}

/// One stream queue of a TU (§5.4: requests within a queue issue in
/// order; each stream coalesces into its own last-requested cacheline).
#[derive(Debug, Default)]
struct StreamQueue {
    queue: VecDeque<MemLoad>,
    last_line: u64,
    last_ready: u64,
}

#[derive(Debug, Default)]
struct TuTiming {
    streams: Vec<StreamQueue>,
    consumed_elems: u64,
}

/// The wake gate. A *quiet* tick — one that pops no stream head, refills
/// or commits no step, ends no step stream and seals no chunk — repeats
/// itself exactly until a dep-blocked stream head or the front pending
/// step's gates become ready (`wake`), or until the core acks a chunk.
/// Unissued loads and queue-capacity limits add no deadline: only an
/// active tick moves them. Until then every tick only replays the quiet
/// tick's per-cycle side effects, one replay per tick, so cycles the
/// clock jumps over stay uncharged. Engines with a fault plan never sleep
/// (the plan rolls its RNG every cycle).
#[derive(Debug, Clone, Copy, Default)]
struct Sleep {
    /// First cycle that must tick in full (0 while awake).
    wake: u64,
    /// The quiet tick's `debug_counters` increments.
    counters: [u64; 4],
    /// Whether the quiet tick stalled on the double-buffer gate.
    backpressure: bool,
}

impl Sleep {
    /// Notes a state change: the next tick runs in full.
    fn stir(&mut self) {
        self.wake = 0;
    }

    /// Notes a stall that ends by itself at cycle `ready`; `UNISSUED`
    /// (`u64::MAX`) sets no deadline.
    fn until(&mut self, ready: u64) {
        self.wake = self.wake.min(ready);
    }
}

/// The TMU engine attached to one host core.
pub struct TmuAccelerator<H: CallbackHandler> {
    cfg: TmuConfig,
    batcher: StepBatcher,
    handler: H,
    /// The program and image, retained for context restore after a trap.
    program: Arc<Program>,
    image: Arc<MemImage>,
    /// Fault-injection schedule (absent in fault-free runs: the hot path
    /// then takes no fault branches and behaviour is byte-identical to
    /// the pre-fault-model engine).
    faults: Option<FaultPlan>,
    /// A fault was injected this cycle; trap at the end of the tick.
    trap_pending: Option<FaultKind>,
    /// Saved context while the simulated OS services a fault.
    saved: Option<ContextSnapshot>,
    /// Cycle at which fault service completes and restore may run.
    service_until: u64,
    /// Injected outQ backpressure: entry pushes stall below this cycle.
    outq_stall_until: u64,
    /// Terminal error after graceful degradation (engine is dead).
    retired: Option<TmuError>,
    /// Externally descheduled by [`TmuAccelerator::quiesce`]: the
    /// architectural context left in a [`ContextSnapshot`]; the engine
    /// shell only drains its already-synthesized host ops.
    parked: bool,
    qdepth: Vec<usize>,
    tus: Vec<Vec<TuTiming>>,
    ready: ReadyRing,
    /// Recently requested cachelines across all TUs (the arbiter merges
    /// same-line requests from different lanes, as MSHRs would).
    global_lines: [(u64, u64); 32],
    global_pos: usize,
    steps_done: bool,
    rr: Vec<usize>,
    // outQ state
    outq_base: u64,
    chunk_id: u32,
    chunk_entries: u32,
    chunk_bytes: u32,
    chunk_open: u64,
    acked: u32,
    vm: VecMachine,
    host_ops: VecDeque<Op>,
    /// The outQ entry of each callback, refilled from a step's operand
    /// words as it commits.
    shapes: EntryShapes,
    /// The outQ statistics, owning tenant included. The fault counters and
    /// the retirement reason are filled in from `faults` and `retired`
    /// when the stats are read.
    stats: OutQStats,
    outq_site: Site,
    /// Diagnostic counters: (cycles with no issue while work pending,
    /// capacity-blocked picks, dep-blocked picks, gate-blocked step waits).
    pub debug_counters: [u64; 4],
    sleep: Sleep,
    // Tracing state. The component is registered
    // lazily on the first tick — the engine learns its host core index
    // there, not at construction.
    trace: Option<tmu_trace::ComponentId>,
    trace_layer: u8,
    sampler: tmu_trace::PeriodicSampler,
}

impl<H: CallbackHandler> std::fmt::Debug for TmuAccelerator<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmuAccelerator")
            .field("cfg", &self.cfg)
            .field("chunk_id", &self.chunk_id)
            .field("acked", &self.acked)
            .finish_non_exhaustive()
    }
}

impl<H: CallbackHandler> TmuAccelerator<H> {
    /// Builds an engine for `program` over `image`, marshaling into an
    /// outQ at `outq_base` (a per-core region in the host address space).
    /// A program using more lanes than the configuration has is a typed
    /// error.
    pub fn new(
        cfg: TmuConfig,
        program: Arc<Program>,
        image: Arc<MemImage>,
        handler: H,
        outq_base: u64,
    ) -> Result<Self, TmuError> {
        let qdepth = Self::queue_depths_for(&cfg, &program)?;
        let interp = Interp::new(Arc::clone(&program), Arc::clone(&image));
        Ok(Self::assemble(
            cfg, qdepth, program, image, handler, outq_base, interp,
        ))
    }

    /// The §5.5 queue depths of `program` on `cfg`; a program using more
    /// lanes than the configuration has is a typed error.
    fn queue_depths_for(cfg: &TmuConfig, program: &Program) -> Result<Vec<usize>, TmuError> {
        if program.lanes_used() > cfg.lanes {
            return Err(TmuError::LanesExceeded {
                used: program.lanes_used(),
                lanes: cfg.lanes,
            });
        }
        cfg.size_queues(&program.weights(), &program.streams_per_layer())
    }

    /// An engine whose step stream continues from `interp`: each TU's
    /// committed consumption is read off the interpreter, and loads of
    /// steps it already produced read as ready.
    fn assemble(
        cfg: TmuConfig,
        qdepth: Vec<usize>,
        program: Arc<Program>,
        image: Arc<MemImage>,
        handler: H,
        outq_base: u64,
        interp: Interp,
    ) -> Self {
        let tus = program
            .layers
            .iter()
            .enumerate()
            .map(|(layer, l)| {
                l.tus
                    .iter()
                    .enumerate()
                    .map(|(lane, tu)| {
                        // One queue per stream up to the last that loads.
                        let queues = tu
                            .streams
                            .iter()
                            .rposition(|s| matches!(s, StreamDef::Mem { .. }))
                            .map_or(0, |s| s + 1);
                        TuTiming {
                            streams: (0..queues).map(|_| StreamQueue::default()).collect(),
                            consumed_elems: interp.consumed_elems(layer, lane),
                        }
                    })
                    .collect()
            })
            .collect();
        let mut ready = ReadyRing::default();
        ready.restart_at(interp.elems_issued());
        Self {
            cfg,
            batcher: StepBatcher::new(interp),
            handler,
            shapes: EntryShapes::new(&program),
            rr: vec![0; program.layers.len()],
            program,
            image,
            // Engines sharing one spec (one per core) are decorrelated by
            // their outQ base address.
            faults: FaultPlan::from_spec(cfg.faults, outq_base),
            trap_pending: None,
            saved: None,
            service_until: 0,
            outq_stall_until: 0,
            retired: None,
            parked: false,
            qdepth,
            tus,
            ready,
            global_lines: [(u64::MAX, 0); 32],
            global_pos: 0,
            steps_done: false,
            outq_base,
            chunk_id: 0,
            chunk_entries: 0,
            chunk_bytes: 0,
            chunk_open: 0,
            acked: 0,
            vm: VecMachine::new(),
            host_ops: VecDeque::new(),
            stats: OutQStats::default(),
            outq_site: Site(u16::MAX),
            debug_counters: [0; 4],
            sleep: Sleep::default(),
            trace: None,
            trace_layer: u8::MAX,
            sampler: tmu_trace::PeriodicSampler::new(
                tmu_trace::with(|t| t.config().sample_period).unwrap_or(256),
            ),
        }
    }

    #[inline]
    fn emit(&self, cycle: u64, kind: tmu_trace::EventKind, payload: u64) {
        if let Some(id) = self.trace {
            tmu_trace::record(id, cycle, kind, payload);
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &TmuConfig {
        &self.cfg
    }

    /// Per-layer stream queue depths chosen by the sizing model.
    pub fn queue_depths(&self) -> &[usize] {
        &self.qdepth
    }

    /// A copy of the outQ statistics so far.
    pub fn stats(&self) -> OutQStats {
        self.settle(self.stats.clone())
    }

    /// `stats` with the fault plan's counters and the retirement reason,
    /// which the engine keeps in `faults` and `retired` and writes only
    /// into the statistics it hands out. The plan's counters add to those
    /// that [`TmuAccelerator::resume_from`] carried in from earlier
    /// incarnations.
    fn settle(&self, mut stats: OutQStats) -> OutQStats {
        if let Some(plan) = self.faults.as_ref() {
            stats.faults.merge(&plan.stats);
        }
        if let Some(err) = self.retired.as_ref() {
            stats.retired = Some(err.to_string());
        }
        stats
    }

    /// The callback handler (for reading back results it accumulated).
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Attaches a fault-injection plan (tests use this to pin scripted
    /// schedules; rate-based plans normally come from `cfg.faults`).
    pub fn inject_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
        self.sleep.stir();
    }

    /// Fault-injection counters of this incarnation's plan so far (zeroes
    /// when no plan is attached); [`TmuAccelerator::stats`] adds those of
    /// earlier incarnations.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|p| p.stats).unwrap_or_default()
    }

    /// The attached fault plan (probe runs read its load count back to
    /// place scripted injection points on the live schedule).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The terminal error the engine retired with, if any.
    pub fn retired(&self) -> Option<&TmuError> {
        self.retired.as_ref()
    }

    /// Tags this engine's outQ with an owning tenant id. The tag rides in
    /// every [`ContextSnapshot`] taken from the engine and in its
    /// [`OutQStats`], so a scheduler multiplexing many jobs can attribute
    /// marshaled chunks to the job that produced them.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.stats.tenant = tenant;
    }

    /// The owning tenant id (0 unless [`TmuAccelerator::set_tenant`] ran).
    pub fn tenant(&self) -> u32 {
        self.stats.tenant
    }

    /// Traversal-group steps committed so far (the precise quiesce
    /// point). Schedulers preempting the engine compare this across
    /// quanta to guarantee forward progress: a context switched out
    /// before its first committed step would replay to the same point
    /// forever.
    pub fn steps_committed(&self) -> u64 {
        self.batcher.committed()
    }

    /// Whether the engine was externally descheduled by
    /// [`TmuAccelerator::quiesce`].
    pub fn parked(&self) -> bool {
        self.parked
    }

    /// Consumes the engine shell, returning the callback handler — the
    /// host-software half of the job — and the outQ statistics. An
    /// external scheduler moves both onto the next engine incarnation at
    /// [`TmuAccelerator::resume_from`].
    pub fn into_parts(mut self) -> (H, OutQStats) {
        let stats = std::mem::take(&mut self.stats);
        let stats = self.settle(stats);
        (self.handler, stats)
    }

    /// Externally deschedules the engine (§5.6, scheduler-driven): drains
    /// to the precise TG-step quiesce point and captures the architectural
    /// context.
    ///
    /// The committed step count *is* the quiesce point — steps commit
    /// strictly in order, and everything past it (in-flight loads, queued
    /// steps, arbiter state) is speculative and regenerated bit-exactly by
    /// replay on resume. The snapshot carries the newest interpreter
    /// checkpoint at or before the committed step, so that replay is fewer
    /// than 64 steps. The open partial outQ chunk is sealed so all
    /// host-visible state drains with the outgoing context; sealing only
    /// changes chunk packaging, never the marshaled entry stream. If a
    /// fault was mid-service the pending restore is subsumed: the saved
    /// context is identical to the one captured here.
    ///
    /// After this call the engine is parked: ticks are no-ops and
    /// [`Accelerator::done`] reports true once the already-synthesized
    /// host ops (the sealed chunk's callbacks and `ChunkEnd`) have
    /// drained. Errors if the engine already retired.
    pub fn quiesce(
        &mut self,
        now: u64,
        core: usize,
        mem: &mut MemSys,
    ) -> Result<ContextSnapshot, TmuError> {
        if let Some(err) = self.retired.as_ref() {
            return Err(err.clone());
        }
        if self.chunk_entries > 0 {
            self.seal_chunk(now, core, mem);
        }
        let snap = self.save_context();
        self.saved = None;
        self.trap_pending = None;
        self.batcher.discard();
        self.parked = true;
        Ok(snap)
    }

    /// Reconstructs an engine from an externally saved context (§5.6,
    /// scheduler-driven reschedule): the dual of
    /// [`TmuAccelerator::quiesce`].
    ///
    /// Restores the interpreter to the saved step count (from the
    /// snapshot's checkpoint, see [`ContextSnapshot::restore`]) and
    /// reads off it the per-TU committed-consumption ordinals the §5.5
    /// capacity check is keyed on; loads of already-committed steps read
    /// as ready. The outQ control registers resume from the snapshot: the
    /// next chunk id continues the sealed sequence (the consumer drained
    /// every sealed chunk before the switch completed, so the
    /// double-buffer gate opens fully). Pass the descheduled engine's
    /// statistics (from [`TmuAccelerator::into_parts`]) as `stats` so entry
    /// counts, fault counters and per-chunk timings accumulate across
    /// incarnations — chunk ids then stay aligned with the `chunks` vector.
    ///
    /// A rate-based fault plan restarts its load counter (the plan is
    /// microarchitectural, not architectural state); scripted plans do not
    /// survive a switch.
    pub fn resume_from(
        snap: &ContextSnapshot,
        image: Arc<MemImage>,
        handler: H,
        outq_base: u64,
        stats: OutQStats,
    ) -> Result<Self, TmuError> {
        let qdepth = Self::queue_depths_for(&snap.config, &snap.program)?;
        let interp = snap.restore(Arc::clone(&image))?;
        let mut accel = Self::assemble(
            snap.config,
            qdepth,
            Arc::clone(&snap.program),
            image,
            handler,
            outq_base,
            interp,
        );
        accel.chunk_id = snap.chunks_sealed;
        accel.acked = snap.chunks_sealed;
        accel.stats = OutQStats {
            tenant: snap.tenant,
            ..stats
        };
        Ok(accel)
    }

    /// The architectural context at the committed step, with the newest
    /// interpreter checkpoint at or before it.
    fn save_context(&self) -> ContextSnapshot {
        ContextSnapshot::save(
            self.cfg,
            &self.program,
            self.steps_committed(),
            self.stats.entries,
        )
        .with_outq(self.chunk_id, self.stats.tenant)
        .with_checkpoint(self.batcher.checkpoint().cloned())
    }

    /// Restarts the step stream from an interpreter restored to the
    /// committed step: speculative state (queued loads, uncommitted steps,
    /// arbiter state) is dropped, and each TU's committed consumption is
    /// read off the interpreter. Loads of committed steps have ids below
    /// the interpreter's next id; the emptied ring reports them
    /// ready-at-0. Every queue and ring keeps its buffer.
    fn restart_from(&mut self, interp: Interp) {
        for (layer, tus) in self.tus.iter_mut().enumerate() {
            for (lane, tu) in tus.iter_mut().enumerate() {
                for sq in &mut tu.streams {
                    sq.queue.clear();
                    (sq.last_line, sq.last_ready) = (0, 0);
                }
                tu.consumed_elems = interp.consumed_elems(layer, lane);
            }
        }
        self.ready.restart_at(interp.elems_issued());
        self.batcher.restart(interp);
        self.steps_done = false;
        self.global_lines = [(u64::MAX, 0); 32];
        self.global_pos = 0;
        self.rr.fill(0);
    }

    /// Retires the engine: abandon all outstanding work, record the typed
    /// error, and report done so the host run terminates cleanly. The
    /// caller is expected to fall back to the software baseline.
    fn retire(&mut self, err: TmuError) {
        self.batcher.discard();
        self.steps_done = true;
        self.chunk_entries = 0;
        self.chunk_bytes = 0;
        // Discard host ops synthesized for the unsealed chunk.
        self.vm.ops.clear();
        self.saved = None;
        self.trap_pending = None;
        self.retired = Some(err);
    }

    /// Takes the precise trap for the pending fault: the engine has
    /// quiesced at a TG-step boundary (in-flight loads and uncommitted
    /// steps are abandoned — replay regenerates them bit-exactly), so the
    /// architectural context is exactly the committed step count.
    fn take_trap(&mut self, now: u64) {
        let Some(kind) = self.trap_pending.take() else {
            return;
        };
        let Some(plan) = self.faults.as_mut() else {
            return;
        };
        let spec = *plan.spec();
        if kind == FaultKind::PageFault && plan.stats.page_faults > u64::from(spec.max_serviced) {
            plan.stats.unserviceable += 1;
            let seen = plan.stats.page_faults;
            self.retire(TmuError::UnserviceableFault {
                serviced: seen.min(u64::from(u32::MAX)) as u32,
                limit: spec.max_serviced,
            });
            return;
        }
        plan.stats.traps += 1;
        self.service_until = now + u64::from(spec.service_cycles).max(1);
        self.saved = Some(self.save_context());
        self.emit(
            now,
            tmu_trace::EventKind::TrapRaised,
            self.steps_committed(),
        );
    }

    /// Resumes from the saved context after fault service: restore the
    /// interpreter, discard all speculative (uncommitted) engine state, and
    /// continue. Committed outQ state — chunk ids, entry counts,
    /// synthesized host ops — is architectural and survives untouched.
    fn restore_from_trap(&mut self) {
        let Some(snap) = self.saved.take() else {
            return;
        };
        match snap.restore(Arc::clone(&self.image)) {
            Ok(interp) => self.restart_from(interp),
            Err(e) => {
                // A corrupt snapshot cannot resume: degrade instead of
                // panicking mid-run.
                self.retire(e);
                return;
            }
        }
        if let Some(plan) = self.faults.as_mut() {
            plan.stats.restores += 1;
        }
    }

    /// Generates steps until `WINDOW` are pending, their loads straight
    /// into the stream queues.
    fn refill(&mut self) {
        while self.batcher.pending() < WINDOW && !self.steps_done {
            self.sleep.stir();
            let (ready, tus) = (&mut self.ready, &mut self.tus);
            self.steps_done = !self.batcher.generate(|ld| {
                ready.push_unissued(ld.id);
                let tu = &mut tus[ld.layer as usize][ld.lane as usize];
                tu.streams[ld.stream as usize].queue.push_back(ld);
            });
        }
    }

    /// §5.4 arbiter: picks and issues at most one new cacheline request
    /// (plus free same-line coalesced loads).
    fn arbitrate(&mut self, now: u64, core: usize, mem: &mut MemSys) {
        // §5.1/§5.4: each TU FSM advances at most one element per cycle —
        // every stream queue pops at most once — and the whole engine
        // issues at most one *new* cacheline request per cycle. A request
        // whose line was already requested (by this or another TU) merges
        // into the in-flight line for free, like MSHR secondary misses.
        let mut issued_line = false;
        let mut had_work = false;
        for layer in 0..self.tus.len() {
            let lanes = self.tus[layer].len();
            for k in 0..lanes {
                let lane = (self.rr[layer] + k) % lanes;
                let n_streams = self.tus[layer][lane].streams.len();
                for stream in 0..n_streams {
                    let depth = self.qdepth[layer] as u64;
                    let tu = &self.tus[layer][lane];
                    let sq = &tu.streams[stream];
                    let Some(head) = sq.queue.front() else {
                        continue;
                    };
                    had_work = true;
                    // Queue capacity (§5.5) and dependency readiness.
                    if head.elem_ordinal >= tu.consumed_elems + depth {
                        self.debug_counters[1] += 1;
                        continue;
                    }
                    let deps_ready = head
                        .deps()
                        .iter()
                        .map(|&d| self.ready.get(d))
                        .max()
                        .unwrap_or(0);
                    if deps_ready == UNISSUED || deps_ready > now {
                        self.debug_counters[2] += 1;
                        self.sleep.until(deps_ready);
                        continue;
                    }
                    let line = tmu_sim::line_of(head.addr);
                    let merged = if sq.last_line == line && sq.last_ready != 0 {
                        Some(sq.last_ready)
                    } else {
                        self.global_lines
                            .iter()
                            .find(|&&(l, _)| l == line)
                            .map(|&(_, ready)| ready)
                    };
                    if let Some(line_ready) = merged {
                        let sq = &mut self.tus[layer][lane].streams[stream];
                        let head = sq.queue.pop_front().expect("checked");
                        sq.last_line = line;
                        sq.last_ready = line_ready.max(1);
                        self.ready.set(head.id, line_ready.max(now));
                        self.sleep.stir();
                        continue;
                    }
                    if issued_line {
                        // The cycle's request slot is spent; this stream
                        // stalls until next cycle.
                        continue;
                    }
                    // Fault injection on the load about to issue. A page
                    // fault consumes the request slot without completing:
                    // the engine stops arbitrating and traps at the end of
                    // the tick. Transient retries only delay completion.
                    let mut retry_extra = 0u64;
                    let injected = self.faults.as_mut().and_then(|plan| {
                        let retry = u64::from(plan.spec().retry_cycles);
                        plan.on_load().map(|k| (k, retry))
                    });
                    if let Some((kind, retry)) = injected {
                        self.emit(
                            now,
                            tmu_trace::EventKind::FaultInjected,
                            u64::from(kind.bit()),
                        );
                        match kind {
                            FaultKind::PageFault => {
                                self.trap_pending = Some(FaultKind::PageFault);
                                return;
                            }
                            FaultKind::DramRetry | FaultKind::NocRetry => {
                                retry_extra = retry.max(1);
                            }
                            // Cycle-triggered kinds scripted onto a load
                            // ordinal behave like a preemption.
                            FaultKind::OutQStall | FaultKind::Preempt => {
                                self.trap_pending = Some(FaultKind::Preempt);
                                return;
                            }
                        }
                    }
                    let done = mem.accel_read(core, head.addr, now) + retry_extra;
                    let sq = &mut self.tus[layer][lane].streams[stream];
                    let head = sq.queue.pop_front().expect("checked");
                    sq.last_line = line;
                    sq.last_ready = done;
                    self.global_lines[self.global_pos] = (line, done);
                    self.global_pos = (self.global_pos + 1) % self.global_lines.len();
                    self.ready.set(head.id, done);
                    self.sleep.stir();
                    issued_line = true;
                    self.rr[layer] = (lane + 1) % lanes;
                    self.emit(
                        now,
                        tmu_trace::EventKind::TuFetch,
                        tmu_trace::pack_dur_extra(
                            done.saturating_sub(now),
                            ((layer as u32) << 8) | lane as u32,
                        ),
                    );
                }
            }
        }
        if !issued_line && had_work {
            self.debug_counters[0] += 1;
        }
    }

    /// Advances outQ construction: completes in-order steps whose gates
    /// are ready, pushing at most one entry per cycle.
    fn advance_steps(&mut self, now: u64, core: usize, mem: &mut MemSys) {
        let mut free_steps = 4;
        let mut pushed_entry = false;
        while free_steps > 0 && !pushed_entry {
            let Some(step) = self.batcher.front() else {
                break;
            };
            // Injected outQ backpressure: entry-producing steps hold at
            // the same gate a full consumer would wedge them on. (Never
            // taken in fault-free runs: `outq_stall_until` stays 0.)
            if step.pushes && now < self.outq_stall_until {
                break;
            }
            // Double-buffer gate: entries may only enter chunk c when the
            // core has acked chunk c-2.
            if step.pushes && self.chunk_id >= self.acked + 2 {
                self.charge_backpressure(now);
                self.sleep.backpressure = true;
                break;
            }
            let gates_ready = self
                .batcher
                .gates()
                .map(|g| self.ready.get(g))
                .max()
                .unwrap_or(0);
            if gates_ready == UNISSUED || gates_ready > now {
                self.debug_counters[3] += 1;
                self.sleep.until(gates_ready);
                break;
            }
            self.sleep.stir();
            if step.layer != self.trace_layer {
                self.trace_layer = step.layer;
                self.emit(
                    now,
                    tmu_trace::EventKind::LayerTransition,
                    u64::from(step.layer),
                );
            }
            let fsm = match step.kind {
                StepKind::Beg => 0u32,
                StepKind::Ite => 1,
                StepKind::End => 2,
                StepKind::Skip => 3,
            };
            self.emit(
                now,
                tmu_trace::EventKind::TgStep,
                tmu_trace::pack_dur_extra(1, ((step.layer as u32) << 8) | fsm),
            );
            let tus = &mut self.tus[step.layer as usize];
            for (lane, tu) in tus.iter_mut().enumerate() {
                if step.consumed & (1 << lane) != 0 {
                    tu.consumed_elems += 1;
                }
            }
            // Push the step's entry into the current chunk.
            if step.pushes {
                self.shapes
                    .refill(step.layer, step.kind, step.mask, self.batcher.words());
                if self.chunk_entries == 0 {
                    self.chunk_open = now;
                }
                self.push_entry(step.layer, step.kind, now, core, mem);
            }
            self.batcher.commit();
            if !step.pushes {
                free_steps -= 1;
                continue;
            }
            pushed_entry = true;
            if self.chunk_entries >= self.cfg.chunk_entries as u32 {
                self.seal_chunk(now, core, mem);
            }
        }
        // Seal a trailing partial chunk once traversal has finished.
        if self.batcher.pending() == 0 && self.steps_done && self.chunk_entries > 0 {
            self.seal_chunk(now, core, mem);
        }
    }

    /// One cycle stalled on the double-buffer gate.
    fn charge_backpressure(&mut self, now: u64) {
        self.stats.backpressure_cycles += 1;
        self.emit(
            now,
            tmu_trace::EventKind::OutQFull,
            u64::from(self.chunk_id.saturating_sub(self.acked)),
        );
    }

    fn entry_addr(&self) -> u64 {
        let chunk_cap = (self.cfg.chunk_entries as u64 + 1) * 256;
        self.outq_base + (self.chunk_id as u64 % 2) * chunk_cap + self.chunk_bytes as u64
    }

    /// Pushes the entry a `kind` step of `layer` refilled.
    fn push_entry(&mut self, layer: u8, kind: StepKind, now: u64, core: usize, mem: &mut MemSys) {
        let addr = self.entry_addr();
        let entry = self
            .shapes
            .get(layer, kind)
            .expect("the step pushes an entry");
        let bytes = entry.bytes();
        mem.accel_write(core, addr, bytes, now);
        // Synthesize the host ops for this entry right away; they become
        // visible when the chunk seals (visible_at patched in seal_chunk).
        let load = self.vm.vec_load(self.outq_site, addr, bytes, Deps::NONE);
        self.handler.handle(entry, load, &mut self.vm);
        self.chunk_entries += 1;
        self.chunk_bytes += bytes.max(64);
        self.stats.entries += 1;
        self.emit(
            now,
            tmu_trace::EventKind::OutQPush,
            u64::from(self.chunk_id),
        );
    }

    fn seal_chunk(&mut self, now: u64, core: usize, mem: &mut MemSys) {
        let visible = mem.accel_write(core, self.entry_addr(), 8, now);
        self.vm.emit(
            Site(0),
            OpKind::ChunkEnd {
                chunk: self.chunk_id,
            },
            Deps::NONE,
        );
        self.host_ops.extend(self.vm.ops.drain(..).map(|op| Op {
            visible_at: visible,
            ..op
        }));
        self.stats.chunks.push(ChunkStat {
            open: self.chunk_open,
            ready: visible,
            ack: 0,
            entries: self.chunk_entries,
        });
        self.emit(
            self.chunk_open,
            tmu_trace::EventKind::ChunkWrite,
            tmu_trace::pack_dur_extra(visible.saturating_sub(self.chunk_open), self.chunk_id),
        );
        self.chunk_id += 1;
        self.chunk_entries = 0;
        self.chunk_bytes = 0;
        self.sleep.stir();
    }
}

impl<H: CallbackHandler> Accelerator for TmuAccelerator<H> {
    fn tick(&mut self, now: u64, core: usize, mem: &mut MemSys) {
        // The engine learns its host core index here, so the tracer
        // component is registered on the first traced tick.
        if self.trace.is_none() && tmu_trace::is_active() {
            self.trace = tmu_trace::with(|t| t.component(&format!("system.core{core}.tmu")));
        }
        if self.trace.is_some() && self.sampler.due(now) {
            self.emit(
                now,
                tmu_trace::EventKind::OutQOccupancy,
                u64::from(self.chunk_entries),
            );
            self.emit(
                now,
                tmu_trace::EventKind::OutQChunksAhead,
                u64::from(self.chunk_id.saturating_sub(self.acked)),
            );
        }
        if self.retired.is_some() || self.parked {
            return;
        }
        if now < self.sleep.wake {
            // Asleep: only the quiet tick's per-cycle side effects.
            for (count, delta) in self.debug_counters.iter_mut().zip(self.sleep.counters) {
                *count += delta;
            }
            if self.sleep.backpressure {
                self.charge_backpressure(now);
            }
            return;
        }
        if self.saved.is_some() {
            // The simulated OS is servicing a fault; the engine is quiesced.
            if now < self.service_until {
                return;
            }
            self.restore_from_trap();
            if self.retired.is_some() {
                return;
            }
        }
        // Cycle-triggered injections (preemption, outQ backpressure).
        let cycle_fault = self.faults.as_mut().and_then(|plan| {
            let stall = u64::from(plan.spec().stall_cycles);
            plan.on_cycle(now).map(|k| (k, stall))
        });
        if let Some((kind, stall)) = cycle_fault {
            self.emit(
                now,
                tmu_trace::EventKind::FaultInjected,
                u64::from(kind.bit()),
            );
            match kind {
                FaultKind::OutQStall => {
                    self.outq_stall_until = self.outq_stall_until.max(now + stall.max(1));
                }
                _ => self.trap_pending = Some(kind),
            }
        }
        let before = self.debug_counters;
        self.sleep = Sleep {
            wake: u64::MAX,
            ..Sleep::default()
        };
        self.refill();
        self.arbitrate(now, core, mem);
        self.advance_steps(now, core, mem);
        if self.trap_pending.is_some() {
            self.take_trap(now);
        }
        // Nothing stirred and every deadline lies ahead: the tick was
        // quiet, and a fault-free engine sleeps until `wake`.
        if self.faults.is_some() || self.sleep.wake <= now {
            self.sleep.stir();
        } else {
            self.sleep.counters = std::array::from_fn(|i| self.debug_counters[i] - before[i]);
        }
    }

    fn drain_ops(&mut self, out: &mut Vec<Op>) {
        out.extend(self.host_ops.drain(..));
    }

    fn ack_chunk(&mut self, chunk: u32, now: u64) {
        self.acked = self.acked.max(chunk + 1);
        // The double-buffer gate is the engine's only external unblock.
        self.sleep.stir();
        if let Some(stat) = self.stats.chunks.get_mut(chunk as usize) {
            stat.ack = now;
            let ready = stat.ready;
            self.emit(
                ready,
                tmu_trace::EventKind::ChunkRead,
                tmu_trace::pack_dur_extra(now.saturating_sub(ready), chunk),
            );
        }
    }

    fn done(&self) -> bool {
        if self.retired.is_some() || self.parked {
            // Retired engines are done once their already-synthesized ops
            // have drained (the caller falls back to software); parked
            // engines likewise — their remaining state lives in the
            // snapshot an external scheduler took.
            return self.host_ops.is_empty();
        }
        self.saved.is_none()
            && self.trap_pending.is_none()
            && self.steps_done
            && self.batcher.pending() == 0
            && self.chunk_entries == 0
            && self.host_ops.is_empty()
    }

    fn status_line(&self) -> String {
        format!(
            "tmu: steps_committed={} pending={} chunk_id={} acked={} chunk_entries={} \
             steps_done={} trapped={} retired={}",
            self.steps_committed(),
            self.batcher.pending(),
            self.chunk_id,
            self.acked,
            self.chunk_entries,
            self.steps_done,
            self.saved.is_some(),
            self.retired.is_some(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Event, LayerMode, ProgramBuilder, StreamTy};
    use tmu_sim::{
        configs, drive_standalone, AddressMap, CoreConfig, MemSysConfig, System, SystemConfig,
    };

    /// SpMV P1 handler: Figure 6 callbacks.
    struct SpmvHandler {
        sum_dep: OpId,
        x: Vec<f64>,
        sum: f64,
    }

    impl CallbackHandler for SpmvHandler {
        fn handle(&mut self, entry: &OutQEntry, load: OpId, m: &mut VecMachine) {
            match entry.callback {
                0 => {
                    let nnz = entry.operands[0].f64s();
                    let vecv = entry.operands[1].f64s();
                    self.sum += nnz.iter().zip(vecv.iter()).map(|(a, b)| a * b).sum::<f64>();
                    let lanes = nnz.len() as u32;
                    let mul = m.vec_op(lanes, Deps::from(load));
                    let red = m.vec_op(lanes, Deps::on(&[mul, self.sum_dep]));
                    self.sum_dep = red;
                }
                1 => {
                    self.x.push(self.sum);
                    self.sum = 0.0;
                    let st = m.store(
                        Site(100),
                        0x7000_0000 + self.x.len() as u64 * 8,
                        8,
                        Deps::from(self.sum_dep),
                    );
                    let _ = st;
                    self.sum_dep = OpId::NONE;
                }
                other => panic!("unexpected callback {other}"),
            }
        }
    }

    fn spmv_accel(lanes: usize) -> (TmuAccelerator<SpmvHandler>, Vec<f64>) {
        spmv_accel_cfg(TmuConfig::paper(), lanes)
    }

    fn spmv_accel_cfg(cfg: TmuConfig, lanes: usize) -> (TmuAccelerator<SpmvHandler>, Vec<f64>) {
        // A small random CSR matrix and vector with a known reference.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let rows = 64usize;
        let cols = 64usize;
        let mut ptrs = vec![0u32];
        let mut idxs = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..rows {
            let n = rng.gen_range(0..6);
            let mut cs: Vec<u32> = (0..n).map(|_| rng.gen_range(0..cols as u32)).collect();
            cs.sort_unstable();
            cs.dedup();
            for c in cs {
                idxs.push(c);
                vals.push(rng.gen_range(0.5..1.5));
            }
            ptrs.push(idxs.len() as u32);
        }
        let b: Vec<f64> = (0..cols).map(|_| rng.gen_range(0.5..1.5)).collect();
        let reference: Vec<f64> = (0..rows)
            .map(|r| {
                (ptrs[r] as usize..ptrs[r + 1] as usize)
                    .map(|p| vals[p] * b[idxs[p] as usize])
                    .sum()
            })
            .collect();

        let mut map = AddressMap::new();
        let ptrs_r = map.alloc_elems("ptrs", ptrs.len(), 4);
        let idxs_r = map.alloc_elems("idxs", idxs.len().max(1), 4);
        let vals_r = map.alloc_elems("vals", vals.len().max(1), 8);
        let b_r = map.alloc_elems("b", b.len(), 8);
        let outq_r = map.alloc("outq", 1 << 20);
        let mut image = MemImage::new();
        image.bind_u32(ptrs_r, Arc::new(ptrs));
        image.bind_u32(idxs_r, Arc::new(idxs));
        image.bind_f64(vals_r, Arc::new(vals));
        image.bind_f64(b_r, Arc::new(b));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, 0, rows as i64, 1);
        let ptbs = bld.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
        let ptes = bld.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::LockStep);
        let mut nnz = Vec::new();
        let mut vecv = Vec::new();
        for lane in 0..lanes as i64 {
            let col = bld.rng_fbrt(l1, ptbs, ptes, lane, lanes as i64);
            let ci = bld.mem_stream(col, idxs_r.base, 4, StreamTy::Index);
            nnz.push(bld.mem_stream(col, vals_r.base, 8, StreamTy::Value));
            vecv.push(bld.mem_stream_indexed(col, b_r.base, 8, StreamTy::Value, ci));
        }
        let nnz_op = bld.vec_operand(l1, &nnz);
        let vec_op = bld.vec_operand(l1, &vecv);
        bld.callback(l1, Event::Ite, 0, &[nnz_op, vec_op]);
        bld.callback(l1, Event::End, 1, &[]);
        let prog = Arc::new(bld.build().expect("well-formed"));

        let accel = TmuAccelerator::new(
            cfg,
            prog,
            Arc::new(image),
            SpmvHandler {
                sum_dep: OpId::NONE,
                x: Vec::new(),
                sum: 0.0,
            },
            outq_r.base,
        )
        .expect("the program fits the engine");
        (accel, reference)
    }

    #[test]
    fn accelerated_spmv_completes_and_is_correct() {
        let (accel, reference) = spmv_accel(2);
        let mut sys = System::new(SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(1),
        });
        let stats = sys.run_accelerated(&mut [accel]).expect("no wedge");
        assert!(stats.cycles > 0);
        assert!(stats.total().committed > 0);
        let _ = reference; // functional check exercised in the next test
    }

    #[test]
    fn handler_computes_reference_result() {
        let (mut accel, reference) = spmv_accel(2);
        drive_standalone(&mut accel, 5_000_000).expect("engine must terminate");
        let x = &accel.handler.x;
        assert_eq!(x.len(), reference.len());
        for (got, want) in x.iter().zip(&reference) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        let st = accel.stats();
        assert!(st.entries > 0);
        assert!(!st.chunks.is_empty());
    }

    #[test]
    fn double_buffering_limits_run_ahead() {
        let (mut accel, _) = spmv_accel(2);
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut sink = Vec::new();
        // Never ack: the engine must stall after two chunks.
        for now in 0..200_000u64 {
            accel.tick(now, 0, &mut mem);
            accel.drain_ops(&mut sink);
        }
        assert!(
            accel.chunk_id <= 2,
            "unacked engine ran {} chunks ahead",
            accel.chunk_id
        );
        // Almost every one of these ticks is spent asleep on the gate, so
        // the per-cycle counters pin that a sleeping engine still charges
        // each cycle exactly as a full tick would.
        assert_eq!(accel.stats().backpressure_cycles, 199_256);
        assert_eq!(accel.debug_counters, [691, 1180, 3919, 616]);
    }

    #[test]
    fn standalone_counts_are_pinned() {
        let (mut accel, _) = spmv_accel(2);
        let cycles = drive_standalone(&mut accel, 5_000_000).expect("engine must terminate");
        let st = accel.stats();
        assert_eq!(cycles, 789);
        assert_eq!(st.entries, 158);
        assert_eq!(st.chunks.len(), 3);
        assert_eq!(st.backpressure_cycles, 0);
        assert_eq!(accel.debug_counters, [691, 1180, 3919, 630]);
    }

    #[test]
    fn more_lanes_do_not_change_results() {
        for lanes in [1, 4, 8] {
            let (mut accel, reference) = spmv_accel(lanes);
            drive_standalone(&mut accel, 5_000_000).expect("engine must terminate");
            for (got, want) in accel.handler.x.iter().zip(&reference) {
                assert!((got - want).abs() < 1e-9, "lanes={lanes}: {got} vs {want}");
            }
        }
    }

    /// Drives an engine standalone to completion (infinitely fast core),
    /// returning the result vector and the cycle count.
    fn drive_to_done(accel: &mut TmuAccelerator<SpmvHandler>) -> (Vec<f64>, u64) {
        let now = drive_standalone(accel, 5_000_000).expect("engine must terminate");
        (accel.handler.x.clone(), now)
    }

    #[test]
    fn scripted_faults_resume_bit_identically() {
        use tmu_sim::{FaultEvent, FaultSpec};
        // Probe run: learn the fault-free result, cycle count, and how
        // many loads the engine actually issues, so injection points can
        // be spread over the real schedule.
        let (mut probe, reference) = spmv_accel(2);
        probe.inject_fault_plan(FaultPlan::with_events(FaultSpec::with_rate(0, 0), vec![]));
        let (clean_x, clean_cycles) = drive_to_done(&mut probe);
        assert_eq!(clean_x.len(), reference.len());
        let total_loads = probe.faults.as_ref().expect("plan attached").loads_seen();
        assert!(total_loads > 4, "fixture must issue loads");

        for kind in [
            FaultKind::PageFault,
            FaultKind::DramRetry,
            FaultKind::Preempt,
            FaultKind::OutQStall,
        ] {
            for frac in [0u64, 1, 2, 3] {
                let (mut accel, _) = spmv_accel(2);
                let load_pt = (total_loads - 1) * frac / 3;
                let cycle_pt = (clean_cycles - 1) * frac / 3;
                let ev = match kind {
                    FaultKind::Preempt | FaultKind::OutQStall => {
                        FaultEvent::at_cycle(cycle_pt, kind)
                    }
                    _ => FaultEvent::at_load(load_pt, kind),
                };
                accel.inject_fault_plan(FaultPlan::with_events(
                    FaultSpec::with_rate(0, 0),
                    vec![ev],
                ));
                let (x, _) = drive_to_done(&mut accel);
                assert_eq!(
                    x.to_vec(),
                    clean_x,
                    "{kind:?} at fraction {frac}/3 must be transparent"
                );
                let st = accel.fault_stats();
                assert!(st.injected >= 1, "{kind:?} at {frac}/3 never injected");
                if kind == FaultKind::PageFault || kind == FaultKind::Preempt {
                    assert!(st.traps >= 1);
                    assert_eq!(st.traps, st.restores);
                }
            }
        }
    }

    /// Acks every chunk whose `ChunkEnd` the engine drained into `sink`,
    /// and returns how many there were.
    fn ack_drained(accel: &mut TmuAccelerator<SpmvHandler>, sink: &mut Vec<Op>, now: u64) -> usize {
        accel.drain_ops(sink);
        let mut chunk_ends = 0;
        for op in sink.drain(..) {
            if let OpKind::ChunkEnd { chunk } = op.kind {
                accel.ack_chunk(chunk, now);
                chunk_ends += 1;
            }
        }
        chunk_ends
    }

    /// A run descheduled after every scheduling quantum.
    struct Switched {
        /// The last incarnation, run to done.
        accel: TmuAccelerator<SpmvHandler>,
        switches: u64,
        /// `ChunkEnd` ops drained across all incarnations.
        chunk_ends: usize,
        /// Each incarnation's own fault counters, summed.
        faults: FaultStats,
    }

    /// Drives `accel` standalone, quiescing it after every `quantum`
    /// cycles and resuming its context, handler and statistics on a new
    /// engine.
    fn run_in_quanta(mut accel: TmuAccelerator<SpmvHandler>, quantum: u64) -> Switched {
        let image = Arc::clone(&accel.image);
        let base = accel.outq_base;
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut now = 0u64;
        let mut sink = Vec::new();
        let mut switches = 0u64;
        let mut chunk_ends = 0;
        let mut faults = FaultStats::default();
        loop {
            // One scheduling quantum, extended until the engine has
            // committed at least one step since resume (the progress
            // guarantee a preemptive scheduler must provide — a
            // context switched out before its first commit replays
            // to the same point forever).
            let resumed_at = accel.steps_committed();
            let until = now + quantum;
            while !accel.done() && (now < until || accel.steps_committed() == resumed_at) {
                accel.tick(now, 0, &mut mem);
                chunk_ends += ack_drained(&mut accel, &mut sink, now);
                now += 1;
                assert!(now < 20_000_000, "quantum {quantum}: must terminate");
            }
            if accel.done() {
                break;
            }
            let snap = accel.quiesce(now, 0, &mut mem).expect("engine is live");
            // Drain the sealed partial chunk's host ops, then move the
            // handler (host-software state) and the outQ statistics to
            // the next incarnation.
            chunk_ends += ack_drained(&mut accel, &mut sink, now);
            assert!(accel.done(), "parked engine drains to done");
            faults.merge(&accel.fault_stats());
            let (handler, stats) = accel.into_parts();
            accel = TmuAccelerator::resume_from(&snap, Arc::clone(&image), handler, base, stats)
                .expect("snapshot restores");
            switches += 1;
        }
        faults.merge(&accel.fault_stats());
        Switched {
            accel,
            switches,
            chunk_ends,
            faults,
        }
    }

    #[test]
    fn external_quiesce_resume_is_bit_identical() {
        let (mut clean, reference) = spmv_accel(2);
        let (clean_x, clean_cycles) = drive_to_done(&mut clean);
        assert_eq!(clean_x.len(), reference.len());
        for quantum in [1u64, 113, 1009, 20_000] {
            let run = run_in_quanta(spmv_accel(2).0, quantum);
            assert_eq!(
                run.accel.handler.x, clean_x,
                "quantum {quantum}: preemption perturbed results"
            );
            if quantum < clean_cycles / 2 {
                assert!(run.switches > 0, "quantum {quantum} never switched");
            }
            // The statistics moved with every incarnation: one chunk per
            // `ChunkEnd` drained across all of them, and the clean run's
            // entry count.
            let st = run.accel.stats();
            assert_eq!(st.chunks.len(), run.chunk_ends, "quantum {quantum}");
            assert_eq!(st.entries, clean.stats().entries, "quantum {quantum}");
        }
    }

    #[test]
    fn fault_counters_accumulate_across_incarnations() {
        use tmu_sim::FaultSpec;
        let (mut clean, _) = spmv_accel(4);
        let (clean_x, _) = drive_to_done(&mut clean);
        let cfg = TmuConfig::paper().with_faults(FaultSpec::with_rate(3, 10_000));
        let run = run_in_quanta(spmv_accel_cfg(cfg, 4).0, 200);
        assert_eq!(run.accel.handler.x, clean_x, "faults perturbed results");
        assert!(run.switches > 2, "only {} switches", run.switches);
        assert!(
            run.faults.injected > run.accel.fault_stats().injected,
            "faults must land before the last incarnation: {:?}",
            run.faults
        );
        assert_eq!(run.accel.stats().faults, run.faults);
    }

    #[test]
    fn rate_based_faults_from_config_preserve_results() {
        use tmu_sim::FaultSpec;
        let (mut clean, _) = spmv_accel(4);
        let (clean_x, _) = drive_to_done(&mut clean);
        for seed in 1..=3u64 {
            // Inject through the config path kernels use: an engine built
            // with an active `cfg.faults` constructs its own plan.
            let cfg = TmuConfig::paper().with_faults(FaultSpec::with_rate(seed, 10_000));
            let (mut accel, _) = spmv_accel_cfg(cfg, 4);
            let (x, _) = drive_to_done(&mut accel);
            assert_eq!(x, clean_x, "seed {seed} perturbed results");
            assert!(
                accel.fault_stats().injected > 0,
                "seed {seed}: a 10% rate over dozens of loads must inject"
            );
        }
    }

    #[test]
    fn unserviceable_fault_retires_with_typed_error() {
        use tmu_sim::{FaultEvent, FaultSpec};
        let (mut accel, _) = spmv_accel(2);
        let mut spec = FaultSpec::with_rate(0, 0);
        spec.max_serviced = 0;
        accel.inject_fault_plan(FaultPlan::with_events(
            spec,
            vec![FaultEvent::at_load(5, FaultKind::PageFault)],
        ));
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut sink = Vec::new();
        let mut now = 0u64;
        while !accel.done() {
            accel.tick(now, 0, &mut mem);
            accel.drain_ops(&mut sink);
            sink.clear();
            now += 1;
            assert!(now < 1_000_000, "retired engine must report done");
        }
        assert!(matches!(
            accel.retired(),
            Some(TmuError::UnserviceableFault { limit: 0, .. })
        ));
        let st = accel.stats();
        assert!(st.retired.is_some());
        assert_eq!(st.faults.unserviceable, 1);
        assert!(st.snapshot().retired);
    }

    #[test]
    fn full_system_speedup_structs_are_populated() {
        let (accel, _) = spmv_accel(8);
        let mut sys = System::new(configs::neoverse_n1_system());
        let stats = sys.run_accelerated(&mut [accel]).expect("no wedge");
        let total = stats.total();
        assert!(total.loads > 0, "outQ reads must appear as core loads");
        assert!(total.flops > 0, "callback compute must run on the core");
    }
}
