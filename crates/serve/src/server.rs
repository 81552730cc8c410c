//! The serving loop: admission, scheduling, and preemptive TMU
//! virtualization over a pool of simulated cores.
//!
//! The server is a deterministic discrete-event simulation. Each serving
//! slot is a [`ServedCore`] — a persistent core + private memory
//! hierarchy whose clock survives across jobs. The loop always advances
//! the slot whose clock is furthest behind, admits trace arrivals up to
//! that slot's time into bounded per-tenant queues, asks the policy which
//! backlogged tenant runs, and drives the chosen job for one quantum.
//!
//! Preemption is the §5.6 external context switch: the engine drains to
//! its precise TG-step quiesce point ([`TmuAccelerator::quiesce`]), the
//! slot flushes the sealed chunk's host ops, and the architectural
//! context parks in the tenant's queue together with the callback handler
//! and the outQ stats, all moved out of the engine by value. Resumption
//! rebuilds an engine from the snapshot ([`TmuAccelerator::resume_from`])
//! with the same handler and stats, so the job's digest spans
//! incarnations.
//!
//! One invariant the scheduler *must* uphold (documented on
//! [`TmuAccelerator::steps_committed`]): never preempt a job before it
//! has committed at least one TG step since its last resume — replay
//! would otherwise reconstruct the same point forever under small
//! quanta. The loop therefore only parks a job that made progress;
//! otherwise it grants another quantum.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use tmu::context::ContextSnapshot;
use tmu::{OutQStats, TmuAccelerator, TmuConfig, TmuError};
use tmu_apps::{AppExec, AppSpec, StageBuild, StageCaches, StageRecord, TenantCacheStats};
use tmu_sim::{
    MemSysConfig, ServedCore, SimError, SlotFaultKind, SlotFaultPlan, SlotFaultStats, SlotStats,
};
use tmu_trace::EventKind;

use crate::build::{BuildCache, BuiltJob};
use crate::digest::{DigestHandler, EntryDigest};
use crate::job::JobSpec;
use crate::metrics::JobOutcome;
use crate::policy::{Policy, PolicyState};
use crate::resilience::{
    CircuitBreaker, FailReason, FailedJob, JobFault, ResilienceConfig, ShedCounts,
};

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Serving slots (simulated cores) in the pool.
    pub slots: usize,
    /// Scheduling quantum in cycles.
    pub quantum: u64,
    /// Bounded per-tenant admission queue capacity; arrivals beyond it
    /// are rejected and counted.
    pub queue_cap: usize,
    /// Context-switch penalty charged to the slot on every dispatch of a
    /// previously-parked context (save/restore is not free).
    pub ctx_switch_cycles: u64,
    /// Scheduling policy.
    pub policy: Policy,
    /// No-progress watchdog window of each slot, in driven cycles; it
    /// spans quanta, so a wedged job is caught whatever the quantum.
    pub watchdog: u64,
    /// Resilience knobs: slot chaos, retry budget/backoff, checkpoint
    /// cadence, circuit breaker. The default disables every fault source.
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            slots: 2,
            quantum: 40_000,
            queue_cap: 64,
            ctx_switch_cycles: 400,
            policy: Policy::RoundRobin,
            watchdog: 10_000_000,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// What the serving run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Completed jobs, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Terminally failed jobs (retry budget exhausted), in failure order.
    pub failed: Vec<FailedJob>,
    /// Shed arrivals per tenant, broken down by cause.
    pub shed: BTreeMap<u32, ShedCounts>,
    /// Retry attempts per tenant (re-dispatches after a job fault).
    pub retries: BTreeMap<u32, u64>,
    /// Completed jobs that finished past their deadline.
    pub deadline_misses: u64,
    /// Periodic job-level checkpoints saved.
    pub checkpoints: u64,
    /// Cycles spent saving checkpoints (drain + context penalty), per
    /// tenant.
    pub checkpoint_cycles: BTreeMap<u32, u64>,
    /// Times a tenant's circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Slot faults observed across the run (injected chaos plus genuine
    /// watchdog hangs and engine degrades).
    pub slot_faults: SlotFaultStats,
    /// Cycle the last slot went quiet (max slot clock).
    pub makespan: u64,
    /// Scheduler-initiated preemptions (quiesce + park).
    pub preemptions: u64,
    /// Builds shared via the same-shape batch cache.
    pub build_hits: u64,
    /// Distinct shapes built.
    pub build_misses: u64,
    /// Per-tenant two-level stage-cache counters (application jobs).
    pub tenant_cache: BTreeMap<u32, TenantCacheStats>,
    /// Per-slot statistics (busy/idle cycles, reboots, tenant
    /// attribution).
    pub slots: Vec<SlotStats>,
}

impl ServeOutcome {
    /// Total shed arrivals across all tenants and causes.
    pub fn shed_total(&self) -> u64 {
        self.shed.values().map(ShedCounts::total).sum()
    }

    /// Total retry attempts across all tenants.
    pub fn retries_total(&self) -> u64 {
        self.retries.values().sum()
    }

    /// Total cycles spent saving checkpoints.
    pub fn checkpoint_cycles_total(&self) -> u64 {
        self.checkpoint_cycles.values().sum()
    }

    /// The conservation invariant the chaos grid pins: every arrival is
    /// accounted for exactly once — completed, shed at admission, or
    /// terminally failed. No silent loss, ever.
    pub fn conserves(&self, arrivals: usize) -> bool {
        self.outcomes.len() as u64 + self.failed.len() as u64 + self.shed_total() == arrivals as u64
    }

    /// A tenant's two-level stage-cache hit rate (0.0 if it ran no app
    /// jobs).
    pub fn cache_hit_rate(&self, tenant: u32) -> f64 {
        self.tenant_cache
            .get(&tenant)
            .map(TenantCacheStats::hit_rate)
            .unwrap_or(0.0)
    }
}

/// Serving-layer error.
#[derive(Debug)]
pub enum ServeError {
    /// A job failed to build (tensor generation / program lowering).
    Build {
        /// Job id from the trace.
        job: u32,
        /// Build error detail.
        detail: String,
    },
    /// The simulation wedged or exceeded its cycle limit.
    Sim(SimError),
    /// The engine rejected a quiesce/resume transition.
    Engine(TmuError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Build { job, detail } => write!(f, "job {job} failed to build: {detail}"),
            ServeError::Sim(e) => write!(f, "simulation error: {e}"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

impl From<TmuError> for ServeError {
    fn from(e: TmuError) -> Self {
        ServeError::Engine(e)
    }
}

/// A parked job context: everything needed to resume on any slot. It
/// owns its parts, so a durable checkpoint is a clone of one, and a
/// restart after a crash resumes from exactly the checkpointed state.
#[derive(Clone)]
struct Parked {
    snap: ContextSnapshot,
    handler: DigestHandler,
    stats: OutQStats,
}

/// An application job's serving-side state. The engine runs one
/// pipeline stage at a time; `handler` is the job's cumulative digest as
/// of the last completed stage boundary — the durable restart point. App
/// jobs never take mid-stage durable checkpoints: a fault restarts the
/// *stage* (from `handler`), never the whole job.
struct AppWork {
    exec: AppExec,
    /// The currently-dispatched stage build, if one is in flight (it
    /// survives faults — the restart re-dispatches the same build).
    stage: Option<StageBuild>,
    /// Cumulative digest at the last stage boundary.
    handler: DigestHandler,
    /// Engine cycles accumulated by the in-flight stage (across
    /// preemptions and retry attempts).
    stage_cycles: u64,
}

/// What a waiting job runs: a single compiled program, or a multi-stage
/// application pipeline.
enum Work {
    Single(Arc<BuiltJob>),
    App(Box<AppWork>),
}

impl Work {
    fn label(&self) -> String {
        match self {
            Work::Single(b) => b.label.clone(),
            Work::App(a) => a.exec.label(),
        }
    }
}

/// A job waiting in (or parked back into) a tenant queue.
struct Waiting {
    spec: JobSpec,
    work: Work,
    parked: Option<Parked>,
    /// The durable restart point a fault retries from.
    checkpoint: Option<Parked>,
    first_start: Option<u64>,
    service_cycles: u64,
    preemptions: u32,
    /// 0-based attempt ordinal; bumps on every serving-visible fault and
    /// is checked against the retry budget.
    attempt: u32,
    /// Backoff gate: the job may not dispatch before this cycle.
    eligible_at: u64,
    /// Service cycles accumulated since the last checkpoint.
    since_ckpt: u64,
}

/// A job currently occupying a slot.
struct Running {
    waiting: Waiting,
    engine: TmuAccelerator<DigestHandler>,
    /// Committed-step count at the last dispatch — the progress floor the
    /// preemption guard compares against.
    resumed_at: u64,
}

struct Slot {
    core: ServedCore,
    running: Option<Running>,
    /// This slot's chaos schedule, if any.
    chaos: Option<SlotFaultPlan>,
    /// No work, no future arrivals: excluded from the event loop.
    retired: bool,
}

/// Mutable resilience bookkeeping of one serving run.
#[derive(Default)]
struct ResilState {
    breakers: BTreeMap<u32, CircuitBreaker>,
    failed: Vec<FailedJob>,
    retries: BTreeMap<u32, u64>,
    shed: BTreeMap<u32, ShedCounts>,
    deadline_misses: u64,
    checkpoints: u64,
    ckpt_cycles: BTreeMap<u32, u64>,
    breaker_opens: u64,
    slot_faults: SlotFaultStats,
}

/// The multi-tenant serving engine. Owns the job-build memo and the app
/// stage caches across runs; the policy state and the slot pool live for
/// one [`Server::run`].
pub struct Server {
    cfg: ServeConfig,
    cache: BuildCache,
    stages: StageCaches,
    scripted: BTreeMap<usize, SlotFaultPlan>,
}

impl Server {
    /// A server with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            cfg,
            cache: BuildCache::new(),
            stages: StageCaches::new(),
            scripted: BTreeMap::new(),
        }
    }

    /// Installs a scripted chaos plan on slot `slot`, overriding the
    /// rate-based plan the configuration would derive. Tests pin exact
    /// failure points with this. Plans are consumed by the next
    /// [`Server::run`].
    pub fn inject_slot_plan(&mut self, slot: usize, plan: SlotFaultPlan) {
        self.scripted.insert(slot, plan);
    }

    /// Serves `trace` to completion and reports what happened.
    ///
    /// The loop is single-threaded and consults no ambient state, so the
    /// outcome is a pure function of the configuration and the trace.
    pub fn run(&mut self, mut trace: Vec<JobSpec>) -> Result<ServeOutcome, ServeError> {
        trace.sort_by_key(|j| (j.arrival, j.id));
        let quantum = self.cfg.quantum.max(1);
        let rcfg = self.cfg.resilience;

        let mut slots: Vec<Slot> = (0..self.cfg.slots.max(1))
            .map(|i| Slot {
                core: {
                    let mut c = ServedCore::new(
                        tmu_sim::CoreConfig::neoverse_n1_like(),
                        MemSysConfig::table5(1),
                    );
                    c.set_watchdog(self.cfg.watchdog);
                    c.set_slot(i);
                    c
                },
                running: None,
                chaos: self
                    .scripted
                    .remove(&i)
                    .or_else(|| SlotFaultPlan::from_spec(rcfg.slot_faults, i as u64)),
                retired: false,
            })
            .collect();

        let mut policy = PolicyState::new(self.cfg.policy);
        let mut queues: BTreeMap<u32, VecDeque<Waiting>> = BTreeMap::new();
        let mut state = ResilState::default();
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut preemptions = 0u64;
        let mut next_arrival = 0usize;

        // Event selection: the live slot furthest behind in simulated
        // time runs next (ties break on slot index — deterministic).
        while let Some(s) = slots
            .iter()
            .enumerate()
            .filter(|(_, sl)| !sl.retired)
            .min_by_key(|(i, sl)| (sl.core.now(), *i))
            .map(|(i, _)| i)
        {
            let now = slots[s].core.now();
            admit(
                &trace,
                &mut next_arrival,
                now,
                &mut self.cache,
                &mut self.stages,
                &mut queues,
                &mut state,
                &rcfg,
                self.cfg.queue_cap,
            )?;

            if slots[s].running.is_none() {
                match pick_tenant(&mut policy, self.cfg.policy, &queues, now) {
                    Some(tenant) => {
                        let queue = queues.get_mut(&tenant).expect("picked tenant has a queue");
                        let idx = eligible_index(queue, self.cfg.policy, now)
                            .expect("picked tenant had an eligible job");
                        let waiting = queue.remove(idx).expect("index in range");
                        self.dispatch(&mut slots[s], waiting)?;
                    }
                    None => {
                        // Nothing eligible: wake at the next arrival or
                        // the earliest backoff expiry, whichever is
                        // sooner; with neither, the slot is done.
                        let next_arr =
                            (next_arrival < trace.len()).then(|| trace[next_arrival].arrival);
                        let next_elig = queues
                            .values()
                            .flat_map(|q| q.iter().map(|w| w.eligible_at))
                            .filter(|&e| e > now)
                            .min();
                        match [next_arr, next_elig].into_iter().flatten().min() {
                            Some(wake) => slots[s].core.skip_idle_to(wake),
                            None => slots[s].retired = true,
                        }
                        continue;
                    }
                }
            }

            // Drive one quantum.
            let mut run = slots[s].running.take().expect("dispatched above");
            let tenant = run.waiting.spec.tenant;
            let out = match slots[s].core.drive(&mut run.engine, tenant, quantum) {
                Ok(out) => out,
                Err(SimError::Watchdog { .. }) => {
                    // A genuine wedge under serving is a slot hang: the
                    // incarnation is lost, the job retries (or fails
                    // typed), and the slot reboots.
                    let now = slots[s].core.now();
                    state.slot_faults.record(SlotFaultKind::Hang);
                    fault_job(
                        &rcfg,
                        run.waiting,
                        JobFault::SlotHang,
                        now,
                        &mut queues,
                        &mut state,
                    );
                    slots[s].core.reboot(now + rcfg.slot_faults.reboot_cycles);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            run.waiting.service_cycles += out.cycles;
            run.waiting.since_ckpt += out.cycles;
            if let Work::App(app) = &mut run.waiting.work {
                app.stage_cycles += out.cycles;
            }
            policy.charge(tenant, run.waiting.spec.weight, out.cycles);

            // A retired engine reports done, so check degradation before
            // trusting `finished`: the job did NOT complete — its TMU
            // became unserviceable and this incarnation is lost.
            if run.engine.retired().is_some() {
                let now = slots[s].core.now();
                state.slot_faults.record(SlotFaultKind::Degrade);
                slots[s].core.flush_inflight();
                fault_job(
                    &rcfg,
                    run.waiting,
                    JobFault::Degraded,
                    now,
                    &mut queues,
                    &mut state,
                );
                continue;
            }

            if out.finished {
                let now = slots[s].core.now();
                // An application stage draining is a stage boundary, not
                // necessarily job completion: fold the engine's digest
                // back into the app, materialize the stage output, and
                // either finish the job or requeue it for its next stage.
                let (waiting, digest) = if let Work::App(_) = run.waiting.work {
                    let Running {
                        mut waiting,
                        engine,
                        ..
                    } = run;
                    let jid = waiting.spec.id;
                    let Work::App(app) = &mut waiting.work else {
                        unreachable!("matched above")
                    };
                    app.handler = engine.into_parts().0;
                    app.stage = None;
                    trace_event(
                        now,
                        EventKind::StageDone,
                        (u64::from(tenant) << 32) | u64::from(jid),
                    );
                    let host = app
                        .exec
                        .complete_stage(app.stage_cycles)
                        .map_err(|detail| ServeError::Build { job: jid, detail })?;
                    app.stage_cycles = 0;
                    // The stage-boundary host phase (functional
                    // materialization + round-end dense work) runs on the
                    // slot, attributed to the tenant.
                    slots[s].core.charge_busy(tenant, host);
                    waiting.service_cycles += host;
                    if !app.exec.finished() {
                        // Stage boundaries are scheduling points: the job
                        // re-enters its tenant queue (keeping its FIFO
                        // position) and the policy repicks.
                        queues.entry(tenant).or_default().push_front(waiting);
                        continue;
                    }
                    let digest = app.handler.digest();
                    (waiting, digest)
                } else {
                    let digest = run.engine.handler().digest();
                    (run.waiting, digest)
                };
                let now = slots[s].core.now();
                trace_event(
                    now,
                    EventKind::TenantComplete,
                    (u64::from(tenant) << 32) | u64::from(waiting.spec.id),
                );
                let deadline_missed = waiting.spec.deadline.is_some_and(|d| now > d);
                if deadline_missed {
                    state.deadline_misses += 1;
                    trace_event(
                        now,
                        EventKind::DeadlineMiss,
                        (u64::from(tenant) << 32) | u64::from(waiting.spec.id),
                    );
                }
                if rcfg.breaker_threshold > 0 {
                    state.breakers.entry(tenant).or_default().record_success();
                }
                outcomes.push(JobOutcome {
                    id: waiting.spec.id,
                    tenant,
                    label: waiting.work.label(),
                    arrival: waiting.spec.arrival,
                    first_start: waiting.first_start.unwrap_or(now),
                    completion: now,
                    service_cycles: waiting.service_cycles,
                    preemptions: waiting.preemptions,
                    retries: waiting.attempt,
                    deadline_missed,
                    digest,
                });
                continue;
            }

            // Chaos consult: one roll per completed quantum that left the
            // job unfinished on the slot.
            if let Some(kind) = slots[s].chaos.as_mut().and_then(SlotFaultPlan::on_quantum) {
                let reboot_cycles = slots[s]
                    .chaos
                    .as_ref()
                    .map(|p| p.spec().reboot_cycles)
                    .unwrap_or(0);
                state.slot_faults.record(kind);
                match kind {
                    SlotFaultKind::Crash => {
                        let now = slots[s].core.now();
                        trace_event(now, EventKind::SlotCrash, s as u64);
                        fault_job(
                            &rcfg,
                            run.waiting,
                            JobFault::SlotCrash,
                            now,
                            &mut queues,
                            &mut state,
                        );
                        slots[s].core.reboot(now + reboot_cycles);
                    }
                    SlotFaultKind::Hang => {
                        // The slot burns a full watchdog window before
                        // the hang is caught (`hang` traces the firing),
                        // then reboots like a crash.
                        slots[s].core.hang(&run.engine, tenant);
                        let now = slots[s].core.now();
                        fault_job(
                            &rcfg,
                            run.waiting,
                            JobFault::SlotHang,
                            now,
                            &mut queues,
                            &mut state,
                        );
                        slots[s].core.reboot(now + reboot_cycles);
                    }
                    SlotFaultKind::Degrade => {
                        // The slot survives; only the incarnation dies.
                        let now = slots[s].core.now();
                        slots[s].core.flush_inflight();
                        fault_job(
                            &rcfg,
                            run.waiting,
                            JobFault::Degraded,
                            now,
                            &mut queues,
                            &mut state,
                        );
                    }
                }
                continue;
            }

            let progressed = run.engine.steps_committed() > run.resumed_at;

            // Periodic checkpoint: park (which refreshes the durable
            // restart point) and resume in place on the same slot. A later
            // crash restarts the job from here instead of from scratch.
            if rcfg.checkpoint_every > 0
                && run.waiting.since_ckpt >= rcfg.checkpoint_every
                && progressed
                // App jobs take durable restart points only at stage
                // boundaries; mid-stage snapshots stay live-park-only.
                && matches!(run.waiting.work, Work::Single(_))
            {
                let now = slots[s].core.now();
                let waiting = park(&mut slots[s].core, run, tenant)?;
                state.checkpoints += 1;
                let cost = (slots[s].core.now() - now) + self.cfg.ctx_switch_cycles;
                *state.ckpt_cycles.entry(tenant).or_insert(0) += cost;
                trace_event(
                    now,
                    EventKind::CheckpointSave,
                    (u64::from(tenant) << 32) | u64::from(waiting.spec.id),
                );
                self.dispatch(&mut slots[s], waiting)?;
                continue;
            }

            // Preemption decision. Admit up to the post-quantum clock
            // first so work that arrived mid-quantum counts as contention.
            let now = slots[s].core.now();
            admit(
                &trace,
                &mut next_arrival,
                now,
                &mut self.cache,
                &mut self.stages,
                &mut queues,
                &mut state,
                &rcfg,
                self.cfg.queue_cap,
            )?;
            let contended = queues
                .values()
                .any(|q| q.iter().any(|w| w.eligible_at <= now));
            if contended && progressed {
                let mut waiting = park(&mut slots[s].core, run, tenant)?;
                waiting.preemptions += 1;
                preemptions += 1;
                trace_event(
                    slots[s].core.now(),
                    EventKind::TenantPreempt,
                    (u64::from(tenant) << 32) | u64::from(waiting.spec.id),
                );
                // Back to the *front* of the tenant's queue: a preempted
                // job keeps its place in the tenant's own FIFO.
                queues.entry(tenant).or_default().push_front(waiting);
            } else {
                // No contention (or no progress yet): grant another
                // quantum on the same slot.
                slots[s].running = Some(run);
            }
        }

        let makespan = slots.iter().map(|sl| sl.core.now()).max().unwrap_or(0);
        Ok(ServeOutcome {
            outcomes,
            failed: state.failed,
            shed: state.shed,
            retries: state.retries,
            deadline_misses: state.deadline_misses,
            checkpoints: state.checkpoints,
            checkpoint_cycles: state.ckpt_cycles,
            breaker_opens: state.breaker_opens,
            slot_faults: state.slot_faults,
            makespan,
            preemptions,
            build_hits: self.cache.hits(),
            build_misses: self.cache.misses(),
            tenant_cache: self.stages.tenant_stats().clone(),
            slots: slots
                .into_iter()
                .map(|sl| sl.core.stats().clone())
                .collect(),
        })
    }

    /// Installs `waiting` on `slot` — fresh engine for a first dispatch,
    /// [`TmuAccelerator::resume_from`] for a parked context. For app jobs
    /// the engine runs the job's *current stage*, built (or reused)
    /// through the two-level stage cache.
    fn dispatch(&mut self, slot: &mut Slot, mut waiting: Waiting) -> Result<(), ServeError> {
        let now = slot.core.now();
        // Context install penalty: the slot burns the switch cost before
        // the engine runs.
        slot.core.skip_idle_to(now + self.cfg.ctx_switch_cycles);
        let tenant = waiting.spec.tenant;
        let jid = waiting.spec.id;
        // A live parked context (preempt/checkpoint park) resumes as-is.
        let parked = waiting.parked.take();
        let (program, image, outq_base, handler, resume) = match &mut waiting.work {
            Work::Single(built) => {
                // Restart after a fault: resume from a clone of the
                // durable checkpoint.
                let resume = parked.or_else(|| waiting.checkpoint.clone());
                (
                    Arc::clone(&built.program),
                    Arc::clone(&built.image),
                    job_outq_base(built, jid),
                    DigestHandler::new(),
                    resume,
                )
            }
            Work::App(app) => {
                // Pin the current stage's build if it is not pinned yet —
                // a fault restart re-dispatches the same pinned build, so
                // the retried stage replays identically.
                if app.stage.is_none() {
                    let sb = app
                        .exec
                        .next_stage(&mut self.stages, tenant)
                        .map_err(|detail| ServeError::Build { job: jid, detail })?
                        .ok_or_else(|| ServeError::Build {
                            job: jid,
                            detail: "dispatched a finished app".into(),
                        })?;
                    trace_event(
                        slot.core.now(),
                        EventKind::StageStart,
                        (u64::from(tenant) << 32) | u64::from(jid),
                    );
                    app.stage = Some(sb);
                }
                let stage = app.stage.as_ref().expect("pinned above");
                // A mid-stage live park resumes the quiesced engine. A
                // fresh dispatch or fault restart starts the stage over,
                // seeded with the digest accumulated through the last
                // completed stage boundary.
                (
                    Arc::clone(&stage.program),
                    Arc::clone(&stage.image),
                    stage.outq_base + (u64::from(jid) << 28),
                    app.handler.clone(),
                    parked,
                )
            }
        };
        let mut engine = match resume {
            Some(p) => TmuAccelerator::resume_from(&p.snap, image, p.handler, outq_base, p.stats)?,
            None => TmuAccelerator::new(TmuConfig::paper(), program, image, handler, outq_base)?,
        };
        engine.set_tenant(waiting.spec.tenant);
        if waiting.first_start.is_none() {
            waiting.first_start = Some(slot.core.now());
        }
        trace_event(
            slot.core.now(),
            EventKind::TenantDispatch,
            (u64::from(waiting.spec.tenant) << 32) | u64::from(waiting.spec.id),
        );
        let resumed_at = engine.steps_committed();
        slot.running = Some(Running {
            waiting,
            engine,
            resumed_at,
        });
        Ok(())
    }
}

/// Parks the job running on `core` (§5.6): quiesces its engine at the
/// committed step, flushes the sealed chunk's host ops, and moves the
/// snapshot, the handler and the outQ stats out of the engine as one
/// [`Parked`] context. A park is a free checkpoint, so a single-program
/// job's durable restart point becomes a clone of it. App jobs restart
/// only from stage boundaries, so theirs stays.
fn park(core: &mut ServedCore, run: Running, tenant: u32) -> Result<Waiting, ServeError> {
    let Running {
        mut waiting,
        mut engine,
        ..
    } = run;
    let snap = engine.quiesce(core.now(), 0, core.mem_mut())?;
    core.drain(&mut engine, tenant)?;
    let (handler, stats) = engine.into_parts();
    let parked = Parked {
        snap,
        handler,
        stats,
    };
    if matches!(waiting.work, Work::Single(_)) {
        waiting.checkpoint = Some(parked.clone());
        waiting.since_ckpt = 0;
    }
    waiting.parked = Some(parked);
    Ok(waiting)
}

/// Each job writes its outQ chunks into a private window above the
/// shape's base, salted by job id, so concurrently-served clones of one
/// shape never alias chunk lines.
fn job_outq_base(built: &BuiltJob, job_id: u32) -> u64 {
    built.outq_base + (u64::from(job_id) << 28)
}

/// Asks the policy for the next tenant among those with at least one
/// *eligible* job (backoff expired). Every policy but EDF reduces to the
/// plain pick over backlogged tenant ids; EDF passes each tenant's
/// earliest eligible deadline through.
fn pick_tenant(
    policy: &mut PolicyState,
    which: Policy,
    queues: &BTreeMap<u32, VecDeque<Waiting>>,
    now: u64,
) -> Option<u32> {
    if which == Policy::Edf {
        let backlogged: Vec<(u32, u64)> = queues
            .iter()
            .filter_map(|(&t, q)| {
                q.iter()
                    .filter(|w| w.eligible_at <= now)
                    .map(|w| w.spec.deadline.unwrap_or(u64::MAX))
                    .min()
                    .map(|d| (t, d))
            })
            .collect();
        policy.pick_edf(&backlogged)
    } else {
        let backlogged: Vec<u32> = queues
            .iter()
            .filter(|(_, q)| q.iter().any(|w| w.eligible_at <= now))
            .map(|(&t, _)| t)
            .collect();
        policy.pick(&backlogged)
    }
}

/// Index of the job to pop from the picked tenant's queue. EDF takes the
/// eligible job with the earliest deadline (FIFO position breaks ties);
/// every other policy takes the first eligible job — which, with no
/// backoffs pending, is the front: exactly the pre-resilience pop.
fn eligible_index(queue: &VecDeque<Waiting>, which: Policy, now: u64) -> Option<usize> {
    match which {
        Policy::Edf => queue
            .iter()
            .enumerate()
            .filter(|(_, w)| w.eligible_at <= now)
            .min_by_key(|(i, w)| (w.spec.deadline.unwrap_or(u64::MAX), *i))
            .map(|(i, _)| i),
        _ => queue.iter().position(|w| w.eligible_at <= now),
    }
}

/// Handles a serving-visible fault on `waiting`'s current incarnation:
/// bumps the attempt, feeds the tenant's circuit breaker, and either
/// requeues the job behind a deterministic exponential backoff or — with
/// the retry budget exhausted — records a typed terminal failure. The
/// live parked context dies with the incarnation; only a durable
/// checkpoint survives into the retry.
fn fault_job(
    rcfg: &ResilienceConfig,
    mut waiting: Waiting,
    fault: JobFault,
    now: u64,
    queues: &mut BTreeMap<u32, VecDeque<Waiting>>,
    state: &mut ResilState,
) {
    let tenant = waiting.spec.tenant;
    waiting.parked = None;
    waiting.attempt += 1;
    if rcfg.breaker_threshold > 0
        && state.breakers.entry(tenant).or_default().record_fault(
            now,
            rcfg.breaker_threshold,
            rcfg.breaker_open_cycles,
        )
    {
        state.breaker_opens += 1;
        trace_event(now, EventKind::CircuitOpen, u64::from(tenant));
    }
    if waiting.attempt > rcfg.retry_budget {
        state.failed.push(FailedJob {
            id: waiting.spec.id,
            tenant,
            label: waiting.work.label(),
            arrival: waiting.spec.arrival,
            attempts: waiting.attempt,
            reason: FailReason::RetryBudgetExhausted {
                budget: rcfg.retry_budget,
                last: fault,
            },
        });
        return;
    }
    *state.retries.entry(tenant).or_insert(0) += 1;
    waiting.eligible_at = now + rcfg.backoff_after(waiting.attempt);
    waiting.since_ckpt = 0;
    trace_event(
        now,
        EventKind::JobRetry,
        (u64::from(tenant) << 32) | u64::from(waiting.spec.id),
    );
    // Back of the tenant's queue: a faulted job does not jump ahead of
    // work that arrived while it was burning its attempt.
    queues.entry(tenant).or_default().push_back(waiting);
}

/// Admits every trace arrival at or before `now` into its tenant queue,
/// building (or batch-sharing) the job on admission. Arrivals shed at
/// admission — open circuit breaker or full tenant queue — are counted by
/// cause; nothing is silently dropped.
#[allow(clippy::too_many_arguments)]
fn admit(
    trace: &[JobSpec],
    next_arrival: &mut usize,
    now: u64,
    cache: &mut BuildCache,
    stages: &mut StageCaches,
    queues: &mut BTreeMap<u32, VecDeque<Waiting>>,
    state: &mut ResilState,
    rcfg: &ResilienceConfig,
    queue_cap: usize,
) -> Result<(), ServeError> {
    while *next_arrival < trace.len() && trace[*next_arrival].arrival <= now {
        let spec = trace[*next_arrival].clone();
        *next_arrival += 1;
        if rcfg.breaker_threshold > 0 && state.breakers.entry(spec.tenant).or_default().is_open(now)
        {
            state.shed.entry(spec.tenant).or_default().circuit_open += 1;
            trace_event(now, EventKind::TenantReject, u64::from(spec.tenant));
            continue;
        }
        let queue = queues.entry(spec.tenant).or_default();
        if queue.len() >= queue_cap.max(1) {
            state.shed.entry(spec.tenant).or_default().queue_full += 1;
            trace_event(now, EventKind::TenantReject, u64::from(spec.tenant));
            continue;
        }
        let work = match spec.kind.app_spec() {
            // App jobs build lazily, stage by stage, through the
            // two-level stage cache; admission just seeds the
            // pipeline's base tensors.
            Some(aspec) => Work::App(Box::new(AppWork {
                exec: AppExec::new(aspec, stages, spec.tenant).map_err(|detail| {
                    ServeError::Build {
                        job: spec.id,
                        detail,
                    }
                })?,
                stage: None,
                handler: DigestHandler::new(),
                stage_cycles: 0,
            })),
            None => Work::Single(cache.get(&spec.kind).map_err(|detail| ServeError::Build {
                job: spec.id,
                detail,
            })?),
        };
        queue.push_back(Waiting {
            spec,
            work,
            parked: None,
            checkpoint: None,
            first_start: None,
            service_cycles: 0,
            preemptions: 0,
            attempt: 0,
            eligible_at: 0,
            since_ckpt: 0,
        });
        trace_event(now, EventKind::QueueDepth, queue.len() as u64);
    }
    Ok(())
}

/// Emits a serving-layer trace event when a tracer is installed.
fn trace_event(cycle: u64, kind: EventKind, payload: u64) {
    tmu_trace::with(|t| {
        let c = t.component("serve.sched");
        t.event(c, cycle, kind, payload);
    });
}

/// Runs `trace` through a fresh server and returns the outcome —
/// convenience for tests and benches.
pub fn serve(cfg: ServeConfig, trace: Vec<JobSpec>) -> Result<ServeOutcome, ServeError> {
    Server::new(cfg).run(trace)
}

/// Solo baseline: runs one job alone on a fresh slot with no quantum
/// bound and returns its digest — the reference stream the differential
/// tests compare preempted runs against.
pub fn solo_digest(built: &BuiltJob, job_id: u32) -> Result<EntryDigest, ServeError> {
    let mut slot = ServedCore::new(
        tmu_sim::CoreConfig::neoverse_n1_like(),
        MemSysConfig::table5(1),
    );
    let mut engine = TmuAccelerator::new(
        TmuConfig::paper(),
        Arc::clone(&built.program),
        Arc::clone(&built.image),
        DigestHandler::new(),
        job_outq_base(built, job_id),
    )?;
    let out = slot.drive(&mut engine, 0, u64::MAX)?;
    debug_assert!(out.finished);
    Ok(engine.handler().digest())
}

/// What [`solo_app`] observed: the reference stream and cost profile a
/// served app run must reproduce.
#[derive(Debug, Clone)]
pub struct AppSoloRun {
    /// Cumulative FNV digest across every stage of every iteration.
    pub digest: EntryDigest,
    /// Per-stage records (engine + host cycles, by round).
    pub records: Vec<StageRecord>,
    /// Iterations (stage-chain rounds) the app ran.
    pub iterations: u32,
    /// End-to-end slot cycles, engine and host phases included.
    pub cycles: u64,
}

/// Solo baseline for an application pipeline: runs every stage alone
/// on a fresh slot, one unpreempted engine run per stage, carrying one
/// digest across all stages. The differential tests pin every served
/// completion of the same spec — preempted, faulted, or cache-shared —
/// bit-identical to this.
pub fn solo_app(spec: AppSpec) -> Result<AppSoloRun, ServeError> {
    let mut caches = StageCaches::new();
    let mut exec = AppExec::new(spec, &mut caches, 0)
        .map_err(|detail| ServeError::Build { job: 0, detail })?;
    let mut slot = ServedCore::new(
        tmu_sim::CoreConfig::neoverse_n1_like(),
        MemSysConfig::table5(1),
    );
    let mut handler = DigestHandler::new();
    while let Some(stage) = exec
        .next_stage(&mut caches, 0)
        .map_err(|detail| ServeError::Build { job: 0, detail })?
    {
        let t0 = slot.now();
        let mut engine = TmuAccelerator::new(
            TmuConfig::paper(),
            Arc::clone(&stage.program),
            Arc::clone(&stage.image),
            handler.clone(),
            stage.outq_base,
        )?;
        let out = slot.drive(&mut engine, 0, u64::MAX)?;
        debug_assert!(out.finished);
        handler = engine.into_parts().0;
        let host = exec
            .complete_stage(slot.now() - t0)
            .map_err(|detail| ServeError::Build { job: 0, detail })?;
        slot.charge_busy(0, host);
    }
    Ok(AppSoloRun {
        digest: handler.digest(),
        records: exec.records().to_vec(),
        iterations: exec.iterations(),
        cycles: slot.now(),
    })
}
