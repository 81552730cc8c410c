//! `tmu-trace`: cycle-level tracing and telemetry for the TMU simulator.
//!
//! Three layers, cheapest first:
//!
//! 1. [`StatsRegistry`] — a hierarchical counter/gauge registry with
//!    gem5-style dotted names (`system.core0.l1.hits`). Always available;
//!    this is where end-of-run aggregates live.
//! 2. [`EventRing`] / [`TraceEvent`] — typed, preallocated per-component
//!    event buffers for cycle-level activity (TU fetches, TG steps, outQ
//!    chunks, cache/DRAM events). Bounded memory, drop-counted overflow,
//!    no allocation on the hot path.
//! 3. Exporters — [`chrome::export`] renders the rings as Chrome
//!    `chrome://tracing` / Perfetto trace-event JSON;
//!    [`StatsRegistry::dump_text`] renders the registry as a flat gem5-style
//!    stats file.
//!
//! Instrumentation call sites are compiled into every build and gated at
//! run time: a site records only while a [`Tracer`] is [`install`]ed on
//! the running thread. With none installed, a site costs one relaxed
//! atomic load ([`with`]) or one branch on a component handle that stays
//! `None`; handle sites emit through the cold, out-of-line [`record`].
//! DESIGN.md §7 has the measured cost.

#![warn(missing_docs)]

pub mod chrome;
pub mod registry;
pub mod ring;

pub use registry::{Stat, StatsRegistry};
pub use ring::{pack_dur_extra, unpack_dur_extra, EventKind, EventRing, TraceEvent};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runtime tracing knobs: how much an installed tracer keeps and how
/// often the periodic samplers fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-component event-ring capacity (events).
    pub ring_capacity: usize,
    /// Period, in cycles, between occupancy/pressure samples.
    pub sample_period: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 1 << 16,
            sample_period: 256,
        }
    }
}

impl TraceConfig {
    /// Builds a config from the environment: `TMU_TRACE_RING` overrides
    /// the per-component ring capacity, `TMU_TRACE_SAMPLE` the sampling
    /// period, each read through [`knob`]. Unset or blank values keep the
    /// defaults; invalid ones warn and keep them too.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            ring_capacity: knob("TMU_TRACE_RING", d.ring_capacity as u64) as usize,
            sample_period: knob("TMU_TRACE_SAMPLE", d.sample_period),
        }
    }
}

/// Parses a positive-integer environment knob (`TMU_JOBS`,
/// `TMU_TRACE_RING`, …) from its raw value. Absent and blank values mean
/// "use the default" (`Ok(None)`); `0` and non-numeric values are
/// *errors* naming the variable and the rule, so callers surface a clear
/// warning instead of silently misconfiguring the run.
pub fn parse_pos_int(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<u64>() {
        Ok(0) => Err(format!("{name}={trimmed:?} is invalid: must be ≥ 1")),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "{name}={trimmed:?} is invalid: not a positive integer"
        )),
    }
}

/// Reads the positive-integer environment knob `name` through
/// [`parse_pos_int`]. Unset or blank gives `default`; an invalid value
/// warns on stderr, naming the variable and the value, and gives `default`.
pub fn knob(name: &str, default: u64) -> u64 {
    let raw = std::env::var(name).ok();
    match parse_pos_int(name, raw.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => default,
        Err(msg) => {
            eprintln!("warning: {msg}; using default {default}");
            default
        }
    }
}

/// Handle for a registered component; indexes the tracer's ring table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(pub u32);

/// The per-run trace collector: component table, one event ring per
/// component, and the stats registry the exporters read.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    components: Vec<String>,
    rings: Vec<EventRing>,
    registry: StatsRegistry,
}

impl Tracer {
    /// A tracer with no components yet, configured by `cfg`.
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            cfg,
            components: Vec::new(),
            rings: Vec::new(),
            registry: StatsRegistry::new(),
        }
    }

    /// The configuration this tracer was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Registers (or looks up) a component by its dotted name and returns
    /// its id. Registration allocates the component's full event ring up
    /// front; re-registering an existing name is idempotent.
    pub fn component(&mut self, name: &str) -> ComponentId {
        if let Some(idx) = self.components.iter().position(|c| c == name) {
            return ComponentId(idx as u32);
        }
        self.components.push(name.to_owned());
        self.rings.push(EventRing::new(self.cfg.ring_capacity));
        ComponentId((self.components.len() - 1) as u32)
    }

    /// Records one event against `component`; drop-counted when the
    /// component's ring is full.
    #[inline]
    pub fn event(&mut self, component: ComponentId, cycle: u64, kind: EventKind, payload: u64) {
        if let Some(ring) = self.rings.get_mut(component.0 as usize) {
            ring.push(TraceEvent {
                cycle,
                component: component.0,
                kind,
                payload,
            });
        }
    }

    /// Registered component names, in id order.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// The event ring of `component`.
    ///
    /// # Panics
    /// Panics if `component` was not returned by [`Tracer::component`].
    pub fn ring(&self, component: ComponentId) -> &EventRing {
        &self.rings[component.0 as usize]
    }

    /// Total events dropped across all component rings.
    pub fn dropped_total(&self) -> u64 {
        self.rings.iter().map(EventRing::dropped).sum()
    }

    /// The counter/gauge registry.
    pub fn registry(&self) -> &StatsRegistry {
        &self.registry
    }

    /// Mutable access to the counter/gauge registry.
    pub fn registry_mut(&mut self) -> &mut StatsRegistry {
        &mut self.registry
    }

    /// Renders the rings as Chrome trace-event JSON (see [`chrome`]).
    pub fn chrome_json(&self) -> String {
        chrome::export(self)
    }
}

/// Fixed-period sampler: tracks the next cycle at which a periodic
/// occupancy/pressure sample is due.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicSampler {
    period: u64,
    next: u64,
}

impl PeriodicSampler {
    /// A sampler firing every `period` cycles, starting at cycle 0.
    pub fn new(period: u64) -> Self {
        Self {
            period: period.max(1),
            next: 0,
        }
    }

    /// Whether a sample is due at `cycle`; advances the deadline past
    /// `cycle` when it is. Call once per tick with a monotone cycle.
    #[inline]
    pub fn due(&mut self, cycle: u64) -> bool {
        if cycle < self.next {
            return false;
        }
        // Advance past `cycle` even across gaps so a stalled caller does
        // not burst-sample on resume.
        let periods = (cycle - self.next) / self.period + 1;
        self.next += periods * self.period;
        true
    }
}

// The installed tracer. Instrumented components are constructed deep
// inside the simulator where threading a &mut Tracer through every layer
// would distort the APIs being measured; instead the trace binary installs
// a tracer for its single job and call sites reach it through `with`. The
// slot is per thread: a simulation running concurrently on another thread
// of the same process (parallel tests, runner workers on other jobs)
// neither records into this thread's trace nor can uninstall it. The
// process-wide installed count keeps the nothing-installed case to one
// load. It publishes no data — each thread reads only its own slot and
// sees its own install in program order — so every access is relaxed.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` for the calling thread, returning the thread's
/// previous one if any. Only simulations on this thread record into it.
pub fn install(tracer: Tracer) -> Option<Tracer> {
    let prev = TRACER.with(|slot| slot.borrow_mut().replace(tracer));
    if prev.is_none() {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
    }
    prev
}

/// Removes and returns the calling thread's tracer.
pub fn uninstall() -> Option<Tracer> {
    let prev = TRACER.with(|slot| slot.borrow_mut().take());
    if prev.is_some() {
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
    prev
}

/// Whether any thread has a tracer installed. One relaxed atomic load —
/// this is the fast-path check instrumentation sites make before
/// touching the thread's slot.
#[inline]
pub fn is_active() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// Runs `f` against the calling thread's tracer, if any. Returns `None`
/// without touching the slot when no thread has a tracer installed.
#[inline]
pub fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    if !is_active() {
        return None;
    }
    TRACER.with(|slot| slot.borrow_mut().as_mut().map(f))
}

/// Records one event against `component` on the calling thread's tracer,
/// if any. Out of line and cold, so a hot path that holds a component
/// handle compiles to a branch on the handle and a call, with nothing
/// spilled for a closure while untraced.
#[cold]
#[inline(never)]
pub fn record(component: ComponentId, cycle: u64, kind: EventKind, payload: u64) {
    with(|t| t.event(component, cycle, kind, payload));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_knob_values_are_validated() {
        // A size suffix and a zero ring are errors naming the variable
        // and the value (so `from_env` warns instead of going quiet).
        for bad in ["64k", "0"] {
            let err = parse_pos_int("TMU_TRACE_RING", Some(bad)).expect_err("invalid ring");
            assert!(
                err.contains("TMU_TRACE_RING") && err.contains(bad),
                "error must name variable and value: {err}"
            );
        }
        // Blank keeps the default; a valid value parses.
        assert_eq!(parse_pos_int("TMU_TRACE_SAMPLE", Some(" ")), Ok(None));
        assert_eq!(
            parse_pos_int("TMU_TRACE_RING", Some("4096")),
            Ok(Some(4096))
        );
    }

    #[test]
    fn component_registration_is_idempotent() {
        let mut t = Tracer::new(TraceConfig::default());
        let a = t.component("system.dram");
        let b = t.component("system.core0.l1");
        let a2 = t.component("system.dram");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.components(), ["system.dram", "system.core0.l1"]);
    }

    #[test]
    fn sampler_fires_on_period_and_skips_gaps() {
        let mut s = PeriodicSampler::new(100);
        assert!(s.due(0));
        assert!(!s.due(50));
        assert!(s.due(100));
        // A long stall covering many periods yields one sample, then the
        // schedule resumes from the stall's end.
        assert!(s.due(1000));
        assert!(!s.due(1050));
        assert!(s.due(1100));
    }

    #[test]
    fn global_install_roundtrip() {
        // Single test installing a tracer: the other tests in this crate
        // use local tracers, so the process-wide count stays ours.
        assert!(uninstall().is_none());
        assert!(!is_active());
        assert!(with(|_| ()).is_none());
        let mut t = Tracer::new(TraceConfig::default());
        t.component("system.dram");
        assert!(install(t).is_none());
        assert!(is_active());
        let n = with(|t| t.components().len());
        assert_eq!(n, Some(1));
        // Thread-scoped: another thread sees the active flag but records
        // nothing and cannot take this thread's tracer — its simulations
        // cannot pollute or end this thread's trace.
        std::thread::spawn(|| {
            assert!(is_active());
            assert!(with(|_| ()).is_none());
            assert!(uninstall().is_none());
        })
        .join()
        .expect("scoping probe thread");
        let back = uninstall().expect("tracer should be installed");
        assert_eq!(back.components(), ["system.dram"]);
        assert!(!is_active());
    }
}
