//! The one lockstep cycle driver behind every simulated run.
//!
//! Baseline shards, IMP-prefetched shards, accelerated batch runs and
//! served slots all advance the same way: stage each core's ops, tick the
//! core, hand its committed chunk markers back, check progress, `now += 1`.
//! A [`Clock`] owns `now`, the progress watchdog and the trace sampler;
//! [`Clock::drive`] is the only loop that ticks a [`Core`]. What differs
//! per run is the [`Feed`] behind each core: a shard's channel, an IMP
//! lookahead window, or an accelerator.

use std::collections::VecDeque;

use crate::accel::Accelerator;
use crate::core::{Core, OpSource};
use crate::memsys::MemSys;
use crate::op::Op;
use crate::system::{SimError, CYCLE_LIMIT};

/// One core's op supply. [`OpSource::done`] reports the feed exhausted:
/// no op is left and none will arrive.
pub(crate) trait Feed: OpSource {
    /// Whether the clock may jump over cycles in which no core can act.
    /// Only a channel can. Engine feeds and IMP windows are ticked every
    /// cycle; a sleeping engine makes its tick O(1) on its own side.
    const SKIPS_IDLE: bool = false;

    /// Runs before the core's tick: stages this cycle's ops.
    fn stage(&mut self, _now: u64, _core: usize, _mem: &mut MemSys) {}

    /// Hands back the chunk markers the core committed this cycle.
    fn ack(&mut self, _acks: &[u32], _now: u64) {}

    /// One-line state summary for the watchdog dump.
    fn status_line(&self) -> String {
        String::new()
    }
}

/// Simulated time plus the no-forward-progress watchdog: fires when the
/// progress signature stays unchanged for a full window of driven cycles.
#[derive(Debug)]
pub(crate) struct Clock {
    /// The current simulated cycle.
    pub(crate) now: u64,
    /// The watchdog window in cycles (at least one).
    pub(crate) window: u64,
    sig: [u64; 4],
    last_change: u64,
    acks: Vec<u32>,
    sampler: Option<tmu_trace::PeriodicSampler>,
}

impl Clock {
    /// A clock at cycle 0 with a `window`-cycle watchdog.
    pub(crate) fn new(window: u64) -> Self {
        Self {
            now: 0,
            window,
            sig: [u64::MAX; 4],
            last_change: 0,
            acks: Vec::new(),
            sampler: tmu_trace::with(|t| tmu_trace::PeriodicSampler::new(t.config().sample_period)),
        }
    }

    /// Drives `cores[i]` from `feeds[i]` in lockstep — cores without a
    /// feed sit idle — until every feed is exhausted and every fed core
    /// drained (`Ok(true)`) or `budget` cycles have passed (`Ok(false)`).
    /// `owner` names the slot and tenant of a served run in the dump.
    pub(crate) fn drive<F: Feed>(
        &mut self,
        cores: &mut [Core],
        feeds: &mut [F],
        mem: &mut MemSys,
        budget: u64,
        owner: Option<(usize, u32)>,
    ) -> Result<bool, SimError> {
        let start = self.now;
        loop {
            let now = self.now;
            let mut all_done = true;
            for (i, (core, feed)) in cores.iter_mut().zip(feeds.iter_mut()).enumerate() {
                feed.stage(now, i, mem);
                self.acks.clear();
                core.tick(now, feed, mem, &mut self.acks);
                feed.ack(&self.acks, now);
                if !(feed.done() && core.idle()) {
                    all_done = false;
                }
            }
            self.sample(mem, feeds.len());
            self.now += 1;
            if all_done {
                return Ok(true);
            }
            if self.now >= CYCLE_LIMIT {
                return Err(SimError::CycleLimit { limit: CYCLE_LIMIT });
            }
            let sig = [
                cores.iter().map(|c| c.stats.committed).sum(),
                mem.demand_loads,
                mem.accel_reads,
                mem.accel_outq_lines,
            ];
            if sig != self.sig {
                self.sig = sig;
                self.last_change = self.now;
            } else if self.now.saturating_sub(self.last_change) >= self.window {
                let status: Vec<String> = feeds.iter().map(F::status_line).collect();
                return Err(self.fire(cores, mem, &status, owner));
            }
            if F::SKIPS_IDLE {
                self.skip_idle(cores, feeds);
            }
            if self.now - start >= budget {
                return Ok(false);
            }
        }
    }

    /// Jumps to the earliest cycle at which some core can dispatch or
    /// commit, if that is in the future. The skipped cycles count as
    /// driven time: the watchdog sees exactly what ticking would show.
    fn skip_idle<F: Feed>(&mut self, cores: &mut [Core], feeds: &mut [F]) {
        let now = self.now;
        let mut next = u64::MAX;
        for (core, feed) in cores.iter().zip(feeds.iter_mut()) {
            match next_event(core, now) {
                Some(t) => next = next.min(t),
                // A drained core acts as soon as its feed delivers.
                None if !feed.done() => next = now,
                None => {}
            }
        }
        if next > now && next != u64::MAX {
            self.advance(cores, next - now);
        }
    }

    /// Moves the clock `delta` cycles ahead without ticking, charging the
    /// gap to every core: waiting on an incomplete ROB head is a backend
    /// stall, an empty ROB a frontend stall.
    fn advance(&mut self, cores: &mut [Core], delta: u64) {
        for core in cores {
            core.account_gap(delta);
        }
        self.now += delta;
    }

    /// Jumps over an undriven gap (an idle wait, a context switch, host
    /// work, a simulated hang, a reboot): charged like an idle skip, but
    /// the watchdog window does not count the gap as a stall.
    pub(crate) fn jump(&mut self, cores: &mut [Core], delta: u64) {
        self.advance(cores, delta);
        self.last_change = self.last_change.saturating_add(delta);
    }

    /// The watchdog firing at the current cycle: records it in the trace
    /// and returns the typed error carrying the one diagnostic dump — per
    /// core commit/idle state, the memory-system progress counters, and
    /// each feed's status line.
    pub(crate) fn fire(
        &self,
        cores: &[Core],
        mem: &MemSys,
        status: &[String],
        owner: Option<(usize, u32)>,
    ) -> SimError {
        use std::fmt::Write;
        let mut dump = format!("-- watchdog dump @ cycle {}", self.now);
        if let Some((slot, tenant)) = owner {
            let _ = write!(dump, " (slot {slot}, tenant {tenant})");
        }
        dump.push_str(" --\n");
        for (i, core) in cores.iter().enumerate() {
            let _ = writeln!(
                dump,
                "core{i}: committed={} idle={}",
                core.stats.committed,
                core.idle()
            );
        }
        let _ = writeln!(
            dump,
            "mem: demand_loads={} accel_reads={} outq_lines={}",
            mem.demand_loads, mem.accel_reads, mem.accel_outq_lines
        );
        for (i, line) in status.iter().enumerate().filter(|(_, l)| !l.is_empty()) {
            let _ = writeln!(dump, "accel{i}: {line}");
        }
        tmu_trace::with(|t| {
            let c = t.component("system");
            t.event(
                c,
                self.now,
                tmu_trace::EventKind::WatchdogFired,
                self.window,
            );
        });
        SimError::Watchdog {
            cycle: self.now,
            window: self.window,
            dump,
        }
    }

    /// Periodic pressure samples: DRAM row-buffer state and the first
    /// `engines` cores' outstanding-request (MSHR) pool occupancy.
    fn sample(&mut self, mem: &MemSys, engines: usize) {
        let now = self.now;
        if !self.sampler.as_mut().is_some_and(|s| s.due(now)) {
            return;
        }
        tmu_trace::with(|t| {
            let d = t.component("system.dram");
            let open = mem.dram().open_rows() as u64;
            t.event(d, now, tmu_trace::EventKind::DramOpenRows, open);
            for i in 0..engines {
                let c = t.component(&format!("system.core{i}.tmu"));
                let busy = mem.accel_outstanding(i, now) as u64;
                t.event(c, now, tmu_trace::EventKind::MshrBusy, busy);
            }
        });
    }
}

/// Earliest cycle at which `core` can dispatch or commit, assuming its
/// feed has ops whenever fetch is open; `None` for a drained core (empty
/// ROB, fetch not blocked).
fn next_event(core: &Core, now: u64) -> Option<u64> {
    let blocked = core.fetch_blocked();
    match core.head_complete() {
        None => (blocked > now).then_some(blocked),
        // Only a commit at head completion can free a full ROB.
        Some(head) if core.rob_full() => Some(head),
        Some(head) if blocked > now => Some(head.min(blocked)),
        Some(_) => Some(now),
    }
}

/// An engine's drained host ops, held until their `visible_at` cycle. A
/// served slot keeps its queue across quanta and engine incarnations.
#[derive(Debug, Default)]
pub(crate) struct EngineQueue {
    buf: VecDeque<Op>,
    scratch: Vec<Op>,
    producer_done: bool,
}

/// Feed from an accelerator: the engine ticks and its ops drain before
/// the core's tick, and the chunks the core finished are acked after it.
pub(crate) struct EngineFeed<'a> {
    pub(crate) accel: &'a mut dyn Accelerator,
    pub(crate) queue: &'a mut EngineQueue,
}

impl OpSource for EngineFeed<'_> {
    fn next_visible(&mut self, now: u64) -> Option<Op> {
        let buf = &mut self.queue.buf;
        if buf.front().is_some_and(|op| op.visible_at <= now) {
            buf.pop_front()
        } else {
            None
        }
    }

    fn done(&mut self) -> bool {
        self.queue.producer_done && self.queue.buf.is_empty() && self.accel.done()
    }

    fn next_visible_at(&self) -> Option<u64> {
        self.queue.buf.front().map(|op| op.visible_at)
    }
}

impl Feed for EngineFeed<'_> {
    fn stage(&mut self, now: u64, core: usize, mem: &mut MemSys) {
        self.accel.tick(now, core, mem);
        let q = &mut *self.queue;
        self.accel.drain_ops(&mut q.scratch);
        q.buf.extend(q.scratch.drain(..));
        q.producer_done = self.accel.done();
    }

    fn ack(&mut self, acks: &[u32], now: u64) {
        for &chunk in acks {
            self.accel.ack_chunk(chunk, now);
        }
    }

    fn status_line(&self) -> String {
        self.accel.status_line()
    }
}
