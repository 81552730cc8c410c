//! Interface between the simulated system and a near-core accelerator.
//!
//! The TMU engine (crate `tmu`) implements [`Accelerator`]. Each simulated
//! cycle the system ticks the engine (which issues memory requests through
//! [`crate::MemSys::accel_read`] and writes outQ chunks via
//! [`crate::MemSys::accel_write`]); host-side callback ops produced from
//! completed chunks are drained into the core's op stream, gated by their
//! `visible_at` cycle. When the core commits a chunk-end marker it
//! acknowledges the chunk, freeing one of the engine's double buffers.

use crate::memsys::{MemSys, MemSysConfig};
use crate::op::{Op, OpKind};
use crate::system::SimError;

/// A near-core engine co-simulated with its host core.
pub trait Accelerator {
    /// Advances the engine by one cycle.
    fn tick(&mut self, now: u64, core: usize, mem: &mut MemSys);

    /// Moves host ops produced by completed outQ chunks into `out`.
    /// Each op's `visible_at` must be set to its chunk's ready cycle.
    fn drain_ops(&mut self, out: &mut Vec<Op>);

    /// The host core finished processing chunk `chunk` at `now`.
    fn ack_chunk(&mut self, chunk: u32, now: u64);

    /// Whether the engine has finished: traversal complete and every
    /// produced op handed over via [`Accelerator::drain_ops`].
    fn done(&self) -> bool;

    /// One-line human-readable state summary for watchdog diagnostic
    /// dumps. The default is empty (nothing worth reporting).
    fn status_line(&self) -> String {
        String::new()
    }
}

/// A no-op accelerator (useful in tests of the system plumbing).
#[derive(Debug, Default)]
pub struct NullAccelerator;

impl Accelerator for NullAccelerator {
    fn tick(&mut self, _now: u64, _core: usize, _mem: &mut MemSys) {}

    fn drain_ops(&mut self, _out: &mut Vec<Op>) {}

    fn ack_chunk(&mut self, _chunk: u32, _now: u64) {}

    fn done(&self) -> bool {
        true
    }
}

/// Drives `accel` alone against a private single-core memory system, as
/// if an infinitely fast core consumed every op the cycle it drains:
/// each `ChunkEnd` is acknowledged at once. Returns the cycles to
/// completion, or [`SimError::CycleLimit`] if the engine is still busy
/// after `limit` cycles.
pub fn drive_standalone<A: Accelerator + ?Sized>(
    accel: &mut A,
    limit: u64,
) -> Result<u64, SimError> {
    let mut mem = MemSys::new(MemSysConfig::table5(1));
    let mut sink = Vec::new();
    let mut now = 0;
    while !accel.done() {
        if now >= limit {
            return Err(SimError::CycleLimit { limit });
        }
        accel.tick(now, 0, &mut mem);
        accel.drain_ops(&mut sink);
        for op in sink.drain(..) {
            if let OpKind::ChunkEnd { chunk } = op.kind {
                accel.ack_chunk(chunk, now);
            }
        }
        now += 1;
    }
    Ok(now)
}
