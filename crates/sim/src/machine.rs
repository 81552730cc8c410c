//! The [`Machine`] abstraction: how kernels emit their dynamic op stream.
//!
//! Every workload in `tmu-kernels` is written once against this trait. The
//! same kernel code then runs in three modes:
//!
//! * [`CountingMachine`] — no timing; tallies op mix, FLOPs and touched
//!   bytes (used for arithmetic-intensity computation and fast tests);
//! * [`VecMachine`] — records the ops into a buffer (used by accelerator
//!   callback handlers and unit tests);
//! * `ChannelMachine` (in [`crate::system`]) — streams ops to a simulated
//!   core with bounded backpressure.

use crate::op::{Deps, Op, OpId, OpKind, Site};

/// Sink for the dynamic op stream of one simulated hardware thread.
///
/// Methods return the [`OpId`] of the emitted op so the kernel can express
/// data dependencies (e.g. the address of `b[idxs[p]]` depends on the load
/// of `idxs[p]`).
pub trait Machine {
    /// Emits an op with explicit kind/site/deps and returns its id.
    fn emit(&mut self, site: Site, kind: OpKind, deps: Deps) -> OpId;

    /// Scalar load of `bytes` at `addr`.
    fn load(&mut self, site: Site, addr: u64, bytes: u32, deps: Deps) -> OpId {
        self.emit(site, OpKind::Load { addr, bytes }, deps)
    }

    /// Contiguous vector load.
    fn vec_load(&mut self, site: Site, addr: u64, bytes: u32, deps: Deps) -> OpId {
        self.emit(site, OpKind::VecLoad { addr, bytes }, deps)
    }

    /// Store of `bytes` at `addr`.
    fn store(&mut self, site: Site, addr: u64, bytes: u32, deps: Deps) -> OpId {
        self.emit(site, OpKind::Store { addr, bytes }, deps)
    }

    /// Scalar integer/address op.
    fn int_op(&mut self, deps: Deps) -> OpId {
        self.emit(Site(0), OpKind::IntAlu, deps)
    }

    /// Scalar floating-point op performing `flops` FLOPs.
    fn fp_op(&mut self, flops: u32, deps: Deps) -> OpId {
        self.emit(Site(0), OpKind::FpAlu { flops }, deps)
    }

    /// SIMD op performing `flops` FLOPs across its lanes.
    fn vec_op(&mut self, flops: u32, deps: Deps) -> OpId {
        self.emit(Site(0), OpKind::VecAlu { flops }, deps)
    }

    /// Conditional branch at `site` with committed direction `taken`.
    fn branch(&mut self, site: Site, taken: bool, deps: Deps) -> OpId {
        self.emit(site, OpKind::Branch { taken }, deps)
    }
}

/// Functional-only machine: counts the op mix without any timing.
#[derive(Debug, Clone, Default)]
pub struct CountingMachine {
    next: u64,
    /// Total ops emitted.
    pub ops: u64,
    /// Scalar + vector loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Branches.
    pub branches: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Bytes touched by loads and stores (not deduplicated).
    pub bytes_accessed: u64,
}

impl CountingMachine {
    /// Creates a fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Machine for CountingMachine {
    fn emit(&mut self, _site: Site, kind: OpKind, _deps: Deps) -> OpId {
        self.next += 1;
        self.ops += 1;
        match kind {
            OpKind::Load { bytes, .. } | OpKind::VecLoad { bytes, .. } => {
                self.loads += 1;
                self.bytes_accessed += bytes as u64;
            }
            OpKind::Store { bytes, .. } => {
                self.stores += 1;
                self.bytes_accessed += bytes as u64;
            }
            OpKind::Branch { .. } => self.branches += 1,
            OpKind::FpAlu { flops } | OpKind::VecAlu { flops } => self.flops += flops as u64,
            OpKind::IntAlu | OpKind::ChunkEnd { .. } => {}
        }
        OpId(self.next)
    }
}

/// Machine that records ops into a buffer.
///
/// Used by accelerator callback handlers (each outQ entry expands into a
/// short burst of host ops) and by tests that assert on emitted streams.
#[derive(Debug, Clone, Default)]
pub struct VecMachine {
    next: u64,
    /// Earliest cycle at which recorded ops become visible to the core.
    pub visible_at: u64,
    /// Recorded op stream.
    pub ops: Vec<Op>,
}

impl VecMachine {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder whose ops start numbering after `last`, so the
    /// stream can be appended to an existing one.
    pub fn continuing_from(last: OpId) -> Self {
        Self {
            next: last.0,
            visible_at: 0,
            ops: Vec::new(),
        }
    }

    /// Takes the recorded ops, leaving the recorder empty but keeping the
    /// sequence counter (so subsequent ops continue the stream).
    pub fn take(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.ops)
    }
}

impl Machine for VecMachine {
    fn emit(&mut self, site: Site, kind: OpKind, deps: Deps) -> OpId {
        self.next += 1;
        let id = OpId(self.next);
        self.ops.push(Op {
            id,
            site,
            kind,
            deps,
            visible_at: self.visible_at,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernel<M: Machine>(m: &mut M) {
        let a = m.load(Site(1), 0x1000, 4, Deps::NONE);
        let b = m.load(Site(2), 0x2000, 8, Deps::from(a));
        let s = m.fp_op(2, Deps::on(&[a, b]));
        m.store(Site(3), 0x3000, 8, Deps::from(s));
        m.branch(Site(4), true, Deps::NONE);
    }

    #[test]
    fn counting_machine_tallies() {
        let mut m = CountingMachine::new();
        tiny_kernel(&mut m);
        assert_eq!(m.ops, 5);
        assert_eq!(m.loads, 2);
        assert_eq!(m.stores, 1);
        assert_eq!(m.branches, 1);
        assert_eq!(m.flops, 2);
        assert_eq!(m.bytes_accessed, 4 + 8 + 8);
    }

    #[test]
    fn vec_machine_preserves_program_order_and_deps() {
        let mut m = VecMachine::new();
        tiny_kernel(&mut m);
        assert_eq!(m.ops.len(), 5);
        assert_eq!(m.ops[0].id, OpId(1));
        assert_eq!(m.ops[1].deps.iter().collect::<Vec<_>>(), vec![OpId(1)]);
        assert_eq!(m.ops[4].id, OpId(5));
    }

    #[test]
    fn vec_machine_take_continues_numbering() {
        let mut m = VecMachine::new();
        m.int_op(Deps::NONE);
        let first = m.take();
        assert_eq!(first.len(), 1);
        let id = m.int_op(Deps::NONE);
        assert_eq!(id, OpId(2));
        assert_eq!(m.ops.len(), 1);
    }

    #[test]
    fn continuing_from_offsets_ids() {
        let mut m = VecMachine::continuing_from(OpId(10));
        let id = m.int_op(Deps::NONE);
        assert_eq!(id, OpId(11));
    }
}
