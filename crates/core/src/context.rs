//! TMU architectural-context save/restore (§5.6).
//!
//! When the OS deschedules a thread using the TMU, it quiesces the engine
//! and saves the minimal architectural state: the configuration (program),
//! the head of each TU's `ite` stream, and the outQ control registers. On
//! reschedule the engine is reconstructed and resumes where it left off.
//!
//! In this model the engine's progress is fully determined by the program
//! plus the number of traversal-group steps completed at the quiesce
//! point, so a [`ContextSnapshot`] stores exactly that. Hardware restores
//! its registers directly; the model rebuilds an [`Interp`] positioned
//! after the saved step count. The snapshot also carries the engine's
//! newest interpreter checkpoint at or before that step (one is taken
//! every [`STEP_BATCH`](crate::STEP_BATCH) = 64 generated steps), so a
//! restore clones the checkpoint and replays fewer than 64 steps instead
//! of replaying from step 0. The checkpoint is host-side simulation
//! state, outside the §5.6 architectural context: no simulated number
//! depends on it, and a snapshot without one restores to the same
//! interpreter by full replay.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::config::TmuConfig;
use crate::error::TmuError;
use crate::image::MemImage;
use crate::interp::Interp;
use crate::program::Program;

/// Saved architectural state of a quiesced TMU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContextSnapshot {
    /// Engine configuration (queue types/sizes are derived from it).
    pub config: TmuConfig,
    /// The traversal program (iteration boundaries, streams, callbacks),
    /// shared with the engine and the checkpoint.
    pub program: Arc<Program>,
    /// Traversal-group steps completed before the switch.
    pub steps_completed: u64,
    /// outQ entries produced before the switch (current writing offset).
    pub entries_produced: u64,
    /// outQ chunks sealed before the switch (the resumed engine's next
    /// chunk id — an outQ control register in hardware).
    pub chunks_sealed: u32,
    /// Owning tenant of the quiesced context (outQ chunk tag).
    pub tenant: u32,
    /// Host-side restart point: an interpreter at or before
    /// `steps_completed` (fewer than 64 steps before it when the engine
    /// took the snapshot). `None` restores by replay from step 0.
    pub checkpoint: Option<Interp>,
}

impl ContextSnapshot {
    /// Captures a snapshot of a quiesced engine.
    pub fn save(
        config: TmuConfig,
        program: &Arc<Program>,
        steps_completed: u64,
        entries_produced: u64,
    ) -> Self {
        // Context switches are step-indexed, not cycle-indexed (the engine
        // is quiesced): the event timestamp carries the step count.
        tmu_trace::with(|t| {
            let c = t.component("system.tmu.ctx");
            t.event(
                c,
                steps_completed,
                tmu_trace::EventKind::CtxSave,
                entries_produced,
            );
        });
        Self {
            config,
            program: Arc::clone(program),
            steps_completed,
            entries_produced,
            chunks_sealed: 0,
            tenant: 0,
            checkpoint: None,
        }
    }

    /// Stamps the outQ control registers (sealed-chunk count and tenant
    /// tag) onto the snapshot. The intra-engine fault path never reads
    /// them — the trapped engine keeps its own chunk state — but an
    /// external scheduler descheduling the context must preserve them so
    /// the resumed engine continues the chunk id sequence.
    pub fn with_outq(mut self, chunks_sealed: u32, tenant: u32) -> Self {
        self.chunks_sealed = chunks_sealed;
        self.tenant = tenant;
        self
    }

    /// Attaches the interpreter checkpoint a restore starts from.
    pub fn with_checkpoint(mut self, checkpoint: Option<Interp>) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Restores an interpreter positioned exactly after
    /// `steps_completed` steps. A corrupt snapshot (step count past the
    /// end of the program) is a typed error. Starts from the checkpoint
    /// when it lies at or before `steps_completed`, else from step 0, and
    /// replays the steps in between.
    pub fn restore(&self, image: Arc<MemImage>) -> Result<Interp, TmuError> {
        tmu_trace::with(|t| {
            let c = t.component("system.tmu.ctx");
            t.event(
                c,
                self.steps_completed,
                tmu_trace::EventKind::CtxRestore,
                self.entries_produced,
            );
        });
        let mut interp = match &self.checkpoint {
            Some(c) if c.steps_generated() <= self.steps_completed => {
                let mut interp = c.clone();
                interp.rebind(image);
                interp
            }
            _ => Interp::new(Arc::clone(&self.program), image),
        };
        while interp.steps_generated() < self.steps_completed {
            if !interp.skip_step() {
                return Err(TmuError::SnapshotOutOfRange {
                    steps: self.steps_completed,
                });
            }
        }
        Ok(interp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_functional;
    use crate::program::{Event, LayerMode, ProgramBuilder, StreamTy};
    use tmu_sim::AddressMap;

    fn fixture() -> (Arc<Program>, Arc<MemImage>) {
        let mut map = AddressMap::new();
        let ptrs_r = map.alloc_elems("ptrs", 5, 4);
        let idxs_r = map.alloc_elems("idxs", 6, 4);
        let vals_r = map.alloc_elems("vals", 6, 8);
        let mut image = MemImage::new();
        image.bind_u32(ptrs_r, Arc::new(vec![0, 2, 3, 5, 6]));
        image.bind_u32(idxs_r, Arc::new(vec![0, 2, 1, 0, 3, 2]));
        image.bind_f64(vals_r, Arc::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, 0, 4, 1);
        let ptbs = bld.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
        let ptes = bld.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::Single);
        let col = bld.rng_fbrt(l1, ptbs, ptes, 0, 1);
        let v = bld.mem_stream(col, vals_r.base, 8, StreamTy::Value);
        let op = bld.vec_operand(l1, &[v]);
        bld.callback(l1, Event::Ite, 0, &[op]);
        (Arc::new(bld.build().expect("well-formed")), Arc::new(image))
    }

    #[test]
    fn restore_resumes_identically() {
        let (prog, image) = fixture();
        // Uninterrupted run.
        let full = run_functional(&prog, &image);

        // Interrupted run: stop after 5 steps, snapshot, restore, finish.
        let mut interp = Interp::new(Arc::clone(&prog), Arc::clone(&image));
        let mut prefix = Vec::new();
        for _ in 0..5 {
            let s = interp.next_step().expect("program longer than 5 steps");
            prefix.extend(s.entries);
        }
        let snap = ContextSnapshot::save(TmuConfig::paper(), &prog, 5, prefix.len() as u64);
        let mut restored = snap.restore(Arc::clone(&image)).expect("restores");
        let mut suffix = Vec::new();
        while let Some(s) = restored.next_step() {
            suffix.extend(s.entries);
        }
        prefix.extend(suffix);
        assert_eq!(prefix, full, "context switch must be transparent");
    }

    #[test]
    fn snapshot_roundtrips_program() {
        let (prog, _) = fixture();
        let snap = ContextSnapshot::save(TmuConfig::paper(), &prog, 0, 0);
        assert_eq!(snap.program, prog);
        assert_eq!(snap.config, TmuConfig::paper());
    }
}
