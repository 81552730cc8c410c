//! Allocation pins for the step stream and for a resumed engine.
//!
//! The timing engine generates steps through a `StepBatcher`: each step's
//! loads go straight into its stream queues, and its header, gates and
//! operand words into the batcher's window and rings, which steps leave in
//! commit order. The batcher checkpoints the interpreter every
//! `STEP_BATCH` steps. Every one of those buffers grows to the window's
//! high-water mark and is then reused, so a warm engine allocates nothing
//! per step, and a fresh or resumed engine allocates only while its
//! buffers grow. This file installs its own counting global allocator, so
//! it is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use tmu::{
    CallbackHandler, EntryShapes, Interp, MemImage, MemLoad, Operand, OutQEntry, Program,
    StepBatcher, TmuAccelerator, TmuConfig, STEP_BATCH,
};
use tmu_kernels::{spkadd::Spkadd, spmv::Spmv, trianglecount::TriangleCount};
use tmu_sim::{Accelerator, Deps, Machine, MemSys, MemSysConfig, Op, OpId, OpKind, VecMachine};
use tmu_tensor::gen;

/// Counts the allocations of the calling thread (the harness may run
/// other tests on other threads).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Steps the timing engine keeps generated ahead of its commit point.
const WINDOW: usize = 512;

/// Runs `prog` through a batcher as the timing engine does: refill a
/// `WINDOW`-deep window one step at a time with the loads going to a
/// queue the engine's arbiter empties, then commit the oldest step after
/// reading its gates and refilling its outQ entry. Returns the steps
/// committed after the first `warm` while the interpreter is still
/// generating, and the allocations they cost.
fn steady_allocs(prog: Program, image: Arc<MemImage>, warm: u64) -> (u64, u64) {
    let prog = Arc::new(prog);
    let mut probe = Interp::new(Arc::clone(&prog), Arc::clone(&image));
    let mut total = 0;
    while probe.next_step().is_some() {
        total += 1;
    }
    let stop = total - 2 * (WINDOW + STEP_BATCH) as u64;
    assert!(stop > 2 * warm, "fixture runs well past its warm-up");

    let mut shapes = EntryShapes::new(&prog);
    let mut batcher = StepBatcher::new(Interp::new(prog, image));
    let mut queue: VecDeque<MemLoad> = VecDeque::new();
    let mut gates_seen = 0u64;
    let (mut start, mut end) = (0, 0);
    while batcher.committed() < stop {
        while batcher.pending() < WINDOW {
            assert!(
                batcher.generate(|load| queue.push_back(load)),
                "the program runs past `stop`"
            );
        }
        queue.clear();
        let step = batcher.front().expect("window is full");
        gates_seen += batcher.gates().count() as u64;
        shapes.refill(step.layer, step.kind, step.mask, batcher.words());
        batcher.commit();
        if batcher.committed() == warm {
            start = allocs();
        }
        end = allocs();
    }
    assert!(gates_seen > 0);
    (stop - warm, end - start)
}

#[test]
fn warm_step_stream_allocates_almost_nothing() {
    // Records circulate through flat rings that reach the window's
    // high-water mark during warm-up. A ring grows again only when the
    // window holds more gates or operand words than ever before: the
    // merge widths of SpKAdd and TC vary with the data, so their marks may
    // still rise rarely. Each count is pinned exactly.
    let spmv = Spmv::new(&gen::uniform(2048, 2048, 6, 41));
    let (steps, n) = steady_allocs(spmv.build_program((0, 2048), 8), spmv.image_handle(), 2000);
    assert_eq!((steps, n), (5042, 0), "SpMV (LockStep)");

    let spkadd = Spkadd::new(&gen::uniform(2048, 1024, 4, 42));
    let rows = spkadd.reference().rows();
    let (steps, n) = steady_allocs(spkadd.build_program((0, rows)), spkadd.image_handle(), 2000);
    assert_eq!((steps, n), (5693, 0), "SpKAdd (DisjMrg)");

    let tc = TriangleCount::new(&gen::uniform(512, 512, 6, 43));
    let (steps, n) = steady_allocs(tc.build_program((0, 512)), tc.image_handle(), 2000);
    assert_eq!((steps, n), (28246, 1), "TC (ConjMrg)");
}

/// Reads every operand word and emits one host op per entry, allocating
/// nothing itself.
#[derive(Default)]
struct Quiet {
    sum: u64,
}

impl CallbackHandler for Quiet {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        for op in &entry.operands {
            self.sum = match op {
                Operand::Vec { vals, .. } => vals.iter().fold(self.sum, |s, &w| s ^ w),
                Operand::Mask(w) | Operand::Scalar { val: w, .. } => self.sum ^ w,
            };
        }
        m.vec_op(1, Deps::from(entry_load));
    }
}

/// An engine on a standalone memory system with an instant core that acks
/// every chunk as soon as its ops drain.
struct Bench {
    mem: MemSys,
    ops: Vec<Op>,
    now: u64,
}

impl Bench {
    fn tick(&mut self, accel: &mut TmuAccelerator<Quiet>) {
        accel.tick(self.now, 0, &mut self.mem);
        accel.drain_ops(&mut self.ops);
        for op in self.ops.drain(..) {
            if let OpKind::ChunkEnd { chunk } = op.kind {
                accel.ack_chunk(chunk, self.now);
            }
        }
        self.now += 1;
    }

    /// Ticks `accel` until it has committed `steps` steps.
    fn run(&mut self, accel: &mut TmuAccelerator<Quiet>, steps: u64) {
        while accel.steps_committed() < steps {
            assert!(!accel.done(), "fixture runs long enough");
            self.tick(accel);
        }
    }
}

/// Drives `prog` through 1 500 committed steps, quiesces the engine and
/// resumes its context on a new one. Returns the allocations of the
/// resumed engine through its first 512 committed steps (the resume
/// included), then through the 512 after that.
fn resumed_allocs(prog: Program, image: Arc<MemImage>) -> (u64, u64) {
    const OUTQ: u64 = 0x4000_0000;
    let mut bench = Bench {
        mem: MemSys::new(MemSysConfig::table5(1)),
        ops: Vec::new(),
        now: 0,
    };
    let cfg = TmuConfig::paper();
    let mut accel = TmuAccelerator::new(
        cfg,
        Arc::new(prog),
        Arc::clone(&image),
        Quiet::default(),
        OUTQ,
    )
    .expect("the program fits the engine");
    bench.run(&mut accel, 1500);
    let at = accel.steps_committed();
    let snap = accel
        .quiesce(bench.now, 0, &mut bench.mem)
        .expect("engine is live");
    while !accel.done() {
        bench.tick(&mut accel);
    }
    let (handler, stats) = accel.into_parts();

    let before = allocs();
    let mut accel =
        TmuAccelerator::resume_from(&snap, image, handler, OUTQ, stats).expect("snapshot restores");
    bench.run(&mut accel, at + 512);
    let first = allocs() - before;
    let before = allocs();
    bench.run(&mut accel, at + 1024);
    (first, allocs() - before)
}

#[test]
fn resumed_engine_allocates_only_while_its_buffers_grow() {
    // The first count is the resume plus the new engine's queues and
    // rings growing to its window; after that, only a buffer outgrowing
    // its earlier high-water mark allocates.
    let spmv = Spmv::new(&gen::uniform(2048, 2048, 6, 41));
    let n = resumed_allocs(spmv.build_program((0, 2048), 8), spmv.image_handle());
    assert_eq!(n, (217, 1), "SpMV (LockStep)");

    let spkadd = Spkadd::new(&gen::uniform(2048, 1024, 4, 42));
    let rows = spkadd.reference().rows();
    let n = resumed_allocs(spkadd.build_program((0, rows)), spkadd.image_handle());
    assert_eq!(n, (260, 3), "SpKAdd (DisjMrg)");

    let tc = TriangleCount::new(&gen::uniform(512, 512, 6, 43));
    let n = resumed_allocs(tc.build_program((0, 512)), tc.image_handle());
    assert_eq!(n, (114, 0), "TC (ConjMrg)");
}
