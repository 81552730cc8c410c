//! Allocation pin for the functional step stream.
//!
//! The timing engine pulls steps from a `StepBatcher`, hands every issued
//! load and every committed step back, and lets the batcher checkpoint the
//! interpreter every `STEP_BATCH` steps. Once warm, that loop barely
//! touches the heap: the interpreter refills recycled records in place and
//! checkpoints reuse retired slots. This file installs its own counting
//! global allocator, so it is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use tmu::{Interp, MemImage, Program, Step, StepBatcher, STEP_BATCH};
use tmu_kernels::{spkadd::Spkadd, spmv::Spmv, trianglecount::TriangleCount};
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

/// Steps the timing engine keeps generated ahead of its commit point: its
/// pending window plus one refill batch.
const WINDOW: usize = 512;

/// Runs `prog` through a batcher as the timing engine does: refill a
/// `WINDOW`-deep pending queue one batch at a time, hand each step's loads
/// back as they issue, and commit steps in order. Returns the steps
/// committed after the first `warm` while the interpreter is still
/// generating, and the allocations they cost. (Once generation ends, the
/// draining window piles its records into the pool, which may grow.)
fn steady_allocs(prog: Program, image: Arc<MemImage>, warm: u64) -> (u64, u64) {
    let prog = Arc::new(prog);
    let mut probe = Interp::new(Arc::clone(&prog), Arc::clone(&image));
    let mut total = 0;
    while probe.next_step().is_some() {
        total += 1;
    }
    let stop = total - 2 * (WINDOW + STEP_BATCH) as u64;
    assert!(stop > 2 * warm, "fixture runs well past its warm-up");

    let mut batcher = StepBatcher::new(Interp::new(prog, image));
    let mut pending: VecDeque<Step> = VecDeque::with_capacity(2 * WINDOW);
    let (mut start, mut end) = (0, 0);
    while batcher.committed() < stop {
        while pending.len() < WINDOW {
            batcher.fill(STEP_BATCH);
            let mut step = batcher.pop().expect("the program runs past `stop`");
            for load in step.loads.drain(..) {
                batcher.recycle_load(load);
            }
            pending.push_back(step);
        }
        batcher.commit(pending.pop_front().expect("window is full"));
        if batcher.committed() == warm {
            start = allocs();
        }
        end = allocs();
    }
    (stop - warm, end - start)
}

#[test]
fn warm_step_stream_allocates_almost_nothing() {
    // Records and buffers circulate through the batcher's pool, and one is
    // made or grown only when a step is wider than any the buffer carried
    // before, or when more steps of one layer and kind are in flight than
    // ever before. SpMV's steps are uniform, so once warm it allocates
    // nothing. The merge widths of SpKAdd and TC vary with the data, so
    // those high-water marks keep rising rarely and the residual decays
    // slowly instead (under 0.1 allocations per step); it is pinned
    // exactly.
    let spmv = Spmv::new(&gen::uniform(2048, 2048, 6, 41));
    let (steps, n) = steady_allocs(spmv.build_program((0, 2048), 8), spmv.image_handle(), 2000);
    assert_eq!((steps, n), (5042, 0), "SpMV (LockStep)");

    let spkadd = Spkadd::new(&gen::uniform(2048, 1024, 4, 42));
    let rows = spkadd.reference().rows();
    let (steps, n) = steady_allocs(spkadd.build_program((0, rows)), spkadd.image_handle(), 2000);
    assert_eq!((steps, n), (5693, 484), "SpKAdd (DisjMrg)");

    let tc = TriangleCount::new(&gen::uniform(512, 512, 6, 43));
    let (steps, n) = steady_allocs(tc.build_program((0, 512)), tc.image_handle(), 2000);
    assert_eq!((steps, n), (28246, 706), "TC (ConjMrg)");
}
