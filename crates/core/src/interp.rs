//! Functional interpreter of TMU programs.
//!
//! Produces, lazily and in nested-loop order, the stream of traversal-group
//! [`Step`]s a configured TMU performs: which elements each TU loads (with
//! their dependency edges), how the traversal groups merge/co-iterate lanes
//! (§5.2), and which outQ entries the registered callbacks push (§5.3).
//! The timing engine ([`crate::TmuAccelerator`]) replays this stream
//! against the simulated memory hierarchy; the functional content (operand
//! values) is computed here from the bound [`MemImage`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::image::MemImage;
use crate::program::{
    Event, IndexSrc, LayerMode, OperandDef, Program, StreamDef, StreamRef, StreamTy, TraversalDef,
};
use crate::steps::{ElemId, MemLoad, Operand, OutQEntry, Step, StepKind};

/// Steps [`StepBatcher::fill`] buffers ahead for the timing engine, and the
/// interval at which it checkpoints the interpreter: a context restore
/// replays fewer than this many steps.
pub const STEP_BATCH: usize = 64;

/// One element of a TU. Each lane keeps two of these buffers (the peeked
/// head and the last consumed element) and swaps them on consume.
#[derive(Debug, Default)]
struct ElemRt {
    /// Per-stream values (raw bits).
    vals: Vec<u64>,
    /// Per-stream mem-load ids (None for non-mem streams).
    mem_by_stream: Vec<Option<ElemId>>,
    /// All gating ids of this element (own loads + fiber bound deps).
    gates: Vec<ElemId>,
}

impl ElemRt {
    fn clear(&mut self) {
        self.vals.clear();
        self.mem_by_stream.clear();
        self.gates.clear();
    }
}

impl Clone for ElemRt {
    fn clone(&self) -> Self {
        let mut elem = Self::default();
        elem.clone_from(self);
        elem
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            vals,
            mem_by_stream,
            gates,
        } = src;
        self.vals.clone_from(vals);
        self.mem_by_stream.clone_from(mem_by_stream);
        self.gates.clone_from(gates);
    }
}

/// Runtime state of one TU (lane of a layer).
#[derive(Debug, Default)]
struct LaneRt {
    active: bool,
    i: i64,
    beg: i64,
    end: i64,
    stride: i64,
    bound_deps: Vec<ElemId>,
    parent_vals: Vec<u64>,
    /// Elements peeked so far (the next element's queue-slot ordinal).
    peeked: u64,
    /// Whether `cur` holds a peeked, unconsumed element.
    has_cur: bool,
    cur: ElemRt,
    last: ElemRt,
}

impl LaneRt {
    fn in_range(&self) -> bool {
        if self.stride >= 0 {
            self.i < self.end
        } else {
            self.i > self.end
        }
    }
}

impl Clone for LaneRt {
    fn clone(&self) -> Self {
        let mut lane = Self::default();
        lane.clone_from(self);
        lane
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            active,
            i,
            beg,
            end,
            stride,
            bound_deps,
            parent_vals,
            peeked,
            has_cur,
            cur,
            last,
        } = src;
        (self.active, self.i, self.beg, self.end, self.stride) = (*active, *i, *beg, *end, *stride);
        (self.peeked, self.has_cur) = (*peeked, *has_cur);
        self.bound_deps.clone_from(bound_deps);
        self.parent_vals.clone_from(parent_vals);
        self.cur.clone_from(cur);
        self.last.clone_from(last);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start(usize),
    Step(usize),
    Done,
}

/// Lazily interprets a [`Program`] over a [`MemImage`].
///
/// Cloning one is cheap (the program and image are shared) and yields an
/// interpreter that continues exactly where this one stands: the timing
/// engine keeps such clones as restart points for context restores.
#[derive(Debug)]
pub struct Interp {
    prog: Arc<Program>,
    image: Arc<MemImage>,
    layers: Vec<Vec<LaneRt>>,
    next_elem: ElemId,
    phase: Phase,
    /// Total outQ entries produced so far.
    pub entries_produced: u64,
    /// Steps produced so far.
    steps: u64,
}

impl Clone for Interp {
    fn clone(&self) -> Self {
        Self {
            prog: Arc::clone(&self.prog),
            image: Arc::clone(&self.image),
            layers: self.layers.clone(),
            next_elem: self.next_elem,
            phase: self.phase,
            entries_produced: self.entries_produced,
            steps: self.steps,
        }
    }

    /// Copies into this interpreter's lane buffers, so a reused checkpoint
    /// slot allocates nothing once it has seen the program.
    fn clone_from(&mut self, src: &Self) {
        let Self {
            prog,
            image,
            layers,
            next_elem,
            phase,
            entries_produced,
            steps,
        } = src;
        self.prog.clone_from(prog);
        self.image.clone_from(image);
        self.layers.clone_from(layers);
        (self.next_elem, self.phase) = (*next_elem, *phase);
        (self.entries_produced, self.steps) = (*entries_produced, *steps);
    }
}

impl Interp {
    /// Creates an interpreter positioned before the first step.
    pub fn new(prog: Arc<Program>, image: Arc<MemImage>) -> Self {
        let layers = prog
            .layers
            .iter()
            .map(|l| vec![LaneRt::default(); l.tus.len()])
            .collect();
        let mut interp = Self {
            prog,
            image,
            layers,
            next_elem: 0,
            phase: Phase::Start(0),
            entries_produced: 0,
            steps: 0,
        };
        interp.init_root();
        interp
    }

    /// Elements (stream loads) issued so far — the next [`ElemId`] this
    /// interpreter will hand out. The timing model uses it after a context
    /// restore to rebase its ready-tracking ring.
    pub fn elems_issued(&self) -> ElemId {
        self.next_elem
    }

    /// Steps produced so far: the step this interpreter resumes at.
    pub fn steps_generated(&self) -> u64 {
        self.steps
    }

    /// Elements TU `(layer, lane)` has consumed: every element it peeked
    /// except a head still waiting to be consumed. At a step boundary this
    /// is the TU's committed consumption, which the §5.5 queue-capacity
    /// check counts from.
    pub fn consumed_elems(&self, layer: usize, lane: usize) -> u64 {
        let rt = &self.layers[layer][lane];
        rt.peeked - u64::from(rt.has_cur)
    }

    /// Rebinds the memory image the interpreter reads from.
    pub(crate) fn rebind(&mut self, image: Arc<MemImage>) {
        self.image = image;
    }

    fn init_root(&mut self) {
        for (rt, tu) in self.layers[0].iter_mut().zip(&self.prog.layers[0].tus) {
            match tu.traversal {
                TraversalDef::Dns { beg, end, stride } => {
                    rt.active = true;
                    rt.i = beg;
                    rt.beg = beg;
                    rt.end = end;
                    rt.stride = stride;
                }
                _ => unreachable!("validated: root uses constant bounds"),
            }
        }
    }

    fn stream_ty(&self, r: StreamRef) -> StreamTy {
        match &self.prog.layers[r.layer].tus[r.lane].streams[r.stream] {
            StreamDef::Mem { ty, .. } => *ty,
            StreamDef::Fwd { from } => self.stream_ty(*from),
            _ => StreamTy::Index,
        }
    }

    /// Peeks the current element of `(l, lane)` into the lane's `cur`
    /// buffer, appending its loads to `loads` (their dependency lists reuse
    /// the buffers in `spare_deps`).
    fn peek(
        &mut self,
        l: usize,
        lane: usize,
        spare_deps: &mut Vec<Vec<ElemId>>,
        loads: &mut Vec<MemLoad>,
    ) {
        let rt = &mut self.layers[l][lane];
        if !rt.active || rt.has_cur || !rt.in_range() {
            return;
        }
        let (i, beg0, ordinal) = (rt.i, rt.beg, rt.peeked);
        let tu = &self.prog.layers[l].tus[lane];
        let n = tu.streams.len();
        let cur = &mut rt.cur;
        cur.vals.clear();
        cur.vals.resize(n, 0);
        cur.mem_by_stream.clear();
        cur.mem_by_stream.resize(n, None);
        cur.gates.clear();
        cur.gates.extend_from_slice(&rt.bound_deps);
        for (si, s) in tu.streams.iter().enumerate() {
            match s {
                StreamDef::Ite => cur.vals[si] = i as u64,
                StreamDef::Mem {
                    base,
                    elem,
                    index,
                    ty,
                } => {
                    let idx = match index {
                        IndexSrc::Ite => i,
                        IndexSrc::Stream(j) => cur.vals[*j] as i64,
                        IndexSrc::RelItePlus(j) => (i - beg0) + cur.vals[*j] as i64,
                    };
                    let addr = (*base as i64 + idx * *elem as i64) as u64;
                    cur.vals[si] = match ty {
                        StreamTy::Index => self.image.read_index(addr) as u64,
                        StreamTy::Value => self.image.read_bits(addr),
                    };
                    let id = self.next_elem;
                    self.next_elem += 1;
                    let mut deps = spare_deps.pop().unwrap_or_default();
                    deps.clear();
                    deps.extend_from_slice(&rt.bound_deps);
                    if let IndexSrc::Stream(j) | IndexSrc::RelItePlus(j) = index {
                        if let Some(dep) = cur.mem_by_stream[*j] {
                            deps.push(dep);
                        }
                    }
                    loads.push(MemLoad {
                        id,
                        layer: l as u8,
                        lane: lane as u8,
                        stream: si as u8,
                        elem_ordinal: ordinal,
                        addr,
                        deps,
                    });
                    cur.mem_by_stream[si] = Some(id);
                    cur.gates.push(id);
                }
                StreamDef::Lin { a, b, of } => {
                    cur.vals[si] = (a * (cur.vals[*of] as i64) + b) as u64;
                }
                StreamDef::Map { table, of } => {
                    cur.vals[si] = table
                        [(cur.vals[*of] as i64).rem_euclid(table.len() as i64) as usize]
                        as u64;
                }
                StreamDef::Ldr { base, elem, of } => {
                    cur.vals[si] = (*base as i64 + (cur.vals[*of] as i64) * *elem as i64) as u64;
                }
                StreamDef::Fwd { from } => {
                    cur.vals[si] = rt.parent_vals.get(from.stream).copied().unwrap_or(0);
                }
            }
        }
        rt.peeked += 1;
        rt.has_cur = true;
    }

    fn consume(&mut self, l: usize, lane: usize) {
        let rt = &mut self.layers[l][lane];
        assert!(rt.has_cur, "consume requires a peeked element");
        std::mem::swap(&mut rt.cur, &mut rt.last);
        rt.has_cur = false;
        rt.i += rt.stride;
    }

    fn key_of(&self, l: usize, lane: usize) -> i64 {
        let tu = &self.prog.layers[l].tus[lane];
        let k = tu.key.unwrap_or(0);
        let rt = &self.layers[l][lane];
        assert!(rt.has_cur, "key requires a peeked element");
        rt.cur.vals[k] as i64
    }

    /// The lanes of `alive` whose peeked key is the smallest: a merge
    /// step's mask.
    fn min_key_lanes(&self, l: usize, alive: u64) -> u64 {
        let lanes = 0..self.layers[l].len();
        let min = lanes
            .clone()
            .filter(|&j| alive & (1 << j) != 0)
            .map(|j| self.key_of(l, j))
            .min()
            .expect("alive non-empty");
        lanes
            .filter(|&j| alive & (1 << j) != 0 && self.key_of(l, j) == min)
            .fold(0, |m, j| m | 1 << j)
    }

    fn active_mask(&self, l: usize) -> u64 {
        let mut m = 0u64;
        for (lane, rt) in self.layers[l].iter().enumerate() {
            if rt.active {
                m |= 1 << lane;
            }
        }
        m
    }

    fn alive_mask(&self, l: usize) -> u64 {
        let mut m = 0u64;
        for (lane, rt) in self.layers[l].iter().enumerate() {
            if rt.active && rt.has_cur {
                m |= 1 << lane;
            }
        }
        m
    }

    /// Appends the fiber-bound gates of layer `l`'s active lanes.
    fn bound_gates(&self, l: usize, gates: &mut Vec<ElemId>) {
        for rt in self.layers[l].iter().filter(|rt| rt.active) {
            gates.extend_from_slice(&rt.bound_deps);
        }
    }

    /// Evaluates the callbacks registered for `event` on layer `l` into
    /// `out`, refilling the records already there in place.
    fn fill_entries(&mut self, l: usize, event: Event, mask: u64, out: &mut Vec<OutQEntry>) {
        let layer = &self.prog.layers[l];
        let mut n = 0;
        for cb in layer.callbacks.iter().filter(|cb| cb.event == event) {
            if n == out.len() {
                out.push(OutQEntry {
                    callback: cb.id,
                    mask,
                    operands: Vec::with_capacity(cb.operands.len()),
                });
            }
            let entry = &mut out[n];
            n += 1;
            entry.callback = cb.id;
            entry.mask = mask;
            entry.operands.truncate(cb.operands.len());
            for (k, op) in cb.operands.iter().enumerate() {
                if k == entry.operands.len() {
                    entry.operands.push(Operand::Mask(0));
                }
                let slot = &mut entry.operands[k];
                match &layer.operands[op.0] {
                    OperandDef::Vec { streams } => {
                        let ty = streams
                            .first()
                            .map(|&s| self.stream_ty(s))
                            .unwrap_or(StreamTy::Index);
                        if !matches!(slot, Operand::Vec { .. }) {
                            *slot = Operand::Vec {
                                vals: Vec::with_capacity(streams.len()),
                                ty,
                            };
                        }
                        let Operand::Vec { vals, ty: slot_ty } = slot else {
                            unreachable!("slot was just made a vector operand");
                        };
                        *slot_ty = ty;
                        vals.clear();
                        vals.extend(streams.iter().map(|s| {
                            if mask & (1 << s.lane) != 0 {
                                self.layers[l][s.lane].last.vals[s.stream]
                            } else {
                                0
                            }
                        }));
                    }
                    OperandDef::Mask => *slot = Operand::Mask(mask),
                    OperandDef::Scalar { stream } => {
                        *slot = Operand::Scalar {
                            val: self.layers[stream.layer][stream.lane]
                                .last
                                .vals
                                .get(stream.stream)
                                .copied()
                                .unwrap_or(0),
                            ty: self.stream_ty(*stream),
                        }
                    }
                }
            }
        }
        out.truncate(n);
        self.entries_produced += n as u64;
    }

    /// Initializes layer `l + 1`'s fibers after an `Ite` of layer `l`,
    /// refilling the child lanes' buffers in place. A lane left inactive
    /// reads as empty: no bound deps, no parent values, no last element.
    fn descend(&mut self, l: usize, mask: u64) {
        let child = l + 1;
        let parent_mode = self.prog.layers[l].mode;
        let (upper, lower) = self.layers.split_at_mut(child);
        let parents = &upper[l];
        for (tu, rt) in self.prog.layers[child].tus.iter().zip(lower[0].iter_mut()) {
            let parent_ok = match parent_mode {
                LayerMode::Single | LayerMode::Keep => true,
                _ => mask & (1 << tu.parent_lane) != 0,
            };
            let parent_rt = &parents[tu.parent_lane];
            rt.has_cur = false;
            rt.last.clear();
            rt.bound_deps.clear();
            rt.parent_vals.clear();
            if !parent_ok || !parent_rt.active {
                (rt.active, rt.i, rt.beg, rt.end, rt.stride) = (false, 0, 0, 0, 0);
                continue;
            }
            let pv = &parent_rt.last.vals;
            let pmem = &parent_rt.last.mem_by_stream;
            // `origin` is the fiber start before any lane phase offset —
            // the reference point of `IndexSrc::RelItePlus`.
            let (i, origin, end, stride) = match tu.traversal {
                TraversalDef::Dns { beg, end, stride } => (beg, beg, end, stride),
                TraversalDef::Rng {
                    beg,
                    end,
                    offset,
                    stride,
                } => {
                    let b0 = pv[beg.stream] as i64;
                    let e = pv[end.stream] as i64;
                    if let Some(Some(d)) = pmem.get(beg.stream) {
                        rt.bound_deps.push(*d);
                    }
                    if let Some(Some(d)) = pmem.get(end.stream) {
                        rt.bound_deps.push(*d);
                    }
                    (b0 + offset, b0, e, stride)
                }
                TraversalDef::Idx {
                    beg,
                    size,
                    offset,
                    stride,
                } => {
                    let b0 = pv[beg.stream] as i64;
                    if let Some(Some(d)) = pmem.get(beg.stream) {
                        rt.bound_deps.push(*d);
                    }
                    (b0 + offset, b0, b0 + size, stride)
                }
            };
            // The child also cannot outrun its parent's own fiber bounds.
            rt.bound_deps.extend_from_slice(&parent_rt.bound_deps);
            rt.bound_deps.dedup();
            rt.parent_vals.extend_from_slice(pv);
            (rt.active, rt.i, rt.beg, rt.end, rt.stride) = (true, i, origin, end, stride);
        }
        self.phase = Phase::Start(child);
    }

    /// Produces the next step, or `None` when traversal is complete.
    pub fn next_step(&mut self) -> Option<Step> {
        self.generate(&mut StepPool::default())
    }

    /// [`Interp::next_step`], refilling a record from `pool`.
    fn generate(&mut self, pool: &mut StepPool) -> Option<Step> {
        let step = match self.phase {
            Phase::Done => return None,
            Phase::Start(l) => {
                let mut step = pool.take(l, StepKind::Beg);
                step.mask = self.active_mask(l);
                self.bound_gates(l, &mut step.gates);
                self.phase = Phase::Step(l);
                self.fill_entries(l, Event::Beg, step.mask, &mut step.entries);
                step
            }
            Phase::Step(l) => self.group_step(l, pool),
        };
        self.steps += 1;
        Some(step)
    }

    fn end_step(&mut self, l: usize, step: &mut Step) {
        step.mask = self.active_mask(l);
        self.bound_gates(l, &mut step.gates);
        // A conjunctive merge ends as soon as one fiber is exhausted;
        // elements already peeked on the other lanes are discarded by the
        // hardware — mark them consumed so their queue slots free up.
        for (lane, rt) in self.layers[l].iter_mut().enumerate() {
            if rt.has_cur {
                rt.has_cur = false;
                step.consumed.push((l as u8, lane as u8));
            }
        }
        self.phase = if l == 0 {
            Phase::Done
        } else {
            Phase::Step(l - 1)
        };
        self.fill_entries(l, Event::End, step.mask, &mut step.entries);
    }

    fn group_step(&mut self, l: usize, pool: &mut StepPool) -> Step {
        let mode = self.prog.layers[l].mode;
        let lanes = self.prog.layers[l].tus.len();
        let mut loads = std::mem::take(&mut pool.loads);
        for lane in 0..lanes {
            self.peek(l, lane, &mut pool.deps, &mut loads);
        }
        let active = self.active_mask(l);
        let alive = self.alive_mask(l);

        let (mask, ended) = match mode {
            LayerMode::Single | LayerMode::Keep | LayerMode::LockStep => (alive, alive == 0),
            LayerMode::DisjMrg if alive != 0 => (self.min_key_lanes(l, alive), false),
            LayerMode::ConjMrg if active != 0 && alive == active => {
                (self.min_key_lanes(l, alive), false)
            }
            LayerMode::DisjMrg | LayerMode::ConjMrg => (0, true),
        };
        // Conjunctive merge only emits when all active lanes participate.
        let kind = if ended {
            StepKind::End
        } else if mode == LayerMode::ConjMrg && mask != active {
            StepKind::Skip
        } else {
            StepKind::Ite
        };
        let mut step = pool.take(l, kind);
        std::mem::swap(&mut step.loads, &mut loads);
        pool.loads = loads;
        if ended {
            self.end_step(l, &mut step);
            return step;
        }

        // Consume the participating lanes, gathering gates.
        step.mask = mask;
        for j in 0..lanes {
            if mask & (1 << j) != 0 {
                step.gates.extend_from_slice(&self.layers[l][j].cur.gates);
                self.consume(l, j);
                step.consumed.push((l as u8, j as u8));
            }
        }
        if kind == StepKind::Ite {
            self.fill_entries(l, Event::Ite, mask, &mut step.entries);
            if l + 1 < self.prog.layers.len() {
                self.descend(l, mask);
            }
        }
        step
    }
}

/// Retired step records and load-dependency buffers, refilled in place so
/// their vectors keep their capacity.
#[derive(Debug, Default)]
struct StepPool {
    /// Spare records by `layer * 4 + kind`: a record refilled for the same
    /// layer and kind already holds entries of the right shape.
    steps: Vec<Vec<Step>>,
    /// Spare [`MemLoad::deps`] buffers.
    deps: Vec<Vec<ElemId>>,
    /// The loads of the step being generated, gathered before its kind is
    /// known.
    loads: Vec<MemLoad>,
}

impl StepPool {
    fn slot(layer: usize, kind: StepKind) -> usize {
        layer * 4 + kind as usize
    }

    fn take(&mut self, layer: usize, kind: StepKind) -> Step {
        self.steps
            .get_mut(Self::slot(layer, kind))
            .and_then(Vec::pop)
            .unwrap_or_else(|| Step {
                layer: layer as u8,
                kind,
                mask: 0,
                loads: Vec::new(),
                gates: Vec::new(),
                consumed: Vec::new(),
                entries: Vec::new(),
            })
    }

    fn put(&mut self, mut step: Step) {
        self.deps.extend(step.loads.drain(..).map(|ld| ld.deps));
        step.gates.clear();
        step.consumed.clear();
        let slot = Self::slot(step.layer as usize, step.kind);
        if self.steps.len() <= slot {
            self.steps.resize_with(slot + 1, Vec::new);
        }
        self.steps[slot].push(step);
    }
}

/// Runs a program to completion functionally, returning every outQ entry
/// in order (convenience for tests and small examples).
pub fn run_functional(prog: &Arc<Program>, image: &Arc<MemImage>) -> Vec<OutQEntry> {
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    let mut out = Vec::new();
    while let Some(step) = interp.next_step() {
        out.extend(step.entries);
    }
    out
}

/// Runs a program to completion, handing each outQ entry to `f`.
pub fn for_each_entry(prog: &Arc<Program>, image: &Arc<MemImage>, mut f: impl FnMut(&OutQEntry)) {
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    let mut pool = StepPool::default();
    while let Some(step) = interp.generate(&mut pool) {
        for e in &step.entries {
            f(e);
        }
        pool.put(step);
    }
}

/// Batches steps from an interpreter (used by the timing engine).
///
/// The consumer hands every step back through [`StepBatcher::commit`] once
/// it commits, and every load through [`StepBatcher::recycle_load`] once it
/// issues; the interpreter refills those records in place, so a warm
/// batcher allocates nothing per step. Every [`STEP_BATCH`] generated steps
/// the batcher also checkpoints the interpreter, keeping the newest
/// checkpoint at or before the committed step for a context save.
#[derive(Debug)]
pub struct StepBatcher {
    interp: Interp,
    buf: VecDeque<Step>,
    done: bool,
    pool: StepPool,
    /// Steps handed back through `commit`, counted from step 0.
    committed: u64,
    /// Interpreter checkpoints in step order. The first retires once the
    /// second is at or before `committed`.
    checkpoints: VecDeque<Interp>,
    /// Retired checkpoint slots, refilled in place by the next checkpoint.
    spare: Vec<Interp>,
}

impl StepBatcher {
    /// Wraps an interpreter. Every step it already produced counts as
    /// committed, and an interpreter past step 0 (a restored one) is kept
    /// as the first checkpoint, so a save before the next checkpoint still
    /// finds one.
    pub fn new(interp: Interp) -> Self {
        let checkpoints = if interp.steps > 0 {
            VecDeque::from([interp.clone()])
        } else {
            VecDeque::new()
        };
        Self {
            committed: interp.steps,
            interp,
            buf: VecDeque::new(),
            done: false,
            pool: StepPool::default(),
            checkpoints,
            spare: Vec::new(),
        }
    }

    /// Ensures at least `n` steps are buffered (or the stream has ended);
    /// returns whether any remain.
    pub fn fill(&mut self, n: usize) -> bool {
        while self.buf.len() < n && !self.done {
            match self.interp.generate(&mut self.pool) {
                Some(s) => {
                    self.buf.push_back(s);
                    if self.interp.steps.is_multiple_of(STEP_BATCH as u64) {
                        let slot = match self.spare.pop() {
                            Some(mut slot) => {
                                slot.clone_from(&self.interp);
                                slot
                            }
                            None => self.interp.clone(),
                        };
                        self.checkpoints.push_back(slot);
                    }
                }
                None => self.done = true,
            }
        }
        !self.buf.is_empty()
    }

    /// Pops the next buffered step.
    pub fn pop(&mut self) -> Option<Step> {
        self.buf.pop_front()
    }

    /// Hands back a committed step (steps commit in the order they were
    /// popped): its record is recycled, and a checkpoint retires once a
    /// newer one is at or before the committed step.
    pub fn commit(&mut self, step: Step) {
        self.committed += 1;
        self.pool.put(step);
        while self
            .checkpoints
            .get(1)
            .is_some_and(|c| c.steps <= self.committed)
        {
            let old = self.checkpoints.pop_front().expect("two checkpoints");
            self.spare.push(old);
        }
    }

    /// Hands back an issued load, recycling its dependency buffer.
    pub fn recycle_load(&mut self, load: MemLoad) {
        self.pool.deps.push(load.deps);
    }

    /// Steps committed so far, counted from step 0.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The newest checkpoint at or before the committed step, if any (a
    /// restore without one replays from step 0).
    pub fn checkpoint(&self) -> Option<&Interp> {
        self.checkpoints
            .front()
            .filter(|c| c.steps <= self.committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LayerMode, ProgramBuilder, StreamTy};
    use tmu_sim::AddressMap;

    /// Binds the Figure 1 CSR matrix and the Figure 8 SpMV program.
    fn spmv_fixture() -> (Arc<Program>, Arc<MemImage>) {
        // Figure 1 CSR: ptrs [0,2,2,3,5], idxs [0,2,1,0,3],
        // vals [a,b,c,d,e] = [1,2,3,4,5], dense vector b = [10,20,30,40].
        let mut map = AddressMap::new();
        let ptrs_r = map.alloc_elems("ptrs", 5, 4);
        let idxs_r = map.alloc_elems("idxs", 5, 4);
        let vals_r = map.alloc_elems("vals", 5, 8);
        let b_r = map.alloc_elems("b", 4, 8);
        let mut image = MemImage::new();
        image.bind_u32(ptrs_r, Arc::new(vec![0, 2, 2, 3, 5]));
        image.bind_u32(idxs_r, Arc::new(vec![0, 2, 1, 0, 3]));
        image.bind_f64(vals_r, Arc::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]));
        image.bind_f64(b_r, Arc::new(vec![10.0, 20.0, 30.0, 40.0]));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, 0, 4, 1);
        let ptbs = bld.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
        let ptes = bld.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::LockStep);
        let mut nnz = Vec::new();
        let mut vecv = Vec::new();
        for lane in 0..2i64 {
            let col = bld.rng_fbrt(l1, ptbs, ptes, lane, 2);
            let ci = bld.mem_stream(col, idxs_r.base, 4, StreamTy::Index);
            nnz.push(bld.mem_stream(col, vals_r.base, 8, StreamTy::Value));
            vecv.push(bld.mem_stream_indexed(col, b_r.base, 8, StreamTy::Value, ci));
        }
        let nnz_op = bld.vec_operand(l1, &nnz);
        let vec_op = bld.vec_operand(l1, &vecv);
        bld.callback(l1, Event::Ite, 0, &[nnz_op, vec_op]);
        bld.callback(l1, Event::End, 1, &[]);
        (Arc::new(bld.build().expect("well-formed")), Arc::new(image))
    }

    #[test]
    fn figure9_walkthrough() {
        // The Figure 9 example: SpMV inner-loop vectorized over the
        // Figure 1 matrix. Row 0 has nnzs (a@0, b@2): lanes load (a, b)
        // and (b[0], b[2]) in lockstep, then the row ends.
        let (prog, image) = spmv_fixture();
        let entries = run_functional(&prog, &image);
        // Per row: ceil(nnz/2) ri entries + 1 re entry.
        // Rows have 2, 0, 1, 2 nnz → 1 + 0 + 1 + 1 = 3 ri entries, 4 re.
        let ri: Vec<_> = entries.iter().filter(|e| e.callback == 0).collect();
        let re_count = entries.iter().filter(|e| e.callback == 1).count();
        assert_eq!(ri.len(), 3);
        assert_eq!(re_count, 4);
        // Row 0 step: nnz values (1, 2), vector values (10, 30), mask 11.
        assert_eq!(ri[0].mask, 0b11);
        assert_eq!(ri[0].operands[0].as_f64s(), vec![1.0, 2.0]);
        assert_eq!(ri[0].operands[1].as_f64s(), vec![10.0, 30.0]);
        // Row 2 has one nnz: only lane 0 participates.
        assert_eq!(ri[1].mask, 0b01);
        assert_eq!(ri[1].operands[0].as_f64s(), vec![3.0, 0.0]);
        assert_eq!(ri[1].operands[1].as_f64s(), vec![20.0, 0.0]);
        // Row 3: nnzs (d@0, e@3) → values (4,5), vector (10,40).
        assert_eq!(ri[2].operands[0].as_f64s(), vec![4.0, 5.0]);
        assert_eq!(ri[2].operands[1].as_f64s(), vec![10.0, 40.0]);
    }

    #[test]
    fn spmv_result_matches_reference() {
        let (prog, image) = spmv_fixture();
        // Host-side compute: sum += reduce(nnz*vec) per ri; store per re.
        let mut x = Vec::new();
        let mut sum = 0.0;
        for_each_entry(&prog, &image, |e| match e.callback {
            0 => {
                let nnz = e.operands[0].as_f64s();
                let vecv = e.operands[1].as_f64s();
                sum += nnz.iter().zip(&vecv).map(|(a, b)| a * b).sum::<f64>();
            }
            1 => {
                x.push(sum);
                sum = 0.0;
            }
            _ => unreachable!(),
        });
        // Reference: row0 = 1*10 + 2*30 = 70; row1 = 0; row2 = 3*20 = 60;
        // row3 = 4*10 + 5*40 = 240.
        assert_eq!(x, vec![70.0, 0.0, 60.0, 240.0]);
    }

    #[test]
    fn loads_have_dependencies_and_ordinals() {
        let (prog, image) = spmv_fixture();
        let mut interp = Interp::new(prog, image);
        let mut loads = Vec::new();
        while let Some(s) = interp.next_step() {
            loads.extend(s.loads);
        }
        // Vector-value loads (chained) must depend on their column-index
        // load; bound deps point at the row-pointer loads.
        let chained: Vec<_> = loads
            .iter()
            .filter(|ld| ld.layer == 1 && !ld.deps.is_empty())
            .collect();
        assert!(!chained.is_empty());
        let with_three_deps = loads.iter().filter(|ld| ld.deps.len() >= 3).count();
        assert!(
            with_three_deps > 0,
            "b[idx] loads carry bounds + index deps"
        );
        // Ordinals increase per TU.
        let mut last = std::collections::HashMap::new();
        for ld in &loads {
            let k = (ld.layer, ld.lane);
            let prev = last.insert(k, ld.elem_ordinal);
            if let Some(p) = prev {
                assert!(ld.elem_ordinal >= p, "ordinals must be monotonic");
            }
        }
    }

    #[test]
    fn disjunctive_merge_matches_oracle() {
        // Two singleton fibers merged disjunctively; compare against the
        // tmu-tensor reference merge of Figure 2.
        let mut map = AddressMap::new();
        let ai = map.alloc_elems("ai", 3, 4);
        let av = map.alloc_elems("av", 3, 8);
        let bi = map.alloc_elems("bi", 3, 4);
        let bv = map.alloc_elems("bv", 3, 8);
        let mut image = MemImage::new();
        image.bind_u32(ai, Arc::new(vec![0, 2, 5]));
        image.bind_f64(av, Arc::new(vec![1.0, 2.0, 5.0]));
        image.bind_u32(bi, Arc::new(vec![2, 3, 5]));
        image.bind_f64(bv, Arc::new(vec![3.0, 4.0, 6.0]));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::DisjMrg);
        let ta = bld.dns_fbrt(l0, 0, 3, 1);
        let ka = bld.mem_stream(ta, ai.base, 4, StreamTy::Index);
        let va = bld.mem_stream(ta, av.base, 8, StreamTy::Value);
        let tb = bld.dns_fbrt(l0, 0, 3, 1);
        let kb = bld.mem_stream(tb, bi.base, 4, StreamTy::Index);
        let vb = bld.mem_stream(tb, bv.base, 8, StreamTy::Value);
        bld.set_key(ta, ka);
        bld.set_key(tb, kb);
        let vals = bld.vec_operand(l0, &[va, vb]);
        let keys = bld.vec_operand(l0, &[ka, kb]);
        let mask = bld.mask_operand(l0);
        bld.callback(l0, Event::Ite, 7, &[keys, vals, mask]);
        let prog = Arc::new(bld.build().expect("well-formed"));
        let image = Arc::new(image);

        let entries = run_functional(&prog, &image);
        let masks: Vec<u64> = entries.iter().map(|e| e.mask).collect();
        // Figure 2 disjunctive: masks 01, 11, 10, 11 (bit0 = fiber A).
        assert_eq!(masks, vec![0b01, 0b11, 0b10, 0b11]);
        let sums: Vec<f64> = entries
            .iter()
            .map(|e| e.operands[1].as_f64s().iter().sum())
            .collect();
        assert_eq!(sums, vec![1.0, 5.0, 4.0, 11.0]);
    }

    #[test]
    fn conjunctive_merge_intersects() {
        let mut map = AddressMap::new();
        let ai = map.alloc_elems("ai", 3, 4);
        let av = map.alloc_elems("av", 3, 8);
        let bi = map.alloc_elems("bi", 3, 4);
        let bv = map.alloc_elems("bv", 3, 8);
        let mut image = MemImage::new();
        image.bind_u32(ai, Arc::new(vec![0, 2, 5]));
        image.bind_f64(av, Arc::new(vec![1.0, 2.0, 5.0]));
        image.bind_u32(bi, Arc::new(vec![2, 3, 5]));
        image.bind_f64(bv, Arc::new(vec![3.0, 4.0, 6.0]));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::ConjMrg);
        let ta = bld.dns_fbrt(l0, 0, 3, 1);
        let ka = bld.mem_stream(ta, ai.base, 4, StreamTy::Index);
        let va = bld.mem_stream(ta, av.base, 8, StreamTy::Value);
        let tb = bld.dns_fbrt(l0, 0, 3, 1);
        let kb = bld.mem_stream(tb, bi.base, 4, StreamTy::Index);
        let vb = bld.mem_stream(tb, bv.base, 8, StreamTy::Value);
        bld.set_key(ta, ka);
        bld.set_key(tb, kb);
        let vals = bld.vec_operand(l0, &[va, vb]);
        bld.callback(l0, Event::Ite, 3, &[vals]);
        let prog = Arc::new(bld.build().expect("well-formed"));
        let image = Arc::new(image);

        let entries = run_functional(&prog, &image);
        let prods: Vec<f64> = entries
            .iter()
            .map(|e| e.operands[0].as_f64s().iter().product())
            .collect();
        // Intersection at coordinates 2 and 5: 2·3 and 5·6.
        assert_eq!(prods, vec![6.0, 30.0]);
    }

    #[test]
    fn lockstep_emits_begin_and_end_events() {
        let (prog, image) = spmv_fixture();
        let mut interp = Interp::new(prog, image);
        let mut kinds = Vec::new();
        while let Some(s) = interp.next_step() {
            kinds.push((s.layer, s.kind));
        }
        // Outer traversal: Beg(0) ... End(0); each row wraps an inner
        // Beg(1)/End(1) pair.
        assert_eq!(kinds.first(), Some(&(0, StepKind::Beg)));
        assert_eq!(kinds.last(), Some(&(0, StepKind::End)));
        let inner_begs = kinds.iter().filter(|k| **k == (1, StepKind::Beg)).count();
        let inner_ends = kinds.iter().filter(|k| **k == (1, StepKind::End)).count();
        assert_eq!(inner_begs, 4, "one inner traversal per row");
        assert_eq!(inner_begs, inner_ends);
    }

    #[test]
    fn keep_mode_selects_one_lane_of_a_parallel_group() {
        // Two lockstep lanes load different pointer pairs; a Keep child
        // bound to lane 1 must traverse only lane 1's fiber.
        let mut map = AddressMap::new();
        let p0 = map.alloc_elems("p0", 2, 4);
        let p1 = map.alloc_elems("p1", 2, 4);
        let vals = map.alloc_elems("vals", 8, 8);
        let mut image = MemImage::new();
        image.bind_u32(p0, Arc::new(vec![0, 2])); // lane 0's fiber: [0, 2)
        image.bind_u32(p1, Arc::new(vec![4, 7])); // lane 1's fiber: [4, 7)
        image.bind_f64(vals, Arc::new((0..8).map(f64::from).collect()));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::LockStep);
        let t0 = bld.dns_fbrt(l0, 0, 1, 1);
        let b0 = bld.mem_stream(t0, p0.base, 4, StreamTy::Index);
        let e0 = bld.mem_stream(t0, p0.base + 4, 4, StreamTy::Index);
        let t1 = bld.dns_fbrt(l0, 0, 1, 1);
        let b1 = bld.mem_stream(t1, p1.base, 4, StreamTy::Index);
        let e1 = bld.mem_stream(t1, p1.base + 4, 4, StreamTy::Index);
        let _ = (b0, e0);
        let l1 = bld.layer(LayerMode::Keep);
        let kept = bld.rng_fbrt(l1, b1, e1, 0, 1);
        bld.bind_parent(kept, 1);
        let v = bld.mem_stream(kept, vals.base, 8, StreamTy::Value);
        let op = bld.vec_operand(l1, &[v]);
        bld.callback(l1, Event::Ite, 0, &[op]);
        let prog = Arc::new(bld.build().expect("well-formed"));

        let entries = run_functional(&prog, &Arc::new(image));
        let got: Vec<f64> = entries.iter().map(|e| e.operands[0].as_f64s()[0]).collect();
        assert_eq!(got, vec![4.0, 5.0, 6.0], "Keep must follow lane 1 only");
    }

    #[test]
    fn empty_matrix_produces_no_ite() {
        let mut map = AddressMap::new();
        let ptrs_r = map.alloc_elems("ptrs", 3, 4);
        let idxs_r = map.alloc_elems("idxs", 1, 4);
        let vals_r = map.alloc_elems("vals", 1, 8);
        let mut image = MemImage::new();
        image.bind_u32(ptrs_r, Arc::new(vec![0, 0, 0]));
        image.bind_u32(idxs_r, Arc::new(vec![0]));
        image.bind_f64(vals_r, Arc::new(vec![0.0]));
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, 0, 2, 1);
        let ptbs = bld.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
        let ptes = bld.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::Single);
        let col = bld.rng_fbrt(l1, ptbs, ptes, 0, 1);
        let v = bld.mem_stream(col, vals_r.base, 8, StreamTy::Value);
        let op = bld.vec_operand(l1, &[v]);
        bld.callback(l1, Event::Ite, 0, &[op]);
        let prog = Arc::new(bld.build().expect("well-formed"));
        let entries = run_functional(&prog, &Arc::new(image));
        assert!(entries.is_empty(), "empty rows trigger no iteration");
    }
}
