//! Functional interpreter of TMU programs.
//!
//! Produces, lazily and in nested-loop order, the stream of traversal-group
//! steps a configured TMU performs: which elements each TU loads (with
//! their dependency edges), how the traversal groups merge/co-iterate lanes
//! (§5.2), and which outQ entries the registered callbacks push (§5.3).
//! The timing engine ([`crate::TmuAccelerator`]) replays this stream
//! against the simulated memory hierarchy; the functional content (operand
//! values) is computed here from the bound [`MemImage`].
//!
//! One generator writes every step into a sink. The timing engine's
//! [`StepBatcher`] sends its loads to the engine's stream queues and keeps
//! its gates and operand words in flat rings; [`Interp::next_step`]
//! collects the same records into an owned [`Step`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::image::MemImage;
use crate::program::{
    Event, IndexSrc, LayerMode, OperandDef, Program, StreamDef, StreamTy, TraversalDef,
};
use crate::steps::{
    ElemId, EntryShapes, MemLoad, OutQEntry, PendingStep, Step, StepKind, MAX_LOAD_DEPS,
};

/// The interval at which a [`StepBatcher`] checkpoints the interpreter: a
/// context restore replays fewer than this many steps.
pub const STEP_BATCH: usize = 64;

/// The load id of an element's stream that loads nothing.
const NO_LOAD: ElemId = ElemId::MAX;

/// Where one TU's buffers sit in an interpreter's word arena; fixed by the
/// program. A TU keeps two element slots (the peeked head and the last
/// consumed element, swapped on consume), each with one value and one load
/// id per stream; then the head's gates, its fiber's bound loads and the
/// values forwarded from its parent element.
#[derive(Debug, Clone, Copy)]
struct TuLayout {
    /// First arena word.
    at: usize,
    /// Streams of the TU.
    streams: usize,
    /// Most gates the head carries: the fiber's bounds and one load per
    /// `mem` stream.
    gates: usize,
    /// Most bound loads a fiber of the TU waits on: two per `RngFbrT` and
    /// one per `IdxFbrT` on the path from the root.
    bound: usize,
    /// Streams of the parent TU.
    parent: usize,
}

impl TuLayout {
    fn vals(&self, slot: usize) -> usize {
        self.at + slot * self.streams
    }

    fn loads(&self, slot: usize) -> usize {
        self.at + (2 + slot) * self.streams
    }

    fn gates(&self) -> usize {
        self.at + 4 * self.streams
    }

    fn bound(&self) -> usize {
        self.gates() + self.gates
    }

    fn parent(&self) -> usize {
        self.bound() + self.bound
    }

    fn end(&self) -> usize {
        self.parent() + self.parent
    }
}

/// The arena layout of every TU of a program, numbered layer by layer.
#[derive(Debug)]
struct Layout {
    /// Number of the first TU of each layer.
    layer_at: Vec<usize>,
    tus: Vec<TuLayout>,
}

impl Layout {
    fn new(prog: &Program) -> Self {
        let mut layer_at: Vec<usize> = Vec::with_capacity(prog.layers.len());
        let mut tus: Vec<TuLayout> = Vec::new();
        for layer in &prog.layers {
            let parents = layer_at.last().copied();
            layer_at.push(tus.len());
            for tu in &layer.tus {
                let parent = parents.map(|first| tus[first + tu.parent_lane]);
                let own = match tu.traversal {
                    TraversalDef::Dns { .. } => 0,
                    TraversalDef::Rng { .. } => 2,
                    TraversalDef::Idx { .. } => 1,
                };
                let bound = own + parent.map_or(0, |p| p.bound);
                let mems = tu
                    .streams
                    .iter()
                    .filter(|s| matches!(s, StreamDef::Mem { .. }))
                    .count();
                tus.push(TuLayout {
                    at: tus.last().map_or(0, TuLayout::end),
                    streams: tu.streams.len(),
                    gates: bound + mems,
                    bound,
                    parent: parent.map_or(0, |p| p.streams),
                });
            }
        }
        Self { layer_at, tus }
    }

    fn words(&self) -> usize {
        self.tus.last().map_or(0, TuLayout::end)
    }
}

/// Runtime state of one TU (lane of a layer); its buffers live in the
/// interpreter's word arena.
#[derive(Debug, Clone, Copy, Default)]
struct LaneRt {
    active: bool,
    i: i64,
    beg: i64,
    end: i64,
    stride: i64,
    /// Bound loads of the current fiber in use.
    bound: usize,
    /// The bound loads every stream load of the fiber waits on, a prefix
    /// of them: the parent element's own, or the parent fiber's when the
    /// parent element loads none (older ancestors' are implied).
    load_bounds: usize,
    /// Values forwarded from the parent element in use.
    parent: usize,
    /// Elements peeked so far (the next element's queue-slot ordinal).
    peeked: u64,
    /// Whether slot `cur` holds a peeked, unconsumed element.
    has_cur: bool,
    /// Slot of the peeked head; the other holds the last consumed element.
    cur: usize,
    /// Whether the fiber has consumed an element (the other slot's).
    has_last: bool,
    /// Gates of the peeked head.
    gates: usize,
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start(usize),
    Step(usize),
    Done,
}

/// Receives what the generator produces for one step.
trait Sink {
    /// A load created while peeking an element.
    fn load(&mut self, load: MemLoad);
    /// Loads gating the step's completion.
    fn gates(&mut self, gates: &[ElemId]);
    /// The next operand word of the step's outQ entry.
    fn word(&mut self, word: u64);
}

/// Keeps nothing: a replay that only advances the interpreter.
struct Discard;

impl Sink for Discard {
    fn load(&mut self, _: MemLoad) {}
    fn gates(&mut self, _: &[ElemId]) {}
    fn word(&mut self, _: u64) {}
}

/// Collects a step's records for an owned [`Step`].
#[derive(Default)]
struct Collect {
    loads: Vec<MemLoad>,
    gates: Vec<ElemId>,
    words: Vec<u64>,
}

impl Sink for Collect {
    fn load(&mut self, load: MemLoad) {
        self.loads.push(load);
    }
    fn gates(&mut self, gates: &[ElemId]) {
        self.gates.extend_from_slice(gates);
    }
    fn word(&mut self, word: u64) {
        self.words.push(word);
    }
}

/// Keeps only the operand words (functional runs).
struct Words<'a>(&'a mut Vec<u64>);

impl Sink for Words<'_> {
    fn load(&mut self, _: MemLoad) {}
    fn gates(&mut self, _: &[ElemId]) {}
    fn word(&mut self, word: u64) {
        self.0.push(word);
    }
}

/// Lazily interprets a [`Program`] over a [`MemImage`].
///
/// Cloning one is cheap (the program and image are shared, and every TU's
/// buffers sit in one word arena) and yields an interpreter that continues
/// exactly where this one stands: the timing engine keeps such clones as
/// restart points for context restores.
#[derive(Debug)]
pub struct Interp {
    prog: Arc<Program>,
    image: Arc<MemImage>,
    layout: Arc<Layout>,
    lanes: Vec<LaneRt>,
    words: Vec<u64>,
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
            layout: Arc::clone(&self.layout),
            lanes: self.lanes.clone(),
            words: self.words.clone(),
            next_elem: self.next_elem,
            phase: self.phase,
            entries_produced: self.entries_produced,
            steps: self.steps,
        }
    }

    /// Copies into this interpreter's buffers, so a reused checkpoint
    /// slot allocates nothing once it has seen the program.
    fn clone_from(&mut self, src: &Self) {
        let Self {
            prog,
            image,
            layout,
            lanes,
            words,
            next_elem,
            phase,
            entries_produced,
            steps,
        } = src;
        self.prog.clone_from(prog);
        self.image.clone_from(image);
        self.layout.clone_from(layout);
        self.lanes.clone_from(lanes);
        self.words.clone_from(words);
        (self.next_elem, self.phase) = (*next_elem, *phase);
        (self.entries_produced, self.steps) = (*entries_produced, *steps);
    }
}

impl Interp {
    /// Creates an interpreter positioned before the first step.
    pub fn new(prog: Arc<Program>, image: Arc<MemImage>) -> Self {
        let layout = Layout::new(&prog);
        let mut interp = Self {
            lanes: vec![LaneRt::default(); layout.tus.len()],
            words: vec![0; layout.words()],
            layout: Arc::new(layout),
            prog,
            image,
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
        let rt = &self.lanes[self.tu(layer, lane)];
        rt.peeked - u64::from(rt.has_cur)
    }

    /// Rebinds the memory image the interpreter reads from.
    pub(crate) fn rebind(&mut self, image: Arc<MemImage>) {
        self.image = image;
    }

    /// Number of TU `(layer, lane)`.
    fn tu(&self, layer: usize, lane: usize) -> usize {
        self.layout.layer_at[layer] + lane
    }

    /// The TU numbers of layer `l`.
    fn layer_tus(&self, l: usize) -> std::ops::Range<usize> {
        let first = self.layout.layer_at[l];
        first..first + self.prog.layers[l].tus.len()
    }

    fn init_root(&mut self) {
        for (rt, tu) in self.lanes.iter_mut().zip(&self.prog.layers[0].tus) {
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

    /// Value of stream `stream` in the last element TU `t` consumed, if
    /// its fiber has consumed one.
    fn last_val(&self, t: usize, stream: usize) -> Option<u64> {
        let rt = &self.lanes[t];
        rt.has_last
            .then(|| self.words[self.layout.tus[t].vals(rt.cur ^ 1) + stream])
    }

    /// Peeks the current element of `(l, lane)` into the lane's head slot,
    /// handing its loads to `sink`.
    fn peek(&mut self, l: usize, lane: usize, sink: &mut impl Sink) {
        let t = self.tu(l, lane);
        let rt = self.lanes[t];
        if !rt.active || rt.has_cur || !rt.in_range() {
            return;
        }
        let lay = self.layout.tus[t];
        let (vals, loads, gates) = (lay.vals(rt.cur), lay.loads(rt.cur), lay.gates());
        let w = &mut self.words;
        w[vals..vals + lay.streams].fill(0);
        w[loads..loads + lay.streams].fill(NO_LOAD);
        w.copy_within(lay.bound()..lay.bound() + rt.bound, gates);
        let mut n_gates = rt.bound;
        let i = rt.i;
        for (si, s) in self.prog.layers[l].tus[lane].streams.iter().enumerate() {
            w[vals + si] = match s {
                StreamDef::Ite => i as u64,
                StreamDef::Mem {
                    base,
                    elem,
                    index,
                    ty,
                } => {
                    let idx = match index {
                        IndexSrc::Ite => i,
                        IndexSrc::Stream(j) => w[vals + j] as i64,
                        IndexSrc::RelItePlus(j) => (i - rt.beg) + w[vals + j] as i64,
                    };
                    let addr = (*base as i64 + idx * *elem as i64) as u64;
                    let id = self.next_elem;
                    self.next_elem += 1;
                    let mut load = MemLoad {
                        id,
                        layer: l as u8,
                        lane: lane as u8,
                        stream: si as u8,
                        n_deps: 0,
                        elem_ordinal: rt.peeked,
                        addr,
                        deps: [0; MAX_LOAD_DEPS],
                    };
                    for k in 0..rt.load_bounds {
                        load.push_dep(w[lay.bound() + k]);
                    }
                    if let IndexSrc::Stream(j) | IndexSrc::RelItePlus(j) = index {
                        if w[loads + j] != NO_LOAD {
                            load.push_dep(w[loads + j]);
                        }
                    }
                    sink.load(load);
                    w[loads + si] = id;
                    w[gates + n_gates] = id;
                    n_gates += 1;
                    match ty {
                        StreamTy::Index => self.image.read_index(addr) as u64,
                        StreamTy::Value => self.image.read_bits(addr),
                    }
                }
                StreamDef::Lin { a, b, of } => (a * (w[vals + of] as i64) + b) as u64,
                StreamDef::Map { table, of } => {
                    table[(w[vals + of] as i64).rem_euclid(table.len() as i64) as usize] as u64
                }
                StreamDef::Ldr { base, elem, of } => {
                    (*base as i64 + (w[vals + of] as i64) * *elem as i64) as u64
                }
                StreamDef::Fwd { from } if from.stream < rt.parent => w[lay.parent() + from.stream],
                StreamDef::Fwd { .. } => 0,
            };
        }
        let rt = &mut self.lanes[t];
        rt.peeked += 1;
        rt.has_cur = true;
        rt.gates = n_gates;
    }

    fn consume(&mut self, t: usize) {
        let rt = &mut self.lanes[t];
        assert!(rt.has_cur, "consume requires a peeked element");
        rt.cur ^= 1;
        (rt.has_cur, rt.has_last) = (false, true);
        rt.i += rt.stride;
    }

    fn key_of(&self, l: usize, lane: usize) -> i64 {
        let k = self.prog.layers[l].tus[lane].key.unwrap_or(0);
        let t = self.tu(l, lane);
        let rt = &self.lanes[t];
        assert!(rt.has_cur, "key requires a peeked element");
        self.words[self.layout.tus[t].vals(rt.cur) + k] as i64
    }

    /// The lanes of `alive` whose peeked key is the smallest: a merge
    /// step's mask.
    fn min_key_lanes(&self, l: usize, alive: u64) -> u64 {
        let lanes = 0..self.prog.layers[l].tus.len();
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
        self.lanes[self.layer_tus(l)]
            .iter()
            .enumerate()
            .filter(|(_, rt)| rt.active)
            .fold(0, |m, (lane, _)| m | 1 << lane)
    }

    fn alive_mask(&self, l: usize) -> u64 {
        self.lanes[self.layer_tus(l)]
            .iter()
            .enumerate()
            .filter(|(_, rt)| rt.active && rt.has_cur)
            .fold(0, |m, (lane, _)| m | 1 << lane)
    }

    /// Hands the fiber-bound gates of layer `l`'s active lanes to `sink`.
    fn bound_gates(&self, l: usize, sink: &mut impl Sink) {
        for t in self.layer_tus(l) {
            let rt = &self.lanes[t];
            if rt.active {
                let at = self.layout.tus[t].bound();
                sink.gates(&self.words[at..at + rt.bound]);
            }
        }
    }

    /// Hands `sink` the operand words of the entry layer `l`'s callback on
    /// `event` pushes, in [`EntryShapes::refill`] order; returns whether
    /// the layer registers one.
    fn entry_words(&mut self, l: usize, event: Event, mask: u64, sink: &mut impl Sink) -> bool {
        let layer = &self.prog.layers[l];
        let Some(cb) = layer.callbacks.iter().find(|cb| cb.event == event) else {
            return false;
        };
        for op in &cb.operands {
            match &layer.operands[op.0] {
                OperandDef::Vec { streams } => {
                    for s in streams {
                        sink.word(if mask & (1 << s.lane) != 0 {
                            self.last_val(self.tu(l, s.lane), s.stream)
                                .expect("a lane of the step's mask consumed an element")
                        } else {
                            0
                        });
                    }
                }
                OperandDef::Mask => {}
                OperandDef::Scalar { stream } => sink.word(
                    self.last_val(self.tu(stream.layer, stream.lane), stream.stream)
                        .unwrap_or(0),
                ),
            }
        }
        self.entries_produced += 1;
        true
    }

    /// Initializes layer `l + 1`'s fibers after an `Ite` of layer `l`. A
    /// lane left inactive reads as empty: no bound deps, no parent values,
    /// no last element.
    fn descend(&mut self, l: usize, mask: u64) {
        let child = l + 1;
        let parent_mode = self.prog.layers[l].mode;
        for (lane, tu) in self.prog.layers[child].tus.iter().enumerate() {
            let (t, p) = (self.tu(child, lane), self.tu(l, tu.parent_lane));
            let parent_ok = match parent_mode {
                LayerMode::Single | LayerMode::Keep => true,
                _ => mask & (1 << tu.parent_lane) != 0,
            };
            let prt = self.lanes[p];
            let rt = &mut self.lanes[t];
            rt.has_cur = false;
            rt.has_last = false;
            (rt.bound, rt.parent, rt.load_bounds) = (0, 0, 0);
            if !parent_ok || !prt.active {
                (rt.active, rt.i, rt.beg, rt.end, rt.stride) = (false, 0, 0, 0, 0);
                continue;
            }
            let (lay, play) = (self.layout.tus[t], self.layout.tus[p]);
            let last = prt.cur ^ 1;
            let held = prt.has_last;
            let w = &mut self.words;
            // The parent element's value and load of stream `k`.
            let val = |w: &[u64], k: usize| {
                assert!(held, "a fiber descends from a consumed parent element");
                w[play.vals(last) + k] as i64
            };
            let load = |w: &[u64], k: usize| {
                Some(w[play.loads(last) + k]).filter(|&id| held && id != NO_LOAD)
            };
            // `origin` is the fiber start before any lane phase offset —
            // the reference point of `IndexSrc::RelItePlus`.
            let mut own = [None; 2];
            let (i, origin, end, stride) = match tu.traversal {
                TraversalDef::Dns { beg, end, stride } => (beg, beg, end, stride),
                TraversalDef::Rng {
                    beg,
                    end,
                    offset,
                    stride,
                } => {
                    let (b0, e) = (val(w, beg.stream), val(w, end.stream));
                    own = [load(w, beg.stream), load(w, end.stream)];
                    (b0 + offset, b0, e, stride)
                }
                TraversalDef::Idx {
                    beg,
                    size,
                    offset,
                    stride,
                } => {
                    let b0 = val(w, beg.stream);
                    own[0] = load(w, beg.stream);
                    (b0 + offset, b0, b0 + size, stride)
                }
            };
            // The fiber's bounds: the parent element's loads, then those
            // of the parent's fiber (the child also cannot outrun it),
            // without consecutive repeats.
            let at = lay.bound();
            let parent_bound = play.bound()..play.bound() + prt.bound;
            for dep in own.into_iter().flatten() {
                push_distinct(w, at, &mut rt.bound, dep);
            }
            rt.load_bounds = if rt.bound > 0 {
                rt.bound
            } else {
                prt.load_bounds
            };
            for k in parent_bound {
                let dep = w[k];
                push_distinct(w, at, &mut rt.bound, dep);
            }
            if held {
                rt.parent = play.streams;
                w.copy_within(
                    play.vals(last)..play.vals(last) + play.streams,
                    lay.parent(),
                );
            }
            (rt.active, rt.i, rt.beg, rt.end, rt.stride) = (true, i, origin, end, stride);
        }
        self.phase = Phase::Start(child);
    }

    /// Produces the next step, or `None` when traversal is complete.
    pub fn next_step(&mut self) -> Option<Step> {
        let mut sink = Collect::default();
        let step = self.generate(&mut sink)?;
        Some(Step::view(
            &self.prog,
            step,
            sink.loads,
            sink.gates,
            &sink.words,
        ))
    }

    /// Advances past the next step, keeping none of its records; returns
    /// whether there was one.
    pub(crate) fn skip_step(&mut self) -> bool {
        self.generate(&mut Discard).is_some()
    }

    /// The generator: produces the next step's header and hands its
    /// loads, gates and operand words to `sink`.
    fn generate(&mut self, sink: &mut impl Sink) -> Option<PendingStep> {
        let step = match self.phase {
            Phase::Done => return None,
            Phase::Start(l) => {
                let mask = self.active_mask(l);
                self.bound_gates(l, sink);
                self.phase = Phase::Step(l);
                let pushes = self.entry_words(l, Event::Beg, mask, sink);
                header(l, StepKind::Beg, mask, 0, pushes)
            }
            Phase::Step(l) => self.group_step(l, sink),
        };
        self.steps += 1;
        Some(step)
    }

    fn end_step(&mut self, l: usize, sink: &mut impl Sink) -> PendingStep {
        let mask = self.active_mask(l);
        self.bound_gates(l, sink);
        // A conjunctive merge ends as soon as one fiber is exhausted;
        // elements already peeked on the other lanes are discarded by the
        // hardware — mark them consumed so their queue slots free up.
        let mut consumed = 0;
        for (lane, t) in self.layer_tus(l).enumerate() {
            let rt = &mut self.lanes[t];
            if rt.has_cur {
                rt.has_cur = false;
                consumed |= 1 << lane;
            }
        }
        self.phase = if l == 0 {
            Phase::Done
        } else {
            Phase::Step(l - 1)
        };
        let pushes = self.entry_words(l, Event::End, mask, sink);
        header(l, StepKind::End, mask, consumed, pushes)
    }

    fn group_step(&mut self, l: usize, sink: &mut impl Sink) -> PendingStep {
        let mode = self.prog.layers[l].mode;
        let lanes = self.prog.layers[l].tus.len();
        for lane in 0..lanes {
            self.peek(l, lane, sink);
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
        if ended {
            return self.end_step(l, sink);
        }
        // Conjunctive merge only emits when all active lanes participate.
        let kind = if mode == LayerMode::ConjMrg && mask != active {
            StepKind::Skip
        } else {
            StepKind::Ite
        };

        // Consume the participating lanes, gathering gates.
        for (lane, t) in self.layer_tus(l).enumerate() {
            if mask & (1 << lane) != 0 {
                let rt = &self.lanes[t];
                let at = self.layout.tus[t].gates();
                sink.gates(&self.words[at..at + rt.gates]);
                self.consume(t);
            }
        }
        let mut pushes = false;
        if kind == StepKind::Ite {
            pushes = self.entry_words(l, Event::Ite, mask, sink);
            if l + 1 < self.prog.layers.len() {
                self.descend(l, mask);
            }
        }
        header(l, kind, mask, mask, pushes)
    }
}

/// Appends `dep` to the `len` words at `at` unless it repeats the last.
fn push_distinct(w: &mut [u64], at: usize, len: &mut usize, dep: ElemId) {
    if *len == 0 || w[at + *len - 1] != dep {
        w[at + *len] = dep;
        *len += 1;
    }
}

/// A step header whose gates and words the caller counts.
fn header(l: usize, kind: StepKind, mask: u64, consumed: u64, pushes: bool) -> PendingStep {
    PendingStep {
        layer: l as u8,
        kind,
        mask,
        consumed,
        pushes,
        gates: 0,
        words: 0,
    }
}

/// Runs a program to completion functionally, returning every outQ entry
/// in order (convenience for tests and small examples).
pub fn run_functional(prog: &Arc<Program>, image: &Arc<MemImage>) -> Vec<OutQEntry> {
    let mut out = Vec::new();
    for_each_entry(prog, image, |e| out.push(e.clone()));
    out
}

/// Runs a program to completion, handing each outQ entry to `f`.
pub fn for_each_entry(prog: &Arc<Program>, image: &Arc<MemImage>, mut f: impl FnMut(&OutQEntry)) {
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    let mut shapes = EntryShapes::new(prog);
    let mut words = Vec::new();
    while let Some(step) = interp.generate(&mut Words(&mut words)) {
        if let Some(entry) = shapes.refill(step.layer, step.kind, step.mask, words.drain(..)) {
            f(entry);
        }
    }
}

/// Writes generated steps into a [`StepBatcher`]: loads to the consumer,
/// gates and operand words to the batcher's rings.
struct Window<'a, F> {
    load: F,
    gates: &'a mut VecDeque<ElemId>,
    words: &'a mut VecDeque<u64>,
}

impl<F: FnMut(MemLoad)> Sink for Window<'_, F> {
    fn load(&mut self, load: MemLoad) {
        (self.load)(load);
    }
    fn gates(&mut self, gates: &[ElemId]) {
        self.gates.extend(gates);
    }
    fn word(&mut self, word: u64) {
        self.words.push_back(word);
    }
}

/// The timing engine's window of generated, uncommitted steps.
///
/// [`StepBatcher::generate`] appends one step: its loads go to the caller
/// (the engine's stream queues), its header to the window, and its gates
/// and operand words to two flat rings the batcher owns. Steps commit in
/// generation order, and [`StepBatcher::commit`] frees the front step's
/// share of each ring. Every buffer grows to the window's high-water mark
/// and is then reused, so a warm batcher allocates nothing per step. Every
/// [`STEP_BATCH`] generated steps the batcher also checkpoints the
/// interpreter, keeping the newest checkpoint at or before the committed
/// step for a context save.
#[derive(Debug)]
pub struct StepBatcher {
    interp: Interp,
    done: bool,
    /// Generated steps not yet committed, oldest first.
    window: VecDeque<PendingStep>,
    /// The window's gates, in generation order.
    gates: VecDeque<ElemId>,
    /// The window's operand words, in generation order.
    words: VecDeque<u64>,
    /// Steps committed, counted from step 0.
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
            done: false,
            window: VecDeque::new(),
            gates: VecDeque::new(),
            words: VecDeque::new(),
            checkpoints,
            spare: Vec::new(),
        }
    }

    /// [`StepBatcher::new`] in place: restarts from `interp` (one restored
    /// to the committed step), dropping the window but keeping every
    /// buffer and checkpoint slot.
    pub fn restart(&mut self, interp: Interp) {
        self.discard();
        self.spare.extend(self.checkpoints.drain(..));
        self.committed = interp.steps;
        self.done = false;
        if interp.steps > 0 {
            let slot = refilled(&mut self.spare, &interp);
            self.checkpoints.push_back(slot);
        }
        self.interp = interp;
    }

    /// Generates the next step into the window, handing each of its loads
    /// to `load` in creation order; returns `false` once the step stream
    /// has ended.
    pub fn generate(&mut self, load: impl FnMut(MemLoad)) -> bool {
        if self.done {
            return false;
        }
        let (gates, words) = (self.gates.len(), self.words.len());
        let mut sink = Window {
            load,
            gates: &mut self.gates,
            words: &mut self.words,
        };
        let Some(mut step) = self.interp.generate(&mut sink) else {
            self.done = true;
            return false;
        };
        step.gates = (self.gates.len() - gates) as u32;
        step.words = (self.words.len() - words) as u32;
        self.window.push_back(step);
        if self.interp.steps.is_multiple_of(STEP_BATCH as u64) {
            let slot = refilled(&mut self.spare, &self.interp);
            self.checkpoints.push_back(slot);
        }
        true
    }

    /// Steps generated and not yet committed.
    pub fn pending(&self) -> usize {
        self.window.len()
    }

    /// The oldest uncommitted step.
    pub fn front(&self) -> Option<PendingStep> {
        self.window.front().copied()
    }

    /// The gates of the oldest uncommitted step (none if there is none).
    pub fn gates(&self) -> impl Iterator<Item = ElemId> + '_ {
        let n = self.window.front().map_or(0, |s| s.gates as usize);
        self.gates.range(..n).copied()
    }

    /// The operand words of the oldest uncommitted step, in
    /// [`EntryShapes::refill`] order.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let n = self.window.front().map_or(0, |s| s.words as usize);
        self.words.range(..n).copied()
    }

    /// Commits the oldest uncommitted step, freeing its share of the
    /// rings; a checkpoint retires once a newer one is at or before the
    /// committed step.
    ///
    /// # Panics
    ///
    /// Panics if no step is pending.
    pub fn commit(&mut self) {
        let step = self.window.pop_front().expect("a pending step to commit");
        self.gates.drain(..step.gates as usize);
        self.words.drain(..step.words as usize);
        self.committed += 1;
        while self
            .checkpoints
            .get(1)
            .is_some_and(|c| c.steps <= self.committed)
        {
            let old = self.checkpoints.pop_front().expect("two checkpoints");
            self.spare.push(old);
        }
    }

    /// Drops every uncommitted step (the engine quiesced or retired).
    pub fn discard(&mut self) {
        self.window.clear();
        self.gates.clear();
        self.words.clear();
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

/// A copy of `interp` in a spare checkpoint slot, if there is one.
fn refilled(spare: &mut Vec<Interp>, interp: &Interp) -> Interp {
    match spare.pop() {
        Some(mut slot) => {
            slot.clone_from(interp);
            slot
        }
        None => interp.clone(),
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
        assert_eq!(
            ri[0].operands[0].f64s().iter().collect::<Vec<_>>(),
            vec![1.0, 2.0]
        );
        assert_eq!(
            ri[0].operands[1].f64s().iter().collect::<Vec<_>>(),
            vec![10.0, 30.0]
        );
        // Row 2 has one nnz: only lane 0 participates.
        assert_eq!(ri[1].mask, 0b01);
        assert_eq!(
            ri[1].operands[0].f64s().iter().collect::<Vec<_>>(),
            vec![3.0, 0.0]
        );
        assert_eq!(
            ri[1].operands[1].f64s().iter().collect::<Vec<_>>(),
            vec![20.0, 0.0]
        );
        // Row 3: nnzs (d@0, e@3) → values (4,5), vector (10,40).
        assert_eq!(
            ri[2].operands[0].f64s().iter().collect::<Vec<_>>(),
            vec![4.0, 5.0]
        );
        assert_eq!(
            ri[2].operands[1].f64s().iter().collect::<Vec<_>>(),
            vec![10.0, 40.0]
        );
    }

    #[test]
    fn spmv_result_matches_reference() {
        let (prog, image) = spmv_fixture();
        // Host-side compute: sum += reduce(nnz*vec) per ri; store per re.
        let mut x = Vec::new();
        let mut sum = 0.0;
        for_each_entry(&prog, &image, |e| match e.callback {
            0 => {
                let nnz = e.operands[0].f64s();
                let vecv = e.operands[1].f64s();
                sum += nnz.iter().zip(vecv.iter()).map(|(a, b)| a * b).sum::<f64>();
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
            .filter(|ld| ld.layer == 1 && !ld.deps().is_empty())
            .collect();
        assert!(!chained.is_empty());
        let with_three_deps = loads.iter().filter(|ld| ld.deps().len() >= 3).count();
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
            .map(|e| e.operands[1].f64s().iter().sum())
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
            .map(|e| e.operands[0].f64s().iter().product())
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
        let got: Vec<f64> = entries
            .iter()
            .map(|e| e.operands[0].f64s().lane(0))
            .collect();
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

    #[test]
    fn loads_wait_on_their_own_fiber_bounds_and_gates_on_all() {
        // Three compressed levels. A value load waits on its fiber's two
        // pointer loads from layer 1; the layer-0 pointer loads those
        // waited on are implied. Step gates keep the whole chain.
        let mut map = AddressMap::new();
        let p0 = map.alloc_elems("p0", 3, 4);
        let p1 = map.alloc_elems("p1", 4, 4);
        let vals = map.alloc_elems("vals", 4, 8);
        let mut image = MemImage::new();
        image.bind_u32(p0, Arc::new(vec![0, 2, 3]));
        image.bind_u32(p1, Arc::new(vec![0, 1, 3, 4]));
        image.bind_f64(vals, Arc::new(vec![1.0, 2.0, 3.0, 4.0]));
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t0 = bld.dns_fbrt(l0, 0, 2, 1);
        let b0 = bld.mem_stream(t0, p0.base, 4, StreamTy::Index);
        let e0 = bld.mem_stream(t0, p0.base + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::Single);
        let t1 = bld.rng_fbrt(l1, b0, e0, 0, 1);
        let b1 = bld.mem_stream(t1, p1.base, 4, StreamTy::Index);
        let e1 = bld.mem_stream(t1, p1.base + 4, 4, StreamTy::Index);
        let l2 = bld.layer(LayerMode::Single);
        let t2 = bld.rng_fbrt(l2, b1, e1, 0, 1);
        let v = bld.mem_stream(t2, vals.base, 8, StreamTy::Value);
        let op = bld.vec_operand(l2, &[v]);
        bld.callback(l2, Event::Ite, 0, &[op]);
        let prog = Arc::new(bld.build().expect("well-formed"));

        let mut interp = Interp::new(prog, Arc::new(image));
        let mut layer_of = std::collections::HashMap::new();
        let (mut value_loads, mut deep_gates) = (0, 0);
        while let Some(step) = interp.next_step() {
            for ld in &step.loads {
                layer_of.insert(ld.id, ld.layer);
                if ld.layer == 2 {
                    value_loads += 1;
                    let dep_layers: Vec<u8> = ld.deps().iter().map(|d| layer_of[d]).collect();
                    assert_eq!(dep_layers, vec![1, 1], "load {}", ld.id);
                }
            }
            if step.layer == 2 && step.gates.iter().any(|g| layer_of[g] == 0) {
                deep_gates += 1;
            }
        }
        assert_eq!(value_loads, 4);
        assert!(deep_gates > 0, "layer-2 gates include layer-0 bounds");
    }
}
