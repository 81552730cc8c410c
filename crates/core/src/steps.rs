//! Records produced by the functional engine: the ordered stream of
//! traversal-group steps, the memory loads they cause, and the outQ
//! entries marshaled to the core.

use std::marker::PhantomData;

use serde::{Deserialize, Serialize};

use crate::program::{Event, OperandDef, Program, StreamTy};

/// Identifier of one loaded stream element (unique per engine run).
pub type ElemId = u64;

/// Most loads one stream load waits on, for any program: the fiber-bound
/// loads of its TU (at most two, the begin and end pointers a Table 1
/// `RngFbrT` reads from its parent element) and the load of the stream
/// that indexes it (at most one, Table 2 chained `mem` indirection).
///
/// A load does not list the bounds of its TU's ancestor fibers: each
/// bound load it waits on itself waited on those, and a load completes no
/// earlier than the loads it waited on, so they add nothing to its
/// readiness.
pub const MAX_LOAD_DEPS: usize = 3;

/// A memory load performed by a TU's `mem` stream for one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLoad {
    /// Unique id (readiness handle).
    pub id: ElemId,
    /// Owning layer.
    pub layer: u8,
    /// Owning lane.
    pub lane: u8,
    /// Owning stream slot within the TU (its queue; §5.4 selects streams
    /// in configuration order and requests within a queue in order).
    pub stream: u8,
    /// Entries of `deps` in use.
    pub(crate) n_deps: u8,
    /// Ordinal of the element within its TU (queue-slot index).
    pub elem_ordinal: u64,
    /// Virtual address.
    pub addr: u64,
    /// See [`MemLoad::deps`]; entries past `n_deps` are zero.
    pub(crate) deps: [ElemId; MAX_LOAD_DEPS],
}

impl MemLoad {
    /// Loads that must complete before this one can issue: the fiber
    /// bounds from the parent layer, then the chained indirection within
    /// the TU.
    pub fn deps(&self) -> &[ElemId] {
        &self.deps[..usize::from(self.n_deps)]
    }

    pub(crate) fn push_dep(&mut self, dep: ElemId) {
        self.deps[usize::from(self.n_deps)] = dep;
        self.n_deps += 1;
    }
}

/// Kind of a traversal-group step (§5.2 FSM states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// `gbeg`: a traversal/merge begins.
    Beg,
    /// `gite`: one co-iteration/merge step.
    Ite,
    /// `gend`: the traversal/merge is exhausted.
    End,
    /// Conjunctive-merge advance that produced no output (elements were
    /// consumed and discarded); exists only for timing.
    Skip,
}

impl StepKind {
    /// The callback event a step of this kind triggers (`Skip` triggers
    /// none).
    pub(crate) fn event(self) -> Option<Event> {
        match self {
            StepKind::Beg => Some(Event::Beg),
            StepKind::Ite => Some(Event::Ite),
            StepKind::End => Some(Event::End),
            StepKind::Skip => None,
        }
    }
}

/// A marshaled operand inside an outQ entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// Vector operand: one word per lane (raw bits), zero-padded for
    /// inactive lanes.
    Vec {
        /// Per-lane words.
        vals: Vec<u64>,
        /// Element type of the source streams.
        ty: StreamTy,
    },
    /// The layer's multi-hot predicate.
    Mask(u64),
    /// A scalar word.
    Scalar {
        /// Raw bits.
        val: u64,
        /// Element type.
        ty: StreamTy,
    },
}

/// An element type the raw lane words of a vector operand read as.
pub trait LaneWord: Copy {
    /// The value a raw lane word holds.
    fn from_word(word: u64) -> Self;
}

impl LaneWord for f64 {
    fn from_word(word: u64) -> Self {
        f64::from_bits(word)
    }
}

impl LaneWord for i64 {
    fn from_word(word: u64) -> Self {
        word as i64
    }
}

/// The lanes of a vector operand read as `T`, borrowed from its words.
#[derive(Debug, Clone, Copy)]
pub struct Lanes<'a, T> {
    words: &'a [u64],
    ty: PhantomData<T>,
}

impl<'a, T: LaneWord> Lanes<'a, T> {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the operand has no lanes.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Lanes::len`].
    pub fn lane(&self, i: usize) -> T {
        T::from_word(self.words[i])
    }

    /// The lane values in lane order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + 'a {
        self.words.iter().map(|&w| T::from_word(w))
    }
}

impl Operand {
    /// The lanes of a vector operand as f64 values.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Vec` operand of `Value` type.
    pub fn f64s(&self) -> Lanes<'_, f64> {
        match self {
            Operand::Vec {
                vals,
                ty: StreamTy::Value,
            } => Lanes {
                words: vals,
                ty: PhantomData,
            },
            other => panic!("operand is not an f64 vector: {other:?}"),
        }
    }

    /// The lanes of a vector operand as i64 indexes.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Vec` operand of `Index` type.
    pub fn indexes(&self) -> Lanes<'_, i64> {
        match self {
            Operand::Vec {
                vals,
                ty: StreamTy::Index,
            } => Lanes {
                words: vals,
                ty: PhantomData,
            },
            other => panic!("operand is not an index vector: {other:?}"),
        }
    }

    /// Scalar value as f64.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Scalar` of `Value` type.
    pub fn as_f64(&self) -> f64 {
        match self {
            Operand::Scalar {
                val,
                ty: StreamTy::Value,
            } => f64::from_bits(*val),
            other => panic!("operand is not an f64 scalar: {other:?}"),
        }
    }

    /// Scalar value as i64 index.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Scalar` of `Index` type.
    pub fn as_index(&self) -> i64 {
        match self {
            Operand::Scalar {
                val,
                ty: StreamTy::Index,
            } => *val as i64,
            other => panic!("operand is not an index scalar: {other:?}"),
        }
    }

    /// Bytes this operand occupies in an outQ entry.
    pub fn bytes(&self) -> u32 {
        match self {
            Operand::Vec { vals, .. } => 8 * vals.len() as u32,
            Operand::Mask(_) | Operand::Scalar { .. } => 8,
        }
    }
}

/// One outQ entry: a callback id plus its operands (§4.3, §5.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutQEntry {
    /// Callback id registered with `add_callback`.
    pub callback: u32,
    /// Lane predicate of the producing step.
    pub mask: u64,
    /// Operands in registration order.
    pub operands: Vec<Operand>,
}

impl OutQEntry {
    /// Bytes the entry occupies in the memory-mapped outQ (8-byte header
    /// carrying the callback id and mask tag, plus operands).
    pub fn bytes(&self) -> u32 {
        8 + self.operands.iter().map(Operand::bytes).sum::<u32>()
    }

    /// The entry `layer`'s callback on `event` pushes, operands zeroed
    /// (`None` when no callback is registered there).
    fn shaped(prog: &Program, layer: usize, event: Event) -> Option<Self> {
        let def = &prog.layers[layer];
        let cb = def.callbacks.iter().find(|cb| cb.event == event)?;
        let operands = cb
            .operands
            .iter()
            .map(|op| match &def.operands[op.0] {
                OperandDef::Vec { streams } => Operand::Vec {
                    vals: vec![0; streams.len()],
                    ty: streams
                        .first()
                        .map(|&s| prog.stream_ty(s))
                        .unwrap_or(StreamTy::Index),
                },
                OperandDef::Mask => Operand::Mask(0),
                OperandDef::Scalar { stream } => Operand::Scalar {
                    val: 0,
                    ty: prog.stream_ty(*stream),
                },
            })
            .collect();
        Some(Self {
            callback: cb.id,
            mask: 0,
            operands,
        })
    }

    /// Refills a shaped entry with lane predicate `mask` and operand
    /// words taken in order from `words`: one per lane of a vector
    /// operand, one per scalar, none for the mask.
    fn refill(&mut self, mask: u64, words: &mut impl Iterator<Item = u64>) {
        let mut word = || words.next().expect("one operand word per lane and scalar");
        self.mask = mask;
        for op in &mut self.operands {
            match op {
                Operand::Vec { vals, .. } => vals.iter_mut().for_each(|v| *v = word()),
                Operand::Mask(m) => *m = mask,
                Operand::Scalar { val, .. } => *val = word(),
            }
        }
    }
}

/// The outQ entry of every callback a program registers, shaped once and
/// refilled in place from each step's operand words, so marshaling a step
/// allocates nothing. A layer registers at most one callback per event,
/// so a step pushes at most one entry.
#[derive(Debug, Clone)]
pub struct EntryShapes {
    /// Entries by `layer * 3 + event`.
    entries: Vec<Option<OutQEntry>>,
}

const EVENTS: [Event; 3] = [Event::Beg, Event::Ite, Event::End];

impl EntryShapes {
    /// Shapes the entries of every callback `prog` registers.
    pub fn new(prog: &Program) -> Self {
        let entries = (0..prog.layers.len())
            .flat_map(|l| EVENTS.map(|e| OutQEntry::shaped(prog, l, e)))
            .collect();
        Self { entries }
    }

    fn slot(layer: u8, kind: StepKind) -> Option<usize> {
        let event = EVENTS.iter().position(|&e| Some(e) == kind.event())?;
        Some(usize::from(layer) * 3 + event)
    }

    /// The entry a `kind` step of `layer` pushes, as last refilled.
    pub fn get(&self, layer: u8, kind: StepKind) -> Option<&OutQEntry> {
        self.entries[Self::slot(layer, kind)?].as_ref()
    }

    /// Refills the entry a `kind` step of `layer` pushes with lane
    /// predicate `mask` and the step's operand words, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `words` runs out before the entry's operands are full.
    pub fn refill(
        &mut self,
        layer: u8,
        kind: StepKind,
        mask: u64,
        words: impl IntoIterator<Item = u64>,
    ) -> Option<&OutQEntry> {
        let entry = self.entries[Self::slot(layer, kind)?].as_mut()?;
        entry.refill(mask, &mut words.into_iter());
        Some(entry)
    }
}

/// One traversal-group step in nested-loop order: an owned view of what
/// the generator produced, for tests and examples (the timing engine keeps
/// its steps as [`PendingStep`]s instead).
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Layer that stepped.
    pub layer: u8,
    /// FSM state this step corresponds to.
    pub kind: StepKind,
    /// Multi-hot participating-lane predicate.
    pub mask: u64,
    /// Memory loads created while peeking elements for this step.
    pub loads: Vec<MemLoad>,
    /// Elements whose readiness gates this step's completion.
    pub gates: Vec<ElemId>,
    /// `(layer, lane)` of each TU that consumed one element in this step
    /// (frees one stream-queue slot per consuming TU).
    pub consumed: Vec<(u8, u8)>,
    /// The outQ entry this step pushes, if its layer registers a
    /// callback on its event (at most one per event).
    pub entries: Vec<OutQEntry>,
}

impl Step {
    /// The owned view of `step`, whose loads, gates and operand words the
    /// generator produced in order.
    pub(crate) fn view(
        prog: &Program,
        step: PendingStep,
        loads: Vec<MemLoad>,
        gates: Vec<ElemId>,
        words: &[u64],
    ) -> Self {
        let entries = step
            .kind
            .event()
            .and_then(|e| OutQEntry::shaped(prog, usize::from(step.layer), e))
            .map(|mut entry| {
                entry.refill(step.mask, &mut words.iter().copied());
                entry
            });
        Self {
            layer: step.layer,
            kind: step.kind,
            mask: step.mask,
            loads,
            gates,
            consumed: (0..64u8)
                .filter(|&lane| step.consumed & (1 << lane) != 0)
                .map(|lane| (step.layer, lane))
                .collect(),
            entries: entries.into_iter().collect(),
        }
    }
}

/// A generated step waiting in a [`StepBatcher`](crate::StepBatcher)'s
/// window: its header. Its gates and operand words wait in the batcher's
/// rings and its loads in the consumer's stream queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingStep {
    /// Layer that stepped.
    pub layer: u8,
    /// FSM state this step corresponds to.
    pub kind: StepKind,
    /// Multi-hot participating-lane predicate.
    pub mask: u64,
    /// Lanes of `layer` whose TU consumed one element in this step.
    pub consumed: u64,
    /// Whether the step pushes an outQ entry.
    pub pushes: bool,
    /// Gates in the batcher's gate ring.
    pub(crate) gates: u32,
    /// Operand words in the batcher's word ring.
    pub(crate) words: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        let v = Operand::Vec {
            vals: vec![2.5f64.to_bits(), 0],
            ty: StreamTy::Value,
        };
        assert_eq!(v.f64s().iter().collect::<Vec<_>>(), vec![2.5, 0.0]);
        assert_eq!((v.f64s().len(), v.f64s().lane(0)), (2, 2.5));
        assert_eq!(v.bytes(), 16);

        let i = Operand::Vec {
            vals: vec![7u64, (-1i64) as u64],
            ty: StreamTy::Index,
        };
        assert_eq!(i.indexes().iter().collect::<Vec<_>>(), vec![7, -1]);

        let s = Operand::Scalar {
            val: 42,
            ty: StreamTy::Index,
        };
        assert_eq!(s.as_index(), 42);
    }

    #[test]
    #[should_panic(expected = "not an f64 vector")]
    fn wrong_type_panics() {
        Operand::Mask(3).f64s();
    }

    #[test]
    #[should_panic(expected = "not an index vector")]
    fn value_vector_is_not_an_index_vector() {
        Operand::Vec {
            vals: vec![0],
            ty: StreamTy::Value,
        }
        .indexes();
    }

    #[test]
    fn entry_bytes_include_header() {
        let e = OutQEntry {
            callback: 1,
            mask: 0b11,
            operands: vec![
                Operand::Vec {
                    vals: vec![0; 8],
                    ty: StreamTy::Value,
                },
                Operand::Mask(0b11),
            ],
        };
        assert_eq!(e.bytes(), 8 + 64 + 8);
    }
}
