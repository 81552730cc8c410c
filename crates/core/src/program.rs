//! TMU program representation and builder — the Figure 8 API.
//!
//! A [`Program`] maps a tensor expression's loop nest onto the TMU's
//! matrix of Traversal Units: one *layer* per loop level, one *lane* per
//! parallel traversal or merged tensor. Each TU is configured with a
//! traversal primitive (Table 1: [`ProgramBuilder::dns_fbrt`],
//! [`ProgramBuilder::rng_fbrt`], [`ProgramBuilder::idx_fbrt`]), a set of
//! data streams (Table 2: `ite`, `mem`, `lin`, `map`, `ldr`, `fwd`; the
//! `msk` stream is produced by the traversal group), and each layer with an
//! inter-layer configuration (Table 3) plus callback registrations
//! (§4.3: `add_callback(event, callback_id, args_list)`).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Inter-layer configuration of a layer's traversal group (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerMode {
    /// A single lane iterates.
    Single,
    /// One lane selected out of the parent's parallel group.
    Keep,
    /// Lanes co-iterate positionally (parallel loading / vectorization).
    LockStep,
    /// Lanes are disjunctively merged (coordinate union).
    DisjMrg,
    /// Lanes are conjunctively merged (coordinate intersection).
    ConjMrg,
}

/// Traversal/merging events a callback can be registered on (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// Begin of a traversal/merge (loop head).
    Beg,
    /// One iteration (loop body).
    Ite,
    /// End of a traversal/merge (loop tail).
    End,
}

/// Element type carried by a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamTy {
    /// Coordinate/pointer words (compared by mergers).
    Index,
    /// Floating-point payload words.
    Value,
}

/// Handle to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerId(pub(crate) usize);

/// Handle to a traversal unit (a lane of a layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuId {
    pub(crate) layer: usize,
    pub(crate) lane: usize,
}

/// Handle to a data stream of some TU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamRef {
    pub(crate) layer: usize,
    pub(crate) lane: usize,
    pub(crate) stream: usize,
}

/// Handle to a marshaled operand of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperandId(pub(crate) usize);

/// Index source of a `mem` stream within its own TU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexSrc {
    /// The TU's loop induction variable.
    Ite,
    /// Another (earlier) stream of the same TU — chained indirection.
    Stream(usize),
    /// The fiber-relative induction value (`ite − beg`) plus a local
    /// stream — composition of the Table 2 `ite` and `lin` streams used to
    /// address a second dense row in the same loop (MTTKRP's `C[l,r]`
    /// alongside `B[k,r]`).
    RelItePlus(usize),
}

/// Definition of one data stream (Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamDef {
    /// The TU's iteration indexes.
    Ite,
    /// `p[x]`: loads from `base` at the source index.
    Mem {
        /// Base virtual address of the array.
        base: u64,
        /// Element size in bytes (4 for index arrays, 8 for values).
        elem: u8,
        /// Index source.
        index: IndexSrc,
        /// Element type.
        ty: StreamTy,
    },
    /// `a·x + b` of a local stream.
    Lin {
        /// Multiplier.
        a: i64,
        /// Offset.
        b: i64,
        /// Source stream (same TU).
        of: usize,
    },
    /// Small lookup table `t[x]` (≤16 entries in hardware).
    Map {
        /// Table contents.
        table: Vec<i64>,
        /// Source stream (same TU).
        of: usize,
    },
    /// `&p[x]`: address generation without loading.
    Ldr {
        /// Base virtual address.
        base: u64,
        /// Element size in bytes.
        elem: u8,
        /// Source stream (same TU).
        of: usize,
    },
    /// Forwards a parent-layer stream: the parent element's value is
    /// replicated for every element of this TU's fiber.
    Fwd {
        /// Parent stream (must live in the previous layer).
        from: StreamRef,
    },
}

/// Traversal primitive of a TU (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraversalDef {
    /// `DnsFbrT(beg, end, stride)` — dense or singleton fiber scan.
    Dns {
        /// First index.
        beg: i64,
        /// One past the last index.
        end: i64,
        /// Step.
        stride: i64,
    },
    /// `RngFbrT(beg, end, offset, stride)` — compressed fiber lookup+scan;
    /// bounds come from parent-layer streams.
    Rng {
        /// Parent stream supplying the fiber start pointer.
        beg: StreamRef,
        /// Parent stream supplying the fiber end pointer.
        end: StreamRef,
        /// Added to the start pointer (lane phase in lockstep schemes).
        offset: i64,
        /// Step.
        stride: i64,
    },
    /// `IdxFbrT(beg, size, offset, stride)` — dense fiber lookup+scan;
    /// the start comes from a parent stream, the extent is constant.
    Idx {
        /// Parent stream supplying the fiber start index.
        beg: StreamRef,
        /// Fiber extent.
        size: i64,
        /// Added to the start.
        offset: i64,
        /// Step.
        stride: i64,
    },
}

/// One TU: a traversal primitive plus its data streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuDef {
    /// The traversal primitive.
    pub traversal: TraversalDef,
    /// Parent lane this TU hangs off (bounds + activation). Lane 0 of a
    /// `Single` parent acts as a broadcast source.
    pub parent_lane: usize,
    /// Data streams, in configuration order (arbiter priority §5.4).
    pub streams: Vec<StreamDef>,
    /// Stream used as the merge coordinate (required under
    /// `DisjMrg`/`ConjMrg`; defaults to the `ite` stream).
    pub key: Option<usize>,
}

/// An operand marshaled to the core with a callback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OperandDef {
    /// One stream per lane, packed into a vector operand (zero-padded for
    /// inactive lanes).
    Vec {
        /// Per-lane source streams (all in this layer).
        streams: Vec<StreamRef>,
    },
    /// The layer's multi-hot lane predicate.
    Mask,
    /// A single scalar stream value (e.g. a coordinate from this layer).
    Scalar {
        /// Source stream.
        stream: StreamRef,
    },
}

/// A registered callback (§4.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallbackDef {
    /// Triggering event.
    pub event: Event,
    /// Callback id delivered to the core.
    pub id: u32,
    /// Operands pushed with each trigger.
    pub operands: Vec<OperandId>,
}

/// One layer: mode, TUs, operand definitions, callbacks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerDef {
    /// Inter-layer configuration.
    pub mode: LayerMode,
    /// TUs (one per used lane).
    pub tus: Vec<TuDef>,
    /// Operand definitions referenced by callbacks.
    pub operands: Vec<OperandDef>,
    /// Registered callbacks.
    pub callbacks: Vec<CallbackDef>,
    /// Queue-sizing weight (§5.5): expected relative data volume.
    pub weight: f64,
}

/// A validated TMU program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    pub(crate) layers: Vec<LayerDef>,
}

impl Program {
    /// The program's layers, outermost first.
    pub fn layers(&self) -> &[LayerDef] {
        &self.layers
    }

    /// Maximum number of lanes used by any layer.
    pub fn lanes_used(&self) -> usize {
        self.layers.iter().map(|l| l.tus.len()).max().unwrap_or(0)
    }

    /// Queue-sizing weights per layer (§5.5).
    pub fn weights(&self) -> Vec<f64> {
        self.layers.iter().map(|l| l.weight).collect()
    }

    /// Returns a copy with every layer's queue-sizing weight reset to one
    /// (ablates the §5.5 analytical model down to a uniform split).
    pub fn with_uniform_weights(&self) -> Program {
        let mut p = self.clone();
        for layer in &mut p.layers {
            layer.weight = 1.0;
        }
        p
    }

    /// Element type of stream `r` (a `fwd` stream carries its source's;
    /// streams that load nothing carry indexes).
    pub(crate) fn stream_ty(&self, r: StreamRef) -> StreamTy {
        match &self.layers[r.layer].tus[r.lane].streams[r.stream] {
            StreamDef::Mem { ty, .. } => *ty,
            StreamDef::Fwd { from } => self.stream_ty(*from),
            _ => StreamTy::Index,
        }
    }

    /// Streams instantiated per layer (for the sizing model).
    pub fn streams_per_layer(&self) -> Vec<usize> {
        self.layers
            .iter()
            .map(|l| l.tus.iter().map(|t| t.streams.len()).max().unwrap_or(1))
            .collect()
    }
}

/// Error produced when building an ill-formed program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProgramError {
    /// A stream reference points outside the program.
    BadStreamRef {
        /// The offending reference.
        what: &'static str,
    },
    /// Bounds streams of a `Rng`/`Idx` TU must live in the previous layer.
    BoundsNotInParent,
    /// A merge layer's TU lacks an index-typed key stream.
    MissingMergeKey {
        /// Layer index.
        layer: usize,
        /// Lane index.
        lane: usize,
    },
    /// The first layer must use constant-bound traversals.
    RootNeedsConstantBounds,
    /// A layer has no TUs.
    EmptyLayer {
        /// Layer index.
        layer: usize,
    },
    /// `Single`/`Keep` layers must have exactly one TU.
    SingleLaneModeWithManyTus {
        /// Layer index.
        layer: usize,
    },
    /// A `map` stream exceeds the 16-entry hardware table.
    MapTooLarge,
    /// Two callbacks are registered for the same event of one layer: the
    /// outQ tags entries with `(layer, event)`, so the second registration
    /// could never be distinguished by the core.
    DuplicateCallback {
        /// Layer index.
        layer: usize,
        /// The doubly-registered event.
        event: Event,
    },
    /// A TU references a parent lane beyond the previous layer's TUs.
    BadParentLane {
        /// Layer index.
        layer: usize,
        /// Lane index of the offending TU.
        lane: usize,
        /// The out-of-range parent lane.
        parent_lane: usize,
    },
    /// A callback references an operand id the layer never defined.
    CallbackOperandOutOfRange {
        /// Layer index.
        layer: usize,
        /// The out-of-range operand index.
        operand: usize,
    },
    /// The program has no layers.
    Empty,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadStreamRef { what } => write!(f, "invalid stream reference: {what}"),
            ProgramError::BoundsNotInParent => {
                write!(f, "fiber bounds must come from the previous layer")
            }
            ProgramError::MissingMergeKey { layer, lane } => {
                write!(f, "merge layer {layer} lane {lane} has no index key stream")
            }
            ProgramError::RootNeedsConstantBounds => {
                write!(f, "the outermost layer must use constant-bound traversals")
            }
            ProgramError::EmptyLayer { layer } => write!(f, "layer {layer} has no TUs"),
            ProgramError::SingleLaneModeWithManyTus { layer } => {
                write!(f, "layer {layer} is Single/Keep but has several TUs")
            }
            ProgramError::MapTooLarge => write!(f, "map stream exceeds 16 entries"),
            ProgramError::DuplicateCallback { layer, event } => {
                write!(f, "layer {layer} registers two callbacks for {event:?}")
            }
            ProgramError::BadParentLane {
                layer,
                lane,
                parent_lane,
            } => write!(
                f,
                "layer {layer} lane {lane} binds parent lane {parent_lane}, \
                 which the previous layer does not have"
            ),
            ProgramError::CallbackOperandOutOfRange { layer, operand } => {
                write!(
                    f,
                    "layer {layer} callback references undefined operand {operand}"
                )
            }
            ProgramError::Empty => write!(f, "program has no layers"),
        }
    }
}

impl Error for ProgramError {}

/// Builder for [`Program`]s (the host-side configuration code of Fig. 8).
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    layers: Vec<LayerDef>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer with the given inter-layer mode.
    pub fn layer(&mut self, mode: LayerMode) -> LayerId {
        self.layers.push(LayerDef {
            mode,
            tus: Vec::new(),
            operands: Vec::new(),
            callbacks: Vec::new(),
            weight: 4f64.powi(self.layers.len() as i32),
        });
        LayerId(self.layers.len() - 1)
    }

    /// Overrides the queue-sizing weight of a layer (§5.5).
    pub fn set_weight(&mut self, layer: LayerId, weight: f64) {
        self.layers[layer.0].weight = weight;
    }

    fn add_tu(&mut self, layer: LayerId, traversal: TraversalDef, parent_lane: usize) -> TuId {
        let l = &mut self.layers[layer.0];
        l.tus.push(TuDef {
            traversal,
            parent_lane,
            streams: vec![StreamDef::Ite],
            key: None,
        });
        TuId {
            layer: layer.0,
            lane: l.tus.len() - 1,
        }
    }

    /// `DnsFbrT(beg, end, stride)`: dense fiber scan with constant bounds.
    pub fn dns_fbrt(&mut self, layer: LayerId, beg: i64, end: i64, stride: i64) -> TuId {
        self.add_tu(layer, TraversalDef::Dns { beg, end, stride }, 0)
    }

    /// `RngFbrT(beg, end, offset, stride)`: compressed fiber lookup+scan.
    /// The TU binds to the parent lane of `beg`.
    pub fn rng_fbrt(
        &mut self,
        layer: LayerId,
        beg: StreamRef,
        end: StreamRef,
        offset: i64,
        stride: i64,
    ) -> TuId {
        self.add_tu(
            layer,
            TraversalDef::Rng {
                beg,
                end,
                offset,
                stride,
            },
            beg.lane,
        )
    }

    /// `IdxFbrT(beg, size, offset, stride)`: dense fiber lookup+scan.
    pub fn idx_fbrt(
        &mut self,
        layer: LayerId,
        beg: StreamRef,
        size: i64,
        offset: i64,
        stride: i64,
    ) -> TuId {
        self.add_tu(
            layer,
            TraversalDef::Idx {
                beg,
                size,
                offset,
                stride,
            },
            beg.lane,
        )
    }

    /// Rebinds a TU to a specific parent lane (activation + `fwd` source).
    pub fn bind_parent(&mut self, tu: TuId, parent_lane: usize) {
        self.layers[tu.layer].tus[tu.lane].parent_lane = parent_lane;
    }

    /// The TU's `ite` stream (its loop induction variable).
    pub fn ite(&self, tu: TuId) -> StreamRef {
        StreamRef {
            layer: tu.layer,
            lane: tu.lane,
            stream: 0,
        }
    }

    fn push_stream(&mut self, tu: TuId, def: StreamDef) -> StreamRef {
        let streams = &mut self.layers[tu.layer].tus[tu.lane].streams;
        streams.push(def);
        StreamRef {
            layer: tu.layer,
            lane: tu.lane,
            stream: streams.len() - 1,
        }
    }

    /// `add_mem_str(base)`: loads `base[ite]`.
    pub fn mem_stream(&mut self, tu: TuId, base: u64, elem: u8, ty: StreamTy) -> StreamRef {
        self.push_stream(
            tu,
            StreamDef::Mem {
                base,
                elem,
                index: IndexSrc::Ite,
                ty,
            },
        )
    }

    /// `add_mem_str(base, idx_stream)`: chained indirection —
    /// loads `base[idx_stream]` (the SpMV scan-and-lookup child stream).
    ///
    /// # Panics
    ///
    /// Panics if `index` belongs to a different TU.
    pub fn mem_stream_indexed(
        &mut self,
        tu: TuId,
        base: u64,
        elem: u8,
        ty: StreamTy,
        index: StreamRef,
    ) -> StreamRef {
        assert!(
            index.layer == tu.layer && index.lane == tu.lane,
            "chained mem stream must index through its own TU"
        );
        self.push_stream(
            tu,
            StreamDef::Mem {
                base,
                elem,
                index: IndexSrc::Stream(index.stream),
                ty,
            },
        )
    }

    /// `add_mem_str(base, rel_ite + offset_stream)`: loads
    /// `base[(ite − beg) + offset]` where `offset` comes from a local
    /// stream (usually a forwarded row-start index).
    ///
    /// # Panics
    ///
    /// Panics if `offset` belongs to a different TU.
    pub fn mem_stream_rel(
        &mut self,
        tu: TuId,
        base: u64,
        elem: u8,
        ty: StreamTy,
        offset: StreamRef,
    ) -> StreamRef {
        assert!(
            offset.layer == tu.layer && offset.lane == tu.lane,
            "relative mem stream offset must be local to the TU"
        );
        self.push_stream(
            tu,
            StreamDef::Mem {
                base,
                elem,
                index: IndexSrc::RelItePlus(offset.stream),
                ty,
            },
        )
    }

    /// `lin`: linear transform `a·x + b` of a local stream.
    pub fn lin_stream(&mut self, tu: TuId, a: i64, b: i64, of: StreamRef) -> StreamRef {
        assert!(
            of.layer == tu.layer && of.lane == tu.lane,
            "lin source must be local to the TU"
        );
        self.push_stream(
            tu,
            StreamDef::Lin {
                a,
                b,
                of: of.stream,
            },
        )
    }

    /// `map`: small lookup table.
    pub fn map_stream(&mut self, tu: TuId, table: Vec<i64>, of: StreamRef) -> StreamRef {
        assert!(
            of.layer == tu.layer && of.lane == tu.lane,
            "map source must be local to the TU"
        );
        self.push_stream(
            tu,
            StreamDef::Map {
                table,
                of: of.stream,
            },
        )
    }

    /// `ldr`: address generation `&base[x]`.
    pub fn ldr_stream(&mut self, tu: TuId, base: u64, elem: u8, of: StreamRef) -> StreamRef {
        assert!(
            of.layer == tu.layer && of.lane == tu.lane,
            "ldr source must be local to the TU"
        );
        self.push_stream(
            tu,
            StreamDef::Ldr {
                base,
                elem,
                of: of.stream,
            },
        )
    }

    /// `fwd`: replicates a parent-layer stream into this TU.
    pub fn fwd_stream(&mut self, tu: TuId, from: StreamRef) -> StreamRef {
        self.push_stream(tu, StreamDef::Fwd { from })
    }

    /// Designates the merge-coordinate stream of a TU.
    pub fn set_key(&mut self, tu: TuId, key: StreamRef) {
        assert!(
            key.layer == tu.layer && key.lane == tu.lane,
            "merge key must be local to the TU"
        );
        self.layers[tu.layer].tus[tu.lane].key = Some(key.stream);
    }

    /// `add_vec_str`: groups per-lane streams into a vector operand.
    pub fn vec_operand(&mut self, layer: LayerId, streams: &[StreamRef]) -> OperandId {
        let l = &mut self.layers[layer.0];
        l.operands.push(OperandDef::Vec {
            streams: streams.to_vec(),
        });
        OperandId(l.operands.len() - 1)
    }

    /// The layer's `msk` predicate as an operand.
    pub fn mask_operand(&mut self, layer: LayerId) -> OperandId {
        let l = &mut self.layers[layer.0];
        l.operands.push(OperandDef::Mask);
        OperandId(l.operands.len() - 1)
    }

    /// A scalar stream value as an operand.
    pub fn scalar_operand(&mut self, layer: LayerId, stream: StreamRef) -> OperandId {
        let l = &mut self.layers[layer.0];
        l.operands.push(OperandDef::Scalar { stream });
        OperandId(l.operands.len() - 1)
    }

    /// `add_callback(event, callback_id, args_list)` (§4.3).
    pub fn callback(&mut self, layer: LayerId, event: Event, id: u32, operands: &[OperandId]) {
        self.layers[layer.0].callbacks.push(CallbackDef {
            event,
            id,
            operands: operands.to_vec(),
        });
    }

    /// Validates and produces the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first violated
    /// well-formedness rule.
    pub fn build(self) -> Result<Program, ProgramError> {
        if self.layers.is_empty() {
            return Err(ProgramError::Empty);
        }
        for (li, layer) in self.layers.iter().enumerate() {
            if layer.tus.is_empty() {
                return Err(ProgramError::EmptyLayer { layer: li });
            }
            if matches!(layer.mode, LayerMode::Single | LayerMode::Keep) && layer.tus.len() > 1 {
                return Err(ProgramError::SingleLaneModeWithManyTus { layer: li });
            }
            for (lane, tu) in layer.tus.iter().enumerate() {
                // Parent lanes index the previous layer's TUs (the root
                // layer has an implicit single-lane parent).
                let parent_lanes = if li == 0 {
                    1
                } else {
                    self.layers[li - 1].tus.len()
                };
                if tu.parent_lane >= parent_lanes {
                    return Err(ProgramError::BadParentLane {
                        layer: li,
                        lane,
                        parent_lane: tu.parent_lane,
                    });
                }
                match tu.traversal {
                    TraversalDef::Dns { .. } => {}
                    TraversalDef::Rng { beg, end, .. } => {
                        if li == 0 {
                            return Err(ProgramError::RootNeedsConstantBounds);
                        }
                        for r in [beg, end] {
                            if r.layer + 1 != li {
                                return Err(ProgramError::BoundsNotInParent);
                            }
                            self.check_ref(r)?;
                        }
                    }
                    TraversalDef::Idx { beg, .. } => {
                        if li == 0 {
                            return Err(ProgramError::RootNeedsConstantBounds);
                        }
                        if beg.layer + 1 != li {
                            return Err(ProgramError::BoundsNotInParent);
                        }
                        self.check_ref(beg)?;
                    }
                }
                for s in &tu.streams {
                    match s {
                        StreamDef::Map { table, .. } if table.len() > 16 => {
                            return Err(ProgramError::MapTooLarge);
                        }
                        StreamDef::Fwd { from } => {
                            if from.layer + 1 != li {
                                return Err(ProgramError::BoundsNotInParent);
                            }
                            self.check_ref(*from)?;
                        }
                        _ => {}
                    }
                }
                if matches!(layer.mode, LayerMode::DisjMrg | LayerMode::ConjMrg) {
                    // The merge coordinate defaults to ite; a designated key
                    // must be index-typed.
                    if let Some(k) = tu.key {
                        let ok = match &tu.streams[k] {
                            StreamDef::Ite => true,
                            StreamDef::Mem { ty, .. } => *ty == StreamTy::Index,
                            StreamDef::Lin { .. } | StreamDef::Map { .. } => true,
                            _ => false,
                        };
                        if !ok {
                            return Err(ProgramError::MissingMergeKey { layer: li, lane });
                        }
                    }
                }
            }
            for op in &layer.operands {
                match op {
                    OperandDef::Vec { streams } => {
                        for s in streams {
                            if s.layer != li {
                                return Err(ProgramError::BadStreamRef {
                                    what: "vector operand must use this layer's streams",
                                });
                            }
                            self.check_ref(*s)?;
                        }
                    }
                    OperandDef::Scalar { stream } => self.check_ref(*stream)?,
                    OperandDef::Mask => {}
                }
            }
            let mut seen_events: Vec<Event> = Vec::new();
            for cb in &layer.callbacks {
                if seen_events.contains(&cb.event) {
                    return Err(ProgramError::DuplicateCallback {
                        layer: li,
                        event: cb.event,
                    });
                }
                seen_events.push(cb.event);
                for op in &cb.operands {
                    if op.0 >= layer.operands.len() {
                        return Err(ProgramError::CallbackOperandOutOfRange {
                            layer: li,
                            operand: op.0,
                        });
                    }
                }
            }
        }
        Ok(Program {
            layers: self.layers,
        })
    }

    fn check_ref(&self, r: StreamRef) -> Result<(), ProgramError> {
        self.layers
            .get(r.layer)
            .and_then(|l| l.tus.get(r.lane))
            .and_then(|t| t.streams.get(r.stream))
            .map(|_| ())
            .ok_or(ProgramError::BadStreamRef {
                what: "dangling handle",
            })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Builds the Figure 8 SpMV P1 program (2 lanes, lockstep columns).
    fn figure8(ptrs: u64, idxs: u64, vals: u64, b: u64, num_rows: i64) -> Program {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, 0, num_rows, 1);
        let ptbs = bld.mem_stream(row, ptrs, 4, StreamTy::Index);
        let ptes = bld.mem_stream(row, ptrs + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::LockStep);
        let mut nnz = Vec::new();
        let mut vec = Vec::new();
        for lane in 0..2 {
            let col = bld.rng_fbrt(l1, ptbs, ptes, lane, 2);
            let col_idxs = bld.mem_stream(col, idxs, 4, StreamTy::Index);
            nnz.push(bld.mem_stream(col, vals, 8, StreamTy::Value));
            vec.push(bld.mem_stream_indexed(col, b, 8, StreamTy::Value, col_idxs));
        }
        let nnz_op = bld.vec_operand(l1, &nnz);
        let vec_op = bld.vec_operand(l1, &vec);
        bld.callback(l1, Event::Ite, 0, &[nnz_op, vec_op]);
        bld.callback(l1, Event::End, 1, &[]);
        bld.build().expect("figure 8 program is well-formed")
    }

    #[test]
    fn figure8_program_builds() {
        let p = figure8(0x1000, 0x2000, 0x3000, 0x4000, 4);
        assert_eq!(p.layers().len(), 2);
        assert_eq!(p.lanes_used(), 2);
        assert_eq!(p.layers()[1].callbacks.len(), 2);
        assert_eq!(p.streams_per_layer(), vec![3, 4]);
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            ProgramBuilder::new().build().unwrap_err(),
            ProgramError::Empty
        );
    }

    #[test]
    fn root_must_have_constant_bounds() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t = bld.dns_fbrt(l0, 0, 4, 1);
        let s = bld.mem_stream(t, 0x1000, 4, StreamTy::Index);
        // Rng in layer 0 referencing its own layer: invalid twice over.
        bld.rng_fbrt(l0, s, s, 0, 1);
        assert!(matches!(
            bld.build().unwrap_err(),
            ProgramError::RootNeedsConstantBounds | ProgramError::SingleLaneModeWithManyTus { .. }
        ));
    }

    #[test]
    fn bounds_must_come_from_parent_layer() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t0 = bld.dns_fbrt(l0, 0, 4, 1);
        let s0 = bld.mem_stream(t0, 0x1000, 4, StreamTy::Index);
        let _l1 = bld.layer(LayerMode::Single);
        let l2 = bld.layer(LayerMode::Single);
        // Bounds from layer 0 into layer 2: skips a layer.
        bld.rng_fbrt(l2, s0, s0, 0, 1);
        // Layer 1 left empty to trip that first — fill it to isolate.
        let err = bld.build().unwrap_err();
        assert!(matches!(
            err,
            ProgramError::BoundsNotInParent | ProgramError::EmptyLayer { .. }
        ));
    }

    #[test]
    fn map_limited_to_16_entries() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t = bld.dns_fbrt(l0, 0, 4, 1);
        let ite = bld.ite(t);
        bld.map_stream(t, vec![0; 17], ite);
        assert_eq!(bld.build().unwrap_err(), ProgramError::MapTooLarge);
    }

    #[test]
    fn single_mode_rejects_two_tus() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        bld.dns_fbrt(l0, 0, 4, 1);
        bld.dns_fbrt(l0, 0, 4, 1);
        assert!(matches!(
            bld.build().unwrap_err(),
            ProgramError::SingleLaneModeWithManyTus { layer: 0 }
        ));
    }

    #[test]
    fn duplicate_callback_on_same_event_rejected() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t = bld.dns_fbrt(l0, 0, 4, 1);
        let ite = bld.ite(t);
        let op = bld.vec_operand(l0, &[ite]);
        bld.callback(l0, Event::Ite, 0, &[op]);
        bld.callback(l0, Event::Ite, 1, &[op]);
        assert_eq!(
            bld.build().unwrap_err(),
            ProgramError::DuplicateCallback {
                layer: 0,
                event: Event::Ite
            }
        );
    }

    #[test]
    fn distinct_events_on_one_layer_allowed() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t = bld.dns_fbrt(l0, 0, 4, 1);
        let ite = bld.ite(t);
        let op = bld.vec_operand(l0, &[ite]);
        bld.callback(l0, Event::Beg, 0, &[op]);
        bld.callback(l0, Event::Ite, 1, &[op]);
        bld.callback(l0, Event::End, 2, &[]);
        bld.build().expect("one callback per event is fine");
    }

    #[test]
    fn out_of_range_parent_lane_rejected() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t0 = bld.dns_fbrt(l0, 0, 4, 1);
        let p0 = bld.mem_stream(t0, 0x1000, 4, StreamTy::Index);
        let p1 = bld.mem_stream(t0, 0x1004, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::Single);
        let t1 = bld.rng_fbrt(l1, p0, p1, 0, 1);
        // The parent layer has one lane; lane 3 does not exist.
        bld.bind_parent(t1, 3);
        assert_eq!(
            bld.build().unwrap_err(),
            ProgramError::BadParentLane {
                layer: 1,
                lane: 0,
                parent_lane: 3
            }
        );
    }

    #[test]
    fn callback_operand_out_of_range_rejected() {
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let t0 = bld.dns_fbrt(l0, 0, 4, 1);
        let p0 = bld.mem_stream(t0, 0x1000, 4, StreamTy::Index);
        let p1 = bld.mem_stream(t0, 0x1004, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::Single);
        let t1 = bld.rng_fbrt(l1, p0, p1, 0, 1);
        let ite = bld.ite(t1);
        // Operand defined on layer 1, callback registered on layer 0,
        // which has no operands at all.
        let op = bld.vec_operand(l1, &[ite]);
        bld.callback(l0, Event::Ite, 0, &[op]);
        assert_eq!(
            bld.build().unwrap_err(),
            ProgramError::CallbackOperandOutOfRange {
                layer: 0,
                operand: 0
            }
        );
    }

    #[test]
    fn program_debug_is_nonempty() {
        let p = figure8(0x1000, 0x2000, 0x3000, 0x4000, 4);
        let debug = format!("{p:?}");
        assert!(debug.contains("LockStep"));
    }
}
