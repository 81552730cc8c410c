//! Lowering the iteration graph to a TMU [`Program`] plus a host-side
//! callback plan.
//!
//! Each loop of the graph becomes one TMU layer; per loop, every
//! compressed driver fiber gets a traversal unit (dense roots via
//! `DnsFbrT`, nested levels via `RngFbrT` with a parent-layer pointer
//! pair), dense operands ride the driving TU as chained gathers, and the
//! merge lattice picks the inter-layer mode (`Single`, `LockStep`,
//! `ConjMrg`, `DisjMrg`). The innermost loop registers the body callback
//! (id [`CB_BODY`]); reductions add a commit callback (id [`CB_COMMIT`])
//! on the fiber-end event, and outer disjunctive layers latch their
//! merged coordinate through slot callbacks (ids from [`CB_SLOT_BASE`]).
//!
//! The companion [`ExprHandler`] consumes the outQ entries exactly the
//! way the hand-written kernel handlers do, so lowered programs are
//! bit-identical to their hand-written counterparts on the same data.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use tmu::{
    CallbackHandler, Event, Lanes, LayerId, LayerMode, OperandId, OutQEntry, Program,
    ProgramBuilder, StreamRef, StreamTy, TuId,
};
use tmu_sim::{Deps, Machine, OpId, Region, Site, VecMachine};

use crate::ast::{Access, Expr};
use crate::bindings::{Bindings, LevelData, TensorData};
use crate::graph::{IterationGraph, LoopKind};
use crate::{ErrorKind, FrontError, Span};

/// Callback id of the innermost (body) `Ite` event.
pub const CB_BODY: u32 = 0;
/// Callback id of the reduction commit (innermost `End` event).
pub const CB_COMMIT: u32 = 1;
/// First callback id used to latch outer disjunctive coordinates.
pub const CB_SLOT_BASE: u32 = 16;

const S_COMMIT: u16 = 400;

/// Where one factor's value arrives in the body callback entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorSrc {
    /// Operand at this position is a per-lane vector.
    Vec(usize),
    /// Operand at this position is a scalar.
    Scalar(usize),
}

/// How one output coordinate is recovered on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordSrc {
    /// Scalar operand at this position of the carrying entry (the body
    /// entry for scatters, the commit entry for reductions).
    Operand(usize),
    /// Latched by the coordinate callback `CB_SLOT_BASE + slot`.
    Slot(usize),
    /// The per-lane key operand of a lockstep scatter body.
    Lane,
    /// The first-active-lane key of a merged scatter body.
    Merged,
}

/// The host-side computation shape of the body callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyKind {
    /// Multiply factors lane-wise, sum the lanes, and accumulate;
    /// committed (and reset) by the `End` callback.
    Reduce {
        /// Factor sources in expression order.
        factors: Vec<FactorSrc>,
    },
    /// One output element per active lane of the body entry.
    ScatterLanes {
        /// Position of the per-lane coordinate (key) vector operand.
        keys: usize,
        /// Factor sources in expression order.
        factors: Vec<FactorSrc>,
    },
    /// One output element per merged step: the coordinate comes from the
    /// first active lane, the value is the zero-padded lane sum.
    ScatterMerged {
        /// Position of the per-term key vector operand.
        keys: usize,
        /// Position of the per-term value vector operand.
        vals: usize,
    },
    /// One output element per body step at scalar coordinates.
    ScatterPoint {
        /// Factor sources in expression order.
        factors: Vec<FactorSrc>,
    },
}

/// Everything [`ExprHandler`] needs to turn outQ entries into results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerPlan {
    /// Output coordinate sources, in output index order.
    pub out_coords: Vec<CoordSrc>,
    /// Body computation shape.
    pub body: BodyKind,
    /// Number of coordinate slots latched by outer disjunctive layers.
    pub slots: usize,
}

/// A lowered expression: the TMU program plus its host callback plan.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The validated TMU program (single shard, full input range).
    pub program: Program,
    /// Host-side plan for interpreting the outQ entries.
    pub plan: HandlerPlan,
}

/// Value stream(s) of one factor once its leaf level is bound.
#[derive(Debug, Clone)]
enum ValS {
    /// One stream, plus the lane (within its layer) it lives on.
    One(StreamRef, usize),
    /// One stream per lockstep lane.
    PerLane(Vec<StreamRef>),
}

/// Per-factor lowering state between loops: the pointer pair delimiting
/// the factor's next compressed level (and the layer/lane it lives on),
/// and the factor's value stream(s) once the leaf is reached.
#[derive(Debug, Clone, Default)]
struct Cursor {
    /// `(beg, end, layer, lane)` of the pending child-level bounds.
    bounds: Option<(StreamRef, StreamRef, usize, usize)>,
    /// `(streams, layer)` of the leaf values.
    val: Option<(ValS, usize)>,
}

/// How a loop's merged coordinate is obtained.
#[derive(Debug, Clone)]
enum CoordHandle {
    Scalar(StreamRef),
    Slot(usize),
    Lanes(Vec<StreamRef>),
    MergedKeys(Vec<StreamRef>),
}

fn unsup(span: Span, msg: impl Into<String>) -> FrontError {
    FrontError::new(ErrorKind::Unsupported, span, msg)
}

/// The coordinate-array region of a compressed level.
fn idxs_region(data: &TensorData, level: usize) -> Region {
    match &data.levels[level] {
        LevelData::Compressed { idxs, .. } => idxs.1,
        LevelData::Dense { .. } => unreachable!("caller checked the level is compressed"),
    }
}

/// The pointer-array region delimiting fibers of level `level`, required
/// to exist (i.e. the level is compressed and non-root).
fn child_ptrs_region(data: &TensorData, level: usize, a: &Access) -> Result<Region, FrontError> {
    match &data.levels[level] {
        LevelData::Compressed {
            ptrs: Some((_, r)), ..
        } => Ok(*r),
        LevelData::Compressed { ptrs: None, .. } => Err(FrontError::new(
            ErrorKind::Binding,
            a.span,
            format!(
                "{} level {level} is compressed but has no pointer array",
                a.tensor
            ),
        )),
        LevelData::Dense { .. } => Err(unsup(
            a.indices[level].span,
            format!(
                "a dense level below a compressed level of {} is not lowerable",
                a.tensor
            ),
        )),
    }
}

/// Lowers `expr` to a TMU program over the regions recorded in `binds`.
///
/// The generated program covers the full input range in a single shard;
/// `lanes` sets the lockstep width of the innermost loop when the merge
/// lattice lane-splits it.
///
/// # Errors
///
/// Returns a spanned [`FrontError`] when a binding is missing or
/// inconsistent, or when the expression's shape falls outside the
/// supported lowering patterns (`ErrorKind::Unsupported`).
pub fn lower(
    expr: &Expr,
    graph: &IterationGraph,
    binds: &Bindings,
    lanes: usize,
) -> Result<Lowered, FrontError> {
    let lanes = lanes.clamp(1, 64);
    let nloops = graph.loops.len();
    let whole = Span::new(0, expr.text.len());
    if nloops == 0 {
        return Err(unsup(
            whole,
            "expressions with no index variables are not lowerable",
        ));
    }

    // Bind and validate every factor up front.
    let mut datas: Vec<Vec<&TensorData>> = Vec::with_capacity(expr.terms.len());
    for term in &expr.terms {
        let mut ds = Vec::with_capacity(term.len());
        for a in term {
            let d = binds.get(&a.tensor, a.span)?;
            if d.order() != a.rank() {
                return Err(FrontError::new(
                    ErrorKind::Binding,
                    a.span,
                    format!(
                        "{} is bound with order {} but accessed with rank {}",
                        a.tensor,
                        d.order(),
                        a.rank()
                    ),
                ));
            }
            for (l, ix) in a.indices.iter().enumerate() {
                if a.level_is_sparse(l) != d.is_compressed(l) {
                    return Err(FrontError::new(
                        ErrorKind::Binding,
                        ix.span,
                        format!(
                            "{} level {l} annotation disagrees with its binding",
                            a.tensor
                        ),
                    ));
                }
            }
            ds.push(d);
        }
        datas.push(ds);
    }

    // Restrictions on sums: single-access terms, no reductions, and every
    // variable stored the same way (compressed in every term or dense in
    // every term) — that is what maps onto a disjunctive merge per layer.
    let multi = expr.terms.len() > 1;
    if multi {
        for term in &expr.terms {
            if term.len() != 1 {
                return Err(unsup(
                    term[0].span,
                    "sum terms must each be a single access to lower to a disjunctive merge",
                ));
            }
        }
        if !expr.reduction_indices().is_empty() {
            return Err(unsup(
                whole,
                "sums with reduction indices are not lowerable",
            ));
        }
        for l in &graph.loops {
            if !l.drivers.is_empty() && l.drivers.len() != expr.terms.len() {
                return Err(unsup(
                    whole,
                    format!(
                        "index {:?} must be stored the same way (all compressed or all \
                         dense) in every sum term",
                        l.var
                    ),
                ));
            }
        }
    }

    let mut b = ProgramBuilder::new();
    let mut layer_ids: Vec<LayerId> = Vec::with_capacity(nloops);
    let mut cursors: Vec<Vec<Cursor>> = expr
        .terms
        .iter()
        .map(|t| vec![Cursor::default(); t.len()])
        .collect();
    let mut coords: Vec<CoordHandle> = Vec::with_capacity(nloops);
    let mut slots = 0usize;
    // Body-layer TUs and their parent lanes, for forwarding decisions.
    let mut body_tus: Vec<(TuId, usize)> = Vec::new();

    for (li, lp) in graph.loops.iter().enumerate() {
        let is_body = li + 1 == nloops;
        let mode = match lp.kind {
            LoopKind::Dense | LoopKind::Walk => LayerMode::Single,
            LoopKind::WalkVec => LayerMode::LockStep,
            LoopKind::Conj => LayerMode::ConjMrg,
            LoopKind::Disj => LayerMode::DisjMrg,
        };
        let lid = b.layer(mode);
        layer_ids.push(lid);
        let merge = matches!(lp.kind, LoopKind::Conj | LoopKind::Disj);

        // Participants: every access binding this loop's variable,
        // term-major (the same order the graph records drivers in).
        struct P {
            term: usize,
            factor: usize,
            level: usize,
            sparse: bool,
        }
        let mut parts: Vec<P> = Vec::new();
        for (t, term) in expr.terms.iter().enumerate() {
            for (f, a) in term.iter().enumerate() {
                if let Some(l) = a.level_of(&lp.var) {
                    parts.push(P {
                        term: t,
                        factor: f,
                        level: l,
                        sparse: a.level_is_sparse(l),
                    });
                }
            }
        }

        // Pass A: one TU (or one per lockstep lane) per compressed driver.
        let mut next_lane = 0usize; // TU lanes are allocated in creation order
        let mut anchor: Option<(TuId, StreamRef, usize)> = None;
        let mut lane_tus: Vec<TuId> = Vec::new();
        let mut lane_coords: Vec<StreamRef> = Vec::new();
        let mut merged_keys: Vec<StreamRef> = Vec::new();
        let mut layer_tus: Vec<(TuId, usize)> = Vec::new();
        for p in parts.iter().filter(|p| p.sparse) {
            let a = &expr.terms[p.term][p.factor];
            let data = datas[p.term][p.factor];
            let cur = &mut cursors[p.term][p.factor];
            let width = if lp.kind == LoopKind::WalkVec {
                lanes
            } else {
                1
            };
            let (tus, parent_lane) = if p.level == 0 {
                if li > 0 && graph.loops[li - 1].kind == LoopKind::Disj {
                    return Err(unsup(
                        a.span,
                        "cannot start a new fiber tree below a disjunctive merge",
                    ));
                }
                if width != 1 {
                    return Err(unsup(a.span, "a root fiber cannot be lane-split"));
                }
                let stored = data.fiber(0, 0).1 as i64;
                (vec![b.dns_fbrt(lid, 0, stored, 1)], 0usize)
            } else {
                let Some((bb, ee, blayer, blane)) = cur.bounds else {
                    return Err(unsup(
                        a.indices[p.level].span,
                        format!(
                            "no pointer bounds reach level {} of {}; its levels must \
                             occupy consecutive loops",
                            p.level, a.tensor
                        ),
                    ));
                };
                if blayer + 1 != li {
                    return Err(unsup(
                        a.indices[p.level].span,
                        format!(
                            "{}'s levels must occupy consecutive loops (bounds are {} \
                             layers up)",
                            a.tensor,
                            li - blayer
                        ),
                    ));
                }
                let tus = (0..width)
                    .map(|lane| b.rng_fbrt(lid, bb, ee, lane as i64, width as i64))
                    .collect();
                (tus, blane)
            };
            cur.bounds = None;
            let first_lane = next_lane;
            next_lane += tus.len();
            let is_leaf = p.level + 1 == data.order();
            let idxs_r = idxs_region(data, p.level);
            let mut cks = Vec::with_capacity(tus.len());
            let mut vals = Vec::with_capacity(tus.len());
            for &tu in &tus {
                let ck = b.mem_stream(tu, idxs_r.base, 4, StreamTy::Index);
                if merge {
                    b.set_key(tu, ck);
                }
                cks.push(ck);
                if is_leaf {
                    vals.push(b.mem_stream(tu, data.vals.1.base, 8, StreamTy::Value));
                }
            }
            if is_leaf {
                cur.val = Some((
                    if width == 1 {
                        ValS::One(vals[0], first_lane)
                    } else {
                        ValS::PerLane(vals)
                    },
                    li,
                ));
            } else {
                if width != 1 {
                    return Err(unsup(a.span, "a lane-split fiber cannot have child levels"));
                }
                let ptrs = child_ptrs_region(data, p.level + 1, a)?;
                cur.bounds = Some((
                    b.mem_stream(tus[0], ptrs.base, 4, StreamTy::Index),
                    b.mem_stream(tus[0], ptrs.base + 4, 4, StreamTy::Index),
                    li,
                    first_lane,
                ));
            }
            if anchor.is_none() {
                anchor = Some((tus[0], cks[0], first_lane));
            }
            if width != 1 {
                lane_tus = tus.clone();
                lane_coords = cks.clone();
            }
            merged_keys.push(cks[0]);
            for &tu in &tus {
                layer_tus.push((tu, parent_lane));
            }
        }

        // Pass B: dense participants — a shared counted TU for dense
        // loops, chained gathers off the driving TU otherwise.
        let mut dense_tu: Option<(TuId, usize)> = None;
        let mut dense_dim: Option<usize> = None;
        for p in parts.iter().filter(|p| !p.sparse) {
            let a = &expr.terms[p.term][p.factor];
            let data = datas[p.term][p.factor];
            if p.level != 0 {
                return Err(unsup(
                    a.indices[p.level].span,
                    format!(
                        "a dense level below the root of {} is not lowerable; use a \
                         compressed annotation",
                        a.tensor
                    ),
                ));
            }
            let dim = data.dims[0];
            let is_leaf = data.order() == 1;
            match lp.kind {
                LoopKind::Dense => {
                    if let Some(d) = dense_dim {
                        if d != dim {
                            return Err(FrontError::new(
                                ErrorKind::Binding,
                                a.span,
                                format!(
                                    "index {:?} spans {dim} in {} but {d} elsewhere",
                                    lp.var, a.tensor
                                ),
                            ));
                        }
                    }
                    dense_dim = Some(dim);
                    let (dtu, dlane) = *dense_tu.get_or_insert_with(|| {
                        let tu = b.dns_fbrt(lid, 0, dim as i64, 1);
                        let lane = next_lane;
                        next_lane += 1;
                        layer_tus.push((tu, 0));
                        (tu, lane)
                    });
                    let cur = &mut cursors[p.term][p.factor];
                    if is_leaf {
                        cur.val = Some((
                            ValS::One(
                                b.mem_stream(dtu, data.vals.1.base, 8, StreamTy::Value),
                                dlane,
                            ),
                            li,
                        ));
                    } else {
                        let ptrs = child_ptrs_region(data, 1, a)?;
                        cur.bounds = Some((
                            b.mem_stream(dtu, ptrs.base, 4, StreamTy::Index),
                            b.mem_stream(dtu, ptrs.base + 4, 4, StreamTy::Index),
                            li,
                            dlane,
                        ));
                    }
                }
                LoopKind::Walk | LoopKind::Conj => {
                    let (atu, ack, alane) = anchor.expect("walk/conj loops have a driver");
                    let cur = &mut cursors[p.term][p.factor];
                    if is_leaf {
                        cur.val = Some((
                            ValS::One(
                                b.mem_stream_indexed(
                                    atu,
                                    data.vals.1.base,
                                    8,
                                    StreamTy::Value,
                                    ack,
                                ),
                                alane,
                            ),
                            li,
                        ));
                    } else {
                        let ptrs = child_ptrs_region(data, 1, a)?;
                        cur.bounds = Some((
                            b.mem_stream_indexed(atu, ptrs.base, 4, StreamTy::Index, ack),
                            b.mem_stream_indexed(atu, ptrs.base + 4, 4, StreamTy::Index, ack),
                            li,
                            alane,
                        ));
                    }
                }
                LoopKind::WalkVec => {
                    if !is_leaf {
                        return Err(unsup(
                            a.span,
                            "gathers below the lane-split loop are not lowerable",
                        ));
                    }
                    let gathered: Vec<StreamRef> = lane_tus
                        .iter()
                        .zip(&lane_coords)
                        .map(|(&tu, &ck)| {
                            b.mem_stream_indexed(tu, data.vals.1.base, 8, StreamTy::Value, ck)
                        })
                        .collect();
                    cursors[p.term][p.factor].val = Some((ValS::PerLane(gathered), li));
                }
                LoopKind::Disj => {
                    return Err(unsup(
                        a.span,
                        "dense operands cannot join a disjunctive merge",
                    ));
                }
            }
        }

        // The loop's coordinate handle.
        let handle = match lp.kind {
            LoopKind::Dense => CoordHandle::Scalar(b.ite(dense_tu.expect("dense loop has a TU").0)),
            LoopKind::Walk | LoopKind::Conj => {
                CoordHandle::Scalar(anchor.expect("driver exists").1)
            }
            LoopKind::WalkVec => CoordHandle::Lanes(lane_coords.clone()),
            LoopKind::Disj => {
                if is_body {
                    CoordHandle::MergedKeys(merged_keys.clone())
                } else if lp.output_pos.is_some() {
                    let op = b.vec_operand(lid, &merged_keys);
                    b.callback(lid, Event::Ite, CB_SLOT_BASE + slots as u32, &[op]);
                    slots += 1;
                    CoordHandle::Slot(slots - 1)
                } else {
                    return Err(unsup(
                        whole,
                        format!("reduced disjunctive index {:?} is not lowerable", lp.var),
                    ));
                }
            }
        };
        coords.push(handle);
        if is_body {
            body_tus = layer_tus;
        }
    }

    // Body assembly.
    let body_loop = graph.loops.last().expect("nloops > 0");
    let body_li = nloops - 1;
    let body_lid = layer_ids[body_li];
    let out_rank = expr.output.rank();
    let out_names = expr.output.index_names();
    let mut out_coords = vec![CoordSrc::Operand(usize::MAX); out_rank];

    let plan = if multi {
        // Sums: the body must be a disjunctive merge over single-factor
        // terms whose value leaves sit in the body layer.
        let CoordHandle::MergedKeys(keys) = &coords[body_li] else {
            return Err(unsup(
                whole,
                "sums must merge compressed fibers at the innermost loop",
            ));
        };
        let mut vals = Vec::with_capacity(expr.terms.len());
        for (t, term) in expr.terms.iter().enumerate() {
            let Some((ValS::One(v, _), vl)) = cursors[t][0].val.clone() else {
                return Err(unsup(term[0].span, "sum term never reaches its value leaf"));
            };
            if vl != body_li {
                return Err(unsup(
                    term[0].span,
                    "sum terms must store their values at the innermost loop",
                ));
            }
            vals.push(v);
        }
        let keys_op = b.vec_operand(body_lid, keys);
        let vals_op = b.vec_operand(body_lid, &vals);
        let mut ops = vec![keys_op, vals_op];
        fill_outer_coords(
            &mut b,
            body_lid,
            graph,
            &coords,
            &out_names,
            &mut out_coords,
            &mut ops,
        );
        out_coords[body_loop.output_pos.expect("sums have no reductions")] = CoordSrc::Merged;
        b.callback(body_lid, Event::Ite, CB_BODY, &ops);
        HandlerPlan {
            out_coords,
            body: BodyKind::ScatterMerged { keys: 0, vals: 1 },
            slots,
        }
    } else {
        // Single product term.
        let term = &expr.terms[0];
        let scatter_lanes = body_loop.output_pos.is_some() && body_loop.kind == LoopKind::WalkVec;
        let mut ops: Vec<OperandId> = Vec::new();
        let keys_pos = if scatter_lanes {
            let CoordHandle::Lanes(keys) = &coords[body_li] else {
                unreachable!("lockstep loops carry lane coordinates")
            };
            ops.push(b.vec_operand(body_lid, keys));
            Some(0)
        } else {
            None
        };
        let mut factors = Vec::with_capacity(term.len());
        for (f, a) in term.iter().enumerate() {
            let Some((vs, vl)) = cursors[0][f].val.clone() else {
                return Err(unsup(a.span, "factor never reaches its value leaf"));
            };
            match vs {
                ValS::PerLane(streams) => {
                    factors.push(FactorSrc::Vec(ops.len()));
                    ops.push(b.vec_operand(body_lid, &streams));
                }
                ValS::One(s, slane) => {
                    let src = if vl + 1 == body_li
                        && !body_tus.is_empty()
                        && body_tus.iter().all(|&(_, parent)| parent == slane)
                    {
                        // Forward through the body TUs (the SpMSpM shape):
                        // every lane replicates the parent value.
                        let fwds: Vec<StreamRef> = body_tus
                            .iter()
                            .map(|&(tu, _)| b.fwd_stream(tu, s))
                            .collect();
                        fwds[0]
                    } else {
                        s
                    };
                    factors.push(FactorSrc::Scalar(ops.len()));
                    ops.push(b.scalar_operand(body_lid, src));
                }
            }
        }

        if let Some(bp) = body_loop.output_pos {
            fill_outer_coords(
                &mut b,
                body_lid,
                graph,
                &coords,
                &out_names,
                &mut out_coords,
                &mut ops,
            );
            let body = if let Some(k) = keys_pos {
                out_coords[bp] = CoordSrc::Lane;
                BodyKind::ScatterLanes { keys: k, factors }
            } else {
                // Scalar-coordinate scatter: the body coordinate is one
                // more scalar operand.
                let CoordHandle::Scalar(ck) = &coords[body_li] else {
                    return Err(unsup(
                        whole,
                        "the innermost loop's coordinate is not addressable",
                    ));
                };
                out_coords[bp] = CoordSrc::Operand(ops.len());
                ops.push(b.scalar_operand(body_lid, *ck));
                BodyKind::ScatterPoint { factors }
            };
            b.callback(body_lid, Event::Ite, CB_BODY, &ops);
            HandlerPlan {
                out_coords,
                body,
                slots,
            }
        } else {
            // Reduction: body accumulates, End commits at outer coords.
            b.callback(body_lid, Event::Ite, CB_BODY, &ops);
            let mut commit_ops = Vec::new();
            fill_outer_coords(
                &mut b,
                body_lid,
                graph,
                &coords,
                &out_names,
                &mut out_coords,
                &mut commit_ops,
            );
            b.callback(body_lid, Event::End, CB_COMMIT, &commit_ops);
            HandlerPlan {
                out_coords,
                body: BodyKind::Reduce { factors },
                slots,
            }
        }
    };

    let program = b
        .build()
        .map_err(|e| unsup(whole, format!("lowering produced an invalid program: {e}")))?;
    Ok(Lowered { program, plan })
}

/// Registers scalar-coordinate operands for every *outer* output index
/// and records each coordinate's source in `out_coords`.
fn fill_outer_coords(
    b: &mut ProgramBuilder,
    body_lid: LayerId,
    graph: &IterationGraph,
    coords: &[CoordHandle],
    out_names: &[&str],
    out_coords: &mut [CoordSrc],
    ops: &mut Vec<OperandId>,
) {
    let body_li = graph.loops.len() - 1;
    for (p, name) in out_names.iter().enumerate() {
        let li = graph
            .loops
            .iter()
            .position(|l| l.var == *name)
            .expect("parser guarantees every output index is bound");
        if li == body_li {
            continue; // handled by the body kind
        }
        match &coords[li] {
            CoordHandle::Scalar(s) => {
                out_coords[p] = CoordSrc::Operand(ops.len());
                ops.push(b.scalar_operand(body_lid, *s));
            }
            CoordHandle::Slot(k) => out_coords[p] = CoordSrc::Slot(*k),
            CoordHandle::Lanes(_) | CoordHandle::MergedKeys(_) => {
                unreachable!("lane/merged coordinates only occur at the body loop")
            }
        }
    }
}

fn entry_add(out: &mut BTreeMap<Vec<u32>, f64>, key: Vec<u32>, v: f64) {
    match out.entry(key) {
        Entry::Vacant(e) => {
            e.insert(v);
        }
        Entry::Occupied(mut e) => {
            *e.get_mut() += v;
        }
    }
}

/// Materialized factor values of one body entry.
enum FVal<'a> {
    V(Lanes<'a, f64>),
    S(f64),
}

fn factor_vals<'a>(factors: &[FactorSrc], entry: &'a OutQEntry) -> Vec<FVal<'a>> {
    factors
        .iter()
        .map(|f| match f {
            FactorSrc::Vec(i) => FVal::V(entry.operands[*i].f64s()),
            FactorSrc::Scalar(i) => FVal::S(entry.operands[*i].as_f64()),
        })
        .collect()
}

fn lane_product(fv: &[FVal], lane: usize) -> f64 {
    let mut it = fv.iter();
    let first = it.next().expect("at least one factor");
    let mut p = match first {
        FVal::V(v) => v.lane(lane),
        FVal::S(s) => *s,
    };
    for f in it {
        p *= match f {
            FVal::V(v) => v.lane(lane),
            FVal::S(s) => *s,
        };
    }
    p
}

/// Host-side callback handler for lowered expressions.
///
/// Executes the [`HandlerPlan`] with the same arithmetic shapes as the
/// hand-written kernel handlers (lane-wise multiply, left-fold sums,
/// entry-order accumulation), collecting results keyed by output
/// coordinates.
#[derive(Debug)]
pub struct ExprHandler {
    plan: HandlerPlan,
    slots: Vec<i64>,
    acc: f64,
    acc_dep: OpId,
    z_r: Region,
    z_cap: usize,
    written: usize,
    /// Accumulated output, keyed by output coordinates in output order.
    pub out: BTreeMap<Vec<u32>, f64>,
}

impl ExprHandler {
    /// Creates a handler that stores (for timing) into `z_r`, wrapping
    /// after `z_cap` elements.
    pub fn new(plan: HandlerPlan, z_r: Region, z_cap: usize) -> Self {
        let slots = vec![0i64; plan.slots];
        Self {
            plan,
            slots,
            acc: 0.0,
            acc_dep: OpId::NONE,
            z_r,
            z_cap: z_cap.max(1),
            written: 0,
            out: BTreeMap::new(),
        }
    }

    /// Consumes the handler, returning the accumulated output map.
    pub fn into_out(self) -> BTreeMap<Vec<u32>, f64> {
        self.out
    }

    fn coord(&self, spec: CoordSrc, entry: &OutQEntry, special: i64) -> u32 {
        match spec {
            CoordSrc::Operand(i) => entry.operands[i].as_index() as u32,
            CoordSrc::Slot(k) => self.slots[k] as u32,
            CoordSrc::Lane | CoordSrc::Merged => special as u32,
        }
    }

    fn key_for(&self, entry: &OutQEntry, special: i64) -> Vec<u32> {
        self.plan
            .out_coords
            .iter()
            .map(|&c| self.coord(c, entry, special))
            .collect()
    }

    fn store(&mut self, m: &mut VecMachine, dep: OpId) {
        m.store(
            Site(S_COMMIT),
            self.z_r.f64_at(self.written % self.z_cap),
            8,
            Deps::from(dep),
        );
        self.written += 1;
    }
}

impl CallbackHandler for ExprHandler {
    fn handle(&mut self, entry: &OutQEntry, entry_load: OpId, m: &mut VecMachine) {
        if entry.callback >= CB_SLOT_BASE {
            let k = (entry.callback - CB_SLOT_BASE) as usize;
            let keys = entry.operands[0].indexes();
            self.slots[k] = keys.lane(entry.mask.trailing_zeros() as usize);
            return;
        }
        match entry.callback {
            CB_BODY => {
                let active = entry.mask.count_ones();
                match self.plan.body.clone() {
                    BodyKind::Reduce { factors } => {
                        let fv = factor_vals(&factors, entry);
                        let width = fv
                            .iter()
                            .filter_map(|f| match f {
                                FVal::V(v) => Some(v.len()),
                                FVal::S(_) => None,
                            })
                            .max()
                            .unwrap_or(1);
                        let mut chunk = 0.0f64;
                        for lane in 0..width {
                            chunk += lane_product(&fv, lane);
                        }
                        self.acc += chunk;
                        let mul = m.vec_op(active, Deps::from(entry_load));
                        self.acc_dep = m.vec_op(active, Deps::on(&[mul, self.acc_dep]));
                    }
                    BodyKind::ScatterLanes { keys, factors } => {
                        let keyv = entry.operands[keys].indexes();
                        let fv = factor_vals(&factors, entry);
                        let mul = m.vec_op(active, Deps::from(entry_load));
                        for (lane, k) in keyv.iter().enumerate() {
                            if entry.mask & (1 << lane) == 0 {
                                continue;
                            }
                            let key = self.key_for(entry, k);
                            entry_add(&mut self.out, key, lane_product(&fv, lane));
                        }
                        self.store(m, mul);
                    }
                    BodyKind::ScatterMerged { keys, vals } => {
                        let keyv = entry.operands[keys].indexes();
                        let sum: f64 = entry.operands[vals].f64s().iter().sum();
                        let first = entry.mask.trailing_zeros() as usize;
                        let key = self.key_for(entry, keyv.lane(first));
                        entry_add(&mut self.out, key, sum);
                        let add = m.vec_op(active, Deps::from(entry_load));
                        self.store(m, add);
                    }
                    BodyKind::ScatterPoint { factors } => {
                        let fv = factor_vals(&factors, entry);
                        let key = self.key_for(entry, 0);
                        entry_add(&mut self.out, key, lane_product(&fv, 0));
                        let mul = m.vec_op(active, Deps::from(entry_load));
                        self.store(m, mul);
                    }
                }
            }
            CB_COMMIT => {
                let key = self.key_for(entry, 0);
                let v = self.acc;
                self.acc = 0.0;
                entry_add(&mut self.out, key, v);
                let dep = self.acc_dep;
                self.acc_dep = OpId::NONE;
                self.store(m, dep);
            }
            other => panic!("expression handler: unexpected callback {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::auto_bind;
    use crate::graph::IterationGraph;
    use crate::parse::parse;
    use tmu_kernels::mapping::features;
    use tmu_tensor::gen;

    fn lowered(src: &str, base: &tmu_tensor::CsrMatrix) -> Lowered {
        let e = parse(src).expect("valid");
        let g = IterationGraph::build(&e).expect("acyclic");
        let ab = auto_bind(&e, base).expect("binds");
        lower(&e, &g, &ab.binds, 8).expect("lowers")
    }

    #[test]
    fn spmv_features_match_handwritten() {
        let a = gen::uniform(64, 48, 4, 3);
        let l = lowered("y(i) = A(i,j:csr) * x(j)", &a);
        let hand = tmu_kernels::spmv::Spmv::new(&a);
        assert_eq!(
            features(&l.program),
            features(&hand.build_program((0, 64), 8))
        );
        assert!(matches!(l.plan.body, BodyKind::Reduce { .. }));
    }

    #[test]
    fn conj_merge_lowering_builds() {
        let a = gen::uniform(32, 40, 4, 5);
        let l = lowered("y(i) = A(i,j:csr) * x(j:sparse)", &a);
        let f = features(&l.program);
        assert!(f.mem && f.dns && f.rng);
        assert!(f.modes.contains(&LayerMode::ConjMrg));
    }

    #[test]
    fn disjunctive_sum_lowering_builds() {
        let base = gen::uniform(64, 32, 3, 7);
        let l = lowered("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)", &base);
        let f = features(&l.program);
        assert_eq!(f.modes, vec![LayerMode::DisjMrg]);
        assert!(matches!(l.plan.body, BodyKind::ScatterMerged { .. }));
        assert_eq!(l.plan.slots, 1);
    }

    #[test]
    fn spmspm_forwards_the_outer_value() {
        let a = gen::uniform(48, 48, 3, 9);
        let l = lowered("Z(i,j) = A(i,k:csr) * B(k,j:csr)", &a);
        let f = features(&l.program);
        assert!(f.fwd, "outer factor should forward through the body lanes");
        assert!(f.chained_mem, "B's pointer pair is a chained gather");
        assert!(matches!(l.plan.body, BodyKind::ScatterLanes { .. }));
    }

    #[test]
    fn unsupported_shapes_error_cleanly() {
        let base = gen::uniform(16, 16, 2, 1);
        let e = parse("Z(i,j) = A(i,j:dcsr) + B(i,j:dense)").expect("parses");
        if let Ok(g) = IterationGraph::build(&e) {
            if let Ok(ab) = auto_bind(&e, &base) {
                let err = lower(&e, &g, &ab.binds, 8).expect_err("must not lower");
                assert!(
                    matches!(err.kind, ErrorKind::Unsupported | ErrorKind::Binding),
                    "{err}"
                );
            }
        }
    }
}
