//! SamStream: a cycle-approximate SAM-style streaming dataflow model.
//!
//! The Sparse Abstract Machine (SAM) expresses sparse tensor algebra as a
//! graph of streaming primitives — level scanners that emit coordinate
//! streams, mergers that intersect or union them, repeaters, and reducers
//! — connected by bounded token queues with backpressure. This module
//! compiles the same `tmu-front` iteration graph the TMU path lowers from
//! into such a fabric and ticks it one token per node per cycle.
//!
//! # Construction
//!
//! Each term of the expression becomes a chain of stream nodes, one per
//! iteration-graph loop the term binds:
//!
//! * no sparse participant → [`NodeKind::Counter`] (dense coordinate
//!   generator),
//! * one sparse participant → [`NodeKind::Scanner`] (compressed-fiber
//!   walker: pointer-pair load, then one coordinate token per stored
//!   entry),
//! * `k ≥ 2` sparse participants → `k` side [`NodeKind::Scanner`]s
//!   feeding a two-pointer [`NodeKind::Intersect`] merger.
//!
//! Below the loops sit a [`NodeKind::ValLoad`] (one value load per
//! factor), a [`NodeKind::Mul`] (the factor product), and a
//! [`NodeKind::Reduce`] writer that scatter-accumulates into the output.
//!
//! # Execution and bit-identity
//!
//! The fabric is *recorded*: a walk that mirrors the reference
//! interpreter (`tmu_front::interp`) appends one `Step` per token to
//! each node's script, then a tick loop replays the scripts through
//! capacity-bounded FIFO queues. Terms run sequentially as separate
//! fabric configurations, and each term's products reach the reduce
//! writer in FIFO order — exactly the order the interpreter accumulates
//! in — so the functional result produced *through* the machine is
//! bit-identical to [`ExprWorkload::oracle`] by construction.
//!
//! Multi-term expressions with no reduced loops whose output keys ascend
//! in loop order (the SpKAdd shape) instead run all term chains
//! concurrently into a K-way [`NodeKind::Union`] merger that folds
//! equal-key tokens in term order — the same per-key sums, with the
//! merger's stall behaviour made visible.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use tmu_front::bindings::{Bindings, LevelData, TensorData};
use tmu_front::{Expr, ExprWorkload, IterationGraph};
use tmu_sim::{CoreStats, MemStats, RunStats, SystemConfig};
use tmu_tensor::CsrMatrix;

/// Capacity of every inter-node token queue. Small on purpose: the
/// interesting SAM behaviour is backpressure, not buffering.
pub const QUEUE_CAPACITY: usize = 8;

/// Assumed DRAM row-buffer hit fraction for the synthesized stats.
/// Scanner and value streams are sequential, so open-row hits dominate.
const ROW_HIT_RATE: f64 = 0.9;

/// Modeled load-to-use latency of a streaming (prefetch-friendly) load.
const STREAM_LOAD_LATENCY: u64 = 4;

/// What a stream node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Dense coordinate generator (one token per coordinate).
    Counter,
    /// Compressed-fiber walker (pointer-pair load, then coordinates).
    Scanner,
    /// Two-pointer conjunctive merger over its scanner inputs.
    Intersect,
    /// K-way disjunctive merger over per-term product streams.
    Union,
    /// Loads each factor's leaf value at the merged position.
    ValLoad,
    /// Multiplies the factor values into one product token.
    Mul,
    /// Scatter-accumulates product tokens into the output.
    Reduce,
}

/// One scripted firing of a node: pop a token from every input edge in
/// `consume` (a bitmask over the node's local inputs), optionally push
/// one token onto every output edge, and account the listed traffic.
#[derive(Debug, Clone, Copy)]
struct Step {
    consume: u32,
    produce: bool,
    bytes: u32,
    loads: u8,
    flops: u8,
}

#[derive(Debug)]
struct Node {
    kind: NodeKind,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    steps: Vec<Step>,
}

/// A fabric under construction: nodes in topological (creation) order
/// plus the token edges between them.
#[derive(Debug, Default)]
struct Fabric {
    nodes: Vec<Node>,
    edges: usize,
}

impl Fabric {
    fn node(&mut self, kind: NodeKind) -> usize {
        self.nodes.push(Node {
            kind,
            inputs: Vec::new(),
            outputs: Vec::new(),
            steps: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn connect(&mut self, from: usize, to: usize) {
        let e = self.edges;
        self.edges += 1;
        self.nodes[from].outputs.push(e);
        self.nodes[to].inputs.push(e);
    }

    fn step(&mut self, node: usize, consume: u32, produce: bool, bytes: u32, loads: u8, flops: u8) {
        self.nodes[node].steps.push(Step {
            consume,
            produce,
            bytes,
            loads,
            flops,
        });
    }
}

/// One factor's participation in a loop (mirrors the interpreter).
#[derive(Debug, Clone, Copy)]
struct Part {
    factor: usize,
    level: usize,
    sparse: bool,
}

struct TermEval<'a> {
    datas: Vec<&'a TensorData>,
    parts: Vec<Vec<Part>>,
    out_pos: Vec<Option<usize>>,
}

fn term_eval<'a>(
    term: &[tmu_front::Access],
    graph: &IterationGraph,
    binds: &'a Bindings,
) -> TermEval<'a> {
    let datas: Vec<&TensorData> = term
        .iter()
        .map(|a| binds.get(&a.tensor, a.span).expect("bindings validated"))
        .collect();
    let parts = graph
        .loops
        .iter()
        .map(|l| {
            term.iter()
                .enumerate()
                .filter_map(|(f, a)| {
                    a.level_of(&l.var).map(|lv| Part {
                        factor: f,
                        level: lv,
                        sparse: a.level_is_sparse(lv),
                    })
                })
                .collect()
        })
        .collect();
    TermEval {
        datas,
        parts,
        out_pos: graph.loops.iter().map(|l| l.output_pos).collect(),
    }
}

/// The stream nodes materialized for one loop depth of one term.
struct DepthSlot {
    /// Counter, scanner, or intersect — whichever carries the merged
    /// coordinate stream downstream.
    main: usize,
    /// Side scanners feeding `main` when it is an intersect.
    scanners: Vec<usize>,
    /// Whether this depth consumes a parent token from the chain above.
    has_input: bool,
}

struct Chain {
    slots: Vec<Option<DepthSlot>>,
    valload: usize,
    mul: usize,
    /// Consume mask of the valload (0 when the chain has no loop nodes).
    vl_consume: u32,
}

fn build_chain(fabric: &mut Fabric, ev: &TermEval<'_>) -> Chain {
    let mut prev: Option<usize> = None;
    let mut slots = Vec::with_capacity(ev.parts.len());
    for ps in &ev.parts {
        if ps.is_empty() {
            slots.push(None);
            continue;
        }
        let drivers = ps.iter().filter(|p| p.sparse).count();
        let has_input = prev.is_some();
        let slot = match drivers {
            0 | 1 => {
                let kind = if drivers == 0 {
                    NodeKind::Counter
                } else {
                    NodeKind::Scanner
                };
                let n = fabric.node(kind);
                if let Some(p) = prev {
                    fabric.connect(p, n);
                }
                prev = Some(n);
                DepthSlot {
                    main: n,
                    scanners: Vec::new(),
                    has_input,
                }
            }
            k => {
                let scanners: Vec<usize> = (0..k)
                    .map(|_| {
                        let s = fabric.node(NodeKind::Scanner);
                        if let Some(p) = prev {
                            fabric.connect(p, s);
                        }
                        s
                    })
                    .collect();
                let x = fabric.node(NodeKind::Intersect);
                for &s in &scanners {
                    fabric.connect(s, x);
                }
                prev = Some(x);
                DepthSlot {
                    main: x,
                    scanners,
                    has_input,
                }
            }
        };
        slots.push(Some(slot));
    }
    let valload = fabric.node(NodeKind::ValLoad);
    let vl_consume = match prev {
        Some(p) => {
            fabric.connect(p, valload);
            1
        }
        None => 0,
    };
    let mul = fabric.node(NodeKind::Mul);
    fabric.connect(valload, mul);
    Chain {
        slots,
        valload,
        mul,
        vl_consume,
    }
}

/// Records one term's token scripts by mirroring the interpreter's walk.
struct Rec<'a, 'f> {
    ev: &'a TermEval<'a>,
    chain: &'a Chain,
    fabric: &'f mut Fabric,
    /// The reduce writer, when this term scatter-accumulates directly
    /// (sequential configuration). `None` under a union merger.
    reduce: Option<usize>,
    /// Output map mirrored at record time (decides store vs read-modify-
    /// write bytes at the reduce writer). Shared across terms.
    out: &'f mut BTreeMap<Vec<u32>, f64>,
    /// Product tokens in emission order, replayed functionally at sim time.
    products: Vec<(Vec<u32>, f64)>,
}

impl Rec<'_, '_> {
    fn walk(&mut self, depth: usize, pos: &mut Vec<usize>, key: &mut Vec<u32>) {
        let ev = self.ev;
        if depth == ev.parts.len() {
            let nf = ev.datas.len();
            let v = ev
                .datas
                .iter()
                .zip(pos.iter())
                .fold(1.0f64, |acc, (d, &p)| acc * d.value(p));
            let c = self.chain;
            self.fabric
                .step(c.valload, c.vl_consume, true, (nf * 8) as u32, nf as u8, 0);
            self.fabric.step(c.mul, 1, true, 0, 0, nf as u8);
            if let Some(rn) = self.reduce {
                match self.out.entry(key.clone()) {
                    Entry::Vacant(e) => {
                        e.insert(v);
                        self.fabric.step(rn, 1, false, 8, 0, 0);
                    }
                    Entry::Occupied(mut e) => {
                        *e.get_mut() += v;
                        self.fabric.step(rn, 1, false, 16, 1, 0);
                    }
                }
            }
            self.products.push((key.clone(), v));
            return;
        }
        let ps = &ev.parts[depth];
        if ps.is_empty() {
            self.walk(depth + 1, pos, key);
            return;
        }
        let slot = self.chain.slots[depth].as_ref().expect("slot present");
        let parent = u32::from(slot.has_input);
        let saved: Vec<usize> = ps.iter().map(|p| pos[p.factor]).collect();
        let drivers: Vec<Part> = ps.iter().filter(|p| p.sparse).copied().collect();
        let parent_of = |d: &Part| {
            saved[ps
                .iter()
                .position(|q| q.factor == d.factor)
                .expect("present")]
        };

        match drivers.len() {
            0 => {
                let size = match &ev.datas[ps[0].factor].levels[ps[0].level] {
                    LevelData::Dense { size } => *size,
                    LevelData::Compressed { .. } => unreachable!("no drivers"),
                };
                if size == 0 && parent != 0 {
                    self.fabric.step(slot.main, parent, false, 0, 0, 0);
                }
                for c in 0..size {
                    let consume = if c == 0 { parent } else { 0 };
                    self.fabric.step(slot.main, consume, true, 0, 0, 0);
                    self.emit(depth, c as u32, &[], &saved, pos, key);
                }
            }
            1 => {
                let d = drivers[0];
                let data = ev.datas[d.factor];
                let (b, e) = data.fiber(d.level, parent_of(&d));
                if b == e {
                    // Empty fiber: the pointer pair is still read.
                    self.fabric.step(slot.main, parent, false, 8, 1, 0);
                }
                for p in b..e {
                    let first = p == b;
                    let consume = if first { parent } else { 0 };
                    // The first token carries the pointer-pair load (8B)
                    // plus its coordinate (4B); the rest stream 4B each.
                    let bytes = if first { 12 } else { 4 };
                    self.fabric.step(slot.main, consume, true, bytes, 1, 0);
                    self.emit(
                        depth,
                        data.coord(d.level, p),
                        &[(d.factor, p)],
                        &saved,
                        pos,
                        key,
                    );
                }
            }
            _ => {
                let fibers: Vec<(usize, usize)> = drivers
                    .iter()
                    .map(|d| ev.datas[d.factor].fiber(d.level, parent_of(d)))
                    .collect();
                // Side scanners emit their whole fibers; the intersect
                // pops them in two-pointer order and drains leftovers.
                for (i, _) in drivers.iter().enumerate() {
                    let sc = slot.scanners[i];
                    let (b, e) = fibers[i];
                    if b == e {
                        self.fabric.step(sc, parent, false, 8, 1, 0);
                    }
                    for p in b..e {
                        let first = p == b;
                        let consume = if first { parent } else { 0 };
                        let bytes = if first { 12 } else { 4 };
                        self.fabric.step(sc, consume, true, bytes, 1, 0);
                    }
                }
                let mut heads: Vec<usize> = fibers.iter().map(|&(b, _)| b).collect();
                'merge: loop {
                    let mut target = 0u32;
                    for (i, d) in drivers.iter().enumerate() {
                        if heads[i] >= fibers[i].1 {
                            break 'merge;
                        }
                        target = target.max(ev.datas[d.factor].coord(d.level, heads[i]));
                    }
                    let mut matched = true;
                    for (i, d) in drivers.iter().enumerate() {
                        let data = ev.datas[d.factor];
                        while heads[i] < fibers[i].1 && data.coord(d.level, heads[i]) < target {
                            heads[i] += 1;
                            // Head advance: pop one token from input i.
                            self.fabric.step(slot.main, 1 << i, false, 0, 0, 0);
                        }
                        if heads[i] >= fibers[i].1 {
                            break 'merge;
                        }
                        if data.coord(d.level, heads[i]) != target {
                            matched = false;
                        }
                    }
                    if matched {
                        let dp: Vec<(usize, usize)> = drivers
                            .iter()
                            .enumerate()
                            .map(|(i, d)| (d.factor, heads[i]))
                            .collect();
                        let all = (1u32 << drivers.len()) - 1;
                        self.fabric.step(slot.main, all, true, 0, 0, 0);
                        self.emit(depth, target, &dp, &saved, pos, key);
                        for h in heads.iter_mut() {
                            *h += 1;
                        }
                    }
                }
                // Drain tokens the merge never reached (an input ran out).
                for (i, _) in drivers.iter().enumerate() {
                    for _ in heads[i]..fibers[i].1 {
                        self.fabric.step(slot.main, 1 << i, false, 0, 0, 0);
                    }
                }
            }
        }
        for (p, &s) in ps.iter().zip(&saved) {
            pos[p.factor] = s;
        }
    }

    fn emit(
        &mut self,
        depth: usize,
        c: u32,
        driver_pos: &[(usize, usize)],
        saved: &[usize],
        pos: &mut Vec<usize>,
        key: &mut Vec<u32>,
    ) {
        let ev = self.ev;
        let ps = &ev.parts[depth];
        for &(f, p) in driver_pos {
            pos[f] = p;
        }
        for part in ps.iter().filter(|p| !p.sparse) {
            let size = match &ev.datas[part.factor].levels[part.level] {
                LevelData::Dense { size } => *size,
                LevelData::Compressed { .. } => unreachable!("dense participant"),
            };
            pos[part.factor] = saved[ps
                .iter()
                .position(|q| q.factor == part.factor)
                .expect("present")]
                * size
                + c as usize;
        }
        if let Some(op) = ev.out_pos[depth] {
            key[op] = c;
        }
        self.walk(depth + 1, pos, key);
    }
}

/// Aggregate counters of one ticked fabric configuration.
#[derive(Debug, Default, Clone, Copy)]
struct SimOut {
    ticks: u64,
    busy: u64,
    steps: u64,
    loads: u64,
    flops: u64,
    bytes: u64,
    tokens: u64,
    merger_stalls: u64,
}

/// Replays a recorded fabric one step per node per cycle through
/// capacity-[`QUEUE_CAPACITY`] FIFO queues. `apply` fires once per
/// [`NodeKind::Reduce`] step, in FIFO token order.
fn tick_sim(fabric: &Fabric, cycle0: u64, apply: &mut dyn FnMut(usize)) -> SimOut {
    let mut q = vec![0usize; fabric.edges];
    let mut ptr = vec![0usize; fabric.nodes.len()];
    let mut produced = vec![0u64; fabric.nodes.len()];
    let mut out = SimOut::default();
    loop {
        let mut done = true;
        let mut fired = false;
        for (n, node) in fabric.nodes.iter().enumerate() {
            if ptr[n] >= node.steps.len() {
                continue;
            }
            done = false;
            let st = node.steps[ptr[n]];
            let can_consume = (0..node.inputs.len())
                .all(|b| st.consume & (1 << b) == 0 || q[node.inputs[b]] >= 1);
            let can_produce = !st.produce || node.outputs.iter().all(|&e| q[e] < QUEUE_CAPACITY);
            if can_consume && can_produce {
                for (b, &e) in node.inputs.iter().enumerate() {
                    if st.consume & (1 << b) != 0 {
                        q[e] -= 1;
                    }
                }
                if st.produce {
                    for &e in &node.outputs {
                        q[e] += 1;
                    }
                    produced[n] += 1;
                    out.tokens += 1;
                    tmu_trace::with(|tr| {
                        let c = tr.component("backends.sam");
                        tr.event(
                            c,
                            cycle0 + out.ticks,
                            tmu_trace::EventKind::StreamToken,
                            (n as u64) << 32 | (produced[n] & 0xFFFF_FFFF),
                        );
                    });
                }
                if node.kind == NodeKind::Reduce {
                    apply(n);
                }
                ptr[n] += 1;
                out.steps += 1;
                out.loads += u64::from(st.loads);
                out.flops += u64::from(st.flops);
                out.bytes += u64::from(st.bytes);
                fired = true;
            } else if matches!(node.kind, NodeKind::Intersect | NodeKind::Union) {
                out.merger_stalls += 1;
                tmu_trace::with(|tr| {
                    let c = tr.component("backends.sam");
                    tr.event(
                        c,
                        cycle0 + out.ticks,
                        tmu_trace::EventKind::MergerStall,
                        n as u64,
                    );
                });
            }
        }
        if done {
            break;
        }
        assert!(
            fired,
            "sam fabric deadlocked at cycle {} (inconsistent scripts)",
            out.ticks
        );
        out.ticks += 1;
        out.busy += 1;
    }
    out
}

/// Whether the whole expression can run as one concurrent union fabric:
/// several terms, no reduced loops, and output keys that ascend in loop
/// order (so each term's product stream is key-sorted and a K-way merge
/// is well-defined). The SpKAdd shape.
fn union_eligible(expr: &Expr, graph: &IterationGraph) -> bool {
    expr.terms.len() > 1
        && expr.terms.len() <= 32
        && graph.loops.iter().all(|l| l.output_pos.is_some())
        && graph
            .loops
            .windows(2)
            .all(|w| w[0].output_pos < w[1].output_pos)
        && expr.output.rank() == graph.loops.len()
}

/// The result of one SamStream execution.
#[derive(Debug)]
pub struct SamRun {
    /// Synthesized run statistics (cycles, traffic, flops).
    pub stats: RunStats,
    /// Total tokens that crossed the stream fabric.
    pub tokens: u64,
    /// Cycles any merger spent unable to fire (input dry or output full).
    pub merger_stalls: u64,
    /// Stream nodes materialized across all configurations.
    pub nodes: usize,
    /// The output produced through the token machine, keyed like the
    /// interpreter's result. Bit-identical to [`ExprWorkload::oracle`].
    pub result: BTreeMap<Vec<u32>, f64>,
}

/// The einsum SamStream runs for a Table 4 kernel name, when it has one.
pub fn einsum_for(kernel: &str) -> Option<&'static str> {
    match kernel {
        "SpMV" => Some("y(i) = A(i,j:csr) * x(j)"),
        "SpMSpM" => Some("Z(i,j) = A(i,k:csr) * B(k,j:csr)"),
        "SpKAdd" => Some("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)"),
        _ => None,
    }
}

/// Runs a Table 4 kernel (via its einsum form, see [`einsum_for`]) on
/// matrix `a`, or `None` when the kernel has no einsum form.
pub fn run_kernel(kernel: &str, a: &CsrMatrix, cfg: SystemConfig) -> Option<SamRun> {
    let w = ExprWorkload::new(einsum_for(kernel)?, a).expect("kernel einsum compiles");
    Some(run_expr(&w, cfg))
}

/// Compiles `w`'s iteration graph into a streaming fabric, ticks it, and
/// returns the synthesized stats plus the functional result.
pub fn run_expr(w: &ExprWorkload, cfg: SystemConfig) -> SamRun {
    let expr = w.expr();
    let graph = w.graph();
    let binds = w.bindings();
    let out_rank = expr.output.rank();

    let mut rec_out: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    let mut sim_out: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    let mut agg = SimOut::default();
    let mut total_nodes = 0usize;

    if union_eligible(expr, graph) {
        // One concurrent fabric: every term's chain feeds a K-way union.
        let mut fabric = Fabric::default();
        let evs: Vec<TermEval<'_>> = expr
            .terms
            .iter()
            .map(|t| term_eval(t, graph, binds))
            .collect();
        let chains: Vec<Chain> = evs.iter().map(|ev| build_chain(&mut fabric, ev)).collect();
        let mut prods: Vec<Vec<(Vec<u32>, f64)>> = Vec::with_capacity(evs.len());
        for (ev, chain) in evs.iter().zip(&chains) {
            let mut rec = Rec {
                ev,
                chain,
                fabric: &mut fabric,
                reduce: None,
                out: &mut rec_out,
                products: Vec::new(),
            };
            let mut pos = vec![0usize; ev.datas.len()];
            let mut key = vec![0u32; out_rank];
            rec.walk(0, &mut pos, &mut key);
            prods.push(rec.products);
        }
        let union = fabric.node(NodeKind::Union);
        for chain in &chains {
            fabric.connect(chain.mul, union);
        }
        let writer = fabric.node(NodeKind::Reduce);
        fabric.connect(union, writer);
        // K-way merge over the per-term product streams, folding equal
        // keys in term order (the interpreter's accumulation order).
        let mut heads = vec![0usize; prods.len()];
        let mut folded: Vec<(Vec<u32>, f64)> = Vec::new();
        loop {
            let mut min: Option<&Vec<u32>> = None;
            for (t, p) in prods.iter().enumerate() {
                if let Some((k, _)) = p.get(heads[t]) {
                    if min.is_none_or(|m| k < m) {
                        min = Some(k);
                    }
                }
            }
            let Some(min) = min.cloned() else { break };
            let mut mask = 0u32;
            let mut acc: Option<f64> = None;
            for (t, p) in prods.iter().enumerate() {
                if let Some((k, v)) = p.get(heads[t]) {
                    if *k == min {
                        mask |= 1 << t;
                        acc = Some(match acc {
                            None => *v,
                            Some(a) => a + *v,
                        });
                        heads[t] += 1;
                    }
                }
            }
            let v = acc.expect("at least one way matched");
            let ways = mask.count_ones() as u8;
            fabric.step(union, mask, true, 0, 0, ways - 1);
            rec_out.insert(min.clone(), v);
            folded.push((min, v));
        }
        for _ in &folded {
            fabric.step(writer, 1, false, 8, 0, 0);
        }
        let mut cursor = 0usize;
        agg = tick_sim(&fabric, 0, &mut |_| {
            let (k, v) = &folded[cursor];
            cursor += 1;
            sim_out.insert(k.clone(), *v);
        });
        assert_eq!(cursor, folded.len(), "writer replayed every token");
        total_nodes = fabric.nodes.len();
    } else {
        // Sequential configurations: one fabric per term, in term order,
        // scatter-accumulating into a shared output.
        for term in &expr.terms {
            let ev = term_eval(term, graph, binds);
            let mut fabric = Fabric::default();
            let chain = build_chain(&mut fabric, &ev);
            let reduce = fabric.node(NodeKind::Reduce);
            fabric.connect(chain.mul, reduce);
            let mut rec = Rec {
                ev: &ev,
                chain: &chain,
                fabric: &mut fabric,
                reduce: Some(reduce),
                out: &mut rec_out,
                products: Vec::new(),
            };
            let mut pos = vec![0usize; ev.datas.len()];
            let mut key = vec![0u32; out_rank];
            rec.walk(0, &mut pos, &mut key);
            let products = rec.products;
            let mut cursor = 0usize;
            let so = tick_sim(&fabric, agg.ticks, &mut |_| {
                let (k, v) = &products[cursor];
                cursor += 1;
                match sim_out.entry(k.clone()) {
                    Entry::Vacant(e) => {
                        e.insert(*v);
                    }
                    Entry::Occupied(mut e) => {
                        *e.get_mut() += *v;
                    }
                }
            });
            assert_eq!(cursor, products.len(), "reducer replayed every token");
            agg.ticks += so.ticks;
            agg.busy += so.busy;
            agg.steps += so.steps;
            agg.loads += so.loads;
            agg.flops += so.flops;
            agg.bytes += so.bytes;
            agg.tokens += so.tokens;
            agg.merger_stalls += so.merger_stalls;
            total_nodes += fabric.nodes.len();
        }
    }
    debug_assert_eq!(
        rec_out, sim_out,
        "record-time and machine-replayed outputs must agree"
    );

    // Wall clock: the fabric throughput, floored by what the DRAM
    // channels can stream (64B lines at cycles_per_line per channel).
    let dram = &cfg.mem.dram;
    let bw_cycles =
        (agg.bytes as f64 * dram.cycles_per_line / 64.0 / dram.channels as f64).ceil() as u64;
    let cycles = agg.ticks.max(bw_cycles);
    let core = CoreStats {
        committing: agg.busy,
        frontend: 0,
        backend: (agg.ticks - agg.busy) + (cycles - agg.ticks),
        cycles,
        committed: agg.steps,
        loads: agg.loads,
        load_latency_sum: agg.loads * STREAM_LOAD_LATENCY,
        flops: agg.flops,
        branches: 0,
        mispredicts: 0,
    };
    let stats = RunStats {
        cycles,
        cores: vec![core],
        dram_bytes: agg.bytes,
        dram_row_hit_rate: ROW_HIT_RATE,
        freq_ghz: cfg.core.freq_ghz,
        mem: MemStats::default(),
    };
    SamRun {
        stats,
        tokens: agg.tokens,
        merger_stalls: agg.merger_stalls,
        nodes: total_nodes,
        result: sim_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::{CoreConfig, MemSysConfig};
    use tmu_tensor::gen;

    fn cfg() -> SystemConfig {
        SystemConfig {
            core: CoreConfig::neoverse_n1_like(),
            mem: MemSysConfig::table5(1),
        }
    }

    fn assert_bit_identical(run: &SamRun, oracle: &BTreeMap<Vec<u32>, f64>) {
        assert_eq!(run.result.len(), oracle.len(), "key sets differ");
        for (k, v) in oracle {
            let got = run.result.get(k).expect("key present");
            assert_eq!(
                got.to_bits(),
                v.to_bits(),
                "value at {k:?}: got {got}, want {v}"
            );
        }
    }

    #[test]
    fn spmv_is_bit_identical_to_the_interpreter() {
        let a = gen::uniform(96, 80, 5, 11);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &a).expect("compiles");
        let run = run_expr(&w, cfg());
        assert_bit_identical(&run, w.oracle());
        assert!(run.stats.cycles > 0);
        assert!(run.tokens as usize > a.nnz());
    }

    #[test]
    fn conjunctive_merge_is_bit_identical() {
        let a = gen::uniform(64, 120, 6, 13);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j:sparse)", &a).expect("compiles");
        let run = run_expr(&w, cfg());
        assert_bit_identical(&run, w.oracle());
    }

    #[test]
    fn spkadd_uses_the_union_fabric() {
        let base = gen::uniform(80, 48, 4, 17);
        let w = ExprWorkload::new("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)", &base).expect("compiles");
        assert!(union_eligible(w.expr(), w.graph()));
        let run = run_expr(&w, cfg());
        assert_bit_identical(&run, w.oracle());
    }

    #[test]
    fn contraction_with_reduction_runs_sequentially() {
        let base = gen::uniform(48, 40, 4, 19);
        let w = ExprWorkload::new("Z(i,j) = A(i,k:csr) * B(k,j:csr)", &base).expect("compiles");
        assert!(!union_eligible(w.expr(), w.graph()));
        let run = run_expr(&w, cfg());
        assert_bit_identical(&run, w.oracle());
    }

    #[test]
    fn kernel_entry_points_cover_the_streaming_kernels() {
        let a = gen::uniform(56, 56, 4, 23);
        for k in ["SpMV", "SpMSpM", "SpKAdd"] {
            let run = run_kernel(k, &a, cfg()).expect("a streaming kernel");
            assert!(run.stats.cycles > 0, "{k} ran");
            assert!(!run.result.is_empty(), "{k} produced output");
        }
    }

    #[test]
    fn throughput_is_about_one_token_per_node_per_cycle() {
        let a = gen::uniform(64, 64, 4, 29);
        let w = ExprWorkload::new("y(i) = A(i,j:csr) * x(j)", &a).expect("compiles");
        let run = run_expr(&w, cfg());
        // The busiest node fires once per cycle, so the tick count is at
        // least nnz (the per-entry nodes) and far below total steps.
        assert!(run.stats.cycles as usize >= a.nnz());
        assert!(run.stats.total().committed > run.stats.cycles);
    }

    #[test]
    fn unsupported_kernels_return_none() {
        let a = gen::uniform(8, 8, 2, 3);
        assert!(run_kernel("PR", &a, cfg()).is_none());
    }
}
