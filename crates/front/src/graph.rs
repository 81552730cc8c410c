//! Iteration graph + merge lattice construction.
//!
//! For each index variable the pass decides which operand fibers
//! co-iterate and how they merge, following the `tmu_tensor::merge`
//! semantics: products of compressed fibers intersect (conjunctive, ×),
//! sums union (disjunctive, +), and a single compressed fiber against
//! dense operands walks alone (lockstep with gathers). The loop order is
//! the topological order induced by each access's storage order.

use std::fmt;

use crate::ast::Expr;
use crate::{ErrorKind, FrontError, Span};

/// How one index variable's loop iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// No compressed fiber binds the variable: a counted dense loop.
    Dense,
    /// Exactly one compressed fiber drives the loop; dense operands are
    /// gathered at its coordinates.
    Walk,
    /// As [`LoopKind::Walk`], but the loop is innermost and non-root, so
    /// it is lane-split and runs lockstep across TUs.
    WalkVec,
    /// Two or more compressed fibers in the same product term: iterate
    /// their sorted intersection (conjunctive merge).
    Conj,
    /// Compressed fibers from different sum terms: iterate their sorted
    /// union (disjunctive merge).
    Disj,
}

impl LoopKind {
    /// The lattice symbol used in diagnostics (`×` conjunctive, `+`
    /// disjunctive, `∥` lockstep walks, `·` dense).
    pub fn symbol(self) -> &'static str {
        match self {
            LoopKind::Dense => "·",
            LoopKind::Walk | LoopKind::WalkVec => "∥",
            LoopKind::Conj => "×",
            LoopKind::Disj => "+",
        }
    }
}

/// One compressed fiber that participates in a loop's merge: the access
/// is `expr.terms[term][factor]` and the fiber is its level `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Driver {
    /// Sum-term index into `Expr::terms`.
    pub term: usize,
    /// Factor index within the term.
    pub factor: usize,
    /// Level of that access bound to the loop's variable.
    pub level: usize,
}

/// One loop of the iteration graph, outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexLoop {
    /// The index variable.
    pub var: String,
    /// Merge-lattice decision for the loop.
    pub kind: LoopKind,
    /// Compressed fibers co-iterated by the loop (empty for dense loops).
    pub drivers: Vec<Driver>,
    /// Position of the variable in the output access, `None` when it is
    /// reduced away.
    pub output_pos: Option<usize>,
}

/// The ordered iteration graph of an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationGraph {
    /// Loops, outermost first.
    pub loops: Vec<IndexLoop>,
}

impl IterationGraph {
    /// Builds the iteration graph: topologically orders the index
    /// variables under every access's storage-order constraints (ties
    /// broken by first appearance in the expression), then classifies
    /// each loop's merge.
    pub fn build(expr: &Expr) -> Result<Self, FrontError> {
        // Variables in first-appearance order across the rhs.
        let mut vars: Vec<String> = Vec::new();
        for a in expr.rhs_accesses() {
            for ix in &a.indices {
                if !vars.contains(&ix.name) {
                    vars.push(ix.name.clone());
                }
            }
        }

        // Storage-order edges: within each access, index n must enclose
        // index n+1.
        let n = vars.len();
        let pos = |name: &str| vars.iter().position(|v| v == name).expect("collected");
        let mut edges = vec![vec![false; n]; n];
        let mut indeg = vec![0usize; n];
        for a in expr.rhs_accesses() {
            for w in a.indices.windows(2) {
                let (from, to) = (pos(&w[0].name), pos(&w[1].name));
                if !edges[from][to] {
                    edges[from][to] = true;
                    indeg[to] += 1;
                }
            }
        }

        // Stable Kahn: among ready variables pick the earliest-appearing.
        let mut order = Vec::with_capacity(n);
        let mut done = vec![false; n];
        while order.len() < n {
            let Some(next) = (0..n).find(|&v| !done[v] && indeg[v] == 0) else {
                return Err(FrontError::new(
                    ErrorKind::Unsupported,
                    Span::new(0, expr.text.len()),
                    "the accesses impose contradictory index nesting orders (cycle)",
                ));
            };
            done[next] = true;
            order.push(next);
            for to in 0..n {
                if edges[next][to] {
                    indeg[to] -= 1;
                }
            }
        }

        // Classify each loop.
        let out_names = expr.output.index_names();
        let mut loops = Vec::with_capacity(n);
        for &v in &order {
            let var = &vars[v];
            let mut drivers = Vec::new();
            for (t, term) in expr.terms.iter().enumerate() {
                for (f, a) in term.iter().enumerate() {
                    if let Some(l) = a.level_of(var) {
                        if a.level_is_sparse(l) {
                            drivers.push(Driver {
                                term: t,
                                factor: f,
                                level: l,
                            });
                        }
                    }
                }
            }
            let terms_with: usize = {
                let mut ts: Vec<usize> = drivers.iter().map(|d| d.term).collect();
                ts.dedup();
                ts.len()
            };
            let kind = if drivers.is_empty() {
                LoopKind::Dense
            } else if terms_with > 1 {
                LoopKind::Disj
            } else if drivers.len() > 1 {
                LoopKind::Conj
            } else {
                LoopKind::Walk
            };
            loops.push(IndexLoop {
                var: var.clone(),
                kind,
                drivers,
                output_pos: out_names.iter().position(|o| *o == var.as_str()),
            });
        }

        // A lone compressed walk at the innermost, non-root level is
        // lane-split (the Figure 8 LockStep pattern).
        if let Some(last) = loops.last_mut() {
            if last.kind == LoopKind::Walk && last.drivers[0].level > 0 {
                last.kind = LoopKind::WalkVec;
            }
        }

        Ok(Self { loops })
    }

    /// The loop variables, outermost first.
    pub fn order(&self) -> Vec<&str> {
        self.loops.iter().map(|l| l.var.as_str()).collect()
    }
}

impl fmt::Display for IterationGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (depth, l) in self.loops.iter().enumerate() {
            let role = match l.output_pos {
                Some(p) => format!("output[{p}]"),
                None => "reduction".to_owned(),
            };
            write!(
                f,
                "{:indent$}for {} {:?} {} ({role}",
                "",
                l.var,
                l.kind,
                l.kind.symbol(),
                indent = depth * 2
            )?;
            if l.drivers.is_empty() {
                write!(f, ", dense loop)")?;
            } else {
                let list: Vec<String> = l
                    .drivers
                    .iter()
                    .map(|d| format!("t{}.f{}.l{}", d.term, d.factor, d.level))
                    .collect();
                write!(f, ", drivers {})", list.join(" "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn kinds(src: &str) -> Vec<(String, LoopKind)> {
        let e = parse(src).expect("valid");
        let g = IterationGraph::build(&e).expect("acyclic");
        g.loops.into_iter().map(|l| (l.var, l.kind)).collect()
    }

    #[test]
    fn spmv_lattice() {
        assert_eq!(
            kinds("y(i) = A(i,j:csr) * x(j)"),
            vec![
                ("i".to_owned(), LoopKind::Dense),
                ("j".to_owned(), LoopKind::WalkVec),
            ]
        );
    }

    #[test]
    fn spmspv_lattice_is_conjunctive() {
        assert_eq!(
            kinds("y(i) = A(i,j:csr) * x(j:sparse)"),
            vec![
                ("i".to_owned(), LoopKind::Dense),
                ("j".to_owned(), LoopKind::Conj),
            ]
        );
    }

    #[test]
    fn spkadd_lattice_is_disjunctive() {
        assert_eq!(
            kinds("Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)"),
            vec![
                ("i".to_owned(), LoopKind::Disj),
                ("j".to_owned(), LoopKind::Disj),
            ]
        );
    }

    #[test]
    fn spmspm_orders_k_between_i_and_j() {
        assert_eq!(
            kinds("Z(i,j) = A(i,k:csr) * B(k,j:csr)"),
            vec![
                ("i".to_owned(), LoopKind::Dense),
                ("k".to_owned(), LoopKind::Walk),
                ("j".to_owned(), LoopKind::WalkVec),
            ]
        );
    }

    #[test]
    fn csf_contraction_mixes_kinds() {
        assert_eq!(
            kinds("y(i) = A(i,j:csr) * T(j,k,l:csf) * x(l:dense)"),
            vec![
                ("i".to_owned(), LoopKind::Dense),
                ("j".to_owned(), LoopKind::Conj),
                ("k".to_owned(), LoopKind::Walk),
                ("l".to_owned(), LoopKind::WalkVec),
            ]
        );
    }

    #[test]
    fn root_walk_stays_single() {
        // SpTTV: the root compressed level walks without lane-splitting.
        assert_eq!(
            kinds("Z(i,j) = T(i,j,k) * c(k)"),
            vec![
                ("i".to_owned(), LoopKind::Walk),
                ("j".to_owned(), LoopKind::Walk),
                ("k".to_owned(), LoopKind::WalkVec),
            ]
        );
    }

    #[test]
    fn cyclic_order_is_rejected() {
        let e = parse("Z(i,j) = A(i,j:dcsr) + B(j,i:dcsr)").expect("parses");
        let err = IterationGraph::build(&e).expect_err("cycle");
        assert_eq!(err.kind, ErrorKind::Unsupported);
    }

    #[test]
    fn display_shows_lattice() {
        let e = parse("y(i) = A(i,j:csr) * x(j:sparse)").expect("valid");
        let g = IterationGraph::build(&e).expect("acyclic");
        let s = g.to_string();
        assert!(s.contains("for j Conj ×"), "{s}");
        assert!(s.contains("reduction"), "{s}");
    }
}
