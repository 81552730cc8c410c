//! Reference fiber co-iteration semantics (§2.4, Figure 2).
//!
//! Sparse kernels combine fibers by *merging* their sorted coordinate
//! streams. [`DisjunctiveMerge`] joins fibers (union of coordinates, used by
//! addition since `0 + x = x`); [`ConjunctiveMerge`] intersects them (used by
//! element-wise multiplication since `0 · x = 0`); [`LockstepIter`]
//! co-iterates positionally. These iterators are the oracle the TMU
//! engine's hardware mergers (Traversal Groups) are tested against: for any
//! set of fibers, the TG predicate/operand stream must equal the
//! [`MergeItem`] stream produced here.

use crate::{Idx, Val};

/// One step of a k-way merge.
///
/// `mask` is the multi-hot lane predicate of the paper: bit `j` is set when
/// fiber `j` participates in this step (its head coordinate equals the
/// step's output coordinate). `vals[j]` holds fiber `j`'s value when bit `j`
/// is set and `0.0` otherwise — mirroring how the TMU pads vector operands
/// for inactive lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeItem {
    /// Output coordinate of this step.
    pub coord: Idx,
    /// Multi-hot participation predicate (bit per fiber).
    pub mask: u64,
    /// Per-fiber values (zero-padded for non-participating fibers).
    pub vals: Vec<Val>,
}

impl MergeItem {
    /// Sum of participating values (the disjunctive combine rule).
    pub fn sum(&self) -> Val {
        self.vals.iter().sum()
    }

    /// Product of participating values (the conjunctive combine rule).
    ///
    /// Only meaningful for items produced by a conjunctive merge, where all
    /// fibers participate.
    pub fn product(&self) -> Val {
        self.vals.iter().product()
    }
}

/// A sorted fiber held as a pair of parallel slices.
#[derive(Debug, Clone, Copy)]
pub struct FiberSlice<'a> {
    idxs: &'a [Idx],
    vals: &'a [Val],
}

impl<'a> FiberSlice<'a> {
    /// Creates a fiber view over parallel coordinate/value slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn new(idxs: &'a [Idx], vals: &'a [Val]) -> Self {
        assert_eq!(idxs.len(), vals.len(), "fiber slices must be parallel");
        Self { idxs, vals }
    }

    /// Coordinates slice.
    pub fn idxs(&self) -> &'a [Idx] {
        self.idxs
    }

    /// Values slice.
    pub fn vals(&self) -> &'a [Val] {
        self.vals
    }

    /// Number of elements in the fiber.
    pub fn len(&self) -> usize {
        self.idxs.len()
    }

    /// Whether the fiber is empty.
    pub fn is_empty(&self) -> bool {
        self.idxs.is_empty()
    }
}

/// Disjunctive (union) k-way merge of sorted fibers (Figure 2, top).
///
/// Each step outputs the minimum head coordinate among non-exhausted fibers
/// and consumes every fiber sitting at that coordinate.
#[derive(Debug, Clone)]
pub struct DisjunctiveMerge<'a> {
    fibers: Vec<FiberSlice<'a>>,
    pos: Vec<usize>,
}

impl<'a> DisjunctiveMerge<'a> {
    /// Creates a disjunctive merge over `fibers`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 fibers are supplied (mask width).
    pub fn new(fibers: Vec<FiberSlice<'a>>) -> Self {
        assert!(fibers.len() <= 64, "at most 64 fibers per merge");
        let pos = vec![0; fibers.len()];
        Self { fibers, pos }
    }
}

impl Iterator for DisjunctiveMerge<'_> {
    type Item = MergeItem;

    fn next(&mut self) -> Option<MergeItem> {
        let min = self
            .fibers
            .iter()
            .zip(&self.pos)
            .filter_map(|(f, &p)| f.idxs.get(p).copied())
            .min()?;
        let mut mask = 0u64;
        let mut vals = vec![0.0; self.fibers.len()];
        for (j, (f, p)) in self.fibers.iter().zip(self.pos.iter_mut()).enumerate() {
            if f.idxs.get(*p) == Some(&min) {
                mask |= 1 << j;
                vals[j] = f.vals[*p];
                *p += 1;
            }
        }
        Some(MergeItem {
            coord: min,
            mask,
            vals,
        })
    }
}

/// Conjunctive (intersection) k-way merge of sorted fibers (Figure 2,
/// bottom).
///
/// Each step advances the fibers with minimum head coordinate but only
/// yields an item when *all* fibers share the coordinate.
#[derive(Debug, Clone)]
pub struct ConjunctiveMerge<'a> {
    fibers: Vec<FiberSlice<'a>>,
    pos: Vec<usize>,
}

impl<'a> ConjunctiveMerge<'a> {
    /// Creates a conjunctive merge over `fibers`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 fibers are supplied (mask width).
    pub fn new(fibers: Vec<FiberSlice<'a>>) -> Self {
        assert!(fibers.len() <= 64, "at most 64 fibers per merge");
        let pos = vec![0; fibers.len()];
        Self { fibers, pos }
    }
}

impl Iterator for ConjunctiveMerge<'_> {
    type Item = MergeItem;

    fn next(&mut self) -> Option<MergeItem> {
        if self.fibers.is_empty() {
            return None;
        }
        loop {
            // Conjunction ends as soon as any fiber is exhausted.
            let mut min = Idx::MAX;
            for (f, &p) in self.fibers.iter().zip(&self.pos) {
                match f.idxs.get(p) {
                    None => return None,
                    Some(&c) => min = min.min(c),
                }
            }
            let mut all = true;
            for (f, p) in self.fibers.iter().zip(self.pos.iter_mut()) {
                if f.idxs[*p] == min {
                    *p += 1;
                } else {
                    all = false;
                }
            }
            if all {
                let k = self.fibers.len();
                let vals: Vec<Val> = self
                    .fibers
                    .iter()
                    .zip(&self.pos)
                    .map(|(f, &p)| f.vals[p - 1])
                    .collect();
                let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
                return Some(MergeItem {
                    coord: min,
                    mask,
                    vals,
                });
            }
        }
    }
}

/// Positional lockstep co-iteration of fibers (§5.2, lockstep rule).
///
/// Each step yields the heads of all fibers that still have elements; the
/// mask marks the live lanes. This is the TMU's parallel-loading mode —
/// lanes traverse disjoint iteration spaces and their values are packed into
/// one vector operand per step.
#[derive(Debug, Clone)]
pub struct LockstepIter<'a> {
    fibers: Vec<FiberSlice<'a>>,
    pos: usize,
}

impl<'a> LockstepIter<'a> {
    /// Creates a lockstep co-iteration over `fibers`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 fibers are supplied (mask width).
    pub fn new(fibers: Vec<FiberSlice<'a>>) -> Self {
        assert!(fibers.len() <= 64, "at most 64 fibers per lockstep group");
        Self { fibers, pos: 0 }
    }
}

/// One lockstep step: per-lane `(coord, val)` heads for live lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepItem {
    /// Multi-hot predicate of lanes that produced an element this step.
    pub mask: u64,
    /// Per-lane coordinates (zero for finished lanes).
    pub coords: Vec<Idx>,
    /// Per-lane values (zero for finished lanes).
    pub vals: Vec<Val>,
}

impl Iterator for LockstepIter<'_> {
    type Item = LockstepItem;

    fn next(&mut self) -> Option<LockstepItem> {
        let mut mask = 0u64;
        let k = self.fibers.len();
        let mut coords = vec![0 as Idx; k];
        let mut vals = vec![0.0 as Val; k];
        for (j, f) in self.fibers.iter().enumerate() {
            if self.pos < f.len() {
                mask |= 1 << j;
                coords[j] = f.idxs[self.pos];
                vals[j] = f.vals[self.pos];
            }
        }
        if mask == 0 {
            return None;
        }
        self.pos += 1;
        Some(LockstepItem { mask, coords, vals })
    }
}

/// Disjunctively merges fibers into a single accumulated fiber
/// (coordinate-sorted, unique coordinates, values summed) — the *reduction*
/// operation of §2.5.
pub fn reduce_disjunctive(fibers: Vec<FiberSlice<'_>>) -> (Vec<Idx>, Vec<Val>) {
    let mut idxs = Vec::new();
    let mut vals = Vec::new();
    for item in DisjunctiveMerge::new(fibers) {
        idxs.push(item.coord);
        vals.push(item.sum());
    }
    (idxs, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two fibers of Figure 2: A = {0:A, 2:B, 5:E}, B = {2:C, 3:D, 5:F}
    /// (letters replaced by 1..6).
    fn figure2() -> (Vec<Idx>, Vec<Val>, Vec<Idx>, Vec<Val>) {
        (
            vec![0, 2, 5],
            vec![1.0, 2.0, 5.0],
            vec![2, 3, 5],
            vec![3.0, 4.0, 6.0],
        )
    }

    #[test]
    fn disjunctive_matches_figure2() {
        let (ai, av, bi, bv) = figure2();
        let items: Vec<_> =
            DisjunctiveMerge::new(vec![FiberSlice::new(&ai, &av), FiberSlice::new(&bi, &bv)])
                .collect();
        // Paper's msk stream for Figure 2 merging: coordinates 0,2,3,5 with
        // masks 01, 11, 10, 11 (bit0 = fiber A, bit1 = fiber B).
        let coords: Vec<_> = items.iter().map(|i| i.coord).collect();
        let masks: Vec<_> = items.iter().map(|i| i.mask).collect();
        assert_eq!(coords, vec![0, 2, 3, 5]);
        assert_eq!(masks, vec![0b01, 0b11, 0b10, 0b11]);
        let sums: Vec<_> = items.iter().map(MergeItem::sum).collect();
        assert_eq!(sums, vec![1.0, 5.0, 4.0, 11.0]);
    }

    #[test]
    fn conjunctive_matches_figure2() {
        let (ai, av, bi, bv) = figure2();
        let items: Vec<_> =
            ConjunctiveMerge::new(vec![FiberSlice::new(&ai, &av), FiberSlice::new(&bi, &bv)])
                .collect();
        let coords: Vec<_> = items.iter().map(|i| i.coord).collect();
        assert_eq!(coords, vec![2, 5]);
        let prods: Vec<_> = items.iter().map(MergeItem::product).collect();
        assert_eq!(prods, vec![6.0, 30.0]);
    }

    #[test]
    fn disjunctive_single_fiber_is_identity() {
        let (ai, av, _, _) = figure2();
        let items: Vec<_> = DisjunctiveMerge::new(vec![FiberSlice::new(&ai, &av)]).collect();
        let coords: Vec<_> = items.iter().map(|i| i.coord).collect();
        assert_eq!(coords, ai);
        assert!(items.iter().all(|i| i.mask == 1));
    }

    #[test]
    fn conjunctive_with_empty_fiber_is_empty() {
        let (ai, av, _, _) = figure2();
        let empty_i: Vec<Idx> = vec![];
        let empty_v: Vec<Val> = vec![];
        let items: Vec<_> = ConjunctiveMerge::new(vec![
            FiberSlice::new(&ai, &av),
            FiberSlice::new(&empty_i, &empty_v),
        ])
        .collect();
        assert!(items.is_empty());
    }

    #[test]
    fn lockstep_pads_short_fibers() {
        let (ai, av, bi, bv) = figure2();
        let short_i = &bi[..2];
        let short_v = &bv[..2];
        let items: Vec<_> = LockstepIter::new(vec![
            FiberSlice::new(&ai, &av),
            FiberSlice::new(short_i, short_v),
        ])
        .collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].mask, 0b11);
        assert_eq!(items[2].mask, 0b01);
        assert_eq!(items[2].vals, vec![5.0, 0.0]);
    }

    #[test]
    fn reduce_accumulates_duplicates() {
        // SpKAdd-style reduction: values at equal coordinates are summed.
        let i1: Vec<Idx> = vec![1, 4];
        let v1 = vec![1.0, 2.0];
        let i2: Vec<Idx> = vec![1, 2, 4];
        let v2 = vec![10.0, 20.0, 30.0];
        let (idxs, vals) =
            reduce_disjunctive(vec![FiberSlice::new(&i1, &v1), FiberSlice::new(&i2, &v2)]);
        assert_eq!(idxs, vec![1, 2, 4]);
        assert_eq!(vals, vec![11.0, 20.0, 32.0]);
    }

    #[test]
    fn disjunctive_three_way() {
        let i1: Vec<Idx> = vec![0];
        let i2: Vec<Idx> = vec![0, 1];
        let i3: Vec<Idx> = vec![1];
        let v = [vec![1.0], vec![2.0, 3.0], vec![4.0]];
        let items: Vec<_> = DisjunctiveMerge::new(vec![
            FiberSlice::new(&i1, &v[0]),
            FiberSlice::new(&i2, &v[1]),
            FiberSlice::new(&i3, &v[2]),
        ])
        .collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].mask, 0b011);
        assert_eq!(items[1].mask, 0b110);
        assert_eq!(items[0].sum(), 3.0);
        assert_eq!(items[1].sum(), 7.0);
    }
}
