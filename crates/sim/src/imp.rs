//! Indirect Memory Prefetcher (IMP) comparator — Yu et al., MICRO 2015.
//!
//! IMP detects `B[f(A[i])]` access patterns and prefetches the indirect
//! targets ahead of the demand stream. The paper evaluates it (§7.3,
//! Figure 15) "configured as recommended by the paper authors, including
//! the use of virtual addresses to prefetch across memory page boundaries".
//!
//! Model: a load site is classified *indirect* once a training number of
//! its dynamic instances have carried a data dependency on another load
//! (the index load). Once a site is trained, instances of it observed in
//! the core's fetch lookahead window are prefetched into L1 — giving the
//! prefetch a lead of `window` ops, the trace-driven equivalent of IMP's
//! index-ahead distance. Prefetches move real cachelines, so useless or
//! thrashing prefetches (the SpMSpM failure mode in §7.3) cost real
//! bandwidth and evictions.

use std::collections::VecDeque;

use crate::fasthash::{FastMap, FastSet};
use crate::memsys::MemSys;
use crate::op::{Op, OpKind, Site};

/// Number of dependent-on-a-load instances before a site is classified
/// indirect (IMP's training threshold).
const TRAIN_THRESHOLD: u32 = 4;

/// IMP classification and prefetch state for one core.
#[derive(Debug, Default)]
pub struct Imp {
    /// Recent load op ids (to recognize load→load dependencies).
    recent_loads: FastSet<u64>,
    recent_order: VecDeque<u64>,
    training: FastMap<Site, u32>,
    indirect_sites: FastSet<Site>,
    /// Prefetches issued.
    pub issued: u64,
}

impl Imp {
    /// Creates a fresh IMP.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `site` has been classified as an indirect-load site.
    pub fn is_indirect(&self, site: Site) -> bool {
        self.indirect_sites.contains(&site)
    }

    fn note_load(&mut self, id: u64) {
        self.recent_loads.insert(id);
        self.recent_order.push_back(id);
        if self.recent_order.len() > 512 {
            if let Some(old) = self.recent_order.pop_front() {
                self.recent_loads.remove(&old);
            }
        }
    }

    /// Observes an op entering the lookahead window; issues a prefetch for
    /// trained indirect loads.
    pub fn observe(&mut self, op: &Op, core: usize, now: u64, mem: &mut MemSys) {
        let OpKind::Load { addr, .. } = op.kind else {
            if op.is_load() {
                self.note_load(op.id.0);
            }
            return;
        };
        let depends_on_load = op.deps.iter().any(|d| self.recent_loads.contains(&d.0));
        self.note_load(op.id.0);
        if depends_on_load {
            let count = self.training.entry(op.site).or_insert(0);
            *count += 1;
            if *count >= TRAIN_THRESHOLD {
                self.indirect_sites.insert(op.site);
            }
        }
        if self.indirect_sites.contains(&op.site) {
            mem.prefetch_into_l1(core, addr, now);
            self.issued += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, VecMachine};
    use crate::memsys::MemSysConfig;
    use crate::op::Deps;

    #[test]
    fn classifies_gather_sites_after_training() {
        let mut imp = Imp::new();
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut m = VecMachine::new();
        for i in 0..16u64 {
            let idx = m.load(Site(1), 0x1000 + i * 4, 4, Deps::NONE);
            m.load(
                Site(2),
                0x100_000 + (i * 7919 % 4096) * 8,
                8,
                Deps::from(idx),
            );
        }
        for op in m.take() {
            imp.observe(&op, 0, 0, &mut mem);
        }
        assert!(imp.is_indirect(Site(2)), "gather site must train");
        assert!(!imp.is_indirect(Site(1)), "index site must not train");
        assert!(imp.issued > 0);
    }

    #[test]
    fn direct_streams_never_train() {
        let mut imp = Imp::new();
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut m = VecMachine::new();
        for i in 0..64u64 {
            m.load(Site(3), 0x1000 + i * 8, 8, Deps::NONE);
        }
        for op in m.take() {
            imp.observe(&op, 0, 0, &mut mem);
        }
        assert!(!imp.is_indirect(Site(3)));
        assert_eq!(imp.issued, 0);
    }

    #[test]
    fn prefetched_lines_land_in_l1() {
        let mut imp = Imp::new();
        let mut mem = MemSys::new(MemSysConfig::table5(1));
        let mut m = VecMachine::new();
        // Train, then observe one more gather far away.
        for i in 0..8u64 {
            let idx = m.load(Site(1), 0x1000 + i * 4, 4, Deps::NONE);
            m.load(Site(2), 0x200_000 + i * 4096, 8, Deps::from(idx));
        }
        let target = 0x900_000u64;
        let idx = m.load(Site(1), 0x2000, 4, Deps::NONE);
        m.load(Site(2), target, 8, Deps::from(idx));
        for op in m.take() {
            imp.observe(&op, 0, 0, &mut mem);
        }
        assert!(mem.l1(0).contains(target), "prefetch must fill L1");
    }
}
