//! The two-level stage cache: built tensors (level 1) and compiled
//! programs (level 2), shared across iterations, jobs, and tenants.
//!
//! Level 1 memoizes synthetic tensor builds (generator output and
//! derived matrices such as CG's SPD system) keyed by their structural
//! recipe. Level 2 memoizes compiled [`tmu::Program`]s keyed by stage
//! kind and structural signature — sound because `AddressMap` layout is
//! a deterministic function of the input sizes, so two builds with the
//! same signature produce bit-identical programs (only the memory image,
//! which carries the values, differs between iterations).
//!
//! Both levels are plain memos that never evict: their keys are recipes
//! and signatures of a finite set of app shapes, so they stay as small as
//! that set. Per-tenant hit/miss counters feed the serving layer's
//! hit-rate report, and every level-1 hit emits a
//! [`tmu_trace::EventKind::TensorCacheHit`] trace event.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use tmu::Program;
use tmu_tensor::CsrMatrix;
use tmu_trace::EventKind;

/// Per-tenant cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Level-1 (tensor) hits.
    pub tensor_hits: u64,
    /// Level-1 (tensor) misses (builds).
    pub tensor_misses: u64,
    /// Level-2 (program) hits.
    pub program_hits: u64,
    /// Level-2 (program) misses (compiles).
    pub program_misses: u64,
}

impl TenantCacheStats {
    /// Overall hit rate across both levels (0.0 when the tenant never
    /// touched the cache).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.tensor_hits + self.program_hits;
        let total = hits + self.tensor_misses + self.program_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The two-level cache handed to the DAG executor.
#[derive(Debug, Default)]
pub struct StageCaches {
    tensors: HashMap<String, Arc<CsrMatrix>>,
    programs: HashMap<String, Arc<Program>>,
    per_tenant: BTreeMap<u32, TenantCacheStats>,
}

impl StageCaches {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Level-1 lookup: the tensor under `key`, building it on a miss.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error on a miss.
    pub fn tensor(
        &mut self,
        key: &str,
        tenant: u32,
        build: impl FnOnce() -> Result<CsrMatrix, String>,
    ) -> Result<Arc<CsrMatrix>, String> {
        let stats = self.per_tenant.entry(tenant).or_default();
        if let Some(m) = self.tensors.get(key) {
            stats.tensor_hits += 1;
            tmu_trace::with(|t| {
                let c = t.component("apps.cache");
                t.event(c, 0, EventKind::TensorCacheHit, u64::from(tenant));
            });
            return Ok(Arc::clone(m));
        }
        stats.tensor_misses += 1;
        let m = Arc::new(build()?);
        self.tensors.insert(key.to_string(), Arc::clone(&m));
        Ok(m)
    }

    /// Level-2 lookup: the compiled program under `key`, compiling it on
    /// a miss.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error on a miss.
    pub fn program(
        &mut self,
        key: &str,
        tenant: u32,
        build: impl FnOnce() -> Result<Program, String>,
    ) -> Result<Arc<Program>, String> {
        let stats = self.per_tenant.entry(tenant).or_default();
        if let Some(p) = self.programs.get(key) {
            stats.program_hits += 1;
            return Ok(Arc::clone(p));
        }
        stats.program_misses += 1;
        let p = Arc::new(build()?);
        self.programs.insert(key.to_string(), Arc::clone(&p));
        Ok(p)
    }

    /// Per-tenant counters (ordered by tenant id).
    pub fn tenant_stats(&self) -> &BTreeMap<u32, TenantCacheStats> {
        &self.per_tenant
    }

    /// Aggregate counters `(hits, misses)` across tenants and levels.
    pub fn totals(&self) -> (u64, u64) {
        self.per_tenant.values().fold((0, 0), |(h, m), s| {
            (
                h + s.tensor_hits + s.program_hits,
                m + s.tensor_misses + s.program_misses,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_tensor::gen;

    fn mat(seed: u64) -> Result<CsrMatrix, String> {
        Ok(gen::uniform(8, 8, 2, seed))
    }

    #[test]
    fn hits_and_misses_are_counted_per_tenant() {
        let mut c = StageCaches::new();
        c.tensor("a", 0, || mat(1)).expect("builds");
        c.tensor("a", 1, || mat(1)).expect("hits");
        c.tensor("a", 0, || mat(1)).expect("hits");
        let s0 = c.tenant_stats()[&0];
        let s1 = c.tenant_stats()[&1];
        assert_eq!((s0.tensor_hits, s0.tensor_misses), (1, 1));
        assert_eq!((s1.tensor_hits, s1.tensor_misses), (1, 0));
        assert!((s1.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(c.totals(), (2, 1));
    }

    #[test]
    fn zero_cap_never_evicts() {
        let mut c = StageCaches::new();
        for k in 0..64u64 {
            c.tensor(&format!("k{k}"), 0, || mat(k)).expect("builds");
        }
        for k in 0..64u64 {
            c.tensor(&format!("k{k}"), 0, || Err("evicted".into()))
                .expect("every entry is still resident");
        }
        assert_eq!(c.totals(), (64, 64));
    }
}
