//! Memoized job builds: the same-shape batching optimization.
//!
//! Building a job is expensive relative to serving it — generating the
//! synthetic tensor, laying out the memory image, and compiling (or
//! lowering, for expressions) the TMU program. Jobs with equal
//! [`JobKind`]s are identical up to their tenant and outQ window, so the
//! server batches them: the first build is memoized and later arrivals
//! share the `Arc`. Sharing is sound because the [`MemImage`] is
//! read-only to the engine and every serving slot owns a private memory
//! hierarchy; only the outQ window is per-job (salted by job id).
//!
//! The memo is a plain map that never evicts: a trace draws its jobs from
//! a finite set of shapes (the synthetic traces from the arrival module's
//! shape pool, the bench bins from fixed lists), so it stays as small as
//! that set. Application jobs build one level down, through the server's
//! [`tmu_apps::StageCaches`].

use std::collections::HashMap;
use std::sync::Arc;

use tmu::{MemImage, Program};
use tmu_front::ExprWorkload;
use tmu_kernels::spkadd::Spkadd;
use tmu_kernels::spmspm::Spmspm;
use tmu_kernels::spmspv::Spmspv;
use tmu_kernels::spmv::Spmv;
use tmu_kernels::spttv::Spttv;
use tmu_tensor::gen;

use crate::job::{JobKind, KernelKind};

/// Lanes every served program is built for: the application stages' count.
pub use tmu_apps::SERVE_LANES;

/// One memoized build: everything jobs of a shape share.
#[derive(Debug)]
pub struct BuiltJob {
    /// The compiled TMU program.
    pub program: Arc<Program>,
    /// The read-only memory image the program traverses.
    pub image: Arc<MemImage>,
    /// Base of the shape's outQ window; each job offsets this by its id.
    pub outq_base: u64,
    /// Report label (kernel name or `"expr"`).
    pub label: String,
}

/// Shape-keyed build memo with hit/miss counters. It needs no bound:
/// every trace draws its jobs from a finite set of shapes. The counters
/// are mirrored into the stats registry (`serve.build_cache.*`) whenever
/// a tracer is installed.
#[derive(Debug, Default)]
pub struct BuildCache {
    map: HashMap<JobKind, Arc<BuiltJob>>,
    hits: u64,
    misses: u64,
}

impl BuildCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds shared against the memo (batched jobs).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Distinct shapes actually built.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Returns the build for `kind`, constructing and memoizing it on
    /// first use. Errors are build-time failures (e.g. an expression that
    /// does not lower), reported as strings.
    pub fn get(&mut self, kind: &JobKind) -> Result<Arc<BuiltJob>, String> {
        let built = match self.map.get(kind) {
            Some(built) => {
                self.hits += 1;
                Arc::clone(built)
            }
            None => {
                let built = Arc::new(build(kind)?);
                self.misses += 1;
                self.map.insert(kind.clone(), Arc::clone(&built));
                built
            }
        };
        self.publish();
        Ok(built)
    }

    /// Mirrors the counters into the stats registry when tracing.
    fn publish(&self) {
        tmu_trace::with(|t| {
            let r = t.registry_mut();
            r.set_counter("serve.build_cache.hits", self.hits);
            r.set_counter("serve.build_cache.misses", self.misses);
        });
    }
}

fn build(kind: &JobKind) -> Result<BuiltJob, String> {
    match kind {
        JobKind::Kernel {
            kind,
            rows,
            nnz_per_row,
            seed,
        } => build_kernel(*kind, *rows as usize, *nnz_per_row as usize, *seed),
        JobKind::Expr {
            src,
            rows,
            nnz_per_row,
            seed,
        } => {
            let base = gen::uniform(*rows as usize, *rows as usize, *nnz_per_row as usize, *seed);
            let w = ExprWorkload::new(src, &base).map_err(|e| format!("expr parse: {e}"))?;
            let lowered = w
                .lowered(SERVE_LANES)
                .map_err(|e| format!("expr lower: {e}"))?;
            Ok(BuiltJob {
                program: Arc::new(lowered.program),
                image: w.image_handle(),
                outq_base: w.outq_base(),
                label: "expr".into(),
            })
        }
        // App jobs never land in the shape memo: their builds live one
        // level down, in the stage cache, keyed per tensor and program.
        JobKind::App { .. } => Err("app jobs build through the stage cache".into()),
    }
}

fn build_kernel(
    kind: KernelKind,
    rows: usize,
    nnz_per_row: usize,
    seed: u64,
) -> Result<BuiltJob, String> {
    let (program, image, outq_base) = match kind {
        KernelKind::Spmv => {
            let w = Spmv::new(&gen::uniform(rows, rows, nnz_per_row, seed));
            (
                w.build_program((0, rows), SERVE_LANES),
                w.image_handle(),
                w.outq_base(0),
            )
        }
        KernelKind::Spmspv => {
            let w = Spmspv::new(&gen::uniform(rows, rows, nnz_per_row, seed), 0.25);
            (w.build_program((0, rows)), w.image_handle(), w.outq_base(0))
        }
        KernelKind::Spmspm => {
            let w = Spmspm::new(&gen::uniform(rows, rows, nnz_per_row, seed));
            (
                w.build_program((0, rows), SERVE_LANES),
                w.image_handle(),
                w.outq_base(0),
            )
        }
        KernelKind::Spkadd => {
            let w = Spkadd::new(&gen::uniform(rows, rows, nnz_per_row, seed));
            let n = w.reference().rows();
            (w.build_program((0, n)), w.image_handle(), w.outq_base(0))
        }
        KernelKind::Spttv => {
            // Interpret `rows` as the cube dimension; keep it small so a
            // 3-d fixture stays serving-sized.
            let d = rows.clamp(4, 32);
            let w = Spttv::new(&gen::random_tensor(&[d, d, d], d * nnz_per_row, seed));
            (
                w.build_program((0, w.roots()), SERVE_LANES),
                w.image_handle(),
                w.outq_base(0),
            )
        }
    };
    Ok(BuiltJob {
        program: Arc::new(program),
        image,
        outq_base,
        label: kind.name().into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_jobs_share_one_build() {
        let mut cache = BuildCache::new();
        let shape = JobKind::Kernel {
            kind: KernelKind::Spmv,
            rows: 32,
            nnz_per_row: 3,
            seed: 1,
        };
        let a = cache.get(&shape).expect("builds");
        let b = cache.get(&shape).expect("memoized");
        assert!(Arc::ptr_eq(&a, &b), "equal shapes must share the build");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let other = JobKind::Kernel {
            kind: KernelKind::Spmv,
            rows: 32,
            nnz_per_row: 3,
            seed: 2,
        };
        let c = cache.get(&other).expect("builds");
        assert!(!Arc::ptr_eq(&a, &c), "different seed, different build");
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn bad_expression_reports_a_build_error() {
        let mut cache = BuildCache::new();
        let bad = JobKind::Expr {
            src: "this is not einsum".into(),
            rows: 16,
            nnz_per_row: 2,
            seed: 3,
        };
        assert!(cache.get(&bad).is_err());
    }
}
