//! Mesh network-on-chip latency model.
//!
//! The simulated system (Table 5) uses a 4×4 2-D mesh with 1-cycle routers
//! and 1-cycle links, AMBA-5-CHI style. Cores and LLC slices are placed on
//! fixed nodes; a request from core *c* to slice *s* pays
//! `2 × (router + link) × hops` (request + response). Link contention is
//! not modeled: at 2.4 GHz with 32 B flits a single mesh link sustains
//! ~76 GB/s, far above the 150 GB/s aggregate DRAM ceiling spread over 16
//! links, so the mesh is never the bottleneck for these workloads.

/// 2-D mesh NoC latency calculator.
#[derive(Debug, Clone)]
pub struct Mesh {
    width: usize,
    router_cycles: u64,
    link_cycles: u64,
    core_nodes: Vec<(usize, usize)>,
    slice_nodes: Vec<(usize, usize)>,
    // Utilization accounting, published to an installed tracer's registry
    // at the end of a run (`System::collect_stats`). `Cell` because latency
    // queries take `&self`; the mesh is owned by one simulation thread.
    traversals: std::cell::Cell<u64>,
    hop_cycles: std::cell::Cell<u64>,
}

impl Mesh {
    /// The Table 5 mesh: 4×4, 1-cycle routers, 1-cycle links, 8 cores on
    /// the outer columns and 8 LLC slices on the inner columns.
    pub fn mesh4x4(cores: usize, slices: usize) -> Self {
        let core_cols = [0usize, 3];
        let slice_cols = [1usize, 2];
        let core_nodes = (0..cores)
            .map(|i| (core_cols[i % 2], (i / 2) % 4))
            .collect();
        let slice_nodes = (0..slices)
            .map(|i| (slice_cols[i % 2], (i / 2) % 4))
            .collect();
        Self {
            width: 4,
            router_cycles: 1,
            link_cycles: 1,
            core_nodes,
            slice_nodes,
            traversals: std::cell::Cell::new(0),
            hop_cycles: std::cell::Cell::new(0),
        }
    }

    /// Accumulated `(traversals, hop_cycles)` since construction: how many
    /// round trips crossed the mesh and the total per-hop cycles they paid
    /// (link-utilization telemetry; the ratio is the mean traversal cost).
    pub fn traffic(&self) -> (u64, u64) {
        (self.traversals.get(), self.hop_cycles.get())
    }

    /// Mesh width (nodes per side).
    pub fn width(&self) -> usize {
        self.width
    }

    /// One-way hop count between a core and an LLC slice.
    pub fn hops(&self, core: usize, slice: usize) -> u64 {
        let (cx, cy) = self.core_nodes[core % self.core_nodes.len()];
        let (sx, sy) = self.slice_nodes[slice % self.slice_nodes.len()];
        (cx.abs_diff(sx) + cy.abs_diff(sy)) as u64
    }

    /// Round-trip latency (request + response) between a core and a slice.
    pub fn round_trip(&self, core: usize, slice: usize) -> u64 {
        let per_hop = self.router_cycles + self.link_cycles;
        let cycles = 2 * per_hop * self.hops(core, slice).max(1);
        self.traversals.set(self.traversals.get() + 1);
        self.hop_cycles.set(self.hop_cycles.get() + cycles);
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_fit_the_mesh() {
        let mesh = Mesh::mesh4x4(8, 8);
        assert_eq!(mesh.width(), 4);
        for c in 0..8 {
            for s in 0..8 {
                assert!(mesh.hops(c, s) <= 6);
            }
        }
    }

    #[test]
    fn round_trip_scales_with_distance() {
        let mesh = Mesh::mesh4x4(8, 8);
        // Core 0 at (0,0); slice 0 at (1,0) → 1 hop; slice 7 at (2,3) → 5.
        assert!(mesh.round_trip(0, 0) < mesh.round_trip(0, 7));
        assert_eq!(mesh.round_trip(0, 0), 4); // 2 × (1+1) × 1
    }
}
