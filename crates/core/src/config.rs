//! TMU hardware configuration and the queue-sizing model of §5.5.

use serde::{Deserialize, Serialize};
use tmu_sim::FaultSpec;

use crate::error::TmuError;

/// Configuration of one TMU instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TmuConfig {
    /// Number of lanes (rows of the TU matrix). Tied to the host SVE
    /// width: 8 lanes for 512-bit SVE, 4 for 256-bit (§7.2).
    pub lanes: usize,
    /// Stream storage per lane in bytes (2 KB in Table 5).
    pub per_lane_bytes: usize,
    /// Number of traversal groups (layers with mergers); 4 in Table 5.
    pub groups: usize,
    /// outQ entries per chunk (a chunk is the double-buffering granule
    /// handed to the core).
    pub chunk_entries: usize,
    /// Bytes per stream element (index or value word).
    pub elem_bytes: usize,
    /// Fault-injection schedule for resilience runs. Inactive by default
    /// (no faults, behaviour byte-identical to the fault-free model).
    pub faults: FaultSpec,
}

impl TmuConfig {
    /// The paper's Table 5 configuration: 8 lanes, 2 KB/lane, 4 TGs.
    /// Table 5's 128 outstanding memory requests are the engine's request
    /// pool in the memory system, `MemSysConfig::accel_outstanding`.
    pub fn paper() -> Self {
        Self {
            lanes: 8,
            per_lane_bytes: 2048,
            groups: 4,
            chunk_entries: 64,
            elem_bytes: 8,
            faults: FaultSpec::none(),
        }
    }

    /// Variant of `self` with the given fault-injection schedule.
    pub fn with_faults(&self, faults: FaultSpec) -> Self {
        Self { faults, ..*self }
    }

    /// A single-lane variant with the *same total storage* as `self`
    /// (the §7.3 comparison against HATS/SpZip-style traversal engines).
    pub fn single_lane(&self) -> Self {
        Self {
            lanes: 1,
            per_lane_bytes: self.per_lane_bytes * self.lanes,
            ..*self
        }
    }

    /// Variant for a given SVE width (Figure 14): 512-bit → 8 lanes,
    /// 256-bit → 4 lanes, 128-bit → 2 lanes.
    pub fn for_sve_bits(&self, sve_bits: u32) -> Self {
        Self {
            lanes: (sve_bits as usize / 64).max(1),
            ..*self
        }
    }

    /// Variant with a different *total* engine storage (Figure 14 x-axis),
    /// spread evenly over the lanes.
    pub fn with_total_storage(&self, total_bytes: usize) -> Self {
        Self {
            per_lane_bytes: (total_bytes / self.lanes).max(64),
            ..*self
        }
    }

    /// Total stream storage across lanes.
    pub fn total_bytes(&self) -> usize {
        self.lanes * self.per_lane_bytes
    }

    /// Stream-queue elements available per lane.
    pub fn elems_per_lane(&self) -> usize {
        self.per_lane_bytes / self.elem_bytes
    }

    /// The §5.5 analytical queue-sizing model.
    ///
    /// All TUs of a layer get the same queue sizes; a lane's storage is
    /// split across the layers proportionally to `weights` — the expected
    /// amount of data each layer loads (estimable from nnz-per-fiber
    /// statistics). `streams_per_layer[l]` is how many streams the layer's
    /// TUs instantiate. Returns per-layer queue depths **in elements per
    /// stream** (each at least 2 so the FSMs can double-buffer), or a typed
    /// error when `weights` and `streams_per_layer` differ in length.
    pub fn size_queues(
        &self,
        weights: &[f64],
        streams_per_layer: &[usize],
    ) -> Result<Vec<usize>, TmuError> {
        if weights.len() != streams_per_layer.len() {
            return Err(TmuError::QueueSizingMismatch {
                weights: weights.len(),
                layers: streams_per_layer.len(),
            });
        }
        let budget = self.elems_per_lane() as f64;
        let total: f64 = weights.iter().sum();
        Ok(weights
            .iter()
            .zip(streams_per_layer)
            .map(|(&w, &streams)| {
                let layer_elems = if total > 0.0 {
                    budget * w / total
                } else {
                    budget / weights.len() as f64
                };
                ((layer_elems / streams.max(1) as f64) as usize).max(2)
            })
            .collect())
    }
}

impl Default for TmuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table5() {
        let cfg = TmuConfig::paper();
        assert_eq!(cfg.lanes, 8);
        assert_eq!(cfg.per_lane_bytes, 2048);
        assert_eq!(cfg.groups, 4);
        assert_eq!(cfg.total_bytes(), 16 << 10);
    }

    #[test]
    fn single_lane_keeps_total_storage() {
        let cfg = TmuConfig::paper();
        let single = cfg.single_lane();
        assert_eq!(single.lanes, 1);
        assert_eq!(single.total_bytes(), cfg.total_bytes());
    }

    #[test]
    fn sve_width_sets_lanes() {
        let cfg = TmuConfig::paper();
        assert_eq!(cfg.for_sve_bits(512).lanes, 8);
        assert_eq!(cfg.for_sve_bits(256).lanes, 4);
        assert_eq!(cfg.for_sve_bits(128).lanes, 2);
    }

    #[test]
    fn queue_sizing_respects_weights() {
        let cfg = TmuConfig::paper(); // 256 elements/lane
        let depths = cfg
            .size_queues(&[1.0, 15.0], &[2, 4])
            .expect("one weight per layer");
        // Layer 1 loads 15× the data: it must get much deeper queues.
        assert!(depths[1] > depths[0]);
        // Inner layer: 256 × (15/16) / 4 = 60.
        assert_eq!(depths[1], 60);
        assert_eq!(depths[0], 8);
    }

    #[test]
    fn queue_sizing_has_floor() {
        let cfg = TmuConfig::paper().with_total_storage(512); // 8 elems/lane
        let depths = cfg
            .size_queues(&[1.0, 1.0, 1.0, 1.0], &[4, 4, 4, 4])
            .expect("one weight per layer");
        assert!(depths.iter().all(|&d| d >= 2));
    }
}
