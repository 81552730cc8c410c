//! Run-level statistics and the roofline model of Figure 12.

use crate::core::CoreStats;

/// Aggregate counters of one cache level (summed over all instances of
/// that level: per-core L1s/L2s, LLC slices).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheLevelStats {
    /// Accesses served from resident lines.
    pub hits: u64,
    /// Primary misses (a new fetch was issued).
    pub misses: u64,
    /// Secondary misses merged into an already in-flight fetch.
    pub merged: u64,
    /// Dirty lines evicted (writeback traffic).
    pub writebacks: u64,
}

impl CacheLevelStats {
    /// Adds one cache instance's counters into this aggregate.
    pub fn absorb(&mut self, hits: u64, misses: u64, merged: u64, writebacks: u64) {
        self.hits += hits;
        self.misses += misses;
        self.merged += merged;
        self.writebacks += writebacks;
    }

    /// Fraction of accesses that issued a new fetch (merged accesses reuse
    /// an in-flight one, so they count in the denominator only).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.merged;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Memory-hierarchy counters of one run (the `system.{l1,l2,llc,dram}.*`
/// stats of the `results/bench.json` rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemStats {
    /// All private L1Ds combined.
    pub l1: CacheLevelStats,
    /// All private L2s combined.
    pub l2: CacheLevelStats,
    /// All LLC slices combined.
    pub llc: CacheLevelStats,
    /// Cachelines read from DRAM.
    pub dram_lines_read: u64,
    /// Cachelines written to DRAM.
    pub dram_lines_written: u64,
    /// DRAM accesses that hit an open row buffer.
    pub dram_row_hits: u64,
    /// DRAM accesses that opened a new row.
    pub dram_row_misses: u64,
}

/// Statistics of one complete simulated run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Wall-clock cycles of the whole run (slowest core).
    pub cycles: u64,
    /// Per-core accounting.
    pub cores: Vec<CoreStats>,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// DRAM row-buffer hit fraction.
    pub dram_row_hit_rate: f64,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Cache and DRAM counters.
    pub mem: MemStats,
}

impl RunStats {
    /// Aggregate of all per-core stats.
    pub fn total(&self) -> CoreStats {
        let mut acc = CoreStats::default();
        for c in &self.cores {
            acc.merge(c);
        }
        acc
    }

    /// Total FLOPs across cores.
    pub fn flops(&self) -> u64 {
        self.cores.iter().map(|c| c.flops).sum()
    }

    /// Runtime in seconds at the configured clock.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops() as f64 / self.seconds() / 1e9
        }
    }

    /// Achieved DRAM bandwidth in GB/s.
    pub fn bandwidth_gbs(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dram_bytes as f64 / self.seconds() / 1e9
        }
    }

    /// Arithmetic intensity in FLOP/byte (the roofline x-axis).
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            0.0
        } else {
            self.flops() as f64 / self.dram_bytes as f64
        }
    }

    /// Average load-to-use latency across cores, weighted by load count.
    pub fn avg_load_to_use(&self) -> f64 {
        let t = self.total();
        t.avg_load_to_use()
    }

    /// Normalized `(committing, frontend, backend)` cycle fractions
    /// aggregated over cores.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        self.total().breakdown()
    }

    /// Renders the run as a hierarchical [`tmu_trace::StatsRegistry`] with
    /// gem5-style dotted names (`system.core0.backend`, `system.l1.hits`).
    /// Counters are the same `u64`s as the struct fields and gauges the
    /// values of the derived methods above (`system.topdown.*` is
    /// [`Self::breakdown`], `system.gflops` is [`Self::gflops`], …) — this
    /// is a view, not a second accounting — so consumers reading either
    /// source see identical numbers.
    pub fn registry(&self) -> tmu_trace::StatsRegistry {
        let mut r = tmu_trace::StatsRegistry::new();
        r.set_counter("system.cycles", self.cycles);
        r.set_gauge("system.freq_ghz", self.freq_ghz);
        let (committing, frontend, backend) = self.breakdown();
        r.set_gauge("system.topdown.committing", committing);
        r.set_gauge("system.topdown.frontend", frontend);
        r.set_gauge("system.topdown.backend", backend);
        r.set_gauge("system.load_to_use", self.avg_load_to_use());
        r.set_counter("system.flops", self.flops());
        r.set_gauge("system.gflops", self.gflops());
        r.set_gauge("system.arithmetic_intensity", self.arithmetic_intensity());
        for (i, c) in self.cores.iter().enumerate() {
            let p = format!("system.core{i}");
            r.set_counter(&format!("{p}.committing"), c.committing);
            r.set_counter(&format!("{p}.frontend"), c.frontend);
            r.set_counter(&format!("{p}.backend"), c.backend);
            r.set_counter(&format!("{p}.cycles"), c.cycles);
            r.set_counter(&format!("{p}.committed"), c.committed);
            r.set_counter(&format!("{p}.loads"), c.loads);
            r.set_counter(&format!("{p}.load_latency_sum"), c.load_latency_sum);
            r.set_counter(&format!("{p}.flops"), c.flops);
            r.set_counter(&format!("{p}.branches"), c.branches);
            r.set_counter(&format!("{p}.mispredicts"), c.mispredicts);
        }
        for (level, s) in [
            ("l1", &self.mem.l1),
            ("l2", &self.mem.l2),
            ("llc", &self.mem.llc),
        ] {
            r.set_counter(&format!("system.{level}.hits"), s.hits);
            r.set_counter(&format!("system.{level}.misses"), s.misses);
            r.set_counter(&format!("system.{level}.merged"), s.merged);
            r.set_counter(&format!("system.{level}.writebacks"), s.writebacks);
        }
        r.set_counter("system.dram.bytes", self.dram_bytes);
        r.set_gauge("system.dram.bandwidth_gbs", self.bandwidth_gbs());
        r.set_counter("system.dram.lines_read", self.mem.dram_lines_read);
        r.set_counter("system.dram.lines_written", self.mem.dram_lines_written);
        r.set_counter("system.dram.row_hits", self.mem.dram_row_hits);
        r.set_counter("system.dram.row_misses", self.mem.dram_row_misses);
        r.set_gauge("system.dram.row_hit_rate", self.dram_row_hit_rate);
        r
    }
}

/// The machine ceilings of a roofline plot.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Roofline {
    /// Peak compute in GFLOP/s.
    pub peak_gflops: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub peak_bandwidth_gbs: f64,
}

impl Roofline {
    /// Builds ceilings for `cores` cores with `lanes` f64 SIMD lanes at
    /// `freq_ghz`, assuming one FMA vector pipe (2 FLOPs/lane/cycle), and
    /// the given DRAM peak.
    pub fn for_machine(cores: usize, lanes: usize, freq_ghz: f64, peak_bw_gbs: f64) -> Self {
        Self {
            peak_gflops: cores as f64 * lanes as f64 * 2.0 * freq_ghz,
            peak_bandwidth_gbs: peak_bw_gbs,
        }
    }

    /// Attainable GFLOP/s at arithmetic intensity `ai` (the roofline).
    pub fn attainable(&self, ai: f64) -> f64 {
        (ai * self.peak_bandwidth_gbs).min(self.peak_gflops)
    }

    /// The ridge point: intensity at which the machine turns compute-bound.
    pub fn ridge(&self) -> f64 {
        self.peak_gflops / self.peak_bandwidth_gbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        let core = CoreStats {
            flops: 2_400_000,
            cycles: 1_000_000,
            ..Default::default()
        };
        RunStats {
            cycles: 1_000_000,
            cores: vec![core],
            dram_bytes: 4_800_000,
            dram_row_hit_rate: 0.5,
            freq_ghz: 2.4,
            mem: MemStats::default(),
        }
    }

    #[test]
    fn gflops_and_bandwidth() {
        let s = sample();
        // 2.4 MFLOP over 1M cycles at 2.4 GHz = 1M cycles / 2.4e9 Hz
        // = 416.7 µs → 5.76 GFLOP/s.
        assert!((s.gflops() - 5.76).abs() < 0.01, "{}", s.gflops());
        assert!((s.bandwidth_gbs() - 11.52).abs() < 0.01);
        assert!((s.arithmetic_intensity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roofline_ceilings() {
        // Table 5: 8 cores × 8 lanes × 2 × 2.4 = 307.2 GFLOP/s, 150 GB/s.
        let r = Roofline::for_machine(8, 8, 2.4, 150.0);
        assert!((r.peak_gflops - 307.2).abs() < 0.1);
        assert_eq!(r.attainable(0.1), 15.0);
        assert_eq!(r.attainable(100.0), r.peak_gflops);
        assert!((r.ridge() - 2.048).abs() < 0.01);
    }

    #[test]
    fn cache_level_miss_rate_excludes_merges() {
        let mut l = CacheLevelStats::default();
        l.absorb(6, 2, 2, 1);
        // 2 primary misses out of 10 accesses; the 2 merged accesses rode
        // an in-flight fetch and must not count as new misses.
        assert!((l.miss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(CacheLevelStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn registry_mirrors_stats_fields() {
        let mut s = sample();
        s.mem.l1.absorb(10, 3, 1, 2);
        s.mem.dram_lines_read = 7;
        s.cores[0].committing = 600_000;
        s.cores[0].frontend = 300_000;
        s.cores[0].backend = 100_000;
        s.cores[0].loads = 4;
        s.cores[0].load_latency_sum = 10;
        let r = s.registry();
        assert_eq!(r.counter("system.cycles"), Some(s.cycles));
        assert_eq!(r.counter("system.core0.flops"), Some(2_400_000));
        assert_eq!(r.counter("system.l1.hits"), Some(10));
        assert_eq!(r.counter("system.l1.writebacks"), Some(2));
        assert_eq!(r.counter("system.dram.lines_read"), Some(7));
        assert_eq!(r.gauge("system.dram.row_hit_rate"), Some(0.5));
        assert_eq!(r.counter("system.l2.hits"), Some(0));
        // The derived whole-run values are the methods' own results.
        let (committing, frontend, backend) = s.breakdown();
        assert_eq!(r.gauge("system.topdown.committing"), Some(committing));
        assert_eq!(r.gauge("system.topdown.frontend"), Some(frontend));
        assert_eq!(r.gauge("system.topdown.backend"), Some(backend));
        assert_eq!((committing, frontend, backend), (0.6, 0.3, 0.1));
        assert_eq!(r.gauge("system.load_to_use"), Some(2.5));
        assert_eq!(r.counter("system.flops"), Some(s.flops()));
        assert_eq!(r.gauge("system.gflops"), Some(s.gflops()));
        assert_eq!(
            r.gauge("system.arithmetic_intensity"),
            Some(s.arithmetic_intensity())
        );
        assert_eq!(
            r.gauge("system.dram.bandwidth_gbs"),
            Some(s.bandwidth_gbs())
        );
        assert_eq!(r.gauge("system.freq_ghz"), Some(2.4));
    }

    #[test]
    fn totals_merge_cores() {
        let mut s = sample();
        s.cores.push(s.cores[0]);
        assert_eq!(s.total().flops, 4_800_000);
        assert_eq!(s.flops(), 4_800_000);
    }
}
