//! The assembled memory hierarchy.
//!
//! Per-core private L1D and L2 caches, a shared address-interleaved
//! mostly-exclusive LLC (8 slices in Table 5), a 2-D mesh between cores and
//! slices, and the HBM channel model. Timing is computed per request along
//! the miss path; cache state is updated eagerly while in-flight records
//! preserve arrival times (see [`crate::cache::Cache::probe`]).
//!
//! The TMU (and any other near-core engine) uses the dedicated
//! [`MemSys::accel_read`]/[`MemSys::accel_write`] ports: traversal reads go
//! straight to the LLC with the engine's own 128-entry request pool
//! (§5.6 — "by reading from the LLC we take advantage of the larger MSHR
//! count"), and outQ writes land in the host core's private L2.

use crate::addr::{line_of, CACHELINE};
use crate::cache::{Cache, CacheConfig, MshrPool, Probe};
use crate::dram::{Dram, DramConfig};
use crate::noc::Mesh;
use crate::op::Site;
use crate::prefetch::{BestOffsetPrefetcher, StridePrefetcher};
use crate::stats::MemStats;

/// Configuration of the full memory system.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemSysConfig {
    /// Number of cores (each gets a private L1 and L2).
    pub cores: usize,
    /// Private L1D configuration.
    pub l1: CacheConfig,
    /// Private L2 configuration.
    pub l2: CacheConfig,
    /// One LLC slice's configuration.
    pub llc_slice: CacheConfig,
    /// Number of LLC slices.
    pub llc_slices: usize,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// L1 stride prefetcher degree (0 disables it).
    pub l1_stride_degree: usize,
    /// Enable the L2 best-offset prefetcher.
    pub l2_best_offset: bool,
    /// Outstanding-request pool size for an attached accelerator.
    pub accel_outstanding: usize,
}

impl MemSysConfig {
    /// The Table 5 hierarchy for `cores` cores.
    pub fn table5(cores: usize) -> Self {
        Self {
            cores,
            l1: CacheConfig {
                size_bytes: 64 << 10,
                ways: 4,
                latency: 2,
                mshrs: 32,
            },
            l2: CacheConfig {
                size_bytes: 512 << 10,
                ways: 8,
                latency: 8,
                mshrs: 64,
            },
            llc_slice: CacheConfig {
                size_bytes: 1 << 20,
                ways: 16,
                latency: 12,
                mshrs: 128,
            },
            llc_slices: 8,
            dram: DramConfig::hbm2e_4ch(),
            l1_stride_degree: 2,
            l2_best_offset: true,
            accel_outstanding: 128,
        }
    }
}

/// The assembled hierarchy.
#[derive(Debug)]
pub struct MemSys {
    cfg: MemSysConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Vec<Cache>,
    l1_pf: Vec<StridePrefetcher>,
    l2_pf: Vec<BestOffsetPrefetcher>,
    accel_pool: Vec<MshrPool>,
    mesh: Mesh,
    dram: Dram,
    pf_scratch: Vec<u64>,
    /// Demand loads served (all cores).
    pub demand_loads: u64,
    /// outQ lines written by accelerators into L2s.
    pub accel_outq_lines: u64,
    /// Traversal reads issued by accelerators (all cores) — part of the
    /// watchdog's forward-progress signature.
    pub accel_reads: u64,
}

impl MemSys {
    /// Builds the hierarchy from `cfg`.
    pub fn new(cfg: MemSysConfig) -> Self {
        Self {
            l1: (0..cfg.cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| Cache::new(cfg.l2)).collect(),
            llc: (0..cfg.llc_slices)
                .map(|_| Cache::new(cfg.llc_slice))
                .collect(),
            l1_pf: (0..cfg.cores)
                .map(|_| StridePrefetcher::new(cfg.l1_stride_degree))
                .collect(),
            l2_pf: (0..cfg.cores)
                .map(|_| BestOffsetPrefetcher::new())
                .collect(),
            accel_pool: (0..cfg.cores)
                .map(|_| MshrPool::new(cfg.accel_outstanding))
                .collect(),
            mesh: Mesh::mesh4x4(cfg.cores, cfg.llc_slices),
            dram: Dram::new(cfg.dram),
            pf_scratch: Vec::new(),
            cfg,
            demand_loads: 0,
            accel_outq_lines: 0,
            accel_reads: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemSysConfig {
        &self.cfg
    }

    /// Registers every cache level and the DRAM model as components of the
    /// installed tracer and attaches their trace ids, so subsequent probes
    /// and accesses emit events. No-op when no tracer is installed.
    pub fn register_trace(&mut self) {
        tmu_trace::with(|t| {
            for (i, c) in self.l1.iter_mut().enumerate() {
                c.set_trace(t.component(&format!("system.core{i}.l1")));
            }
            for (i, c) in self.l2.iter_mut().enumerate() {
                c.set_trace(t.component(&format!("system.core{i}.l2")));
            }
            for (s, c) in self.llc.iter_mut().enumerate() {
                c.set_trace(t.component(&format!("system.llc{s}")));
            }
            self.dram.set_trace(t.component("system.dram"));
        });
    }

    /// The mesh NoC (latency and telemetry access).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// DRAM statistics.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// L1 of `core` (statistics access).
    pub fn l1(&self, core: usize) -> &Cache {
        &self.l1[core]
    }

    /// L2 of `core` (statistics access).
    pub fn l2(&self, core: usize) -> &Cache {
        &self.l2[core]
    }

    /// LLC slice `s` (statistics access).
    pub fn llc(&self, s: usize) -> &Cache {
        &self.llc[s]
    }

    fn slice_of(&self, line: u64) -> usize {
        ((line / CACHELINE) % self.cfg.llc_slices as u64) as usize
    }

    /// Serves a demand load; returns the completion cycle of the last
    /// touched line.
    pub fn read(&mut self, core: usize, site: Site, addr: u64, bytes: u32, t: u64) -> u64 {
        self.demand_loads += 1;
        let first = line_of(addr);
        let last = line_of(addr + bytes.max(1) as u64 - 1);
        let mut done = 0;
        let mut line = first;
        while line <= last {
            done = done.max(self.read_line(core, line, t));
            line += CACHELINE;
        }
        // Train the L1 stride prefetcher on the demand stream.
        if self.cfg.l1_stride_degree > 0 {
            let mut targets = std::mem::take(&mut self.pf_scratch);
            targets.clear();
            self.l1_pf[core].observe(site, addr, &mut targets);
            for target in targets.drain(..) {
                self.prefetch_into_l1(core, target, t);
            }
            self.pf_scratch = targets;
        }
        done
    }

    fn read_line(&mut self, core: usize, line: u64, t: u64) -> u64 {
        let l1_lat = self.cfg.l1.latency;
        match self.l1[core].probe(line, t) {
            Probe::Hit => t + l1_lat,
            Probe::InFlight(done) => done.max(t + l1_lat),
            Probe::Miss => {
                let start = self.l1[core].mshrs.acquire(t);
                let done = self.read_l2(core, line, start + l1_lat, false);
                self.l1[core].mshrs.hold(done);
                self.l1[core].mark_inflight(line, done);
                self.fill_l1(core, line, false);
                self.l1[core].sweep_inflight(t);
                done
            }
        }
    }

    /// L2 lookup on the L1-miss path. `for_prefetch` suppresses the
    /// best-offset training (prefetches must not train the prefetcher).
    fn read_l2(&mut self, core: usize, line: u64, t: u64, for_prefetch: bool) -> u64 {
        let l2_lat = self.cfg.l2.latency;
        if self.cfg.l2_best_offset && !for_prefetch {
            let mut targets = std::mem::take(&mut self.pf_scratch);
            targets.clear();
            self.l2_pf[core].observe(line, &mut targets);
            for target in targets.drain(..) {
                self.prefetch_into_l2(core, target, t);
            }
            self.pf_scratch = targets;
        }
        match self.l2[core].probe(line, t) {
            Probe::Hit => t + l2_lat,
            Probe::InFlight(done) => done.max(t + l2_lat),
            Probe::Miss => {
                let start = self.l2[core].mshrs.acquire(t);
                let done = self.read_llc(core, line, start + l2_lat);
                self.l2[core].mshrs.hold(done);
                self.l2[core].mark_inflight(line, done);
                self.fill_l2(core, line, false);
                self.l2[core].sweep_inflight(t);
                done
            }
        }
    }

    /// LLC lookup on the L2-miss path. The LLC is mostly exclusive: a hit
    /// moves the line up (invalidate here, fill in L2); a miss fetches from
    /// DRAM directly into L2, bypassing LLC allocation.
    fn read_llc(&mut self, core: usize, line: u64, t: u64) -> u64 {
        let slice = self.slice_of(line);
        let noc = self.mesh.round_trip(core, slice);
        let llc_lat = self.cfg.llc_slice.latency;
        let arrive = t + noc / 2;
        match self.llc[slice].probe(line, arrive) {
            Probe::Hit => {
                self.llc[slice].invalidate(line);
                t + noc + llc_lat
            }
            Probe::InFlight(done) => done.max(t + noc + llc_lat),
            Probe::Miss => {
                let start = self.llc[slice].mshrs.acquire(arrive);
                let done = self.dram.access(line, start + llc_lat, false) + noc / 2;
                self.llc[slice].mshrs.hold(done);
                self.llc[slice].mark_inflight(line, done);
                self.llc[slice].sweep_inflight(arrive);
                done
            }
        }
    }

    /// Inserts into L1, spilling the victim to L2.
    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some((victim, was_dirty)) = self.l1[core].fill(line, dirty) {
            // Victims (clean or dirty) land in L2 (write-back hierarchy).
            self.fill_l2(core, victim, was_dirty);
        }
    }

    /// Inserts into L2, spilling the victim to the LLC (mostly exclusive).
    fn fill_l2(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some((victim, was_dirty)) = self.l2[core].fill(line, dirty) {
            self.fill_llc(victim, was_dirty);
        }
    }

    /// Inserts into the owning LLC slice, writing dirty victims to DRAM.
    fn fill_llc(&mut self, line: u64, dirty: bool) {
        let slice = self.slice_of(line);
        if let Some((victim, was_dirty)) = self.llc[slice].fill(line, dirty) {
            if was_dirty {
                // Writeback consumes DRAM bandwidth; nobody waits on it.
                self.dram.access(victim, 0, true);
            }
        }
    }

    /// Background prefetch into L1 (stride prefetcher / IMP). Does not
    /// consume core-visible MSHRs but moves real lines (bandwidth + state).
    pub fn prefetch_into_l1(&mut self, core: usize, addr: u64, t: u64) {
        let line = line_of(addr);
        if self.l1[core].contains(line) {
            return;
        }
        let done = self.read_l2(core, line, t + self.cfg.l1.latency, true);
        self.l1[core].mark_inflight(line, done);
        self.fill_l1(core, line, false);
    }

    /// Background prefetch into L2 (best-offset prefetcher).
    fn prefetch_into_l2(&mut self, core: usize, addr: u64, t: u64) {
        let line = line_of(addr);
        if self.l2[core].contains(line) {
            return;
        }
        let done = self.read_llc(core, line, t + self.cfg.l2.latency);
        self.l2[core].mark_inflight(line, done);
        self.fill_l2(core, line, false);
    }

    /// Serves a store. The returned cycle is when the line is owned
    /// (read-for-ownership complete) — the store-queue entry is held until
    /// then, while the core retires the store through its store buffer.
    pub fn write(&mut self, core: usize, addr: u64, bytes: u32, t: u64) -> u64 {
        let first = line_of(addr);
        let last = line_of(addr + bytes.max(1) as u64 - 1);
        let mut done = t + 1;
        let mut line = first;
        while line <= last {
            let owned = match self.l1[core].probe(line, t) {
                Probe::Hit => t + self.cfg.l1.latency,
                Probe::InFlight(d) => d,
                Probe::Miss => {
                    // Write-allocate: RFO through the regular miss path.
                    let start = self.l1[core].mshrs.acquire(t);
                    let d = self.read_l2(core, line, start + self.cfg.l1.latency, false);
                    self.l1[core].mshrs.hold(d);
                    self.l1[core].mark_inflight(line, d);
                    self.fill_l1(core, line, false);
                    d
                }
            };
            self.l1[core].set_dirty(line);
            done = done.max(owned);
            line += CACHELINE;
        }
        done
    }

    /// Accelerator traversal read: straight to the LLC with the engine's
    /// own outstanding-request pool (§5.6). Fills allocate in the LLC so
    /// input reuse is captured there.
    pub fn accel_read(&mut self, core: usize, addr: u64, t: u64) -> u64 {
        self.accel_reads += 1;
        let line = line_of(addr);
        let slice = self.slice_of(line);
        let noc = self.mesh.round_trip(core, slice);
        let llc_lat = self.cfg.llc_slice.latency;
        let start = self.accel_pool[core].acquire(t);
        let arrive = start + noc / 2;
        let done = match self.llc[slice].probe(line, arrive) {
            Probe::Hit => start + noc + llc_lat,
            Probe::InFlight(d) => d.max(start + noc + llc_lat),
            Probe::Miss => {
                let d = self.dram.access(line, arrive + llc_lat, false) + noc / 2;
                self.llc[slice].mark_inflight(line, d);
                self.fill_llc(line, false);
                self.llc[slice].sweep_inflight(arrive);
                d
            }
        };
        self.accel_pool[core].hold(done);
        done
    }

    /// Accelerator outQ write into the host core's private L2. Returns the
    /// cycle at which the written line is visible to the core.
    pub fn accel_write(&mut self, core: usize, addr: u64, bytes: u32, t: u64) -> u64 {
        let first = line_of(addr);
        let last = line_of(addr + bytes.max(1) as u64 - 1);
        let mut line = first;
        while line <= last {
            self.accel_outq_lines += 1;
            self.fill_l2(core, line, true);
            line += CACHELINE;
        }
        t + self.cfg.l2.latency
    }

    /// Number of outstanding accelerator requests for `core` at time `t`.
    pub fn accel_outstanding(&self, core: usize, t: u64) -> usize {
        self.accel_pool[core].busy_at(t)
    }

    /// Aggregates the hierarchy's counters (summed over cache instances)
    /// into one [`MemStats`] record.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for c in self.l1.iter() {
            s.l1.absorb(c.hits, c.misses, c.merged, c.writebacks);
        }
        for c in self.l2.iter() {
            s.l2.absorb(c.hits, c.misses, c.merged, c.writebacks);
        }
        for c in self.llc.iter() {
            s.llc.absorb(c.hits, c.misses, c.merged, c.writebacks);
        }
        s.dram_lines_read = self.dram.lines_read;
        s.dram_lines_written = self.dram.lines_written;
        s.dram_row_hits = self.dram.row_hits;
        s.dram_row_misses = self.dram.row_misses;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemSys {
        MemSys::new(MemSysConfig::table5(2))
    }

    #[test]
    fn first_touch_goes_to_dram_then_hits() {
        let mut m = small();
        let cold = m.read(0, Site(1), 0x10_000, 8, 0);
        assert!(cold > 60, "cold miss must pay DRAM latency, got {cold}");
        let warm = m.read(0, Site(1), 0x10_000, 8, cold + 10) - (cold + 10);
        assert_eq!(warm, m.config().l1.latency, "second access is an L1 hit");
    }

    #[test]
    fn llc_is_mostly_exclusive() {
        let mut m = small();
        let addr = 0x40_000;
        // Load on core 0, let the line age out of L1+L2 into the LLC by
        // streaming conflicting lines through (same L1 set every 64KiB/4…).
        m.read(0, Site(1), addr, 8, 0);
        // Fill L1 and L2 with enough conflicting lines to evict `addr`.
        for i in 1..20_000u64 {
            m.read(0, Site(1), addr + i * CACHELINE, 8, i * 10);
        }
        let slice = m.slice_of(line_of(addr));
        assert!(
            m.llc[slice].contains(addr),
            "evicted line must land in the LLC"
        );
        // Re-reading moves it up and invalidates the LLC copy.
        m.read(0, Site(1), addr, 8, 1_000_000);
        assert!(
            !m.llc[slice].contains(addr),
            "LLC hit must move the line up"
        );
    }

    #[test]
    fn mshr_pressure_delays_misses() {
        // 2-MSHR L1: the third concurrent miss must wait.
        let mut cfg = MemSysConfig::table5(1);
        cfg.l1.mshrs = 2;
        cfg.l1_stride_degree = 0;
        cfg.l2_best_offset = false;
        let mut m = MemSys::new(cfg);
        let t0 = m.read(0, Site(1), 0x100_000, 8, 0);
        let t1 = m.read(0, Site(2), 0x200_000, 8, 0);
        let t2 = m.read(0, Site(3), 0x300_000, 8, 0);
        assert!(
            t2 >= t0.min(t1),
            "third miss cannot finish before a slot frees"
        );
        assert!(m.l1[0].mshrs.full_events >= 1);
    }

    #[test]
    fn stores_mark_lines_dirty_and_writeback() {
        let mut m = small();
        m.write(0, 0x1000, 8, 0);
        assert!(m.l1[0].contains(0x1000));
        // Stream enough stores to force dirty evictions all the way down.
        for i in 1..200_000u64 {
            m.write(0, 0x1000 + i * CACHELINE, 8, i);
        }
        assert!(
            m.dram().lines_written > 0,
            "dirty evictions must reach DRAM"
        );
    }

    #[test]
    fn accel_reads_bypass_private_caches() {
        let mut m = small();
        let addr = 0x80_000;
        let done = m.accel_read(0, addr, 0);
        assert!(done > 60, "cold accel read pays DRAM latency");
        assert!(!m.l1[0].contains(addr), "accel reads must not pollute L1");
        assert!(!m.l2[0].contains(addr), "accel reads must not pollute L2");
        let slice = m.slice_of(line_of(addr));
        assert!(m.llc[slice].contains(addr), "accel fills allocate in LLC");
        // Second read is an LLC hit: cheaper than DRAM.
        let warm = m.accel_read(0, addr, 1000) - 1000;
        assert!(warm < 40, "LLC hit must be cheap, got {warm}");
    }

    #[test]
    fn accel_write_lands_in_l2() {
        let mut m = small();
        m.accel_write(0, 0x9000, 64, 0);
        assert!(m.l2[0].contains(0x9000));
        assert_eq!(m.accel_outq_lines, 1);
        // Core read of the outQ line is an L2 hit.
        let t = m.read(0, Site(4), 0x9000, 8, 100) - 100;
        assert!(
            t <= m.config().l1.latency + m.config().l2.latency,
            "outQ read must hit in L2, got {t}"
        );
    }

    #[test]
    fn accel_pool_limits_outstanding() {
        let mut cfg = MemSysConfig::table5(1);
        cfg.accel_outstanding = 4;
        let mut m = MemSys::new(cfg);
        let mut last = 0;
        for i in 0..8u64 {
            last = m.accel_read(0, 0x100_000 + i * 4096 * 64, 0).max(last);
        }
        assert!(m.accel_outstanding(0, 1) <= 4);
        assert!(last > 100, "pool exhaustion must serialize requests");
    }

    #[test]
    fn sequential_stream_trains_stride_prefetcher() {
        // Total serialized latency of a sequential element stream must be
        // lower with the stride prefetcher than without it.
        let run = |stride_degree: usize| {
            let mut cfg = MemSysConfig::table5(1);
            cfg.l1_stride_degree = stride_degree;
            cfg.l2_best_offset = false;
            let mut m = MemSys::new(cfg);
            let mut t = 0u64;
            for i in 0..512u64 {
                t = m.read(0, Site(7), 0x500_000 + i * 8, 8, t) + 1;
            }
            t
        };
        let without = run(0);
        let with = run(2);
        assert!(
            with * 10 < without * 9,
            "prefetcher must help a sequential stream ({with} vs {without})"
        );
    }
}
