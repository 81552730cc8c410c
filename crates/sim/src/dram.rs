//! HBM2e memory channel model.
//!
//! Each channel is an independently-queued resource delivering one 64 B
//! cacheline per `cycles_per_line` core cycles (37.5 GB/s at 2.4 GHz ⇒
//! ≈4.1 cycles/line). Banks keep an open row; row hits are served with
//! `t_row_hit` latency and misses with `t_row_miss` (precharge+activate),
//! approximating FR-FCFS scheduling by making locality cheap rather than by
//! literal queue reordering. Cacheline addresses are interleaved across
//! channels and across banks inside a channel.

use crate::addr::CACHELINE;

/// Configuration of the DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Core cycles to stream one cacheline over a channel's data bus.
    pub cycles_per_line: f64,
    /// Access latency when the target row is open (core cycles).
    pub t_row_hit: u64,
    /// Access latency on a row conflict (core cycles).
    pub t_row_miss: u64,
    /// Row size in bytes (open-page granularity).
    pub row_bytes: u64,
}

impl DramConfig {
    /// The paper's Table 5 memory: 4 HBM2e channels, 37.5 GB/s each,
    /// FR-FCFS, at a 2.4 GHz core clock.
    pub fn hbm2e_4ch() -> Self {
        Self {
            channels: 4,
            banks: 16,
            cycles_per_line: 64.0 / 37.5e9 * 2.4e9, // ≈ 4.096
            t_row_hit: 56,
            t_row_miss: 110,
            row_bytes: 2048,
        }
    }

    /// Same channel parameters with a different channel count (used by the
    /// Fig. 3 A64FX-like / Graviton3-like configurations).
    pub fn hbm2e(channels: usize) -> Self {
        Self {
            channels,
            ..Self::hbm2e_4ch()
        }
    }

    /// Peak bandwidth in bytes per core cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * CACHELINE as f64 / self.cycles_per_line
    }
}

#[derive(Debug, Clone)]
struct Channel {
    bus_free: u64,
    open_rows: Vec<u64>,
    /// Fractional accumulator so non-integer cycles_per_line stays exact.
    bus_carry: f64,
}

/// The DRAM subsystem: all channels plus traffic accounting.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<Channel>,
    /// Cachelines read from DRAM.
    pub lines_read: u64,
    /// Cachelines written back to DRAM.
    pub lines_written: u64,
    /// Row-buffer hits observed.
    pub row_hits: u64,
    /// Row-buffer misses observed.
    pub row_misses: u64,
    trace: Option<tmu_trace::ComponentId>,
}

impl Dram {
    /// Creates a DRAM subsystem from `config`.
    pub fn new(config: DramConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| Channel {
                bus_free: 0,
                open_rows: vec![u64::MAX; config.banks],
                bus_carry: 0.0,
            })
            .collect();
        Self {
            config,
            channels,
            lines_read: 0,
            lines_written: 0,
            row_hits: 0,
            row_misses: 0,
            trace: None,
        }
    }

    /// The configuration this subsystem was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Attaches the DRAM model to a tracer component: subsequent accesses
    /// emit row-open/row-hit events against `id` when a tracer is installed.
    pub fn set_trace(&mut self, id: tmu_trace::ComponentId) {
        self.trace = Some(id);
    }

    /// Number of banks currently holding an open row, across all channels
    /// (row-buffer state diagnostics; sampled by the trace subsystem).
    pub fn open_rows(&self) -> usize {
        self.channels
            .iter()
            .map(|ch| ch.open_rows.iter().filter(|&&r| r != u64::MAX).count())
            .sum()
    }

    fn channel_of(&self, line_addr: u64) -> usize {
        ((line_addr / CACHELINE) % self.config.channels as u64) as usize
    }

    /// Serves a cacheline request arriving at `cycle`; returns the
    /// completion cycle. `is_write` requests are writebacks (they occupy
    /// bus time but their completion is not awaited by anyone).
    pub fn access(&mut self, line_addr: u64, cycle: u64, is_write: bool) -> u64 {
        let ch_idx = self.channel_of(line_addr);
        let cfg = self.config;
        let ch = &mut self.channels[ch_idx];
        let within = line_addr / CACHELINE / cfg.channels as u64;
        let bank = (within % cfg.banks as u64) as usize;
        let row = within / cfg.banks as u64 * CACHELINE / cfg.row_bytes.max(1);

        let row_hit = ch.open_rows[bank] == row;
        if row_hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
            ch.open_rows[bank] = row;
        }
        if let Some(id) = self.trace {
            let kind = if row_hit {
                tmu_trace::EventKind::DramRowHit
            } else {
                tmu_trace::EventKind::DramRowOpen
            };
            let payload = ((ch_idx as u64) << 48) | (row & 0xFFFF_FFFF_FFFF);
            tmu_trace::record(id, cycle, kind, payload);
        }
        let access_lat = if row_hit {
            cfg.t_row_hit
        } else {
            cfg.t_row_miss
        };

        let start = cycle.max(ch.bus_free);
        // Advance the bus with fractional-cycle accuracy.
        ch.bus_carry += cfg.cycles_per_line;
        let whole = ch.bus_carry as u64;
        ch.bus_carry -= whole as f64;
        ch.bus_free = start + whole;

        if is_write {
            self.lines_written += 1;
        } else {
            self.lines_read += 1;
        }
        start + access_lat
    }

    /// Total bytes moved to/from DRAM.
    pub fn bytes_moved(&self) -> u64 {
        (self.lines_read + self.lines_written) * CACHELINE
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn config_peak_bandwidth() {
        let cfg = DramConfig::hbm2e_4ch();
        // 150 GB/s at 2.4 GHz = 62.5 B/cycle.
        let bpc = cfg.peak_bytes_per_cycle();
        assert!((bpc - 62.5).abs() < 0.1, "bytes/cycle = {bpc}");
    }

    #[test]
    fn row_hits_are_faster() {
        let mut dram = Dram::new(DramConfig::hbm2e_4ch());
        let first = dram.access(0, 0, false);
        // Same line again (same row, far in the future so no queueing).
        let second = dram.access(0, 10_000, false) - 10_000;
        assert!(second < first, "row hit {second} must beat miss {first}");
        assert_eq!(dram.row_hits, 1);
        assert_eq!(dram.row_misses, 1);
    }

    #[test]
    fn single_channel_bandwidth_is_limited() {
        let mut dram = Dram::new(DramConfig::hbm2e(1));
        // Stream 1000 sequential lines all arriving at cycle 0.
        let mut last = 0;
        for i in 0..1000u64 {
            last = last.max(dram.access(i * CACHELINE, 0, false));
        }
        // Must take at least 1000 × 4.096 cycles of bus time.
        assert!(last as f64 >= 1000.0 * 4.0, "finished too fast: {last}");
        assert_eq!(dram.lines_read, 1000);
    }

    #[test]
    fn channels_are_independent() {
        let mut dram = Dram::new(DramConfig::hbm2e(4));
        // Lines 0..4 land on distinct channels; all can start at cycle 0.
        let times: Vec<u64> = (0..4u64)
            .map(|i| dram.access(i * CACHELINE, 0, false))
            .collect();
        let spread = times.iter().max().unwrap() - times.iter().min().unwrap();
        assert!(spread <= 1, "parallel channels must not queue: {times:?}");
    }

    #[test]
    fn open_rows_tracks_bank_state() {
        let mut dram = Dram::new(DramConfig::hbm2e_4ch());
        assert_eq!(dram.open_rows(), 0, "all banks start closed");
        dram.access(0, 0, false);
        assert_eq!(dram.open_rows(), 1);
        // Same bank, same row: still one open row.
        dram.access(0, 10, false);
        assert_eq!(dram.open_rows(), 1);
        // A different channel opens a second bank.
        dram.access(CACHELINE, 20, false);
        assert_eq!(dram.open_rows(), 2);
    }

    #[test]
    fn writes_count_separately() {
        let mut dram = Dram::new(DramConfig::hbm2e_4ch());
        dram.access(0, 0, false);
        dram.access(64, 0, true);
        assert_eq!(dram.lines_read, 1);
        assert_eq!(dram.lines_written, 1);
        assert_eq!(dram.bytes_moved(), 128);
    }
}
