//! Hardware prefetcher models.
//!
//! The Table 5 system has a stride prefetcher (degree 2) at L1D and a
//! Best-Offset prefetcher at L2. Both are modeled behaviourally: given the
//! demand access stream they emit candidate prefetch addresses, which the
//! memory system then fetches through the regular miss path (consuming
//! bandwidth but not core-visible MSHRs).

use crate::addr::CACHELINE;
use crate::fasthash::FastMap;
use crate::op::Site;

/// Per-site stride prefetcher (L1D in Table 5, degree 2).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    degree: usize,
    table: FastMap<Site, StrideEntry>,
    /// Prefetches issued.
    pub issued: u64,
}

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher issuing `degree` prefetches ahead.
    pub fn new(degree: usize) -> Self {
        Self {
            degree,
            table: FastMap::default(),
            issued: 0,
        }
    }

    /// Observes a demand access and returns addresses to prefetch.
    pub fn observe(&mut self, site: Site, addr: u64, out: &mut Vec<u64>) {
        let entry = self.table.entry(site).or_insert(StrideEntry {
            last_addr: addr,
            stride: 0,
            confidence: 0,
        });
        let stride = addr as i64 - entry.last_addr as i64;
        if stride != 0 && stride == entry.stride {
            entry.confidence = entry.confidence.saturating_add(1);
        } else {
            entry.stride = stride;
            entry.confidence = 0;
        }
        entry.last_addr = addr;
        if entry.confidence >= 2 {
            // Small element strides are promoted to line granularity so the
            // prefetch actually runs ahead of the consuming stream.
            let step = if entry.stride.unsigned_abs() < CACHELINE {
                entry.stride.signum() * CACHELINE as i64
            } else {
                entry.stride
            };
            for d in 1..=self.degree {
                let target = addr as i64 + step * d as i64;
                if target > 0 {
                    out.push(target as u64);
                    self.issued += 1;
                }
            }
        }
    }
}

/// The best-offset prefetcher's candidate offsets, in cache lines.
const OFFSETS: [i64; 12] = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, -1, -2];

/// The range `MIN_OFFSET..=MAX_OFFSET` spans every candidate offset.
const MIN_OFFSET: i64 = -2;
const MAX_OFFSET: i64 = 16;

/// Simplified Best-Offset prefetcher (L2 in Table 5).
///
/// Scores a fixed candidate-offset list against a small history of recent
/// line addresses; after each learning round the best-scoring offset is
/// used to prefetch `line + offset` on every L2 demand access.
#[derive(Debug, Clone)]
pub struct BestOffsetPrefetcher {
    scores: [u32; OFFSETS.len()],
    /// Recent line numbers; `u64::MAX` marks a slot not yet written.
    recent: [u64; 64],
    recent_pos: usize,
    round_len: u32,
    accesses_in_round: u32,
    best: Option<i64>,
    /// Prefetches issued.
    pub issued: u64,
}

impl BestOffsetPrefetcher {
    /// Creates a Best-Offset prefetcher with the canonical small offset
    /// candidate list.
    pub fn new() -> Self {
        Self {
            scores: [0; OFFSETS.len()],
            recent: [u64::MAX; 64],
            recent_pos: 0,
            round_len: 256,
            accesses_in_round: 0,
            best: None,
            issued: 0,
        }
    }

    /// Observes an L2 demand access (line-granular) and returns a prefetch
    /// line address if an offset has been learned.
    pub fn observe(&mut self, line: u64, out: &mut Vec<u64>) {
        let line_no = line / CACHELINE;
        self.learn(line_no, self.present_offsets(line_no), out);
    }

    /// The distances `d = line_no - r` to history lines `r` that fall in
    /// `MIN_OFFSET..=MAX_OFFSET`, as a mask with bit `d - MIN_OFFSET` set:
    /// one pass, so each offset matches at most once.
    fn present_offsets(&self, line_no: u64) -> u32 {
        let mut present = 0;
        for &r in &self.recent {
            // An unwritten slot reads -1 as `i64`, which would fake offset
            // `line_no + 1` for line numbers below 16.
            if r == u64::MAX {
                continue;
            }
            let d = line_no as i64 - r as i64;
            if (MIN_OFFSET..=MAX_OFFSET).contains(&d) {
                present |= 1 << (d - MIN_OFFSET);
            }
        }
        present
    }

    /// Scores the offsets `present` holds, records `line_no` in the
    /// history, closes the round if it is complete, and emits the prefetch.
    fn learn(&mut self, line_no: u64, present: u32, out: &mut Vec<u64>) {
        for (score, off) in self.scores.iter_mut().zip(OFFSETS) {
            *score += (present >> (off - MIN_OFFSET)) & 1;
        }
        self.recent[self.recent_pos] = line_no;
        self.recent_pos = (self.recent_pos + 1) % self.recent.len();

        self.accesses_in_round += 1;
        if self.accesses_in_round >= self.round_len {
            let (best_idx, &best_score) = self
                .scores
                .iter()
                .enumerate()
                .max_by_key(|(_, &s)| s)
                .expect("non-empty offsets");
            // Require a minimum hit rate before trusting the offset.
            self.best = (best_score >= self.round_len / 8).then(|| OFFSETS[best_idx]);
            self.scores = [0; OFFSETS.len()];
            self.accesses_in_round = 0;
        }

        if let Some(off) = self.best {
            let target = line_no as i64 + off;
            if target > 0 {
                out.push(target as u64 * CACHELINE);
                self.issued += 1;
            }
        }
    }
}

impl Default for BestOffsetPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_learns_sequential_stream() {
        let mut pf = StridePrefetcher::new(2);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            pf.observe(Site(1), 0x1000 + i * 8, &mut out);
        }
        // Element stride 8 is promoted to line granularity (64 B).
        assert_eq!(out, vec![0x1000 + 7 * 8 + 64, 0x1000 + 7 * 8 + 128]);
    }

    #[test]
    fn stride_ignores_random_sites() {
        let mut pf = StridePrefetcher::new(2);
        let mut out = Vec::new();
        for addr in [0x10u64, 0x5000, 0x220, 0x9000, 0x44] {
            pf.observe(Site(2), addr, &mut out);
        }
        assert!(out.is_empty(), "no stable stride → no prefetch");
    }

    #[test]
    fn stride_tables_are_per_site() {
        let mut pf = StridePrefetcher::new(1);
        let mut out = Vec::new();
        // Interleave two streams with different strides; both should train.
        for i in 0..8u64 {
            pf.observe(Site(1), 0x1000 + i * 8, &mut out);
            pf.observe(Site(2), 0x9000 + i * 64, &mut out);
        }
        assert!(out.contains(&(0x1000 + 7 * 8 + 64)), "promoted line stride");
        assert!(out.contains(&(0x9000 + 8 * 64)));
    }

    #[test]
    fn best_offset_learns_unit_stride() {
        let mut pf = BestOffsetPrefetcher::new();
        let mut out = Vec::new();
        for i in 0..600u64 {
            out.clear();
            pf.observe(i * CACHELINE, &mut out);
        }
        // On a unit-stride stream every positive offset scores equally; any
        // learned positive offset is a correct ahead-of-stream prefetch.
        assert_eq!(out.len(), 1, "a learned offset must fire every access");
        let ahead = (out[0] / CACHELINE) as i64 - 599;
        assert!(
            (1..=16).contains(&ahead),
            "prefetch must run ahead of the stream, offset = {ahead}"
        );
    }

    /// The scoring loop `present_offsets` replaced: every candidate offset
    /// searches the whole history. The reference the one-pass scan must match.
    fn present_offsets_reference(pf: &BestOffsetPrefetcher, line_no: u64) -> u32 {
        let mut present = 0;
        for off in OFFSETS {
            let wanted = line_no as i64 - off;
            if wanted >= 0 && pf.recent.contains(&(wanted as u64)) {
                present |= 1 << (off - MIN_OFFSET);
            }
        }
        present
    }

    #[test]
    fn one_pass_scoring_matches_the_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let streams: [(&str, Vec<u64>); 5] = [
            ("unit stride", (0..1024).map(|i| 5_000 + i).collect()),
            (
                "negative stride",
                (0..1024).map(|i| 90_000 - 2 * i).collect(),
            ),
            (
                "random",
                (0..1024).map(|_| rng.gen_range(0u64..1_000_000)).collect(),
            ),
            (
                "random near",
                (0..1024).map(|_| 7_000 + rng.gen_range(0u64..24)).collect(),
            ),
            // Line numbers below 16 sit within an offset of the warm-up
            // slots' `u64::MAX`, which reads as -1 once cast to `i64`.
            (
                "below 16",
                (0..1024).map(|_| rng.gen_range(0u64..16)).collect(),
            ),
        ];
        for (name, lines) in streams {
            let mut fast = BestOffsetPrefetcher::new();
            let mut reference = BestOffsetPrefetcher::new();
            let (mut out_fast, mut out_ref) = (Vec::new(), Vec::new());
            let mut learned = false;
            for (i, &line_no) in lines.iter().enumerate() {
                fast.observe(line_no * CACHELINE, &mut out_fast);
                let present = present_offsets_reference(&reference, line_no);
                reference.learn(line_no, present, &mut out_ref);
                assert_eq!(fast.scores, reference.scores, "{name}: access {i}");
                assert_eq!(fast.best, reference.best, "{name}: access {i}");
                assert_eq!(out_fast, out_ref, "{name}: access {i}");
                learned |= fast.best.is_some();
            }
            assert_eq!(lines.len() % 256, 0, "{name}: whole rounds only");
            if name != "random" {
                assert!(learned, "{name}: the stream must learn an offset");
            }
        }
    }

    #[test]
    fn best_offset_stays_quiet_on_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut pf = BestOffsetPrefetcher::new();
        let mut out = Vec::new();
        for _ in 0..600 {
            let line: u64 = rng.gen_range(0u64..1_000_000) * CACHELINE;
            pf.observe(line, &mut out);
        }
        // Random streams must not sustain a learned offset for long.
        assert!(
            pf.issued < 300,
            "random stream produced {} prefetches",
            pf.issued
        );
    }
}
