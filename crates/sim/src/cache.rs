//! Set-associative cache model with MSHRs.
//!
//! Each cache level tracks real tag state (LRU replacement, dirty bits) and
//! a finite pool of Miss Status Holding Registers. MSHR exhaustion is the
//! mechanism by which limited memory-level parallelism throttles the
//! baseline kernels in the paper (§3): when all MSHRs are busy, the next
//! miss's handling is pushed back to the earliest release, which surfaces
//! as backend stall cycles in the core.

use std::ops::Range;

use crate::addr::{line_of, CACHELINE};
use crate::fasthash::FastMap;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Data access latency in cycles (added on a hit, and as the fill/probe
    /// pipeline cost on the miss path).
    pub latency: u64,
    /// Number of Miss Status Holding Registers.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> usize {
        (self.size_bytes / CACHELINE) as usize / self.ways
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

/// Pool of MSHR slots tracked by completion time.
#[derive(Debug, Clone)]
pub struct MshrPool {
    slots: Vec<u64>,
    /// Times a request found all slots busy.
    pub full_events: u64,
}

impl MshrPool {
    /// Creates a pool of `n` slots, all free.
    pub fn new(n: usize) -> Self {
        Self {
            slots: vec![0; n.max(1)],
            full_events: 0,
        }
    }

    /// Acquires a slot for a request wanting to start at `t`.
    ///
    /// Returns `(slot_index, actual_start)`: if all slots are busy at `t`
    /// the start is delayed to the earliest release.
    pub fn acquire(&mut self, t: u64) -> (usize, u64) {
        let (idx, &earliest) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &free_at)| free_at)
            .expect("pool is non-empty");
        if earliest > t {
            self.full_events += 1;
            (idx, earliest)
        } else {
            (idx, t)
        }
    }

    /// Marks a slot busy until `completion`.
    pub fn hold(&mut self, idx: usize, completion: u64) {
        self.slots[idx] = completion;
    }

    /// Number of slots busy at time `t` (diagnostics).
    pub fn busy_at(&self, t: u64) -> usize {
        self.slots.iter().filter(|&&free| free > t).count()
    }
}

/// Result of probing a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present.
    Hit,
    /// Line absent.
    Miss,
    /// Line absent but already being fetched; completes at the given cycle.
    InFlight(u64),
}

/// A set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// The tag array, set-major: set `s` holds `[s * ways, (s + 1) * ways)`.
    sets: Vec<Entry>,
    set_mask: u64,
    use_counter: u64,
    inflight: FastMap<u64, u64>,
    /// MSHR pool guarding the miss path.
    pub mshrs: MshrPool,
    /// Demand hits.
    pub hits: u64,
    /// Primary demand misses (each issued a new fetch).
    pub misses: u64,
    /// Secondary misses: accesses that merged into an in-flight fetch of
    /// the same line. One per probing access — the core issues each memory
    /// op's access exactly once, so this counts distinct requesters, never
    /// re-probes by the same request.
    pub merged: u64,
    /// Dirty lines evicted (writeback traffic).
    pub writebacks: u64,
    trace: Option<tmu_trace::ComponentId>,
}

impl Cache {
    /// Creates a cache from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies zero sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.sets();
        assert!(n_sets > 0, "cache too small for its associativity");
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Self {
            cfg,
            sets: vec![Entry::default(); n_sets * cfg.ways],
            set_mask: n_sets as u64 - 1,
            use_counter: 0,
            inflight: FastMap::default(),
            mshrs: MshrPool::new(cfg.mshrs),
            hits: 0,
            misses: 0,
            merged: 0,
            writebacks: 0,
            trace: None,
        }
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Attaches this cache to a tracer component: subsequent probes emit
    /// hit/miss/merge events against `id` when a tracer is installed.
    pub fn set_trace(&mut self, id: tmu_trace::ComponentId) {
        self.trace = Some(id);
    }

    #[inline]
    fn emit(&self, t: u64, kind: tmu_trace::EventKind, line: u64) {
        if let Some(id) = self.trace {
            tmu_trace::record(id, t, kind, line);
        }
    }

    /// The slice of `sets` holding the ways of the set `line` maps to.
    fn ways_of(&self, line: u64) -> Range<usize> {
        let start = ((line / CACHELINE) & self.set_mask) as usize * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// The valid way holding `line`, if any.
    fn find_mut(&mut self, line: u64) -> Option<&mut Entry> {
        let ways = self.ways_of(line);
        self.sets[ways]
            .iter_mut()
            .find(|e| e.valid && e.tag == line)
    }

    /// Probes for the line containing `addr` at time `t`, updating LRU and
    /// hit/miss statistics.
    ///
    /// Lines whose fill is still in flight report their completion time:
    /// the cache state is updated eagerly when a miss is handled, so the
    /// in-flight record is what preserves correct timing for accesses that
    /// arrive between miss issue and fill arrival.
    pub fn probe(&mut self, addr: u64, t: u64) -> Probe {
        let line = line_of(addr);
        // In-flight check comes first: an eagerly-filled line must not look
        // like a zero-latency hit before its data actually arrived.
        if let Some(&done) = self.inflight.get(&line) {
            if done > t {
                self.touch(line);
                self.merged += 1;
                self.emit(t, tmu_trace::EventKind::CacheMerge, line);
                return Probe::InFlight(done);
            }
            self.inflight.remove(&line);
        }
        self.use_counter += 1;
        let stamp = self.use_counter;
        if let Some(e) = self.find_mut(line) {
            e.last_use = stamp;
            self.hits += 1;
            self.emit(t, tmu_trace::EventKind::CacheHit, line);
            return Probe::Hit;
        }
        self.misses += 1;
        self.emit(t, tmu_trace::EventKind::CacheMiss, line);
        Probe::Miss
    }

    fn touch(&mut self, line: u64) {
        self.use_counter += 1;
        let stamp = self.use_counter;
        if let Some(e) = self.find_mut(line) {
            e.last_use = stamp;
        }
    }

    /// Drops in-flight records that completed before `t` (bounds map size).
    ///
    /// Probe times are not monotonic (an op issues when its producers
    /// complete, and a miss can wait for a free MSHR), so a record dropped
    /// here can still decide a later probe stamped with an earlier time:
    /// the size threshold and the `t` each call site passes are model
    /// behaviour, not just housekeeping.
    pub fn sweep_inflight(&mut self, t: u64) {
        if self.inflight.len() > 4 * self.cfg.mshrs {
            self.inflight.retain(|_, &mut done| done > t);
        }
    }

    /// Checks for presence without updating statistics or LRU.
    pub fn contains(&self, addr: u64) -> bool {
        let line = line_of(addr);
        self.sets[self.ways_of(line)]
            .iter()
            .any(|e| e.valid && e.tag == line)
    }

    /// Records that `line` is being fetched and will arrive at `completion`.
    pub fn mark_inflight(&mut self, addr: u64, completion: u64) {
        self.inflight.insert(line_of(addr), completion);
    }

    /// Inserts the line containing `addr`, returning the evicted victim
    /// `(line, was_dirty)` if any.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<(u64, bool)> {
        let line = line_of(addr);
        self.use_counter += 1;
        let stamp = self.use_counter;
        // Already present (e.g. a racing fill): just update.
        if let Some(e) = self.find_mut(line) {
            e.last_use = stamp;
            e.dirty |= dirty;
            return None;
        }
        let ways = self.ways_of(line);
        let victim = self.sets[ways]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_use } else { 0 })
            .expect("ways > 0");
        let evicted = if victim.valid {
            if victim.dirty {
                self.writebacks += 1;
            }
            Some((victim.tag, victim.dirty))
        } else {
            None
        };
        *victim = Entry {
            tag: line,
            valid: true,
            dirty,
            last_use: stamp,
        };
        evicted
    }

    /// Marks the line containing `addr` dirty if present; returns success.
    pub fn set_dirty(&mut self, addr: u64) -> bool {
        if let Some(e) = self.find_mut(line_of(addr)) {
            e.dirty = true;
            true
        } else {
            false
        }
    }

    /// Removes the line containing `addr`, returning `(found, was_dirty)` —
    /// used by the mostly-exclusive LLC (a hit moves the line up).
    pub fn invalidate(&mut self, addr: u64) -> (bool, bool) {
        if let Some(e) = self.find_mut(line_of(addr)) {
            let dirty = e.dirty;
            e.valid = false;
            e.dirty = false;
            (true, dirty)
        } else {
            (false, false)
        }
    }

    /// Demand miss ratio over the cache's lifetime: primary misses over
    /// all accesses. Merged accesses reuse an in-flight fetch rather than
    /// issuing a new one, so they count in the denominator only — adding
    /// them to the numerator would double-count each fetched line.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.merged;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            latency: 2,
            mshrs: 4,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.probe(0x100, 0), Probe::Miss);
        c.fill(0x100, false);
        assert_eq!(c.probe(0x13f, 1), Probe::Hit, "same line, different byte");
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 lines = 256B).
        c.fill(0x000, false);
        c.fill(0x100, false);
        c.probe(0x000, 0); // touch to make 0x100 the LRU
        let evicted = c.fill(0x200, false).expect("must evict");
        assert_eq!(evicted, (0x100, false));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(0x000, true);
        c.fill(0x100, false);
        c.fill(0x200, false); // evicts dirty 0x000
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn inflight_merge() {
        let mut c = tiny();
        assert_eq!(c.probe(0x40, 0), Probe::Miss);
        c.mark_inflight(0x40, 100);
        assert_eq!(c.probe(0x48, 5), Probe::InFlight(100));
        assert_eq!(c.merged, 1);
        // After completion the record is stale; fill clears it.
        c.fill(0x40, false);
        assert_eq!(c.probe(0x40, 101), Probe::Hit);
    }

    #[test]
    fn miss_rate_counts_each_fetch_once() {
        // One primary miss plus three distinct accesses merging into the
        // same in-flight fetch: the line is fetched once, so the miss rate
        // must report 1 miss out of 4 accesses — merges stay out of the
        // numerator (they previously double-counted the fetch).
        let mut c = tiny();
        assert_eq!(c.probe(0x40, 0), Probe::Miss);
        c.mark_inflight(0x40, 100);
        c.fill(0x40, false);
        for t in [1, 2, 3] {
            assert_eq!(c.probe(0x40, t), Probe::InFlight(100));
        }
        assert_eq!((c.hits, c.misses, c.merged), (0, 1, 3));
        assert!((c.miss_rate() - 0.25).abs() < 1e-12);
        // Once the fill has landed and the fetch completed, accesses hit.
        assert_eq!(c.probe(0x40, 150), Probe::Hit);
        assert!((c.miss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mshr_pool_delays_when_full() {
        let mut pool = MshrPool::new(2);
        let (a, s0) = pool.acquire(10);
        pool.hold(a, 50);
        let (b, s1) = pool.acquire(10);
        pool.hold(b, 60);
        assert_eq!((s0, s1), (10, 10));
        let (_, s2) = pool.acquire(10);
        assert_eq!(s2, 50, "third request must wait for first release");
        assert_eq!(pool.full_events, 1);
        assert_eq!(pool.busy_at(55), 1);
    }

    #[test]
    fn invalidate_reports_dirty() {
        let mut c = tiny();
        c.fill(0x80, false);
        c.set_dirty(0x80);
        assert_eq!(c.invalidate(0x80), (true, true));
        assert_eq!(c.invalidate(0x80), (false, false));
    }
}
