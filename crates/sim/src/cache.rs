//! Set-associative cache model with MSHRs.
//!
//! Each cache level tracks real tag state (LRU replacement, dirty bits) and
//! a finite pool of Miss Status Holding Registers. MSHR exhaustion is the
//! mechanism by which limited memory-level parallelism throttles the
//! baseline kernels in the paper (§3): when all MSHRs are busy, the next
//! miss's handling is pushed back to the earliest release, which surfaces
//! as backend stall cycles in the core.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// Pool of MSHRs, kept as the multiset of the slots' release times.
///
/// Which slot serves a miss never shows in the model, only when each slot
/// frees: [`MshrPool::acquire`] reads the earliest release,
/// [`MshrPool::hold`] replaces it, and [`MshrPool::busy_at`] counts the
/// releases after `t`. A min-heap of release times does each without a
/// scan over the slots.
#[derive(Debug, Clone)]
pub struct MshrPool {
    free_at: BinaryHeap<Reverse<u64>>,
    /// Whether an `acquire` still waits for its `hold`.
    acquired: bool,
    /// Times a request found all slots busy.
    pub full_events: u64,
}

impl MshrPool {
    /// Creates a pool of `n` slots, all free.
    pub fn new(n: usize) -> Self {
        Self {
            free_at: vec![Reverse(0); n.max(1)].into(),
            acquired: false,
            full_events: 0,
        }
    }

    /// Acquires the earliest-free slot for a request wanting to start at
    /// `t` and returns the actual start: if all slots are busy at `t` the
    /// start is delayed to the earliest release. The caller must
    /// [`MshrPool::hold`] the slot before the pool's next `acquire`.
    pub fn acquire(&mut self, t: u64) -> u64 {
        debug_assert!(!self.acquired, "acquire before the last one's hold");
        self.acquired = true;
        let Reverse(earliest) = *self.free_at.peek().expect("pool is non-empty");
        if earliest > t {
            self.full_events += 1;
            earliest
        } else {
            t
        }
    }

    /// Marks the slot the last [`MshrPool::acquire`] returned busy until
    /// `completion`.
    pub fn hold(&mut self, completion: u64) {
        debug_assert!(self.acquired, "hold without an acquire");
        self.acquired = false;
        *self.free_at.peek_mut().expect("pool is non-empty") = Reverse(completion);
    }

    /// Number of slots busy at time `t` (diagnostics).
    pub fn busy_at(&self, t: u64) -> usize {
        self.free_at
            .iter()
            .filter(|&&Reverse(free)| free > t)
            .count()
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

/// Tag value of a valid way: the line address with bit 0 set. Lines are
/// `CACHELINE`-aligned, so the bit is free, and an invalid way holds 0
/// even for line 0.
const VALID: u64 = 1;

/// A set-associative cache level.
///
/// The tag state is three arrays, set-major (set `s` holds ways
/// `[s * ways, (s + 1) * ways)`). All start zeroed (every way invalid),
/// so building a cache writes none of them and a set that is never
/// touched is never paged in.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `line | VALID` for a valid way, 0 for an invalid one.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    /// LRU stamp of each way; 0 exactly when the way is invalid (every
    /// stamp is at least 1), so the replacement victim is the first way
    /// with the lowest stamp.
    last_use: Vec<u64>,
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
        let n = n_sets * cfg.ways;
        Self {
            cfg,
            tags: vec![0; n],
            dirty: vec![false; n],
            last_use: vec![0; n],
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

    /// The indices of the ways of the set `line` maps to.
    fn ways_of(&self, line: u64) -> Range<usize> {
        let start = ((line / CACHELINE) & self.set_mask) as usize * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// The index of the valid way holding `line`, if any.
    fn find(&self, line: u64) -> Option<usize> {
        let ways = self.ways_of(line);
        let start = ways.start;
        self.tags[ways]
            .iter()
            .position(|&tag| tag == line | VALID)
            .map(|w| start + w)
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
        if let Some(i) = self.find(line) {
            self.last_use[i] = self.use_counter;
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
        if let Some(i) = self.find(line) {
            self.last_use[i] = self.use_counter;
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
        self.find(line_of(addr)).is_some()
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
        if let Some(i) = self.find(line) {
            self.last_use[i] = stamp;
            self.dirty[i] |= dirty;
            return None;
        }
        // The least recently used way; an invalid way (stamp 0) first.
        let ways = self.ways_of(line);
        let start = ways.start;
        let victim = start
            + self.last_use[ways]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &used)| used)
                .map(|(w, _)| w)
                .expect("ways > 0");
        let evicted = (self.tags[victim] != 0).then(|| {
            let was_dirty = self.dirty[victim];
            if was_dirty {
                self.writebacks += 1;
            }
            (self.tags[victim] & !VALID, was_dirty)
        });
        self.tags[victim] = line | VALID;
        self.dirty[victim] = dirty;
        self.last_use[victim] = stamp;
        evicted
    }

    /// Marks the line containing `addr` dirty if present; returns success.
    pub fn set_dirty(&mut self, addr: u64) -> bool {
        if let Some(i) = self.find(line_of(addr)) {
            self.dirty[i] = true;
            true
        } else {
            false
        }
    }

    /// Removes the line containing `addr`, returning `(found, was_dirty)` —
    /// used by the mostly-exclusive LLC (a hit moves the line up).
    pub fn invalidate(&mut self, addr: u64) -> (bool, bool) {
        if let Some(i) = self.find(line_of(addr)) {
            let dirty = self.dirty[i];
            self.tags[i] = 0;
            self.dirty[i] = false;
            self.last_use[i] = 0;
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
        let s0 = pool.acquire(10);
        pool.hold(50);
        let s1 = pool.acquire(10);
        pool.hold(60);
        assert_eq!((s0, s1), (10, 10));
        let s2 = pool.acquire(10);
        assert_eq!(s2, 50, "third request must wait for first release");
        assert_eq!(pool.full_events, 1);
        assert_eq!(pool.busy_at(55), 1);
    }

    /// The slot-array pool the heap replaced: a linear scan for the first
    /// earliest-free slot, kept as the reference the heap must match.
    struct LinearPool {
        slots: Vec<u64>,
        full_events: u64,
    }

    impl LinearPool {
        fn acquire(&mut self, t: u64) -> (usize, u64) {
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

        fn busy_at(&self, t: u64) -> usize {
            self.slots.iter().filter(|&&free| free > t).count()
        }
    }

    #[test]
    fn mshr_heap_matches_the_linear_pool() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for size in [1, 2, 3, 8, 32] {
            let mut heap = MshrPool::new(size);
            let mut linear = LinearPool {
                slots: vec![0; size],
                full_events: 0,
            };
            let (mut now, mut back_steps, mut ties) = (0u64, 0, 0);
            for _ in 0..20_000 {
                // Request times drift forward but often step back (probe
                // times are not monotonic), and latencies keep about
                // `size` requests outstanding, so the pool is often just
                // full and release times tie. Every eighth request comes
                // exactly as the earliest slot frees.
                let earliest = *linear.slots.iter().min().expect("non-empty");
                let t = if next(8) == 0 {
                    earliest
                } else {
                    (now + next(12)).saturating_sub(next(8))
                };
                back_steps += u64::from(t < now);
                ties += u64::from(t == earliest);
                now = t;
                let (slot, expected) = linear.acquire(t);
                assert_eq!(heap.acquire(t), expected, "start at t={t}, {size} slots");
                let completion = expected + next(4 * size as u64 + 1);
                linear.slots[slot] = completion;
                heap.hold(completion);
                assert_eq!(heap.full_events, linear.full_events);
                let probe = now.saturating_sub(10) + next(60);
                assert_eq!(heap.busy_at(probe), linear.busy_at(probe));
            }
            assert!(heap.full_events > 0, "{size} slots never filled");
            assert!(
                back_steps > 0 && ties > 0,
                "{size} slots: {back_steps} {ties}"
            );
        }
    }

    #[test]
    fn line_zero_fills_and_hits() {
        let mut c = tiny();
        assert!(!c.contains(0));
        assert_eq!(c.probe(0x0, 0), Probe::Miss);
        assert_eq!(c.fill(0x0, false), None);
        assert!(c.contains(0x3f));
        assert_eq!(c.probe(0x8, 1), Probe::Hit);
    }

    #[test]
    fn fill_after_invalidate_takes_the_freed_way() {
        let mut c = tiny();
        // Set 0 holds lines 0x000 and 0x100; 0x000 is the LRU.
        c.fill(0x000, false);
        c.fill(0x100, false);
        // The mostly-exclusive LLC's hit path: the line moves up and its
        // way goes invalid. The next fill must take that way rather than
        // evict the LRU line.
        assert_eq!(c.invalidate(0x100), (true, false));
        assert_eq!(c.fill(0x200, false), None, "the invalid way is free");
        assert!(c.contains(0x000) && c.contains(0x200));
        // With both ways valid again, the LRU line goes.
        assert_eq!(c.fill(0x300, false), Some((0x000, false)));
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
