//! Hierarchical counter/gauge registry with gem5-style dotted names.
//!
//! Every end-of-run statistic lives under a dotted path such as
//! `system.core0.backend` or `system.dram.row_hits`. The registry is the
//! single source both exporters draw from: the flat text dump renders it
//! directly, and `tmu-bench` renders one `results/bench.json` object per
//! section (a name's first dotted component) — one counter system, two
//! views.

use std::collections::BTreeMap;

/// One registered statistic.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Stat {
    /// A monotonically accumulated integer (events, cycles, lines).
    Counter(u64),
    /// A point-in-time or derived floating value (rates, ratios).
    Gauge(f64),
}

/// A sorted map of dotted stat names to values.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsRegistry {
    stats: BTreeMap<String, Stat>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets counter `name` to `v` (registering it if new).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        match self.stats.get_mut(name) {
            Some(s) => *s = Stat::Counter(v),
            None => {
                self.stats.insert(name.to_owned(), Stat::Counter(v));
            }
        }
    }

    /// Adds `v` to counter `name` (registering it at `v` if new). Gauges
    /// reached through this method are overwritten as counters.
    pub fn add_counter(&mut self, name: &str, v: u64) {
        match self.stats.get_mut(name) {
            Some(Stat::Counter(c)) => *c += v,
            Some(s) => *s = Stat::Counter(v),
            None => {
                self.stats.insert(name.to_owned(), Stat::Counter(v));
            }
        }
    }

    /// Sets gauge `name` to `v` (registering it if new).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        match self.stats.get_mut(name) {
            Some(s) => *s = Stat::Gauge(v),
            None => {
                self.stats.insert(name.to_owned(), Stat::Gauge(v));
            }
        }
    }

    /// Value of counter `name`, if registered as a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.stats.get(name) {
            Some(Stat::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Value of gauge `name`, if registered as a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.stats.get(name) {
            Some(Stat::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Number of registered stats.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Iterates stats in sorted (hierarchical) name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Stat)> {
        self.stats.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Keeps only the stats whose name satisfies `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.stats.retain(|name, _| keep(name));
    }

    /// Absorbs `other`, overwriting stats that share a name.
    pub fn merge(&mut self, other: &StatsRegistry) {
        for (name, stat) in &other.stats {
            self.stats.insert(name.clone(), *stat);
        }
    }

    /// Renders the gem5-style flat text dump: one `name value` line per
    /// stat, sorted by name.
    pub fn dump_text(&self) -> String {
        let mut out = String::new();
        let width = self.stats.keys().map(String::len).max().unwrap_or(0);
        for (name, stat) in &self.stats {
            out.push_str(name);
            for _ in name.len()..width + 2 {
                out.push(' ');
            }
            match stat {
                Stat::Counter(c) => out.push_str(&c.to_string()),
                Stat::Gauge(g) => out.push_str(&format!("{g}")),
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = StatsRegistry::new();
        r.add_counter("system.core0.commits", 3);
        r.add_counter("system.core0.commits", 4);
        r.set_counter("system.dram.row_hits", 9);
        r.set_gauge("system.dram.row_hit_rate", 0.75);
        assert_eq!(r.counter("system.core0.commits"), Some(7));
        assert_eq!(r.counter("system.dram.row_hits"), Some(9));
        assert_eq!(r.gauge("system.dram.row_hit_rate"), Some(0.75));
        assert_eq!(r.counter("system.dram.row_hit_rate"), None);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn dump_is_sorted_and_aligned() {
        let mut r = StatsRegistry::new();
        r.set_counter("b.long.name", 2);
        r.set_counter("a", 1);
        r.set_gauge("c", 0.5);
        let dump = r.dump_text();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].starts_with("a "), "{dump}");
        assert!(lines[1].starts_with("b.long.name"), "{dump}");
        assert!(lines[2].starts_with("c "), "{dump}");
        assert!(lines[0].ends_with(" 1"));
        assert!(lines[2].ends_with(" 0.5"));
    }

    #[test]
    fn merge_overwrites_shared_names() {
        let mut a = StatsRegistry::new();
        a.set_counter("x", 1);
        a.set_counter("only_a", 5);
        let mut b = StatsRegistry::new();
        b.set_counter("x", 2);
        a.merge(&b);
        assert_eq!(a.counter("x"), Some(2));
        assert_eq!(a.counter("only_a"), Some(5));
    }

    #[test]
    fn retain_drops_rejected_names() {
        let mut r = StatsRegistry::new();
        r.set_counter("a.x", 1);
        r.set_gauge("b.y", 0.5);
        r.retain(|name| !name.starts_with("a."));
        assert_eq!(r.counter("a.x"), None);
        assert_eq!(r.gauge("b.y"), Some(0.5));
        assert_eq!(r.len(), 1);
    }
}
