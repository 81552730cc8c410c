//! In-memory host-time spans recorded around the benchmark's calls into
//! the repository's layers.
//!
//! A span has a name (the layer call, e.g. `sim.tmu_run`), a label (the
//! work item, e.g. `SpMV/M3`), start and end times, its parent span, and a
//! run id shared by every span under one root (one set-up, one pass). Spans
//! are recorded only while the recorder is enabled, kept in memory, and
//! written out once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    label: String,
    run: u32,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// The span recorder. Disabled, [`Spans::span`] is a plain call.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    runs: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            runs: 0,
        }
    }

    /// Turns recording on or off; only call between root spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`. A span opened with no span
    /// open starts a new run id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        let run = match parent {
            Some(p) => self.spans[p].run,
            None => {
                self.runs += 1;
                self.runs
            }
        };
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            label: label.to_owned(),
            run,
            parent,
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Each span's self time: its duration minus the time its child spans
    /// cover (children never overlap — the benchmark is one thread).
    fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Per-run self-time totals in seconds, one map per root span named
    /// `root`, in recording order. Every span contributes to `<name>_s`;
    /// a span labelled `<kernel>/<input>` also to `<name>_s.<kernel>`.
    pub fn totals(&self, root: &str) -> Vec<BTreeMap<String, f64>> {
        let selfs = self.self_times();
        let mut by_run: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
        {
            by_run.insert(s.run, BTreeMap::new());
        }
        for (s, own) in self.spans.iter().zip(selfs) {
            let Some(totals) = by_run.get_mut(&s.run) else {
                continue;
            };
            let secs = own.as_secs_f64();
            *totals.entry(format!("{}_s", s.name)).or_default() += secs;
            if let Some((kernel, _)) = s.label.split_once('/') {
                *totals.entry(format!("{}_s.{kernel}", s.name)).or_default() += secs;
            }
        }
        by_run.into_values().collect()
    }

    /// Every recorded span as JSON, self time included.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self.self_times();
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"label\": \"{}\", \"run\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.label.escape_default(),
                s.run,
                s.start.as_nanos(),
                s.end.as_nanos(),
                own.as_nanos()
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_runs_group_by_root() {
        let mut spans = Spans::new(true);
        for _ in 0..2 {
            spans.span("pass", "", |s| {
                s.span("sim.tmu_run", "SpMV/M3", |s| {
                    s.span("inner", "", |_| {
                        std::thread::sleep(Duration::from_millis(2))
                    })
                });
            });
        }
        spans.set_enabled(false);
        spans.span("pass", "", |s| s.span("sim.tmu_run", "SpMV/M3", |_| ()));
        let totals = spans.totals("pass");
        assert_eq!(totals.len(), 2, "disabled passes record nothing");
        for t in &totals {
            assert!(t["inner_s"] >= 0.002);
            assert!(
                t["sim.tmu_run_s"] < t["inner_s"],
                "self time excludes the child"
            );
            assert_eq!(t["sim.tmu_run_s"], t["sim.tmu_run_s.SpMV"]);
        }
        let json = spans.to_json("tmu-grid", 1);
        assert_eq!(json.matches("\"name\"").count(), 6);
    }
}
