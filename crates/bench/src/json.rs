//! Structured perf rows and the `results/bench.json` writer.
//!
//! Every figure's simulated runs become [`BenchRow`] records, merged into
//! one `results/bench.json` file so perf regressions can be gated on a
//! machine-readable trajectory instead of diffs of plain-text reports.
//! Merging is file-level: a standalone figure binary refreshes its own
//! figure's rows and carries every other figure of an existing file of
//! the same [`SCHEMA_VERSION`] through verbatim.
//!
//! A row is the labels that name a run plus the run's [`StatsRegistry`].
//! The writer has no per-statistic code: after the labels (in
//! [`BenchRow::label_keys`] order, absent ones omitted) it renders one
//! JSON object per registry *section* — a stat's section is the first
//! dotted component of its name, its key the rest — in name order:
//!
//! ```text
//! {"figure":"fig10",…,"machine":"table5","scale":0.4,
//!  "system":{"cycles":1234,"l1.hits":…,"topdown.backend":0.7,…},
//!  "tmu":{"outq.entries":…,"outq.read_to_write":…}}
//! ```
//!
//! Counters render as integers, gauges as shortest-roundtrip floats,
//! NaN/∞ as `null`. The JSON is emitted by hand because the workspace's
//! `serde` is the offline marker-trait stub (see `vendor/README.md`).
//! DESIGN.md §4 lists the sections and stat names.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use tmu_trace::{Stat, StatsRegistry};

/// The `schema_version` this module writes, and the only one whose
/// figures [`write_bench_json`] carries over from an existing file.
pub const SCHEMA_VERSION: u32 = 7;

/// Attaches the offending path to an I/O error, so a read-only or missing
/// `results/` directory fails with a diagnosis instead of a bare panic.
fn with_path(e: io::Error, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// `std::fs::write` with the path attached to any error.
pub fn write_text(path: &Path, text: &str) -> io::Result<()> {
    std::fs::write(path, text).map_err(|e| with_path(e, path))
}

/// `std::fs::create_dir_all` with the path attached to any error.
pub fn create_dir(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir).map_err(|e| with_path(e, dir))
}

/// One run in `results/bench.json`: the labels that name it plus its
/// statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRow {
    /// Figure the row belongs to (`"fig10"`, …).
    pub figure: String,
    /// Kernel name (`"SpMV"`, …).
    pub kernel: String,
    /// Input label (`"M3"`, `"fr256x8"`, …).
    pub input: String,
    /// Engine variant label (`"baseline-sve"`, `"tmu"`, …).
    pub engine: String,
    /// Machine label (`"table5"` unless the figure sweeps machines).
    pub machine: String,
    /// Input scale, when the input is a scaled stand-in.
    pub scale: Option<f64>,
    /// Source einsum expression of a front-end job.
    pub expr: Option<String>,
    /// Serving-layer tenant (`"tenant0"`, …) of a per-tenant row.
    pub tenant: Option<String>,
    /// Application (`"gnn"`, `"cg"`, `"pagerank"`) of an app row.
    pub app: Option<String>,
    /// Pipeline stage of a per-stage app row.
    pub stage: Option<String>,
    /// Physical layout the matrix was marshaled into (format rows).
    pub format: Option<String>,
    /// Panic message when the job failed instead of finishing.
    pub error: Option<String>,
    /// Why the engine retired and the job fell back to the baseline.
    pub fallback: Option<String>,
    /// The run's statistics, one JSON object per section.
    pub stats: StatsRegistry,
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number; NaN and ∞, which JSON cannot express, as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

impl BenchRow {
    /// The labels in emission order, each key with its JSON value or
    /// `None` when absent.
    fn labels(&self) -> [(&'static str, Option<String>); 13] {
        let text = |s: &Option<String>| s.as_deref().map(quoted);
        [
            ("figure", Some(quoted(&self.figure))),
            ("kernel", Some(quoted(&self.kernel))),
            ("input", Some(quoted(&self.input))),
            ("engine", Some(quoted(&self.engine))),
            ("machine", Some(quoted(&self.machine))),
            ("scale", self.scale.map(number)),
            ("expr", text(&self.expr)),
            ("tenant", text(&self.tenant)),
            ("app", text(&self.app)),
            ("stage", text(&self.stage)),
            ("format", text(&self.format)),
            ("error", text(&self.error)),
            ("fallback", text(&self.fallback)),
        ]
    }

    /// Every label key a row may carry, in emission order. No stat
    /// section may share one of these names.
    pub fn label_keys() -> [&'static str; 13] {
        Self::default().labels().map(|(key, _)| key)
    }

    /// The sections of [`Self::stats`], in emission order. Registry names
    /// sort by section first, so each section's stats are contiguous.
    pub fn sections(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (name, _) in self.stats.iter() {
            let (section, _) = name
                .split_once('.')
                .unwrap_or_else(|| panic!("stat {name:?} is not named <section>.<stat>"));
            if out.last() != Some(&section) {
                out.push(section);
            }
        }
        out
    }

    /// The row as one JSON object: the present labels, then one object
    /// per section keyed by the rest of each stat name.
    fn to_json(&self) -> String {
        let labels = self.labels();
        let mut fields: Vec<String> = labels
            .iter()
            .filter_map(|(key, value)| Some(format!("\"{key}\":{}", value.as_ref()?)))
            .collect();
        for section in self.sections() {
            assert!(
                labels.iter().all(|(key, _)| *key != section),
                "stat section {section:?} would repeat the row label of that name"
            );
            let prefix = format!("{section}.");
            let stats: Vec<String> = self
                .stats
                .iter()
                .filter_map(|(name, stat)| {
                    let value = match *stat {
                        Stat::Counter(c) => c.to_string(),
                        Stat::Gauge(g) => number(g),
                    };
                    Some(format!("{}:{value}", quoted(name.strip_prefix(&prefix)?)))
                })
                .collect();
            fields.push(format!("{}:{{{}}}", quoted(section), stats.join(",")));
        }
        format!("{{{}}}", fields.join(","))
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Vec<BenchRow>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Vec<BenchRow>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Registers (replacing any previous run of) `figure`'s rows.
pub fn record(figure: &str, rows: Vec<BenchRow>) {
    registry()
        .lock()
        .expect("bench.json registry poisoned")
        .insert(figure.to_owned(), rows);
}

/// The first lines of every file this module writes.
fn header() -> String {
    format!("{{\n\"schema_version\":{SCHEMA_VERSION},\n\"figures\":{{\n")
}

fn render(figures: &BTreeMap<String, String>) -> String {
    let arrays: Vec<String> = figures
        .iter()
        .map(|(figure, rows)| quoted(figure) + ":[\n" + rows + "\n]")
        .collect();
    header() + &arrays.join(",\n") + "\n}\n}\n"
}

fn rows_body(rows: &[BenchRow]) -> String {
    let lines: Vec<String> = rows.iter().map(BenchRow::to_json).collect();
    lines.join(",\n")
}

/// Recovers the per-figure row arrays (as raw JSON text) from a
/// `bench.json` this emitter wrote earlier. Relies on the emitter's fixed
/// layout: the [`header`], one row per line, every array closed by a
/// `\n]` pair. Returns an empty map for a missing or foreign file, and for
/// a file of another [`SCHEMA_VERSION`]: its rows would sit under the
/// wrong version.
fn parse_existing(path: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let Some(mut rest) = text.strip_prefix(&header()) else {
        return out;
    };
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let Some(qe) = rest.find('"') else { break };
        let name = rest[..qe].to_owned();
        rest = &rest[qe + 1..];
        let Some(open) = rest.find('[') else { break };
        rest = &rest[open + 1..];
        let Some(close) = rest.find("\n]") else { break };
        out.insert(name, rest[..close].trim_matches('\n').to_owned());
        rest = &rest[close + 2..];
        if !rest.trim_start().starts_with(',') {
            break;
        }
    }
    out
}

/// Serializes every figure recorded so far in this process.
pub fn render_bench_json() -> String {
    let reg = registry().lock().expect("bench.json registry poisoned");
    let figures: BTreeMap<String, String> = reg
        .iter()
        .map(|(name, rows)| (name.clone(), rows_body(rows)))
        .collect();
    render(&figures)
}

/// Writes `bench.json` under `dir`, merging this process's recorded
/// figures over any figures an earlier run (e.g. another `fig*` binary)
/// left in a file of the same [`SCHEMA_VERSION`] — so `cargo run --bin
/// fig10` refreshes only its own rows instead of clobbering the rest. A
/// file of another version is replaced, not merged. Delete the file for a
/// clean rebuild. Errors name the offending path.
pub fn write_bench_json(dir: &Path) -> io::Result<PathBuf> {
    let path = dir.join("bench.json");
    let mut figures = parse_existing(&path);
    {
        let reg = registry().lock().expect("bench.json registry poisoned");
        for (name, rows) in reg.iter() {
            figures.insert(name.clone(), rows_body(rows));
        }
    }
    write_text(&path, &render(&figures))?;
    Ok(path)
}

/// Validates that `text` is one well-formed JSON value (RFC 8259 subset:
/// objects, arrays, strings with escapes, numbers, booleans, null) with
/// no key repeated within an object — RFC 8259 leaves duplicates'
/// meaning open, and common parsers silently keep only the last.
///
/// The workspace's `serde` is the offline marker-trait stub, so this
/// hand-rolled recursive-descent checker is the repo's JSON parser — the
/// emitters above and the Chrome trace exporter are tested against it.
/// Errors carry the byte offset and a short description.
pub fn validate(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, "true"),
        Some(b'f') => parse_lit(b, pos, "false"),
        Some(b'n') => parse_lit(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    let mut keys: Vec<&[u8]> = Vec::new();
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let start = *pos;
        parse_string(b, pos)?;
        let key = &b[start..*pos];
        if keys.contains(&key) {
            return Err(format!("duplicate object key at byte {start}"));
        }
        keys.push(key);
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6).unwrap_or(&[]);
                    if hex.len() != 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}"));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}")),
            },
            0x00..=0x1F => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit} at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected digit at byte {pos}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected fraction digit at byte {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digit at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(figure: &str) -> BenchRow {
        BenchRow {
            figure: figure.into(),
            kernel: "SpMV".into(),
            input: "M3".into(),
            engine: "tmu".into(),
            machine: "table5".into(),
            ..BenchRow::default()
        }
    }

    #[test]
    fn schema_v7_row_layout_pin() {
        // Labels first in label_keys order, absent ones omitted; then one
        // object per section in name order, keyed by the rest of the
        // name; counters as integers, gauges as shortest floats, NaN as
        // null.
        let mut stats = StatsRegistry::new();
        stats.set_counter("tmu.outq.entries", 7);
        stats.set_counter("system.cycles", 42);
        stats.set_gauge("system.topdown.committing", 0.5);
        stats.set_gauge("system.load_to_use", f64::NAN);
        stats.set_gauge("system.dram.row_hit_rate", 1.0);
        stats.set_gauge("tmu.outq.read_to_write", 1.25e-3);
        let full = BenchRow {
            scale: Some(0.05),
            expr: Some("y(i) = A(i,j:csr) * x(j)".into()),
            fallback: Some("retired".into()),
            tenant: Some("tenant0".into()),
            stats,
            ..row("figX")
        };
        let s = full.to_json();
        assert_eq!(
            s,
            "{\"figure\":\"figX\",\"kernel\":\"SpMV\",\"input\":\"M3\",\"engine\":\"tmu\",\
             \"machine\":\"table5\",\"scale\":0.05,\"expr\":\"y(i) = A(i,j:csr) * x(j)\",\
             \"tenant\":\"tenant0\",\"fallback\":\"retired\",\
             \"system\":{\"cycles\":42,\"dram.row_hit_rate\":1,\"load_to_use\":null,\
             \"topdown.committing\":0.5},\
             \"tmu\":{\"outq.entries\":7,\"outq.read_to_write\":0.00125}}"
        );
        assert_eq!(full.sections(), ["system", "tmu"]);
        validate(&s).expect("a full row is well-formed JSON");

        // A row without stats or optional labels is the five labels alone.
        let bare = row("figY").to_json();
        assert_eq!(
            bare,
            "{\"figure\":\"figY\",\"kernel\":\"SpMV\",\"input\":\"M3\",\"engine\":\"tmu\",\
             \"machine\":\"table5\"}"
        );
        validate(&bare).expect("a bare row is well-formed JSON");
    }

    #[test]
    #[should_panic(expected = "repeat the row label")]
    fn a_section_named_like_a_label_is_refused() {
        // An `app` section beside the `app` label would write the key
        // twice in one object.
        let mut stats = StatsRegistry::new();
        stats.set_counter("app.cycles", 1);
        let row = BenchRow {
            app: Some("gnn".into()),
            stats,
            ..row("figX")
        };
        row.to_json();
    }

    #[test]
    fn registry_merges_figures() {
        record("zz_test_fig_a", vec![row("zz_test_fig_a")]);
        record("zz_test_fig_b", Vec::new());
        let s = render_bench_json();
        assert!(s.starts_with("{\n\"schema_version\":7,\n\"figures\":{\n"));
        assert!(s.contains("\"zz_test_fig_a\":["));
        assert!(s.contains("\"zz_test_fig_b\":["));
        // Re-recording replaces, not appends.
        record("zz_test_fig_a", Vec::new());
        let s = render_bench_json();
        assert!(s.contains("\"zz_test_fig_a\":[\n\n]"), "{s}");
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tmu-bench-json-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_merges_with_existing_file() {
        let dir = temp_dir("merge");
        // A previous process of this schema version left a figure this
        // process never records.
        let prev = "\"zz_prev_fig\":[\n{\"figure\":\"zz_prev_fig\",\"system\":{\"cycles\":9}}\n]";
        std::fs::write(dir.join("bench.json"), header() + prev + "\n}\n}\n").unwrap();
        let mut stats = StatsRegistry::new();
        stats.set_counter("system.cycles", 7);
        record(
            "zz_merge_fig",
            vec![BenchRow {
                stats,
                ..row("zz_merge_fig")
            }],
        );
        let path = write_bench_json(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(prev),
            "same-version figure carried through: {text}"
        );
        assert!(text.contains("\"zz_merge_fig\":["), "{text}");
        assert!(text.contains("\"system\":{\"cycles\":7}"), "{text}");
        // A second write round-trips the merged file unchanged.
        let again = std::fs::read_to_string(write_bench_json(&dir).unwrap()).unwrap();
        assert_eq!(text, again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_drops_figures_of_another_schema_version() {
        let dir = temp_dir("stale");
        // A file from an older writer: its rows have another layout, so
        // carrying them under this version's header would mislabel them.
        std::fs::write(
            dir.join("bench.json"),
            "{\n\"schema_version\":6,\n\"figures\":{\n\"zz_old_fig\":[\n\
             {\"figure\":\"zz_old_fig\",\"cycles\":9}\n]\n}\n}\n",
        )
        .unwrap();
        record("zz_fresh_fig", vec![row("zz_fresh_fig")]);
        let text = std::fs::read_to_string(write_bench_json(&dir).unwrap()).unwrap();
        assert!(!text.contains("zz_old_fig"), "stale figure dropped: {text}");
        assert!(text.starts_with(&header()), "{text}");
        assert!(text.contains("\"zz_fresh_fig\":["), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_error_names_the_path() {
        let missing = Path::new("/nonexistent-tmu-dir/deeper");
        let err = write_bench_json(missing).unwrap_err();
        assert!(
            err.to_string().contains("/nonexistent-tmu-dir/deeper"),
            "error must name the path: {err}"
        );
    }

    #[test]
    fn validate_accepts_the_emitters_output() {
        let mut stats = StatsRegistry::new();
        stats.set_gauge("system.topdown.committing", f64::NAN);
        stats.set_gauge("system.dram.bandwidth_gbs", f64::INFINITY);
        record(
            "zz_valid_fig",
            vec![BenchRow {
                input: "quote\"back\\slash".into(),
                error: Some("line\nbreak\ttab".into()),
                stats,
                ..row("zz_valid_fig")
            }],
        );
        let s = render_bench_json();
        assert!(s.contains("\"input\":\"quote\\\"back\\\\slash\""), "{s}");
        assert!(s.contains("\"error\":\"line\\nbreak\\ttab\""), "{s}");
        validate(&s).expect("bench.json must be well-formed");
    }

    #[test]
    fn validate_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "1.2.3",
            "\"unterminated",
            "\"bad\\escape\"",
            "{\"a\":1} trailing",
            "[01e]",
            "\"ctrl\u{0}\"",
            "{\"a\":1,\"b\":2,\"a\":3}",
        ] {
            assert!(validate(bad).is_err(), "must reject {bad:?}");
        }
        for good in [
            "null",
            "-0.5e+10",
            "[]",
            "{}",
            "{\"k\":[1,true,null,\"\\u00e9\"]}",
            " [ 1 , 2 ] ",
            "[{\"a\":1},{\"a\":2,\"b\":{\"a\":3}}]",
        ] {
            validate(good).unwrap_or_else(|e| panic!("must accept {good:?}: {e}"));
        }
    }
}
