//! Machine-readable benchmark output: `BENCH_engine.json` at the
//! repository root, tracking the perf trajectory across PRs.
//!
//! The vendored criterion shim records every reported measurement
//! (`criterion::take_measurements`); benches with a custom `main` hand
//! them here and [`update`] merges them into the JSON file as one section
//! per bench binary, leaving other sections untouched:
//!
//! ```json
//! {
//!   "engine_rounds": { "engine_full_run/synergy_300jobs/low_4jph": 1.2e9 },
//!   "placement_hot_path": { "single_place/PAL/256": 85.0 }
//! }
//! ```
//!
//! The build environment has no `serde_json`, so this module parses and
//! emits exactly that two-level `string → string → number` shape itself —
//! sections and keys sorted, one key per line — which also keeps the
//! committed file diff-friendly.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Sections of the benchmark file: bench name → (label → mean ns/iter or
/// other scalar).
pub type BenchSections = BTreeMap<String, BTreeMap<String, f64>>;

/// Merge `entries` in as section `section` of the JSON file at `path`
/// (replacing that section, preserving the others) and rewrite the file.
/// A missing file starts empty; a *malformed* file is an error — silently
/// treating it as empty would discard every other bench's history, which
/// is exactly what the file exists to preserve.
pub fn update(path: &Path, section: &str, entries: &[(String, f64)]) -> io::Result<()> {
    let mut sections = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is not in bench_json's canonical shape; fix or delete it \
                     before re-running the bench",
                    path.display()
                ),
            )
        })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => BenchSections::default(),
        Err(e) => return Err(e),
    };
    sections.insert(
        section.to_string(),
        entries.iter().cloned().collect::<BTreeMap<_, _>>(),
    );
    std::fs::write(path, render(&sections))
}

/// [`update`] against the workspace root's `BENCH_engine.json` (the file
/// CI's bench-smoke job refreshes).
pub fn update_workspace(section: &str, entries: &[(String, f64)]) -> io::Result<()> {
    update(&workspace_path(), section, entries)
}

/// The workspace root's `BENCH_engine.json`, resolved at run time: the
/// nearest directory at or above the current one whose `Cargo.toml`
/// declares a `[workspace]` (cargo runs benches from their package
/// directory, inside the checkout being built). A build copied to another
/// directory therefore writes into that copy, never into the checkout it
/// was first compiled in. Outside any workspace the current directory is
/// used.
pub fn workspace_path() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root(&cwd)
        .unwrap_or(&cwd)
        .join("BENCH_engine.json")
}

/// The nearest ancestor of `start` (itself included) holding a workspace
/// `Cargo.toml`.
fn workspace_root(start: &Path) -> Option<&Path> {
    start.ancestors().find(|dir| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
    })
}

/// Read and parse a bench file in the canonical two-level shape.
pub fn load(path: &Path) -> io::Result<BenchSections> {
    let text = std::fs::read_to_string(path)?;
    parse_text(&text).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not in bench_json's canonical shape", path.display()),
        )
    })
}

/// Parse bench-file text in the canonical two-level shape (e.g. a
/// committed baseline read out of `git show`); `None` when malformed.
pub fn parse_text(text: &str) -> Option<BenchSections> {
    parse(text)
}

/// Render the canonical form: sorted sections, sorted keys, one per line.
fn render(sections: &BenchSections) -> String {
    let mut out = String::from("{\n");
    for (si, (section, entries)) in sections.iter().enumerate() {
        out.push_str(&format!("  {:?}: {{\n", section));
        for (ki, (key, value)) in entries.iter().enumerate() {
            let comma = if ki + 1 < entries.len() { "," } else { "" };
            out.push_str(&format!("    {:?}: {}{}\n", key, fmt_num(*value), comma));
        }
        let comma = if si + 1 < sections.len() { "," } else { "" };
        out.push_str(&format!("  }}{}\n", comma));
    }
    out.push_str("}\n");
    out
}

/// Format a scalar so it round-trips through [`parse`] (always includes a
/// decimal point or exponent; JSON-compatible).
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Parse the canonical two-level shape. Returns `None` on anything
/// unexpected (callers fall back to an empty file).
fn parse(text: &str) -> Option<BenchSections> {
    let mut t = Tokens::new(text);
    let mut sections = BenchSections::new();
    t.expect('{')?;
    if t.peek()? == '}' {
        t.expect('}')?;
        return Some(sections);
    }
    loop {
        let section = t.string()?;
        t.expect(':')?;
        t.expect('{')?;
        let mut entries = BTreeMap::new();
        if t.peek()? == '}' {
            t.expect('}')?;
        } else {
            loop {
                let key = t.string()?;
                t.expect(':')?;
                let value = t.number()?;
                entries.insert(key, value);
                match t.peek()? {
                    ',' => t.expect(',')?,
                    _ => break,
                };
            }
            t.expect('}')?;
        }
        sections.insert(section, entries);
        match t.peek()? {
            ',' => t.expect(',')?,
            _ => break,
        };
    }
    t.expect('}')?;
    Some(sections)
}

/// Minimal whitespace-skipping cursor over the JSON text.
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Tokens { rest: text }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest.chars().next()
    }

    fn expect(&mut self, c: char) -> Option<()> {
        self.skip_ws();
        self.rest = self.rest.strip_prefix(c)?;
        Some(())
    }

    fn string(&mut self) -> Option<String> {
        self.expect('"')?;
        let end = self.rest.find('"')?;
        let (s, rest) = self.rest.split_at(end);
        // Labels are bench/group names: no escapes to handle.
        if s.contains('\\') {
            return None;
        }
        self.rest = &rest[1..];
        Some(s.to_string())
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(self.rest.len());
        let (s, rest) = self.rest.split_at(end);
        self.rest = rest;
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_creates_and_merges_sections() {
        let dir = std::env::temp_dir().join("pal_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        update(&path, "b", &[("x/1".into(), 10.0), ("x/2".into(), 2.5e6)]).unwrap();
        update(&path, "a", &[("y".into(), 1.0)]).unwrap();
        // Overwrite one section; the other survives.
        update(&path, "b", &[("x/1".into(), 11.0)]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let sections = parse(&text).expect("canonical output parses");
        assert_eq!(sections.len(), 2);
        assert_eq!(sections["a"]["y"], 1.0);
        assert_eq!(sections["b"].len(), 1);
        assert_eq!(sections["b"]["x/1"], 11.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut sections = BenchSections::new();
        sections.insert(
            "s".into(),
            [("k".to_string(), 123.456), ("l".to_string(), 7.0)]
                .into_iter()
                .collect(),
        );
        sections.insert("empty".into(), BTreeMap::new());
        let text = render(&sections);
        assert_eq!(parse(&text).as_ref(), Some(&sections));
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(parse("not json").is_none());
        assert!(parse("{\"a\": {").is_none());
        assert_eq!(parse("{}").map(|s| s.len()), Some(0));
    }

    #[test]
    fn update_refuses_to_clobber_a_malformed_file() {
        let dir = std::env::temp_dir().join("pal_bench_json_malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_bad.json");
        std::fs::write(&path, "<<<<<<< merge conflict").unwrap();
        let err = update(&path, "s", &[("k".into(), 1.0)]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The malformed content survives for the operator to inspect.
        assert!(std::fs::read_to_string(&path).unwrap().contains("merge"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn workspace_root_is_found_from_a_package_directory() {
        let dir = std::env::temp_dir().join(format!("pal_bench_ws_{}", std::process::id()));
        let pkg = dir.join("crates/pkg");
        std::fs::create_dir_all(&pkg).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(pkg.join("Cargo.toml"), "[package]\nname = \"pkg\"\n").unwrap();
        assert_eq!(workspace_root(&pkg), Some(dir.as_path()));
        assert_eq!(workspace_root(&dir), Some(dir.as_path()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Tests run from this package's directory, so the run-time lookup
    /// lands on this checkout's root file.
    #[test]
    fn workspace_path_points_at_this_checkout() {
        let expected = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_engine.json")
            .canonicalize()
            .unwrap();
        assert_eq!(workspace_path().canonicalize().unwrap(), expected);
    }

    /// The committed repo-root BENCH_engine.json must stay parseable —
    /// this is what keeps the cross-PR perf trajectory readable (and what
    /// CI relies on: `cargo test` runs before the bench-smoke steps
    /// regenerate the file).
    #[test]
    fn committed_bench_file_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_engine.json is committed");
        let sections = parse(&text).expect("committed BENCH_engine.json parses");
        for bench in [
            "engine_rounds",
            "placement_hot_path",
            "serving_latency",
            "observer_overhead",
        ] {
            assert!(
                sections.contains_key(bench),
                "BENCH_engine.json lost its {bench} section"
            );
        }
    }
}
