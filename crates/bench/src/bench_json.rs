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
//! Reading goes through `pal_config`'s JSON parser; writing lays out
//! that two-level `string → string → number` shape with its string and
//! float encoders — sections and keys sorted, one key per line — which
//! keeps the committed file diff-friendly. A non-finite value has no JSON
//! encoding, so it is refused before anything is written.

use pal_config::json::{write_float, write_string};
use pal_config::{parse_json, Value};
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
/// is exactly what the file exists to preserve. A non-finite entry is an
/// [`io::ErrorKind::InvalidInput`] error and leaves the file untouched.
pub fn update(path: &Path, section: &str, entries: &[(String, f64)]) -> io::Result<()> {
    let mut sections = match load(path) {
        Ok(sections) => sections,
        Err(e) if e.kind() == io::ErrorKind::NotFound => BenchSections::default(),
        Err(e) => return Err(e),
    };
    sections.insert(
        section.to_string(),
        entries.iter().cloned().collect::<BTreeMap<_, _>>(),
    );
    let text = to_json(&sections).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("section {section}: {e}; {} left unchanged", path.display()),
        )
    })?;
    std::fs::write(path, text)
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

/// Read and parse a bench file in the two-level shape.
pub fn load(path: &Path) -> io::Result<BenchSections> {
    let text = std::fs::read_to_string(path)?;
    from_json(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not in bench_json's shape: {e}", path.display()),
        )
    })
}

/// Parse bench-file text (e.g. a committed baseline read out of
/// `git show`): a JSON object of objects of numbers.
pub fn from_json(text: &str) -> Result<BenchSections, String> {
    let Value::Map(sections) = parse_json(text).map_err(|e| e.to_string())? else {
        return Err("top level is not an object".into());
    };
    sections
        .into_iter()
        .map(|(name, section)| {
            let Value::Map(entries) = section else {
                return Err(format!("section {name} is not an object"));
            };
            let entries = entries
                .into_iter()
                .map(|(key, value)| match value {
                    Value::Float(x) => Ok((key, x)),
                    Value::Int(i) => Ok((key, i as f64)),
                    other => Err(format!("{name}/{key} is a {}, not a number", other.kind())),
                })
                .collect::<Result<_, _>>()?;
            Ok((name, entries))
        })
        .collect()
}

/// Lay the sections out one key per line, sorted; `Err` names the first
/// non-finite entry.
fn to_json(sections: &BenchSections) -> Result<String, String> {
    let mut out = String::from("{\n");
    for (si, (section, entries)) in sections.iter().enumerate() {
        out.push_str("  ");
        write_string(section, &mut out);
        out.push_str(": {\n");
        for (ki, (key, value)) in entries.iter().enumerate() {
            out.push_str("    ");
            write_string(key, &mut out);
            out.push_str(": ");
            write_float(*value, &mut out).map_err(|e| format!("{key}: {e}"))?;
            out.push_str(if ki + 1 < entries.len() { ",\n" } else { "\n" });
        }
        out.push_str(if si + 1 < sections.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    out.push_str("}\n");
    Ok(out)
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
        let sections = from_json(&text).expect("written file parses");
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
            [
                ("k".to_string(), 123.456),
                ("l".to_string(), 7.0),
                ("tiny".to_string(), 1e-300),
                ("huge".to_string(), 2.5e20),
                ("neg".to_string(), -0.5),
            ]
            .into_iter()
            .collect(),
        );
        sections.insert("empty".into(), BTreeMap::new());
        let text = to_json(&sections).unwrap();
        assert_eq!(from_json(&text), Ok(sections));
        // One key per line, integral values written without a fraction.
        assert!(text.contains("\n    \"l\": 7,\n"), "{text}");
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"a\": {").is_err());
        assert!(from_json("[1]").is_err());
        assert!(from_json("{\"a\": 1}").is_err());
        assert!(from_json("{\"a\": {\"k\": \"1\"}}").is_err());
        assert_eq!(from_json("{}").map(|s| s.len()), Ok(0));
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
    fn update_refuses_a_non_finite_entry_and_keeps_the_file() {
        let dir = std::env::temp_dir().join(format!("pal_bench_json_nan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_nan.json");
        update(&path, "a", &[("k".into(), 1.5)]).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = update(&path, "b", &[("ok".into(), 2.0), ("bad".into(), bad)]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("bad"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        }
        // The file is still readable and updatable afterwards.
        update(&path, "b", &[("ok".into(), 2.0)]).unwrap();
        assert_eq!(load(&path).unwrap()["b"]["ok"], 2.0);
        std::fs::remove_dir_all(&dir).unwrap();
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
        let sections = from_json(&text).expect("committed BENCH_engine.json parses");
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
