//! Integration tests: each fixture under `tests/fixtures/` triggers
//! exactly one rule at a known line, the CLI exits nonzero on a
//! violating workspace, and the real workspace is clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use tutel_check::rules::layering::{check_layering, parse_manifest};
use tutel_check::{lint_source, Diagnostic};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = fixture_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    // Fixtures lint as if they lived in a strict-tier crate.
    lint_source("tutel-gate", name, &text)
}

#[test]
fn no_panic_fixture_fires_once_at_line_5() {
    let diags = lint_fixture("no_panic.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "no_panic");
    assert_eq!(diags[0].line, 5);
}

#[test]
fn layout_doc_fixture_fires_once_at_line_9() {
    let diags = lint_fixture("layout_doc.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "layout_doc");
    assert_eq!(diags[0].line, 9);
    assert!(diags[0].message.contains("undocumented"));
}

#[test]
fn shim_hygiene_fixture_fires_once_at_line_6() {
    let diags = lint_fixture("shim_hygiene.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "shim_hygiene");
    assert_eq!(diags[0].line, 6);
}

#[test]
fn suppressed_fixture_is_clean() {
    assert_eq!(lint_fixture("suppressed.rs"), vec![]);
}

#[test]
fn bad_allow_fixture_reports_both() {
    let diags = lint_fixture("bad_allow.rs");
    let found: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(found, vec![("bad_allow", 6), ("no_panic", 7)]);
}

#[test]
fn layering_fixture_manifest_fires() {
    let path = fixture_dir().join("badws/crates/demo/Cargo.toml");
    let text = std::fs::read_to_string(&path).unwrap();
    let m = parse_manifest("crates/demo/Cargo.toml", &text);
    let diags = check_layering(&[m]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "layering");
    assert!(diags[0].message.contains("tutel-experts"));
}

#[test]
fn cli_exits_nonzero_on_violating_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_tutel-check"))
        .args(["--root"])
        .arg(fixture_dir().join("badws"))
        .output()
        .expect("spawn tutel-check");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no_panic"), "{stdout}");
    assert!(stdout.contains("layering"), "{stdout}");
}

#[test]
fn cli_is_clean_on_real_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_tutel-check"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .expect("spawn tutel-check");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(", 0 violation(s)"), "{stderr}");
}

#[test]
fn cli_json_output_is_parseable_shape() {
    let out = Command::new(env!("CARGO_BIN_EXE_tutel-check"))
        .args(["--root"])
        .arg(fixture_dir().join("badws"))
        .arg("--json")
        .output()
        .expect("spawn tutel-check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let body = stdout.trim();
    assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
    assert!(body.contains("\"rule\": \"no_panic\""), "{body}");
    assert!(body.contains("\"line\": 4"), "{body}");
}
