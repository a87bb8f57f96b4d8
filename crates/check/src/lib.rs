//! `tutel-check`: workspace correctness tooling for the Tutel
//! reproduction.
//!
//! Two halves:
//!
//! 1. A repo-specific **lint engine** — a hand-rolled Rust lexer plus
//!    rule framework that walks every `crates/*/src/**/*.rs`:
//!    - `no_panic` (L1): no `unwrap`/`expect`/`panic!`/
//!      `unimplemented!` in non-test code of the data-path crates;
//!    - `layout_doc` (L2): pub fns taking raw `&[f32]` buffers with
//!      dimension args must name the tensor layout in their docs;
//!    - `layering` (L3): the crate DAG points strictly downward;
//!    - `shim_hygiene` (L4): only documented shim APIs may be used;
//!    - `test_determinism` (L5): no wall-clock time or unseeded
//!      randomness in test trees or the conformance harness — every
//!      test failure must be replayable from an explicit seed. Test
//!      trees (`tests/` at the root and per crate) are walked with
//!      this rule alone, since the strict data-path contracts exempt
//!      test code by design.
//!
//!    The lint is a plain gate: any diagnostic fails the run. The one
//!    escape is a per-site `// check:allow(rule, reason)` that names
//!    why the site is sound.
//!
//! 2. **Dynamic schedule-exploration checkers** on the shared
//!    [`explore`] framework (seeded choice points, canonical
//!    candidate ordering, FNV schedule signatures, replay-by-seed
//!    diagnostics):
//!    - [`sweep`] replays seeded adversarial schedules through
//!      `tutel-comm`'s `check-sched` runtime and diffs every
//!      collective against its sequential reference;
//!    - [`race`] is a vector-clock happens-before race and
//!      arena-aliasing checker over the `rt` runtime's event log,
//!      swept across steal-order and delivery-order perturbations of
//!      the combined overlap+pool+comm surface.
//!
//!    Every dynamic failure prints a replayable seed.

use std::fs;
use std::path::{Path, PathBuf};

pub mod diag;
pub mod explore;
pub mod lexer;
pub mod race;
pub mod rules;
pub mod source;
pub mod sweep;

pub use diag::{diagnostics_to_json, Diagnostic};
pub use explore::finding_to_anomaly;
pub use rules::layering::{check_layering, parse_manifest, Manifest};
pub use rules::{check_source, check_test_source, STRICT_CRATES};
pub use source::SourceFile;

/// Result of linting a workspace tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Crate manifests scanned.
    pub crates_scanned: usize,
}

/// Lints a single in-memory source file (used by tests and fixtures).
pub fn lint_source(crate_name: &str, rel_path: &str, text: &str) -> Vec<Diagnostic> {
    check_source(&SourceFile::parse(crate_name, rel_path, text))
}

/// Lints every crate under `<root>/crates/`: each `Cargo.toml` feeds
/// the layering rule, each `src/**/*.rs` feeds the source rules, and
/// each test tree (`crates/*/tests/` and the root `tests/`) feeds the
/// test-only rules ([`check_test_source`]). The walk order is sorted,
/// so the output is deterministic.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs = read_dir_sorted(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
    crate_dirs.retain(|p| p.is_dir());
    if crate_dirs.is_empty() {
        return Err(format!("no crates found under {}", crates_dir.display()));
    }

    let mut report = LintReport::default();
    let mut manifests = Vec::new();
    for dir in &crate_dirs {
        let manifest_path = dir.join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest_path) else {
            continue;
        };
        let manifest = parse_manifest(&rel_path(root, &manifest_path), &text);
        let crate_name = manifest.name.clone();
        manifests.push(manifest);
        report.crates_scanned += 1;

        for file in walk_rs_files(&dir.join("src")) {
            let text = fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let parsed = SourceFile::parse(&crate_name, &rel_path(root, &file), &text);
            report.diagnostics.extend(check_source(&parsed));
            report.files_scanned += 1;
        }
        for file in walk_rs_files(&dir.join("tests")) {
            // `tests/fixtures/` holds deliberately-broken lint inputs,
            // not tests.
            if rel_path(root, &file).contains("tests/fixtures/") {
                continue;
            }
            let text = fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let parsed = SourceFile::parse(&crate_name, &rel_path(root, &file), &text);
            report.diagnostics.extend(check_test_source(&parsed));
            report.files_scanned += 1;
        }
    }
    // Root-level integration tests belong to the façade package.
    for file in walk_rs_files(&root.join("tests")) {
        let text = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let parsed = SourceFile::parse("tutel-suite", &rel_path(root, &file), &text);
        report.diagnostics.extend(check_test_source(&parsed));
        report.files_scanned += 1;
    }
    report.diagnostics.extend(check_layering(&manifests));
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    out.sort();
    Ok(out)
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn walk_rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = read_dir_sorted(dir) else {
        return out;
    };
    for path in entries {
        if path.is_dir() {
            out.extend(walk_rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_runs_all_rules() {
        let src = "use rand::thread_rng;\n\npub fn f(x: &[f32], n: usize) {\n    let v = x.first().unwrap();\n}\n";
        let diags = lint_source("tutel-gate", "crates/gate/src/lib.rs", src);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"shim_hygiene"), "{rules:?}");
        assert!(rules.contains(&"layout_doc"), "{rules:?}");
        assert!(rules.contains(&"no_panic"), "{rules:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let src = "pub fn b(x: &[f32], n: usize) { x.first().unwrap(); }\npub fn a(y: &[f32], m: usize) { y.first().unwrap(); }\n";
        let diags = lint_source("tutel-kernels", "k.rs", src);
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }
}
