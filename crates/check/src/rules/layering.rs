//! Rule `layering` (L3): the crate DAG must only point downward along
//!
//! ```text
//! tensor → comm → gate → kernels → experts → core → serve → bench
//! ```
//!
//! with the base crates `tutel-obs` and `tutel-rt` reachable from
//! every layer (and themselves depending on no tutel crate), and the
//! `tutel-check`/`tutel-bench`/`tutel-harness` tool crates on top. An
//! upward dependency (say, gate reaching into experts) would let
//! routing decisions grow hidden couplings to expert placement —
//! exactly the kind of cycle the paper's layered design forbids.
//! Parsed straight out of each crate's `Cargo.toml` `[dependencies]`
//! table (dev-dependencies are exempt: test code may reach sideways).

use crate::diag::Diagnostic;

/// Layer index per package; a crate may depend only on strictly lower
/// layers (plus the base crates).
const TIERS: &[(&str, u32)] = &[
    ("tutel-obs", 0),
    ("tutel-rt", 0),
    ("tutel-explore", 0),
    ("tutel-tensor", 1),
    ("tutel-comm", 2),
    ("tutel-gate", 3),
    ("tutel-kernels", 4),
    ("tutel-experts", 5),
    ("tutel", 6),
    ("tutel-serve", 7),
    ("tutel-check", 7),
    ("tutel-bench", 8),
    ("tutel-harness", 8),
];

/// Crates at the bottom of the DAG: reachable from every layer,
/// depending on no tutel crate themselves (not even each other).
const BASE_CRATES: &[&str] = &["tutel-obs", "tutel-rt", "tutel-explore"];

fn tier(name: &str) -> Option<u32> {
    TIERS.iter().find(|(n, _)| *n == name).map(|&(_, t)| t)
}

/// One crate manifest, reduced to what the rule needs.
#[derive(Debug)]
pub struct Manifest {
    /// Workspace-relative path of the `Cargo.toml`.
    pub rel_path: String,
    /// `package.name`.
    pub name: String,
    /// `[dependencies]` entries as `(name, line)`.
    pub deps: Vec<(String, u32)>,
}

/// Minimal TOML scan: tracks `[section]` headers, captures
/// `package.name`, and collects the keys of `[dependencies]` —
/// `foo.workspace = true`, `foo = { .. }`, and `foo = "1"` all yield
/// `foo`.
pub fn parse_manifest(rel_path: &str, text: &str) -> Manifest {
    let mut section = String::new();
    let mut name = String::new();
    let mut deps = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if section == "package" && name.is_empty() {
            if let Some(rest) = line.strip_prefix("name") {
                if let Some(v) = rest.trim_start().strip_prefix('=') {
                    name = v.trim().trim_matches('"').to_string();
                }
            }
        }
        if section == "dependencies" {
            let key: String = line
                .chars()
                .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
                .collect();
            if !key.is_empty() {
                deps.push((key, idx as u32 + 1));
            }
        }
    }
    Manifest {
        rel_path: rel_path.to_string(),
        name,
        deps,
    }
}

/// Checks the layering rule over a set of parsed manifests.
pub fn check_layering(manifests: &[Manifest]) -> Vec<Diagnostic> {
    let mut sink = Vec::new();
    for m in manifests {
        let Some(crate_tier) = tier(&m.name) else {
            continue;
        };
        for (dep, line) in &m.deps {
            // Workspace-dependency keys map 1:1 to package names here.
            let Some(dep_tier) = tier(dep) else { continue };
            // Base crates depend on no tutel crate; the rest only
            // downward.
            if !BASE_CRATES.contains(&m.name.as_str())
                && (BASE_CRATES.contains(&dep.as_str()) || dep_tier < crate_tier)
            {
                continue;
            }
            let message = format!(
                "`{}` (layer {crate_tier}) must not depend on `{dep}` (layer \
                 {dep_tier}): the crate DAG points strictly downward, \
                 tensor → comm → gate → kernels → experts → core → serve → bench",
                m.name
            );
            sink.push(Diagnostic {
                rule: "layering",
                file: m.rel_path.clone(),
                line: *line,
                message,
                snippet: text_snippet(m, *line),
            });
        }
    }
    sink
}

fn text_snippet(m: &Manifest, line: u32) -> String {
    // The manifest text isn't retained; reconstruct from the dep name.
    m.deps
        .iter()
        .find(|(_, l)| *l == line)
        .map(|(d, _)| format!("{d} = …"))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(name: &str, deps: &[&str]) -> Manifest {
        let mut text = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
        for d in deps {
            text.push_str(&format!("{d}.workspace = true\n"));
        }
        parse_manifest("crates/x/Cargo.toml", &text)
    }

    #[test]
    fn parses_names_and_dep_keys() {
        let m = parse_manifest(
            "crates/comm/Cargo.toml",
            "[package]\nname = \"tutel-comm\"\n[features]\nx = []\n[dependencies]\ntutel-tensor.workspace = true\ncrossbeam = { path = \"x\" }\n\n[dev-dependencies]\nproptest.workspace = true\n",
        );
        assert_eq!(m.name, "tutel-comm");
        assert_eq!(
            m.deps.iter().map(|(d, _)| d.as_str()).collect::<Vec<_>>(),
            vec!["tutel-tensor", "crossbeam"]
        );
    }

    #[test]
    fn downward_deps_are_clean() {
        let ms = vec![
            manifest("tutel-comm", &["tutel-tensor", "tutel-obs"]),
            manifest("tutel", &["tutel-experts", "tutel-kernels"]),
        ];
        assert!(check_layering(&ms).is_empty());
    }

    #[test]
    fn upward_dep_is_flagged() {
        let ms = vec![manifest("tutel-gate", &["tutel-experts"])];
        let diags = check_layering(&ms);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "layering");
        assert!(diags[0].message.contains("tutel-gate"));
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn same_layer_dep_is_flagged() {
        let ms = vec![manifest("tutel-check", &["tutel-serve"])];
        assert_eq!(check_layering(&ms).len(), 1);
    }

    #[test]
    fn tools_may_depend_on_the_serving_tier() {
        // bench and harness sit above serve after the retier.
        let ms = vec![
            manifest("tutel-bench", &["tutel-serve", "tutel-check"]),
            manifest("tutel-harness", &["tutel-serve"]),
        ];
        assert!(check_layering(&ms).is_empty());
    }

    #[test]
    fn obs_is_reachable_from_all_but_depends_on_nothing() {
        let ms = vec![
            manifest("tutel-tensor", &["tutel-obs"]),
            manifest("tutel-obs", &["tutel-tensor"]),
        ];
        let diags = check_layering(&ms);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("tutel-obs"));
    }

    #[test]
    fn rt_is_a_base_crate_like_obs() {
        // Any layer may depend on tutel-rt…
        let ok = vec![
            manifest("tutel-tensor", &["tutel-rt", "tutel-obs"]),
            manifest("tutel", &["tutel-rt"]),
        ];
        assert!(check_layering(&ok).is_empty());
        // …but rt itself must depend on no tutel crate, obs included.
        let bad = vec![manifest("tutel-rt", &["tutel-obs"])];
        assert_eq!(check_layering(&bad).len(), 1);
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let m = parse_manifest(
            "crates/tensor/Cargo.toml",
            "[package]\nname = \"tutel-tensor\"\n[dev-dependencies]\ntutel.workspace = true\n",
        );
        assert!(check_layering(&[m]).is_empty());
    }
}
