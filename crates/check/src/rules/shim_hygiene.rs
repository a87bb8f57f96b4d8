//! Rule `shim_hygiene` (L4): the offline dependency shims under
//! `shims/` reimplement only the API surface their crate docs list as
//! supported; code in `crates/` may therefore only reach a shimmed
//! crate through those documented paths. Anything else would compile
//! against the shim today and break (or silently diverge) the day the
//! workspace is pointed back at the real crates.
//!
//! The rule checks `use` declarations and inline qualified paths
//! rooted at a shim crate's name against a per-shim allowlist kept in
//! sync with the shim's module docs.

use super::Rule;
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

pub struct ShimHygiene;

/// Per-shim supported surface, mirroring `shims/*/src/lib.rs` docs.
/// An entry allows the exact path plus anything nested under it.
const ALLOWED: &[(&str, &[&str])] = &[
    (
        "rand",
        &[
            "rand::rngs",
            "rand::SeedableRng",
            "rand::Rng",
            "rand::RngCore",
        ],
    ),
    (
        "crossbeam",
        &[
            "crossbeam::channel::unbounded",
            "crossbeam::channel::Sender",
            "crossbeam::channel::Receiver",
            "crossbeam::channel::RecvError",
            "crossbeam::channel::RecvTimeoutError",
            "crossbeam::channel::TryRecvError",
            "crossbeam::channel::SendError",
        ],
    ),
    (
        "proptest",
        &[
            "proptest::prelude",
            "proptest::proptest",
            "proptest::prop_assert",
            "proptest::prop_assert_eq",
            "proptest::prop_assert_ne",
            "proptest::collection",
            "proptest::Strategy",
            "proptest::Just",
            "proptest::any",
            "proptest::Arbitrary",
            "proptest::ProptestConfig",
            "proptest::TestRng",
        ],
    ),
];

fn shim_allowlist(root: &str) -> Option<&'static [&'static str]> {
    ALLOWED
        .iter()
        .find(|(name, _)| *name == root)
        .map(|(_, list)| *list)
}

fn path_allowed(path: &str, allowlist: &[&str]) -> bool {
    // Importing the bare crate root is fine; its uses are checked at
    // the qualified-path sites.
    if !path.contains("::") {
        return true;
    }
    allowlist
        .iter()
        .any(|entry| path == *entry || path.starts_with(&format!("{entry}::")))
}

impl Rule for ShimHygiene {
    fn id(&self) -> &'static str {
        "shim_hygiene"
    }

    fn check_file(&self, file: &SourceFile, sink: &mut Vec<Diagnostic>) {
        let code: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut i = 0usize;
        while i < code.len() {
            if code[i].is_ident("use") {
                let (paths, next) = parse_use_tree(&code, i + 1);
                for (path, line) in paths {
                    self.check_path(file, sink, &path, line);
                }
                i = next;
                continue;
            }
            // Inline qualified path rooted at an ident: only a path
            // *root* (not preceded by `::`) counts.
            if code[i].kind == TokenKind::Ident
                && shim_allowlist(&code[i].text).is_some()
                && !(i >= 2 && code[i - 1].is_punct(':') && code[i - 2].is_punct(':'))
                && is_path_sep(&code, i + 1)
            {
                let (path, next) = parse_plain_path(&code, i);
                self.check_path(file, sink, &path, code[i].line);
                i = next;
                continue;
            }
            i += 1;
        }
    }
}

impl ShimHygiene {
    fn check_path(&self, file: &SourceFile, sink: &mut Vec<Diagnostic>, path: &str, line: u32) {
        let root = path.split("::").next().unwrap_or(path);
        let Some(allowlist) = shim_allowlist(root) else {
            return;
        };
        if path_allowed(path, allowlist) {
            return;
        }
        file.emit(
            sink,
            Diagnostic {
                rule: self.id(),
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "`{path}` is not part of the `{root}` shim's documented surface \
                     (see shims/{root}/src/lib.rs); extend the shim and its docs first"
                ),
                snippet: file.snippet(line),
            },
        );
    }
}

fn is_path_sep(code: &[&Token], i: usize) -> bool {
    code.get(i).is_some_and(|t| t.is_punct(':')) && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// Parses a (possibly nested) use tree starting at `i`, returning the
/// flattened leaf paths with their lines and the index past the `;`.
fn parse_use_tree(code: &[&Token], i: usize) -> (Vec<(String, u32)>, usize) {
    let mut out = Vec::new();
    let mut j = i;
    collect_tree(code, &mut j, String::new(), &mut out);
    // Advance past the terminating `;` if present.
    while j < code.len() && !code[j].is_punct(';') {
        j += 1;
    }
    (out, j + 1)
}

/// Recursive descent over `prefix::{a, b::c, d::*}` use trees.
fn collect_tree(code: &[&Token], j: &mut usize, prefix: String, out: &mut Vec<(String, u32)>) {
    let mut path = prefix;
    let mut line = code.get(*j).map_or(0, |t| t.line);
    while let Some(tok) = code.get(*j) {
        if tok.kind == TokenKind::Ident || tok.is_punct('*') {
            if path.is_empty() {
                line = tok.line;
                path = tok.text.clone();
            } else {
                path = format!("{path}::{}", tok.text);
            }
            *j += 1;
            // `as alias` renames the leaf; skip the alias.
            if code.get(*j).is_some_and(|t| t.is_ident("as")) {
                *j += 2;
            }
            if is_path_sep(code, *j) {
                *j += 2;
                if code.get(*j).is_some_and(|t| t.is_punct('{')) {
                    *j += 1;
                    loop {
                        collect_tree(code, j, path.clone(), out);
                        match code.get(*j) {
                            Some(t) if t.is_punct(',') => *j += 1,
                            Some(t) if t.is_punct('}') => {
                                *j += 1;
                                break;
                            }
                            _ => break,
                        }
                    }
                    return;
                }
                continue;
            }
            out.push((path, line));
            return;
        }
        break;
    }
    if !path.is_empty() {
        out.push((path, line));
    }
}

/// Consumes `root::seg::seg…` returning the path text and next index.
fn parse_plain_path(code: &[&Token], i: usize) -> (String, usize) {
    let mut path = code[i].text.clone();
    let mut j = i + 1;
    while is_path_sep(code, j) {
        let Some(seg) = code.get(j + 2) else { break };
        if seg.kind != TokenKind::Ident {
            break;
        }
        path = format!("{path}::{}", seg.text);
        j += 3;
    }
    (path, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("tutel-gate", "src/lib.rs", src);
        let mut sink = Vec::new();
        ShimHygiene.check_file(&file, &mut sink);
        sink
    }

    #[test]
    fn documented_surface_is_allowed() {
        let src = "use rand::rngs::SmallRng;\nuse rand::{Rng, SeedableRng};\nuse crossbeam::channel::{unbounded, Receiver, Sender};\nuse proptest::prelude::*;\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn undocumented_item_is_flagged() {
        let diags = run("use rand::distributions::WeightedIndex;\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
        assert!(diags[0]
            .message
            .contains("rand::distributions::WeightedIndex"));
    }

    #[test]
    fn nested_trees_are_flattened() {
        let diags = run("use crossbeam::{channel::{unbounded, select}, thread};\n");
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains("crossbeam::channel::select"));
        assert!(diags[1].message.contains("crossbeam::thread"));
    }

    #[test]
    fn qualified_inline_paths_are_checked() {
        let diags = run("fn f() { let r = rand::thread_rng(); }\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("rand::thread_rng"));
    }

    #[test]
    fn methods_under_allowed_types_are_fine() {
        assert!(run("fn f() { let r = rand::rngs::SmallRng::seed_from_u64(1); }\n").is_empty());
    }

    #[test]
    fn non_shim_paths_are_ignored() {
        assert!(run("use std::collections::HashMap;\nuse tutel_comm::CommError;\n").is_empty());
    }

    #[test]
    fn allow_suppresses() {
        let src = "// check:allow(shim_hygiene, migration shim)\nuse rand::thread_rng;\n";
        assert!(run(src).is_empty());
    }
}
