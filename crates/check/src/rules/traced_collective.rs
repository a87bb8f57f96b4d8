//! Rule `traced_collective` (L7): every comm-runtime collective entry
//! point carries trace instrumentation.
//!
//! The causal trace is only as complete as its coverage: a collective
//! that moves payloads without opening a span (and, transitively,
//! without flow-stamping its sends) leaves a hole in the merged
//! timeline that reads as idle time and breaks cross-rank
//! attribution. The rule scans `tutel-comm`'s `runtime.rs` and flags
//! any known collective entry point whose body never touches the
//! `tracer` — the spans and flow stamps all route through it, so its
//! absence means the function is invisible to the trace.
//!
//! New collectives must either instrument themselves on entry or
//! justify the gap with `// check:allow(traced_collective, reason)`.

use super::Rule;
use crate::diag::Diagnostic;
use crate::lexer::Token;
use crate::source::{item_end_line, SourceFile};

/// The collective entry points required to trace themselves.
const COLLECTIVES: &[&str] = &[
    "ialltoall_v",
    "all_to_all_v",
    "all_to_all_v_2dh",
    "all_to_all",
    "all_to_all_2dh",
    "all_gather",
    "all_reduce_sum",
];

pub struct TracedCollective;

impl Rule for TracedCollective {
    fn id(&self) -> &'static str {
        "traced_collective"
    }

    fn check_file(&self, file: &SourceFile, sink: &mut Vec<Diagnostic>) {
        // Scope: the threaded runtime that owns the tracer. The
        // sequential references (`linear_all_to_all`, …) and the
        // deterministic scheduler have no tracer to touch.
        if file.crate_name != "tutel-comm" || !file.rel_path.ends_with("src/runtime.rs") {
            return;
        }
        let code: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        for (i, tok) in code.iter().enumerate() {
            if !tok.is_ident("fn") {
                continue;
            }
            let Some(name_tok) = code.get(i + 1) else {
                continue;
            };
            if !COLLECTIVES.iter().any(|c| name_tok.is_ident(c)) || file.in_test(name_tok.line) {
                continue;
            }
            let Some(end_line) = item_end_line(&code, i) else {
                continue;
            };
            let traced = code
                .iter()
                .any(|t| t.line > name_tok.line && t.line <= end_line && t.is_ident("tracer"));
            if !traced {
                file.emit(
                    sink,
                    Diagnostic {
                        rule: self.id(),
                        file: file.rel_path.clone(),
                        line: name_tok.line,
                        message: format!(
                            "collective `{}` never touches the tracer: open a span (and \
                             flow-stamp its sends) so the exchange is visible in the causal \
                             trace, or justify with \
                             `// check:allow(traced_collective, reason)`",
                            name_tok.text
                        ),
                        snippet: file.snippet(name_tok.line),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(crate_name: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(crate_name, path, src);
        let mut sink = Vec::new();
        TracedCollective.check_file(&file, &mut sink);
        sink
    }

    #[test]
    fn flags_untraced_collective_entry_points() {
        let src = "impl C {\n    pub fn all_gather(&mut self, x: &[f32]) -> R {\n        \
                   self.send(0, 1, x.to_vec())\n    }\n}\n";
        let diags = run("tutel-comm", "crates/comm/src/runtime.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].rule, "traced_collective");
    }

    #[test]
    fn traced_bodies_pass() {
        let src = "impl C {\n    pub fn all_gather(&mut self, x: &[f32]) -> R {\n        \
                   let _span = self.tracer.span(TRACK_COMM, \"all_gather\");\n        \
                   self.send(0, 1, x.to_vec())\n    }\n}\n";
        assert!(run("tutel-comm", "crates/comm/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn other_files_and_crates_are_exempt() {
        let src = "pub fn all_to_all(x: &[f32]) -> Vec<f32> { x.to_vec() }\n";
        assert!(run("tutel-comm", "crates/comm/src/lib.rs", src).is_empty());
        assert!(run("tutel", "crates/core/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn calls_to_collectives_are_not_definitions() {
        let src = "fn helper(comm: &mut C) {\n    comm.all_to_all(&[1.0]).unwrap();\n}\n";
        assert!(run("tutel-comm", "crates/comm/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn tests_and_allows_are_exempt() {
        let test_src = "#[cfg(test)]\nmod tests {\n    fn all_to_all() { body(); }\n}\n";
        assert!(run("tutel-comm", "crates/comm/src/runtime.rs", test_src).is_empty());
        let allowed = "// check:allow(traced_collective, scaffolding for the sched port)\n\
                       fn all_gather(x: &[f32]) -> Vec<f32> {\n    x.to_vec()\n}\n";
        assert!(run("tutel-comm", "crates/comm/src/runtime.rs", allowed).is_empty());
    }
}
