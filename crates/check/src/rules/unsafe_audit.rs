//! Rule `unsafe_audit` (L6): every `unsafe` keyword — block, fn,
//! impl, or trait, in *any* workspace crate including test code —
//! must be justified by a `// SAFETY:` comment within the five lines
//! above it.
//!
//! `unsafe` is where the compiler stops checking and the comment is
//! the only remaining proof obligation; an unannotated site cannot be
//! reviewed. Genuinely self-evident sites can still escape with
//! `// check:allow(unsafe_audit, reason)`.

use super::Rule;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

pub struct UnsafeAudit;

/// How far above an `unsafe` token the `SAFETY:` comment may sit.
/// Wide enough for a multi-line justification above an `unsafe impl`
/// pair or an attribute-decorated fn, narrow enough that a stale
/// comment can't cover an unrelated site.
const LOOKBACK_LINES: u32 = 5;

impl Rule for UnsafeAudit {
    fn id(&self) -> &'static str {
        "unsafe_audit"
    }

    fn check_file(&self, file: &SourceFile, sink: &mut Vec<Diagnostic>) {
        // `unsafe` inside a string literal lexes as a Literal token,
        // so filtering to Ident tokens also skips prose mentions.
        for tok in file.tokens.iter().filter(|t| t.is_ident("unsafe")) {
            let covered = file.tokens.iter().any(|c| {
                c.is_comment()
                    && c.text.contains("SAFETY:")
                    && c.line <= tok.line
                    && c.line + LOOKBACK_LINES >= tok.line
            });
            if !covered {
                file.emit(
                    sink,
                    Diagnostic {
                        rule: self.id(),
                        file: file.rel_path.clone(),
                        line: tok.line,
                        message: format!(
                            "`unsafe` without a `// SAFETY:` comment in the {LOOKBACK_LINES} \
                             lines above: state the invariant that makes this sound, or \
                             justify with `// check:allow(unsafe_audit, reason)`"
                        ),
                        snippet: file.snippet(tok.line),
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

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("tutel-rt", "src/lib.rs", src);
        let mut sink = Vec::new();
        UnsafeAudit.check_file(&file, &mut sink);
        sink
    }

    #[test]
    fn flags_bare_unsafe_block() {
        let src = "fn f(p: *mut f32) {\n    unsafe { *p = 0.0; }\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unsafe_audit");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn safety_comment_within_window_covers() {
        let src = "fn f(p: *mut f32) {\n    // SAFETY: p is valid for writes, caller contract.\n    unsafe { *p = 0.0; }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn one_comment_covers_an_unsafe_impl_pair_at_window_edge() {
        let src = "// SAFETY: the pointer is only dereferenced inside the job's\n\
                   // scoped lifetime, after the submitting thread published it\n\
                   // and before join returns; Send/Sync forwarding is therefore\n\
                   // sound for this wrapper.\n\
                   unsafe impl<T> Send for W<T> {}\n\
                   unsafe impl<T> Sync for W<T> {}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn comment_too_far_above_does_not_cover() {
        let src = "// SAFETY: stale justification six lines up.\n\n\n\n\n\n\
                   fn f(p: *mut f32) {\n    unsafe { *p = 0.0; }\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn unsafe_in_string_or_prose_is_ignored() {
        let src = "fn f() -> &'static str {\n    \"unsafe is a keyword\"\n}\n// unsafe appears in prose here, fine\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn applies_to_test_code_too() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        unsafe { std::hint::unreachable_unchecked() }\n    }\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn check_allow_suppresses() {
        let src = "fn f(p: *mut f32) {\n    // check:allow(unsafe_audit, trivially in-bounds)\n    unsafe { *p = 0.0; }\n}\n";
        assert!(run(src).is_empty());
    }
}
