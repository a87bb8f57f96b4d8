//! Lint diagnostics: one finding with location, rule id, message, and
//! the offending source line, renderable as human text or JSON.

use std::fmt;

use tutel_obs::json::Value;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`no_panic`, `layout_doc`, `layering`,
    /// `shim_hygiene`, or the framework's own `bad_allow`).
    pub rule: &'static str,
    /// Workspace-relative path (always `/`-separated).
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// What went wrong and how to fix or suppress it.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        write!(f, "    | {}", self.snippet)
    }
}

/// Renders a diagnostic batch as a JSON array (stable field order).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let rows = diags.iter().map(|d| {
        Value::obj([
            ("rule", Value::from(d.rule)),
            ("file", Value::from(d.file.as_str())),
            ("line", Value::from(u64::from(d.line))),
            ("message", Value::from(d.message.as_str())),
            ("snippet", Value::from(d.snippet.as_str())),
        ])
    });
    Value::Arr(rows.collect()).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_location_rule_and_snippet() {
        let d = Diagnostic {
            rule: "no_panic",
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "`.unwrap()` in library code".into(),
            snippet: "let v = m.get(k).unwrap();".into(),
        };
        let s = d.to_string();
        assert!(s.contains("crates/x/src/lib.rs:7: [no_panic]"));
        assert!(s.contains("| let v = m.get(k).unwrap();"));
    }

    #[test]
    fn json_is_escaped() {
        let d = Diagnostic {
            rule: "layout_doc",
            file: "a.rs".into(),
            line: 1,
            message: "needs \"layout\"".into(),
            snippet: "fn f(x: &[f32])".into(),
        };
        let j = diagnostics_to_json(&[d]);
        assert!(j.contains("needs \\\"layout\\\""));
        assert!(j.starts_with('[') && j.ends_with(']'));
    }
}
