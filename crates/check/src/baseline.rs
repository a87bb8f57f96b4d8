//! The baseline ratchet: pre-existing violations are pinned in a
//! committed `check-baseline.json` as per-`file:rule` counts. A run
//! fails if any `file:rule` count *exceeds* its baselined value (new
//! violations), and the tool offers `--write-baseline` when counts
//! drop so the ratchet only ever tightens.

use std::collections::BTreeMap;

use tutel_obs::json::Value;

use crate::diag::Diagnostic;

/// Violation counts keyed by `"<file>:<rule>"` (BTreeMap for stable
/// serialization order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub counts: BTreeMap<String, u64>,
}

impl Baseline {
    /// Aggregates a diagnostic batch into ratchet counts.
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Baseline {
        let mut counts = BTreeMap::new();
        for d in diags {
            *counts.entry(format!("{}:{}", d.file, d.rule)).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Serializes to the committed JSON format.
    pub fn render(&self) -> String {
        let counts = self
            .counts
            .iter()
            .map(|(k, &n)| (k.clone(), Value::from(n)));
        let doc = Value::obj([
            ("total", Value::from(self.total())),
            ("counts", Value::Obj(counts.collect())),
        ]);
        doc.to_pretty() + "\n"
    }

    /// Parses the committed JSON format strictly: only the `total` and
    /// `counts` keys, every count a non-negative integer, and a `total`,
    /// if given, equal to the sum of the counts.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let Value::Obj(top) = Value::parse(text)? else {
            return Err("baseline is not a JSON object".into());
        };
        let mut counts = BTreeMap::new();
        let mut declared_total = None;
        for (key, val) in top {
            match (key.as_str(), val) {
                ("total", n) => declared_total = Some(count(&key, &n)?),
                ("counts", Value::Obj(entries)) => {
                    for (k, n) in entries {
                        let n = count(&k, &n)?;
                        counts.insert(k, n);
                    }
                }
                (other, _) => return Err(format!("unexpected key {other:?} in baseline")),
            }
        }
        let baseline = Baseline { counts };
        if let Some(t) = declared_total {
            if t != baseline.total() {
                return Err(format!(
                    "baseline total {t} disagrees with the sum of counts {}",
                    baseline.total()
                ));
            }
        }
        Ok(baseline)
    }
}

/// The count under `key`: a non-negative integral JSON number.
fn count(key: &str, n: &Value) -> Result<u64, String> {
    match n.as_f64() {
        Some(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as u64),
        _ => Err(format!("count for {key:?} is not a non-negative integer")),
    }
}

/// Outcome of comparing a current run against the committed baseline.
#[derive(Debug, Default)]
pub struct Ratchet {
    /// `(key, current, baselined)` where current > baselined: failures.
    pub regressions: Vec<(String, u64, u64)>,
    /// `(key, current, baselined)` where 0 < current < baselined: the
    /// baseline should be re-written (tightened).
    pub improvements: Vec<(String, u64, u64)>,
    /// `(key, baselined)` where the key no longer produces any
    /// diagnostic at all. A fully-fixed entry left in the committed
    /// file is dead headroom — a later regression at that key would
    /// slide under the ratchet unnoticed — so stale entries fail the
    /// run until pruned with `--write-baseline`.
    pub stale: Vec<(String, u64)>,
}

impl Ratchet {
    pub fn compare(current: &Baseline, committed: &Baseline) -> Ratchet {
        let mut out = Ratchet::default();
        for (k, &cur) in &current.counts {
            let base = committed.counts.get(k).copied().unwrap_or(0);
            if cur > base {
                out.regressions.push((k.clone(), cur, base));
            } else if cur < base {
                out.improvements.push((k.clone(), cur, base));
            }
        }
        for (k, &base) in &committed.counts {
            if !current.counts.contains_key(k) {
                out.stale.push((k.clone(), base));
            }
        }
        out.improvements.sort();
        out.stale.sort();
        out
    }

    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.stale.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, rule: &'static str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line: 1,
            message: String::new(),
            snippet: String::new(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let b = Baseline::from_diagnostics(&[
            diag("a.rs", "no_panic"),
            diag("a.rs", "no_panic"),
            diag("b.rs", "layout_doc"),
        ]);
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.total(), 3);
        assert_eq!(parsed.counts["a.rs:no_panic"], 2);
    }

    #[test]
    fn empty_baseline_round_trips() {
        let b = Baseline::default();
        assert_eq!(Baseline::parse(&b.render()).unwrap(), b);
    }

    #[test]
    fn new_violation_fails_the_ratchet() {
        let committed = Baseline::from_diagnostics(&[diag("a.rs", "no_panic")]);
        let current =
            Baseline::from_diagnostics(&[diag("a.rs", "no_panic"), diag("a.rs", "no_panic")]);
        let r = Ratchet::compare(&current, &committed);
        assert!(!r.passed());
        assert_eq!(r.regressions, vec![("a.rs:no_panic".to_string(), 2, 1)]);
    }

    #[test]
    fn partial_fix_shows_as_improvement() {
        let committed =
            Baseline::from_diagnostics(&[diag("a.rs", "no_panic"), diag("a.rs", "no_panic")]);
        let current = Baseline::from_diagnostics(&[diag("a.rs", "no_panic")]);
        let r = Ratchet::compare(&current, &committed);
        assert!(r.passed());
        assert_eq!(r.improvements, vec![("a.rs:no_panic".to_string(), 1, 2)]);
        assert!(r.stale.is_empty());
    }

    #[test]
    fn fully_fixed_entry_is_stale_and_fails_until_pruned() {
        let committed =
            Baseline::from_diagnostics(&[diag("a.rs", "no_panic"), diag("b.rs", "layout_doc")]);
        let current = Baseline::from_diagnostics(&[diag("a.rs", "no_panic")]);
        let r = Ratchet::compare(&current, &committed);
        assert!(!r.passed(), "stale headroom must fail the ratchet");
        assert!(r.regressions.is_empty());
        assert_eq!(r.stale, vec![("b.rs:layout_doc".to_string(), 1)]);
        // Rewriting the baseline from the current run prunes it.
        let r2 = Ratchet::compare(&current, &current.clone());
        assert!(r2.passed());
    }

    #[test]
    fn moving_a_violation_between_files_fails() {
        // Shrinking one file does not buy headroom in another.
        let committed = Baseline::from_diagnostics(&[diag("a.rs", "no_panic")]);
        let current = Baseline::from_diagnostics(&[diag("b.rs", "no_panic")]);
        assert!(!Ratchet::compare(&current, &committed).passed());
    }

    #[test]
    fn corrupt_baseline_is_an_error() {
        assert!(Baseline::parse("{\"total\": 5, \"counts\": {}}").is_err());
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("[]").is_err());
        assert!(Baseline::parse("{\"counts\": {}, \"extra\": 1}").is_err());
        assert!(Baseline::parse("{\"counts\": {\"a.rs:no_panic\": 1.5}}").is_err());
        assert!(Baseline::parse("{\"counts\": {\"a.rs:no_panic\": -1}}").is_err());
        assert!(Baseline::parse("{\"counts\": {\"a.rs:no_panic\": \"1\"}}").is_err());
        assert!(Baseline::parse("{\"total\": -0.5, \"counts\": {}}").is_err());
    }

    #[test]
    fn committed_baseline_renders_back_byte_for_byte() {
        let committed = include_str!("../../../check-baseline.json");
        assert_eq!(Baseline::parse(committed).unwrap().render(), committed);
    }
}
