//! The rule framework: each source-level rule inspects one lexed
//! [`SourceFile`] and emits [`Diagnostic`]s; the layering rule works
//! on `Cargo.toml` manifests instead and lives in [`layering`].

use crate::diag::Diagnostic;
use crate::source::SourceFile;

mod hot_alloc;
mod kernel_dispatch;
pub mod layering;
mod layout_doc;
mod no_block_in_overlap;
mod no_panic;
mod shim_hygiene;
mod test_determinism;
mod traced_collective;
mod unsafe_audit;

pub use hot_alloc::HotAlloc;
pub use kernel_dispatch::KernelDispatch;
pub use layout_doc::LayoutDoc;
pub use no_block_in_overlap::NoBlockInOverlap;
pub use no_panic::NoPanic;
pub use shim_hygiene::ShimHygiene;
pub use test_determinism::TestDeterminism;
pub use traced_collective::TracedCollective;
pub use unsafe_audit::UnsafeAudit;

/// The library crates whose non-test code must hold the strict
/// contracts (`no_panic`, `layout_doc`): everything on the
/// gate → encode → All-to-All → FFN → decode data path, plus the
/// serving tier that drives it request-by-request.
pub const STRICT_CRATES: &[&str] = &[
    "tutel-tensor",
    "tutel-comm",
    "tutel-gate",
    "tutel-kernels",
    "tutel-experts",
    "tutel",
    "tutel-serve",
];

/// A source-level lint rule.
pub trait Rule {
    /// Stable rule id used in diagnostics and `check:allow`
    /// suppressions.
    fn id(&self) -> &'static str;
    /// Inspects one file, pushing findings into `sink`.
    fn check_file(&self, file: &SourceFile, sink: &mut Vec<Diagnostic>);
}

/// All source-level rules, in diagnostic-output order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanic),
        Box::new(HotAlloc),
        Box::new(NoBlockInOverlap),
        Box::new(TracedCollective),
        Box::new(LayoutDoc),
        Box::new(ShimHygiene),
        Box::new(TestDeterminism),
        Box::new(UnsafeAudit),
        Box::new(KernelDispatch),
    ]
}

/// Runs only the rules that apply to test code over `file`. Test
/// trees (`tests/` at the root and per crate) are scanned with this
/// reduced set: the strict data-path contracts (`no_panic`,
/// `layout_doc`, …) deliberately exempt test code, while
/// `test_determinism` exists *for* it and `unsafe_audit` applies
/// everywhere — an unjustified `unsafe` is no safer in a test.
pub fn check_test_source(file: &SourceFile) -> Vec<Diagnostic> {
    let mut sink = file.bad_allows.clone();
    TestDeterminism.check_file(file, &mut sink);
    UnsafeAudit.check_file(file, &mut sink);
    sink.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    sink
}

/// Runs every source rule over `file`, including the framework's own
/// malformed-suppression diagnostics.
pub fn check_source(file: &SourceFile) -> Vec<Diagnostic> {
    let mut sink = file.bad_allows.clone();
    for rule in all_rules() {
        rule.check_file(file, &mut sink);
    }
    sink.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    sink
}
