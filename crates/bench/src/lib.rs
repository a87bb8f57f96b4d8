//! Benchmark harness regenerating every table and figure of the Tutel
//! paper's evaluation (Section 5), on the simulated cluster substrate.
//!
//! Each experiment lives in [`experiments`] as a pure function
//! returning printable rows, consumed by:
//!
//! * the `repro` binary (`repro <name>`, one name per table/figure —
//!   run `cargo run -p tutel-bench --release --bin repro -- all` for the full
//!   sweep), and
//! * the Criterion benches under `benches/` for the experiments where
//!   real CPU wall-clock is the measurement (e.g. Figure 24's kernel
//!   comparison).
//!
//! Absolute numbers will differ from the paper (its testbed is 2,048
//! real A100s; ours is a calibrated simulator) — the claim, recorded in
//! EXPERIMENTS.md, is *shape* fidelity: orderings, crossover locations,
//! and rough ratios.

pub mod experiments;
pub mod report;

pub use report::Table;
