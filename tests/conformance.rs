//! Differential conformance: the smoke matrix and the fault-injection
//! suite must pass under `cargo test`, independent of the `harness`
//! CLI. The full 96-point matrix runs in CI behind `HARNESS_FULL=1`
//! (see ci.sh) and locally via `cargo run -p tutel-harness -- --full`.

use tutel_harness::faults::{run_fault_scenarios, Collective};
use tutel_harness::matrix::{configs, run_matrix, Mode};
use tutel_harness::{cell_label, ulp_budget};

#[test]
fn smoke_matrix_passes() {
    let verdicts = run_matrix(Mode::Smoke, 42);
    assert_eq!(verdicts.len(), configs(Mode::Smoke).len());
    let failures: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.pass)
        .map(|v| {
            format!(
                "{}: out {:.2} ULP, d_x {:.2} ULP, aux {}",
                cell_label(&v.config, true),
                v.detail.output_ulp,
                v.detail.d_x_ulp,
                if v.detail.aux_bitwise {
                    "bitwise"
                } else {
                    "DIFFERS"
                }
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "matrix failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn bitwise_eligible_points_are_actually_bitwise() {
    let verdicts = run_matrix(Mode::Smoke, 7);
    let mut bitwise_points = 0;
    for v in &verdicts {
        if ulp_budget(&v.config) == 0 {
            assert_eq!(
                v.worst.ulp,
                0,
                "{} must be bitwise",
                cell_label(&v.config, true)
            );
            bitwise_points += 1;
        }
    }
    assert!(
        bitwise_points > 0,
        "smoke must include bitwise-eligible points"
    );
}

#[test]
fn fault_scenarios_pass_for_a2a_and_2dh() {
    for collective in [Collective::AllToAll, Collective::AllToAll2dh] {
        let report = run_fault_scenarios(collective, 0xFA17);
        assert!(
            report.pass,
            "{} fault scenarios failed: {report:?}",
            report.collective.label()
        );
        assert!(report.injected > 0, "scenario must actually inject faults");
    }
}
