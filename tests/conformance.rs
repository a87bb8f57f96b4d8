//! Differential conformance: the smoke matrix and the fault-injection
//! suite must pass under `cargo test`, independent of the `harness`
//! CLI. The full 96-point matrix runs in CI behind `HARNESS_FULL=1`
//! (see ci.sh) and locally via `cargo run -p tutel-harness -- --full`.

use tutel_harness::faults::{run_fault_scenarios, Collective};
use tutel_harness::matrix::{configs, run_matrix, Mode};
use tutel_harness::reference::{run_reference, Problem, REF_THREADS};
use tutel_harness::{cell_label, ulp_budget};
use tutel_suite::rt::with_parallelism_limit;
use tutel_suite::tensor::Rng;
use tutel_suite::tutel::checkpoint::StateDict;
use tutel_suite::tutel::{MoeConfig, MoeLayer};

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

/// The product layer against the oracle, directly: a `MoeLayer`
/// holding the world-1 fixture's weights must reproduce the reference
/// executor's output, input gradient and aux loss bit for bit — the
/// layer's step (gate, bins, encode/decode, gate-gradient chain) and
/// the oracle's independent spelling of it agree to 0 ULP.
#[test]
fn moe_layer_is_bitwise_equal_to_the_reference_executor() {
    for seed in [3, 42] {
        let problem = Problem { world: 1, seed };
        let fixture = problem.materialize();
        let reference = &run_reference(&problem, &fixture)[0];

        let cfg = MoeConfig::new(Problem::MODEL_DIM, Problem::HIDDEN_DIM, problem.experts())
            .with_top_k(Problem::TOP_K)
            .with_capacity_factor(problem.capacity_factor())
            .with_aux_weight(Problem::AUX_WEIGHT);
        let mut layer = MoeLayer::new(&cfg, &mut Rng::seed(0)).unwrap();
        let mut sd = StateDict::new();
        sd.insert("l.router.weight", fixture.router.weights().clone());
        let (w1, b1, w2, b2) = fixture.experts.weights();
        sd.insert("l.experts.w1", w1.clone());
        sd.insert("l.experts.b1", b1.clone());
        sd.insert("l.experts.w2", w2.clone());
        sd.insert("l.experts.b2", b2.clone());
        layer.import_state("l", &sd).unwrap();

        let (x, d_out) = &fixture.per_rank[0];
        let (out, d_x) = with_parallelism_limit(REF_THREADS, || {
            let out = layer.forward(x).unwrap();
            (out, layer.backward(d_out).unwrap())
        });
        assert!(out.dropped > 0, "seed {seed}: the fixture must clamp");
        assert_eq!(
            out.output.as_slice(),
            reference.output,
            "seed {seed} output"
        );
        assert_eq!(d_x.as_slice(), reference.d_x, "seed {seed} d_x");
        assert_eq!(
            out.aux_loss.to_bits(),
            reference.aux.to_bits(),
            "seed {seed} aux"
        );
    }
}
