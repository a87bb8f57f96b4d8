//! The executed-overlap determinism contract, pinned at the repo
//! level: splitting the capacity dimension into `d` chunks and running
//! them through the two-stream overlapped schedule
//! (`tutel::overlap::run_overlapped`) changes *when* work happens,
//! never *what* is computed. Under P1 the full distributed MoE step at
//! every degree must therefore be **bitwise identical** to the serial
//! degree-1 schedule at the same compute-parallelism limit — for both
//! All-to-All algorithms, both world sizes, and every thread count.
//! `ci.sh` additionally repeats this binary under `TUTEL_THREADS=1`
//! and `TUTEL_THREADS=4` to cover the env-var path.

use tutel_harness::dist::run_distributed;
use tutel_harness::reference::Problem;
use tutel_harness::{cell_label, AllToAllAlgo, ExecConfig, Parallelism};
use tutel_suite::obs::Telemetry;

const DEGREES: [usize; 3] = [2, 4, 8];

fn assert_ranks_bitwise(
    base: &[tutel_harness::reference::RankResult],
    got: &[tutel_harness::reference::RankResult],
    label: &str,
) {
    assert_eq!(base.len(), got.len(), "{label}: rank count");
    for (rank, (b, g)) in base.iter().zip(got).enumerate() {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&b.output),
            bits(&g.output),
            "{label}: output differs on rank {rank}"
        );
        assert_eq!(
            bits(&b.d_x),
            bits(&g.d_x),
            "{label}: d_x differs on rank {rank}"
        );
        assert_eq!(
            b.aux.to_bits(),
            g.aux.to_bits(),
            "{label}: aux differs on rank {rank}"
        );
    }
}

#[test]
fn overlapped_degrees_are_bitwise_identical_to_serial_under_p1() {
    for world in [2usize, 4] {
        let problem = Problem {
            world,
            seed: 0xD1CE,
        };
        let fixture = problem.materialize();
        for algo in AllToAllAlgo::ALL {
            for threads in [1usize, 4] {
                let at_degree = |degree| ExecConfig {
                    strategy: Parallelism::P1,
                    algo,
                    degree,
                    world,
                    threads,
                    dropless: false,
                };
                let serial =
                    run_distributed(&problem, &fixture, &at_degree(1), &Telemetry::disabled());
                for degree in DEGREES {
                    let cfg = at_degree(degree);
                    let got = run_distributed(&problem, &fixture, &cfg, &Telemetry::disabled());
                    assert_ranks_bitwise(&serial, &got, &cell_label(&cfg, true));
                }
            }
        }
    }
}

#[test]
fn overlap_is_seed_independent_of_degree_ordering() {
    // A second seed, degrees visited in reverse: the contract holds
    // for any problem instance, not one lucky fixture.
    let problem = Problem {
        world: 2,
        seed: 0xBEEF,
    };
    let fixture = problem.materialize();
    let at_degree = |degree| ExecConfig {
        strategy: Parallelism::P1,
        algo: AllToAllAlgo::Linear,
        degree,
        world: 2,
        threads: 1,
        dropless: false,
    };
    let serial = run_distributed(&problem, &fixture, &at_degree(1), &Telemetry::disabled());
    for degree in DEGREES.iter().rev() {
        let cfg = at_degree(*degree);
        let got = run_distributed(&problem, &fixture, &cfg, &Telemetry::disabled());
        assert_ranks_bitwise(&serial, &got, &cell_label(&cfg, true));
    }
}
