#!/usr/bin/env sh
# Local CI: formatting, lints, build, and the full test suite.
# Run from the repo root. Fails fast on the first broken gate.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
# Broken, ambiguous or private intra-doc links fail here. The comm
# crate is documented on its own too: without `check-sched` its docs
# must not link the feature-gated `sched` module.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps
RUSTDOCFLAGS="-D warnings" cargo doc -q -p tutel-comm --no-deps

echo "==> non-test line count (reported, not a gate)"
./count_lines.sh

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1: root suite)"
# Includes tests/route_allocs.rs, whose counts are the "disabled =
# free" budgets: a disabled Telemetry or Tracer handle, a warmed arena
# take + put and a parallel_chunks fan-out each make an exact number of
# heap allocations, pool jobs and recorded events per call (they
# replace the trace_overhead / race_overhead disabled_* and
# compute_runtime_arena bench smokes). Time is measured only by
# benchmark/ below, paired and from outside.
cargo test -q

echo "==> quickstart example: the Figure 8 custom layer on threaded ranks"
# The paper's Figure 8 program (gate, fast encode, two Flexible
# All-to-Alls, fast decode) runs per rank under run_threaded and
# asserts its own output.
cargo run --release -q --example quickstart > /dev/null

echo "==> benchmark/: builds against this tree + 1-second smokes"
# benchmark/ is its own workspace, so nothing above compiles it: an
# API break against it would otherwise surface only when the pipeline
# runs it. The smoke's exit code is the benchmark's own correctness
# check (outputs verified, no failed step).
cargo check --release --offline --manifest-path benchmark/Cargo.toml
# All four frozen workloads: every caller of the rank program has its
# own. train_wide_ffn is MoeLayer over the exact bins of a clamped
# routing, train_many_experts over dropless ones; neither touches comm
# or serve.
# serve_small_steps is run_rank at P1/linear, serve_large_steps at
# P2/2DH degree 2 — the overlapped v-exchange end to end.
for workload in train_wide_ffn train_many_experts serve_small_steps serve_large_steps; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done

# tutel-bench's lib tests regenerate several full paper experiments and
# take ~7 minutes; run them separately with `cargo test -p tutel-bench`.
echo "==> cargo test --workspace (minus tutel-bench)"
cargo test -q --workspace --exclude tutel-bench

echo "==> tutel-rt unit tests under check-race, 40 runs"
# The recorder's session log is process-global, so the chk tests share
# it with the arena and pool tests running beside them: a rerun loop
# keeps an order-dependent assertion from passing by luck.
for _ in $(seq 40); do
    cargo test -q -p tutel-rt --features check-race --lib > /dev/null
done

echo "==> backward stage + FFN child-span attribution (wall-clock bounds, run alone)"
# The stage spans must cover moe.backward to within 10 %, and
# ffn.gemm1 (GEMM + bias + GELU epilogue) / ffn.gemm2 must nest in
# order and cover ffn to within 10 %. A timing ratio has no place in
# the parallel suite above (or under --sched / --race below), so both
# tests are #[ignore]d there and run here by name.
cargo test -q -p tutel --lib -- --ignored backward_stage_spans_account
cargo test -q -p tutel-experts --lib -- --ignored ffn_child_spans

echo "==> GELU judge: all 2^32 inputs, every SIMD table vs scalar and vs an f64 GELU"
# GELU is x·σ(2u) over one generic exp_neg body, instantiated per lane
# type (f32, and the __m256 / __m512 vectors): on every bit pattern the
# gelu output, the captured σ(2u) and gelu_backward of every SIMD table
# the host has (AVX2, and AVX-512 where present) must equal the scalar
# table's. The judge also bounds the error against an f64 x·σ(2u) by
# region (no worse than the tanhf port it replaced on [-5, 5], within
# 0.531 ULP above 5), returns ±0 for a normal input only where that
# port did, and makes no subnormal σ(2u) or gelu' from a normal input;
# it prints its figures. Release build, minutes on 2 cores; the default
# suite runs an edge table, every 65 537th pattern and [-12, 12].
cargo test -q --release -p tutel-tensor --lib -- --ignored \
    gelu_judge_holds_and_simd_lanes_match_scalar_exhaustively --nocapture

echo "==> exp_neg judge: every input up to the cut, every SIMD table vs scalar and vs an f64 exp"
# Softmax's numerators and GELU's σ(2u) share one exp, exp_neg(a) =
# exp(-a), one generic body instantiated per lane type. On every
# non-negative f32 pattern up to the cut (87.33654, the last a whose
# exp(-a) is a normal float), the cut's neighbours, +inf, both NaNs
# and ±0: the error against an f64 exp stays within the bound the test
# states and prints, no value is subnormal, every a past the cut gives
# +0 and NaN gives NaN, and every SIMD table's softmax_rows over rows
# carrying those inputs equals the scalar table's bit for bit. Release
# build, about 1.5 minutes on 2 cores; the default suite runs the edges
# and every 65 537th pattern.
cargo test -q --release -p tutel-tensor --lib -- --ignored \
    exp_neg_judge_holds_and_simd_lanes_match_scalar_exhaustively --nocapture

echo "==> GEMM tile edges: every small shape, every kernel table"
# Every m ≤ 2·MR + 1 (25) and m in {47, 48, 49} (either side of one
# ROW_BLOCK; Aᵀ·B's ma takes the same values), n ≤ 2·WIDE_TILE_COLS + 1
# (65) and k in 0..=17, either side of 32, 64 and 512, or either side of
# one and two KC panels (Aᵀ·B's 2·KC + 3 bin runs split-k), over two
# bins with an empty one between them and ±0, ±inf, NaN and subnormals
# among the operands: the three grouped launches, scalar against every
# SIMD table the host has, bit for bit, A·B and Aᵀ·B against per-element
# oracles in the documented order (a chain of fused multiply-adds from
# zero per KC panel, the panel sums added in order), and A·Bᵀ against
# A·B over the transposed B, in every table. The default suite samples
# these edges by proptest; this enumerates them (minutes in release on
# 2 vCPUs: subnormal products are slow, and the scalar table's fused
# steps are libm fmaf calls).
cargo test -q --release -p tutel-tensor --lib -- --ignored grouped_launches_match_across_simd_modes_on_every_tile_edge

echo "==> GEMM f64 judge at TUTEL_SIMD=0 and =1"
# Each grouped launch kind against the same product in f64 at the four
# benchmark workloads' expert shapes and at tile edges: max and median
# scaled ULP per kind, printed beside the figures before FMA and held
# to the test's bounds. The tables are bitwise equal, so both cells
# read the same figures; the scalar cell is the one whose fused steps
# are libm calls.
TUTEL_SIMD=0 cargo test -q --release --test gemm_judge
TUTEL_SIMD=1 cargo test -q --release --test gemm_judge

echo "==> top-k, slice-kernel and row-block differentials at TUTEL_THREADS=1 and =4"
# Every SIMD table's top-k (one integer-max pass per slot) against the
# scalar scan, directly and through topk_last's pooled row chunks, for
# E in 1..=17 and either side of 32 and 64, every k ≤ E, on ties, ±0,
# NaN of both signs, ±inf, all-NaN rows and subnormals; the row
# kernels (row max, row sum, dot, the softmax numerators and divide,
# axpy, row copies) through the row-block entries that inline them, and
# add_assign, bf16_round and gelu_backward, on ragged, unaligned and
# empty slices, against scalar and against per-element oracles that
# share no code with the kernels; gelu' at its limits past the
# backward's ±1e19 clamp; and every row-block entry (softmax_rows,
# gather_rows, combine_rows, dot_rows, softmax_grad_rows) against
# per-element oracles, in every table.
for threads in 1 4; do
    TUTEL_THREADS=$threads cargo test -q --release -p tutel-tensor --lib -- --exact \
        dispatch::tests::topk_agrees_across_tables_on_ties_zeros_nans_and_infs \
        dispatch::tests::slice_kernels_match_scalar_on_ragged_unaligned_and_empty_slices \
        dispatch::tests::slice_kernels_match_per_element_oracles_on_ragged_unaligned_and_empty_slices \
        dispatch::tests::gelu_backward_takes_its_limits_past_the_clamp \
        dispatch::tests::softmax_rows_equals_a_per_element_oracle_in_every_table \
        dispatch::tests::dispatch_row_entries_equal_per_element_oracles_in_every_table \
        dispatch::tests::softmax_grad_rows_equals_the_per_row_chain_in_every_table
done

echo "==> split-k TN: every panel edge equals the unsplit launch at TUTEL_THREADS=1 and =4"
# A grouped_gemm_tn bin longer than one KC panel runs each panel as its
# own pool job into a -0.0-started partial, folded in panel order: the
# reduction lengths 0, 1, KC - 1 .. 2·KC + 1 and 8192, alone and as
# the bins of one launch, must equal the serial per-block reduction
# bit for bit in every table, serial and on the pool.
TUTEL_THREADS=1 cargo test -q --release -p tutel-tensor --lib -- --exact linalg::tests::split_k_tn_matches_the_unsplit_launch_bit_for_bit
TUTEL_THREADS=4 cargo test -q --release -p tutel-tensor --lib -- --exact linalg::tests::split_k_tn_matches_the_unsplit_launch_bit_for_bit

echo "==> determinism suite: TUTEL_SIMD={0,1} x TUTEL_THREADS={1,4}"
# The kernel-table axis crossed with the pool axis: every cell of the
# sweep must be bit-identical to every other (the suite pins the
# in-process override path; these four runs pin the env-var path).
TUTEL_SIMD=0 TUTEL_THREADS=1 cargo test -q --test determinism
TUTEL_SIMD=0 TUTEL_THREADS=4 cargo test -q --test determinism
TUTEL_SIMD=1 TUTEL_THREADS=1 cargo test -q --test determinism
TUTEL_SIMD=1 TUTEL_THREADS=4 cargo test -q --test determinism
# Name the table the TUTEL_SIMD=1 cells ran (the widest the host has):
# "kernel table: avx512" on an AVX-512 host, "avx2" or "scalar" on others.
TUTEL_SIMD=1 cargo test -q --test determinism -- --nocapture --exact tutel_simd_selects_the_kernel_table \
    | grep "kernel table:"

echo "==> tensor + gate tests at TUTEL_THREADS=1 and =4 (row-chunked top-k, fused gate)"
# `topk_last` runs its rows in fixed chunks on the pool, and `route`
# takes its record from it: both crates' oracles (the full-sort top-k
# and `naive_route`) must hold on the env-var path at either width.
# `step::gate` takes softmax and top-k from the router's one launch
# (the row-block epilogue of the logits GEMM): the fused-gate
# differentials hold it to `logits -> softmax_last -> route` bit for
# bit, errors included, at every kernel table. The gate backward's
# panel launch is held to the unfused chain (gate_logits_grad ->
# LinearRouter::backward -> axpy) the same way, in the gate crate's
# router::tests::fused_gate_backward_*.
TUTEL_THREADS=1 cargo test -q -p tutel-tensor -p tutel-gate
TUTEL_THREADS=4 cargo test -q -p tutel-tensor -p tutel-gate
TUTEL_THREADS=1 cargo test -q -p tutel --lib -- step::tests::fused_gate
TUTEL_THREADS=4 cargo test -q -p tutel --lib -- step::tests::fused_gate

echo "==> resident rank group at TUTEL_THREADS=1 and =4"
# comm::group: one parked thread per rank for the group's life (same
# ThreadId over 100 runs), the step-boundary audit (a leak, a poisoned
# rank or an exhausted retry budget leaves the group typed-dead), a
# rank's panic re-raised after every rank reported, and faulted runs
# recovering bitwise across step boundaries.
TUTEL_THREADS=1 cargo test -q -p tutel-comm --lib group::
TUTEL_THREADS=4 cargo test -q -p tutel-comm --lib group::

echo "==> tutel-comm + crossbeam shim in release: the poll-then-park waits"
# Every rank-thread wait polls its channel, yielding, for up to 50 µs
# before it parks (comm::wait). The debug runs above mostly take the
# park path; in release most messages arrive while the wait is still
# polling, so this build covers the other branch of the same waits.
cargo test -q --release -p tutel-comm -p crossbeam

echo "==> executed-overlap determinism sweep at TUTEL_THREADS=1 and =4"
TUTEL_THREADS=1 cargo test -q --test overlap
TUTEL_THREADS=4 cargo test -q --test overlap

TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT

# Every paper experiment and executed sweep is `repro <name>`: one
# binary, one table of names (crates/bench/src/bin/repro.rs).
REPRO="cargo run --release -q -p tutel-bench --bin repro --"

echo "==> model-only repro experiments vs the committed transcript (repro_output.txt)"
# These fifteen experiments print nothing but modelled numbers
# (deterministic, no wall clock), so every non-empty stdout line must
# be a verbatim line of repro_output.txt: a refactor of the pricing
# stack (tutel::cost::ClusterModel, PipelineTimeModel,
# MoeLayerSimulator, InlineParallelismRouter, tutel::cost's link and
# kernel models, kernels::memory's meter) that moves one digit fails
# here. fig24 stays out: its CPU table is wall
# clock. A deliberate model change regenerates the transcript in the
# same commit.
for name in table1 fig3 fig5 table5 table7 fig22 fig23 table8 ablations \
    fig6 fig7 fig10 fig20 fig21 table4; do
    $REPRO "$name" > "$TRACE_DIR/$name.txt"
    if [ ! -s "$TRACE_DIR/$name.txt" ]; then
        echo "repro $name printed nothing" >&2
        exit 1
    fi
    if grep . "$TRACE_DIR/$name.txt" | grep -vxFf repro_output.txt >&2; then
        echo "repro $name: the lines above are not in repro_output.txt" >&2
        exit 1
    fi
done

echo "==> executed adaptive pipelining sweep (BENCH_pipeline.json)"
# Executes all eight strategies at both world sizes through the overlap
# executor, and exits non-zero unless every cell's best overlapped
# strategy beats degree 1 and the search's choice is the measured argmin
# (this replaces the pipeline_overlap bench smoke).
$REPRO pipeline > /dev/null

echo "==> conformance harness (smoke matrix + fault suite + traced run)"
# HARNESS_FULL=1 upgrades to the full 96-point matrix. --trace runs the
# 4-rank traced smoke (invariant-checked, straggler attribution) and
# exports the run's one JSONL stream plus the merged Perfetto trace. The
# kernel grid crosses {scalar, simd} x {f32, bf16}; with the tensor
# crate's bf16 RNE proptests and experts::sharded::bf16_halves_shard_bytes
# (both in the suites above) it holds the bf16 storage path the
# simd_precision bench smoke used to run.
cargo run --release -q -p tutel-harness --bin harness -- \
    ${HARNESS_FULL:+--full} --json BENCH_harness.json \
    --trace "$TRACE_DIR/run"

echo "==> tutel-trace: merge the harness run's stream (standalone path)"
cargo run --release -q -p tutel-obs --bin tutel-trace -- \
    "$TRACE_DIR/merged.trace.json" "$TRACE_DIR/run.jsonl" > /dev/null

# `pinned` holds a line of this run to the commit before: it must be a
# verbatim line of repro_output.txt, so bits that move identically in
# every cell of a sweep fail too. A deliberate numeric change
# regenerates the line in the same commit.
pinned() {
    if ! grep -qxF -- "$1" repro_output.txt; then
        echo "'$1' is not a line of repro_output.txt" >&2
        exit 1
    fi
}

echo "==> tutel-trace: a training run's stream (stage spans + steps in one file)"
# The adaptive_training example's --telemetry export carries its step
# records and rank 0's stage spans in one stream; tutel-trace must parse
# it and find the trace's invariants intact.
cargo run --release -q --example adaptive_training -- \
    --telemetry "$TRACE_DIR/train.jsonl" > /dev/null
cargo run --release -q -p tutel-obs --bin tutel-trace -- \
    "$TRACE_DIR/train.trace.json" "$TRACE_DIR/train.jsonl" > /dev/null

echo "==> adaptive decisions: the training run's audit records vs repro_output.txt"
# Every parallelism and online-pipelining decision of that run is a
# function of its seeded workload and the cost model alone, so its
# "adaptive_decision" records are byte-identical on every host and at
# every TUTEL_SIMD x TUTEL_THREADS: moving the pricing code must leave
# their checksum where it was.
DECISIONS=$(grep '"type":"adaptive_decision"' "$TRACE_DIR/train.jsonl" | cksum)
pinned "adaptive_decision cksum: $DECISIONS"

echo "==> conformance harness: replayed fault seed"
# A second, fixed fault seed so every collective's retry/recovery path
# is exercised under two distinct injected fault patterns per run.
cargo run --release -q -p tutel-harness --bin harness -- \
    --fault-seed 0xB0B0 > /dev/null

# The two executed digests below are compared across cells of this run
# and, through `pinned`, against the commit before.
echo "==> serving: smoke grid + seeded load-gen sweep at TUTEL_THREADS={1,4}"
# The serving engine runs on a virtual clock, so the whole goodput
# sweep (continuous vs serial batching over seeded poisson/bursty/
# diurnal traces) must be bit-identical at any worker count: the
# `repro serve` digest line is compared across both settings, and the
# acceptance criterion (continuous beats serial at every offered load)
# is enforced by the binary's exit code. The serve unit/property tests
# are also swept at both widths to pin the env-var path.
TUTEL_THREADS=1 cargo test -q -p tutel-serve
TUTEL_THREADS=4 cargo test -q -p tutel-serve
TUTEL_THREADS=1 $REPRO serve BENCH_serve.json \
    | tee "$TRACE_DIR/serve_t1.txt" | grep "serve digest"
TUTEL_THREADS=4 $REPRO serve "$TRACE_DIR/BENCH_serve_t4.json" > "$TRACE_DIR/serve_t4.txt"
D1=$(grep "serve digest" "$TRACE_DIR/serve_t1.txt")
D4=$(grep "serve digest" "$TRACE_DIR/serve_t4.txt")
if [ "$D1" != "$D4" ]; then
    echo "serve digest diverged across TUTEL_THREADS: '$D1' vs '$D4'" >&2
    exit 1
fi
pinned "$D1"

echo "==> dropless imbalance sweep + grouped determinism at TUTEL_SIMD={0,1} x TUTEL_THREADS={1,4}"
# The grouped (dropless) path computes exactly the routed rows, so its
# outputs are bitwise-invariant to both the kernel table and the pool
# width: the repro digest line is compared across all four cells. The
# timed sweep runs once and enforces the no-cliff acceptance by exit
# code (grouped flat across the skew ladder while padded cliffs >=
# 1.5x, grouped beating padded from Zipf(1.0) up), rewriting the
# grouped_gemm section of BENCH_compute.json; the other three cells
# run digest-only.
TUTEL_SIMD=0 TUTEL_THREADS=1 $REPRO dropless BENCH_compute.json \
    | tee "$TRACE_DIR/dropless_s0t1.txt" | grep "dropless digest"
TUTEL_SIMD=0 TUTEL_THREADS=4 $REPRO dropless --digest-only > "$TRACE_DIR/dropless_s0t4.txt"
TUTEL_SIMD=1 TUTEL_THREADS=1 $REPRO dropless --digest-only > "$TRACE_DIR/dropless_s1t1.txt"
TUTEL_SIMD=1 TUTEL_THREADS=4 $REPRO dropless --digest-only > "$TRACE_DIR/dropless_s1t4.txt"
DREF=$(grep "dropless digest" "$TRACE_DIR/dropless_s0t1.txt")
pinned "$DREF"
for cell in s0t4 s1t1 s1t4; do
    DGOT=$(grep "dropless digest" "$TRACE_DIR/dropless_$cell.txt")
    if [ "$DREF" != "$DGOT" ]; then
        echo "dropless digest diverged at $cell: '$DREF' vs '$DGOT'" >&2
        exit 1
    fi
done

echo "==> tutel-check: workspace lint (any diagnostic fails)"
cargo run --release -q -p tutel-check

echo "==> tutel-check: deterministic concurrency sweep (fixed seeds) vs repro_output.txt"
# The sweep's stdout (schedule counts, distinct signatures, the
# selftest's first failing seed) is a pure function of the seeds, so,
# as for the model-only transcripts above, every non-empty line must
# be a verbatim line of repro_output.txt: a change to the scheduler,
# or to the rank threads it runs on, that moves one schedule fails
# here.
cargo run --release -q -p tutel-check -- --sched --seeds 128 > "$TRACE_DIR/sched.txt"
if [ ! -s "$TRACE_DIR/sched.txt" ]; then
    echo "tutel-check --sched printed nothing" >&2
    exit 1
fi
if grep . "$TRACE_DIR/sched.txt" | grep -vxFf repro_output.txt >&2; then
    echo "tutel-check --sched: the lines above are not in repro_output.txt" >&2
    exit 1
fi

echo "==> tutel-check: happens-before race sweep at TUTEL_THREADS=1 and =4"
# 128 seeded schedules over the combined overlap+pool+comm surface,
# plus the three planted-bug selftests (each must be caught and its
# seed must replay). The pool width changes which thread ids appear in
# the real-arena selftests, so both widths are swept.
TUTEL_THREADS=1 cargo run --release -q -p tutel-check -- --race --seeds 128
TUTEL_THREADS=4 cargo run --release -q -p tutel-check -- --race --seeds 128

echo "ci.sh: all gates green"
