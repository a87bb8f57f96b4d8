//! Calibration constants of the modelled A100 cluster.
//!
//! Each constant is anchored to a measurement published in the Tutel
//! paper (or a public A100/HDR spec); the anchor is cited next to the
//! constant. Changing a constant shifts absolute numbers but the bench
//! harness only claims *shape* fidelity (orderings, crossover locations,
//! rough ratios), which is robust to modest calibration error.

/// Peak dense GEMM throughput, FLOP/s.
///
/// Anchor: A100 BF16 tensor-core peak is 312 TFLOP/s; sustained
/// large-GEMM efficiency on cuBLAS is ~55–65 %, so we use 180 TFLOP/s as
/// the best-shape ceiling.
pub const GEMM_PEAK_FLOPS: f64 = 180e12;

/// Half-saturation row count for GEMM efficiency.
///
/// Anchor: Figure 7 / Section 2.4 — `bgemm_strided_batched` with input
/// `B(2048, ΔE, 8, M)` achieves only 8.8 % of the throughput of
/// `A(1, ΔE, 16384, M)`. With eff(rows) = rows / (rows + H), H = 83
/// yields eff(8)/eff(16384) ≈ 0.088.
pub const GEMM_ROWS_HALF: f64 = 83.0;

/// Fixed launch overhead per GEMM kernel, seconds.
pub const GEMM_LAUNCH_OVERHEAD: f64 = 6e-6;

/// Device memory copy bandwidth for large contiguous copies, bytes/s.
///
/// Anchor: A100 80 GB HBM2e peak is ~2.0 TB/s; a copy reads and writes,
/// so effective copy throughput tops out near 1.0 TB/s.
pub const HBM_COPY_BW: f64 = 1.0e12;

/// NVLink (3rd gen, NVSwitch) per-GPU unidirectional bandwidth usable by
/// a collective, bytes/s.
///
/// Anchor: nccl-tests intra-node All-to-All bus bandwidth on NDm A100 v4
/// plateaus near 230 GB/s.
pub const NVLINK_BW: f64 = 230e9;

/// Per-operation base latency on NVLink, seconds.
pub const NVLINK_ALPHA: f64 = 4e-6;

/// Half-saturation message size on NVLink, bytes.
pub const NVLINK_MSG_HALF: f64 = 64.0 * 1024.0;

/// HDR InfiniBand per-GPU unidirectional bandwidth, bytes/s.
///
/// Anchor: 200 Gb/s HDR ≈ 25 GB/s line rate; ib_write_bw (Figure 6a)
/// sustains ~23 GB/s at large message sizes.
pub const IB_BW: f64 = 23e9;

/// Per-operation base latency over InfiniBand, seconds.
pub const IB_ALPHA: f64 = 12e-6;

/// Per-message (per peer) send/receive overhead over InfiniBand with the
/// default (Simple) protocol, seconds.
///
/// Anchor: Figure 6a — ib_write_bw with TX depth 8 only saturates above
/// ~1 MiB messages; a ~3 µs per-message cost reproduces the knee and the
/// linear-All-to-All collapse at 2,048 GPUs (Figure 20).
pub const IB_MSG_OVERHEAD_SIMPLE: f64 = 3e-6;

/// Per-message overhead with the LL128 protocol, seconds.
///
/// Anchor: Figure 21 — LL128 wins on 1–32 MiB sizes (lower latency) and
/// loses slightly at 256 MiB (bandwidth capped at 120/128 ≈ 93.75 %).
pub const IB_MSG_OVERHEAD_LL128: f64 = 1e-6;

/// Bandwidth fraction retained by the LL128 protocol.
pub const LL128_BW_FRACTION: f64 = 0.9375;

/// Half-saturation message size over InfiniBand, bytes.
///
/// Anchor: Figure 6a shape — half of peak write bandwidth is reached
/// around 256 KiB with TX depth 8.
pub const IB_MSG_HALF: f64 = 256.0 * 1024.0;

/// Fabric contention exponent: effective inter-node bandwidth decays as
/// `nnodes^-CONTENTION_EXP` beyond one switch tier.
///
/// Anchor: Figure 6b — All-to-All bus bandwidth in nccl-tests drops
/// noticeably from 64 to 2,048 GPUs even at large sizes on a
/// "non-blocking" fabric due to adaptive-routing imperfection.
pub const FABRIC_CONTENTION_EXP: f64 = 0.08;

/// Compute-side slowdown factor while a communication kernel runs
/// concurrently on the same GPU.
///
/// Anchor: Section 2.3 — "the slowdown from running NCCL kernels
/// concurrently with computation kernels on the same GPU is difficult to
/// estimate"; measured MoE overlap studies put it at 10–25 %. The
/// per-algorithm asymmetry (2DH touches memory harder during its local
/// phases) is what makes joint comm+compute adaptation necessary.
pub const OVERLAP_COMPUTE_INFLATION: f64 = 1.12;

/// Communication-side slowdown while compute runs, for the linear
/// All-to-All (P2P copies compete with compute for SM time).
pub const OVERLAP_COMM_INFLATION_LINEAR: f64 = 1.22;

/// Communication-side slowdown while compute runs, for 2DH All-to-All
/// (strided local copies compete for HBM bandwidth instead).
pub const OVERLAP_COMM_INFLATION_2DH: f64 = 1.10;

/// Fixed cost of a stream synchronization barrier, seconds.
pub const BARRIER_OVERHEAD: f64 = 5e-6;

/// Per-phase synchronization overhead of the NCCL-API 2DH implementation
/// (Algorithm 3), removed by the MSCCL fused implementation.
///
/// Anchor: Section 4.3 — "Implementation using NCCL APIs requires extra
/// synchronization barriers between different phases ... and may cause
/// throughput degradation".
pub const TWO_DH_PHASE_BARRIER: f64 = 20e-6;

/// Throughput of the sparse (Tutel) encode/decode kernels, elements/s.
///
/// Anchor: Figure 24 — Tutel's fused SIMT kernels move one `M`-length
/// row per warp; effective throughput is HBM-bound.
pub const SPARSE_ENCODE_ELEMS_PER_SEC: f64 = 120e9;

/// Throughput of the dense (GShard/Fairseq einsum) encode/decode,
/// elements of the `T·E·ΔC·M` index space per second.
///
/// Anchor: Section 4.2 — the dense path does `O(T · E · ΔC · M)` work
/// versus sparse `O(T · k · M)` (a factor of `T` more, since
/// `E·ΔC = T·k` at `f = 1`). The einsum runs on tensor cores, so the
/// per-element rate is high (~¼ of GEMM peak in multiply-adds), but
/// almost all of it is spent on zeros. Calibrated so the Figure 23
/// anchor holds: Tutel kernels give ≈3.5× layer speedup at 16 GPUs.
pub const DENSE_ENCODE_ELEMS_PER_SEC: f64 = 5e13;

/// Per-token gating function cost, seconds per token per expert.
///
/// Anchor: Figure 23 curve (6) — computation overhead grows slightly
/// with scale because gating cost scales with the number of global
/// experts.
pub const GATE_COST_PER_TOKEN_EXPERT: f64 = 2.2e-11;
