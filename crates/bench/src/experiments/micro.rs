//! Micro-benchmarks: Table 1 (All-to-All overhead ratio), Figure 6
//! (bandwidth curves), Figure 7 (rigid-layout GEMM regression),
//! Figure 10 (expert throughput by layout), Figure 20 (linear vs 2DH
//! scaling), Figure 21 (NCCL vs MSCCL 2DH), Table 4 (memory).

use tutel::cost::{A2aImpl, ClusterModel, GpuCostModel, LinkModel, Protocol};
use tutel::pipeline::LayerDims;
use tutel_comm::AllToAllAlgo;
use tutel_kernels::memory::{fairseq_layer_memory, tutel_layer_memory, MemorySettings};

use crate::report::{fmt_bytes, fmt_pct, fmt_speedup, fmt_time};
use crate::Table;

const MIB: f64 = 1024.0 * 1024.0;

/// Table 1: All-to-All overhead ratio and potential speedup from full
/// overlap, in the typical MoE setting (Figure 23 dims, dense-kernel
/// baseline as the computation).
pub fn table1() -> Table {
    let dims = LayerDims::figure23();
    let mut t = Table::new(
        "Table 1: All-to-All overhead and potential overlap speedup",
        &[
            "GPUs",
            "MoE (ms)",
            "Comp (ms)",
            "A2A (ms)",
            "A2A ratio",
            "Potential speedup",
        ],
    );
    for w in [16usize, 64, 256] {
        let cluster = ClusterModel::azure(w);
        let gpu = cluster.gpu();
        let e = w * dims.local_experts;
        let dc = (dims.expert_rows() / e).max(1);
        // Computation: gate + dense encode/decode + expert GEMM (the
        // pre-Tutel baseline this table profiles).
        let comp = gpu.gate_time(dims.tokens, e)
            + 2.0 * gpu.dense_encode_time(dims.tokens, e, dc, dims.model_dim)
            + gpu.gemm_time(
                dims.local_experts,
                dims.expert_rows() / dims.local_experts,
                dims.model_dim,
                dims.hidden_dim,
            )
            + gpu.gemm_time(
                dims.local_experts,
                dims.expert_rows() / dims.local_experts,
                dims.hidden_dim,
                dims.model_dim,
            );
        let a2a = 2.0 * cluster.linear_time(dims.a2a_bytes(), Protocol::Simple);
        let total = comp + a2a;
        let ratio = a2a / total;
        let overlapped = comp.max(a2a);
        t.row(&[
            w.to_string(),
            format!("{:.1}", total * 1e3),
            format!("{:.1}", comp * 1e3),
            format!("{:.1}", a2a * 1e3),
            fmt_pct(ratio),
            fmt_speedup(total / overlapped),
        ]);
    }
    t
}

/// Figure 6a: effective point-to-point bandwidth vs message size over
/// HDR InfiniBand (the ib_write_bw curve).
pub fn fig6a() -> Table {
    let ib = LinkModel::hdr_infiniband();
    let mut t = Table::new(
        "Figure 6a: GPUDirect RDMA effective bandwidth vs message size (HDR IB)",
        &["Msg size", "Eff. bandwidth (GB/s)", "Fraction of peak"],
    );
    let mut size = 1024.0;
    while size <= 16.0 * 1024.0 * MIB {
        let bw = ib.effective_bandwidth(size, Protocol::Simple);
        t.row(&[
            fmt_bytes(size),
            format!("{:.2}", bw / 1e9),
            fmt_pct(bw / ib.bandwidth),
        ]);
        size *= 8.0;
    }
    t
}

/// Figure 6b: All-to-All bus bandwidth (linear algorithm) vs scale.
pub fn fig6b() -> Table {
    let mut t = Table::new(
        "Figure 6b: linear All-to-All bus bandwidth vs scale (nccl-tests metric)",
        &[
            "GPUs",
            "busbw @1MiB (GB/s)",
            "busbw @32MiB (GB/s)",
            "busbw @256MiB (GB/s)",
        ],
    );
    for w in [64usize, 128, 256, 512, 1024, 2048] {
        let cluster = ClusterModel::azure(w);
        let bw = |s: f64| {
            format!(
                "{:.2}",
                cluster.bus_bandwidth(AllToAllAlgo::Linear, s, Protocol::Simple) / 1e9
            )
        };
        t.row(&[w.to_string(), bw(MIB), bw(32.0 * MIB), bw(256.0 * MIB)]);
    }
    t
}

/// Figure 7: fflayer elapsed time under the rigid All-to-All layout as
/// the world grows (ΔE = 1, M = V = 2048, f = 1, tokens/step = 16384).
pub fn fig7() -> Table {
    let gpu = GpuCostModel::a100();
    let (tokens, m, v) = (16384usize, 2048usize, 2048usize);
    let mut t = Table::new(
        "Figure 7: rigid-layout fflayer time vs #GPUs (DeepSpeed regression)",
        &["GPUs", "bgemm shape", "Time (ms)", "Slowdown vs 1 GPU"],
    );
    let base = gpu.gemm_time(1, tokens, m, v) + gpu.gemm_time(1, tokens, v, m);
    for w in [1usize, 8, 64, 256, 1024, 2048] {
        let rows = (tokens / w).max(1);
        let time = gpu.gemm_time(w, rows, m, v) + gpu.gemm_time(w, rows, v, m);
        t.row(&[
            w.to_string(),
            format!("B({w}, 1, {rows}, {m})"),
            format!("{:.2}", time * 1e3),
            fmt_speedup(time / base),
        ]);
    }
    t
}

/// Figure 10: expert computation throughput under the rigid All-to-All
/// layout vs the Flexible All-to-All layout, across scale.
pub fn fig10() -> Table {
    let gpu = GpuCostModel::a100();
    let dims = LayerDims::figure23();
    let mut t = Table::new(
        "Figure 10: expert throughput, rigid A2A layout vs Flexible A2A layout",
        &["GPUs", "Rigid (TFLOP/s)", "Flexible (TFLOP/s)", "Flex gain"],
    );
    let rows_total = dims.expert_rows();
    let flops = 2.0 * rows_total as f64 * dims.model_dim as f64 * dims.hidden_dim as f64 * 2.0;
    for w in [16usize, 64, 256, 1024, 2048] {
        let de = dims.local_experts;
        let rigid_rows = (rows_total / (w * de)).max(1);
        let rigid = gpu.gemm_time(w * de, rigid_rows, dims.model_dim, dims.hidden_dim)
            + gpu.gemm_time(w * de, rigid_rows, dims.hidden_dim, dims.model_dim);
        let flex_rows = rows_total / de;
        let flex = gpu.gemm_time(de, flex_rows, dims.model_dim, dims.hidden_dim)
            + gpu.gemm_time(de, flex_rows, dims.hidden_dim, dims.model_dim);
        t.row(&[
            w.to_string(),
            format!("{:.1}", flops / rigid / 1e12),
            format!("{:.1}", flops / flex / 1e12),
            fmt_speedup(rigid / flex),
        ]);
    }
    t
}

/// Figure 20: All-to-All latency, linear vs 2DH, across scale and
/// message size.
pub fn fig20() -> Table {
    let mut t = Table::new(
        "Figure 20: All-to-All latency, linear vs 2DH (NCCL impl)",
        &["GPUs", "Size", "Linear", "2DH", "2DH speedup"],
    );
    for w in [64usize, 256, 1024, 2048, 4096] {
        let cluster = ClusterModel::azure(w);
        for s in [MIB, 32.0 * MIB, 256.0 * MIB] {
            let linear = cluster.linear_time(s, Protocol::Simple);
            let two_dh = cluster.two_dh_time_impl(s, Protocol::Simple, A2aImpl::NcclApi);
            t.row(&[
                w.to_string(),
                fmt_bytes(s),
                fmt_time(linear),
                fmt_time(two_dh),
                fmt_speedup(linear / two_dh),
            ]);
        }
    }
    t
}

/// Figure 21: 2DH All-to-All, NCCL-API implementation vs
/// MSCCL-optimized (with per-size protocol choice), at 64 GPUs.
pub fn fig21() -> Table {
    let cluster = ClusterModel::azure(64);
    let mut t = Table::new(
        "Figure 21: 2DH implementation comparison at 64 GPUs",
        &[
            "Size",
            "Linear (NCCL)",
            "2DH (NCCL)",
            "2DH (MSCCL Simple)",
            "2DH (MSCCL LL128)",
            "Best",
        ],
    );
    for s in [MIB, 32.0 * MIB, 256.0 * MIB] {
        let linear = cluster.linear_time(s, Protocol::Simple);
        let nccl = cluster.two_dh_time_impl(s, Protocol::Simple, A2aImpl::NcclApi);
        let simple = cluster.two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl);
        let ll128 = cluster.two_dh_time_impl(s, Protocol::Ll128, A2aImpl::Msccl);
        let best = if ll128 < simple { "LL128" } else { "Simple" };
        t.row(&[
            fmt_bytes(s),
            fmt_time(linear),
            fmt_time(nccl),
            fmt_time(simple),
            fmt_time(ll128),
            best.to_string(),
        ]);
    }
    t
}

/// Table 4: GPU memory cost of a single MoE layer, Fairseq vs Tutel.
pub fn table4() -> Table {
    let mut t = Table::new(
        "Table 4: MoE layer memory (M = V = 4096, top-2, dE = 2, E = 64)",
        &["tokens/step", "Fairseq (GiB)", "Tutel (GiB)", "Saving"],
    );
    for tokens in [4096usize, 8192, 16384, 32768] {
        let s = MemorySettings::table4(tokens);
        let fair = fairseq_layer_memory(&s).peak_gib();
        let tut = tutel_layer_memory(&s).peak_gib();
        t.row(&[
            tokens.to_string(),
            format!("{fair:.2}"),
            format!("{tut:.2}"),
            format!("-{:.1}%", (1.0 - tut / fair) * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ratio_grows_with_scale() {
        let t = table1();
        assert_eq!(t.len(), 3);
        let text = t.render();
        assert!(text.contains("16"));
    }

    #[test]
    fn fig7_shows_large_slowdown_at_2048() {
        let text = fig7().render();
        // Last row must show a multi-x slowdown.
        let last = text.lines().last().unwrap();
        assert!(last.contains("2048"));
        let x: f64 = last
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(x > 5.0, "slowdown {x}");
    }

    #[test]
    fn fig20_2dh_wins_small_sizes_at_scale() {
        let t = fig20();
        assert_eq!(t.len(), 15);
    }

    #[test]
    fn all_micro_tables_render() {
        for t in [
            table1(),
            fig6a(),
            fig6b(),
            fig7(),
            fig10(),
            fig20(),
            fig21(),
            table4(),
        ] {
            assert!(!t.is_empty());
            assert!(!t.render().is_empty());
        }
    }
}
