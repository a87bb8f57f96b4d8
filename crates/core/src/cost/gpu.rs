use super::{calib, Seconds};

/// Analytic cost model of one simulated GPU's kernels.
///
/// Encodes the shape-dependent efficiencies the paper measures:
///
/// * **GEMM row efficiency** (Figure 7): a batched GEMM whose per-batch
///   row count is tiny (e.g. `(2048, ΔE, 8, M)` after a rigid All-to-All
///   at 2,048 GPUs) achieves a small fraction of peak throughput. This
///   is the regression Flexible All-to-All removes.
/// * **Encode/decode cost** (Section 4.2): the dense GShard einsum does
///   `O(T·E·ΔC·M)` work, the sparse Tutel kernels `O(T·k·M)`.
///
/// # Example
///
/// ```
/// use tutel::cost::GpuCostModel;
///
/// let cost = GpuCostModel::a100();
/// // Rigid layout at 2,048 GPUs: rows per batch collapse to 8.
/// let rigid = cost.gemm_time(2048, 8, 2048, 2048);
/// // Flexible layout keeps rows = 16384 regardless of scale.
/// let flex = cost.gemm_time(1, 16384, 2048, 2048);
/// assert!(rigid / flex > 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCostModel {
    /// Peak GEMM throughput at ideal shapes, FLOP/s.
    pub gemm_peak_flops: f64,
    /// Half-saturation row count of the GEMM efficiency curve.
    pub gemm_rows_half: f64,
    /// Per-kernel launch overhead, seconds.
    pub launch_overhead: Seconds,
    /// Contiguous device-copy bandwidth, bytes/s.
    pub copy_bandwidth: f64,
    /// Sparse encode/decode throughput, elements/s.
    pub sparse_encode_rate: f64,
    /// Dense einsum encode/decode throughput, useful elements/s.
    pub dense_encode_rate: f64,
    /// Gating cost, seconds per token per global expert.
    pub gate_cost: f64,
}

impl GpuCostModel {
    /// The calibrated A100 SXM 80 GB model used throughout the benches.
    pub fn a100() -> Self {
        GpuCostModel {
            gemm_peak_flops: calib::GEMM_PEAK_FLOPS,
            gemm_rows_half: calib::GEMM_ROWS_HALF,
            launch_overhead: calib::GEMM_LAUNCH_OVERHEAD,
            copy_bandwidth: calib::HBM_COPY_BW,
            sparse_encode_rate: calib::SPARSE_ENCODE_ELEMS_PER_SEC,
            dense_encode_rate: calib::DENSE_ENCODE_ELEMS_PER_SEC,
            gate_cost: calib::GATE_COST_PER_TOKEN_EXPERT,
        }
    }

    /// Efficiency (0, 1] of a GEMM whose per-batch row dimension is
    /// `rows`: `rows / (rows + rows_half)`, normalized so that very tall
    /// GEMMs approach 1.
    pub fn gemm_row_efficiency(&self, rows: usize) -> f64 {
        let r = rows.max(1) as f64;
        r / (r + self.gemm_rows_half)
    }

    /// Time of a strided batched GEMM `(batch, rows, k) × (batch, k, cols)`.
    ///
    /// This is the cost of `bgemm_strided_batched`, the expert fflayer
    /// primitive; `batch = W·ΔE` under the rigid All-to-All layout and
    /// `batch = ΔE` under the flexible layout.
    pub fn gemm_time(&self, batch: usize, rows: usize, k: usize, cols: usize) -> Seconds {
        let flops = 2.0 * batch as f64 * rows as f64 * k as f64 * cols as f64;
        let eff = self.gemm_row_efficiency(rows);
        self.launch_overhead + flops / (self.gemm_peak_flops * eff)
    }

    /// Time to copy `bytes` contiguously on-device.
    pub fn copy_time(&self, bytes: f64) -> Seconds {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.launch_overhead + bytes / self.copy_bandwidth
    }

    /// Time of the sparse (Tutel) encode or decode over `tokens` tokens,
    /// `k` experts per token, model dimension `m`: `O(T·k·M)` elements.
    pub fn sparse_encode_time(&self, tokens: usize, k: usize, m: usize) -> Seconds {
        let elems = tokens as f64 * k as f64 * m as f64;
        self.launch_overhead + elems / self.sparse_encode_rate
    }

    /// Time of the dense (GShard/Fairseq) encode or decode:
    /// `O(T·E·ΔC·M)` elements pushed through the einsum.
    pub fn dense_encode_time(
        &self,
        tokens: usize,
        experts: usize,
        capacity: usize,
        m: usize,
    ) -> Seconds {
        let elems = tokens as f64 * experts as f64 * capacity as f64 * m as f64;
        self.launch_overhead + elems / self.dense_encode_rate
    }

    /// Gating function cost for `tokens` tokens over `experts` global
    /// experts (softmax + top-k + locations).
    pub fn gate_time(&self, tokens: usize, experts: usize) -> Seconds {
        self.launch_overhead + tokens as f64 * experts as f64 * self.gate_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_row_efficiency_reproduces_figure7_anchor() {
        let cost = GpuCostModel::a100();
        // Paper: rows=8 layout achieves 8.8 % of rows=16384 throughput.
        let ratio = cost.gemm_row_efficiency(8) / cost.gemm_row_efficiency(16384);
        assert!((ratio - 0.088).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn gemm_time_preserves_flops_at_equal_shape() {
        let cost = GpuCostModel::a100();
        // Same total FLOPs, same rows → same time regardless of batching.
        let a = cost.gemm_time(4, 256, 512, 512);
        let b = cost.gemm_time(8, 256, 512, 256);
        assert!((a - b).abs() / a < 1e-9);
    }

    #[test]
    fn figure7_scale_regression_shape() {
        // DeepSpeed fflayer: 11.3× slowdown from 1 GPU to 2,048 GPUs at
        // fixed total work (Figure 7). Our model:
        let cost = GpuCostModel::a100();
        let t1 = cost.gemm_time(1, 16384, 2048, 2048);
        let t2048 = cost.gemm_time(2048, 8, 2048, 2048);
        let slowdown = t2048 / t1;
        assert!(slowdown > 6.0 && slowdown < 20.0, "slowdown = {slowdown}");
    }

    #[test]
    fn sparse_encode_is_cheaper_than_dense() {
        let cost = GpuCostModel::a100();
        // T = 16384 tokens, E = 64, ΔC = k·f·T/E with k=2,f=1 → 512.
        let dense = cost.dense_encode_time(16384, 64, 512, 2048);
        let sparse = cost.sparse_encode_time(16384, 2, 2048);
        // The index-space ratio is T = 16384; the dense einsum's tensor
        // cores claw back much of it, but a large gap must remain.
        assert!(dense / sparse > 20.0, "dense/sparse = {}", dense / sparse);
    }

    #[test]
    fn zero_byte_copies_are_free() {
        assert_eq!(GpuCostModel::a100().copy_time(0.0), 0.0);
    }
}
