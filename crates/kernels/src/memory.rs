//! Memory accounting for encode/decode, reproducing Table 4 of the
//! paper (GPU memory cost of a single MoE layer: Fairseq vs Tutel).
//!
//! The dense path materializes per-token one-hot tensors whose size
//! scales with `T · E · ΔC` — with `ΔC = k·f·T/E` that is `O(k·f·T²)`,
//! which is why Fairseq's footprint explodes super-linearly in
//! tokens/step (3.7 GiB at 4 Ki tokens → 57.9 GiB at 32 Ki) while
//! Tutel's stays `O(T·k·M)`.

use std::fmt;

/// Static model settings for the memory accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySettings {
    /// Tokens per step (`T`).
    pub tokens: usize,
    /// Global experts (`E`).
    pub experts: usize,
    /// Model dimension (`M`).
    pub model_dim: usize,
    /// Hidden dimension of the expert FFN (`V`).
    pub hidden_dim: usize,
    /// Top-k.
    pub k: usize,
    /// Capacity factor.
    pub capacity_factor: f64,
    /// Local experts per GPU (`ΔE`).
    pub local_experts: usize,
}

impl MemorySettings {
    /// The Table 4 static setting: `M = V = 4096`, top-2, `ΔE = 2`,
    /// `E = 64` global experts (32 GPUs × 2 local experts).
    pub fn table4(tokens: usize) -> Self {
        MemorySettings {
            tokens,
            experts: 64,
            model_dim: 4096,
            hidden_dim: 4096,
            k: 2,
            capacity_factor: 1.0,
            local_experts: 2,
        }
    }

    /// Expert capacity `ΔC` per Equation 1.
    pub fn capacity(&self) -> usize {
        tutel_gate::expert_capacity(self.k, self.capacity_factor, self.tokens, self.experts)
    }
}

const F32: u64 = 4;

/// Accounts the activation memory of one forward pass of a Fairseq-style
/// MoE layer (dense einsum encode/decode of Figure 18a).
pub fn fairseq_layer_memory(s: &MemorySettings) -> MemoryMeter {
    let mut mem = MemoryMeter::new();
    let (t, e, cap, m, v) = dims(s);
    common_activations(&mut mem, s);
    // Dense one-hot locations (T, ΔC) and combine weights (T, E, ΔC),
    // kept for the backward pass, plus the boolean dispatch mask of the
    // same shape (Figure 18a lines 8–12).
    mem.alloc("dense_locations_onehot", t * cap * F32);
    mem.alloc("dense_combine_weights", t * e * cap * F32);
    mem.alloc("dense_dispatch_mask", t * e * cap * F32);
    // The einsum's materialized intermediate for backward.
    mem.alloc("dense_einsum_saved", t * e * cap * F32);
    // Dispatched input and expert activations.
    mem.alloc("dispatch_input", e * cap * m * F32);
    mem.alloc("expert_hidden", e * cap * v * F32);
    mem.alloc("expert_output", e * cap * m * F32);
    mem
}

/// Accounts the activation memory of one forward pass of a Tutel MoE
/// layer (sparse fast encode/decode of Figure 18b).
pub fn tutel_layer_memory(s: &MemorySettings) -> MemoryMeter {
    let mut mem = MemoryMeter::new();
    let (_t, e, cap, m, v) = dims(s);
    let t = s.tokens as u64;
    common_activations(&mut mem, s);
    // Sparse bookkeeping: indices, locations, gates — O(T·k) scalars.
    mem.alloc("sparse_idxs", t * s.k as u64 * F32);
    mem.alloc("sparse_locations", t * s.k as u64 * F32);
    mem.alloc("sparse_gates", t * s.k as u64 * F32);
    // Dispatched input and expert activations (same as dense).
    mem.alloc("dispatch_input", e * cap * m * F32);
    mem.alloc("expert_hidden", e * cap * v * F32);
    mem.alloc("expert_output", e * cap * m * F32);
    mem
}

fn dims(s: &MemorySettings) -> (u64, u64, u64, u64, u64) {
    (
        s.tokens as u64,
        s.experts as u64,
        s.capacity() as u64,
        s.model_dim as u64,
        s.hidden_dim as u64,
    )
}

/// Allocations both implementations share: layer input/output, gate
/// logits/probabilities, local expert weights.
fn common_activations(mem: &mut MemoryMeter, s: &MemorySettings) {
    let (t, e, _cap, m, v) = dims(s);
    mem.alloc("layer_input", t * m * F32);
    mem.alloc("gate_logits", t * e * F32);
    mem.alloc("gate_probs", t * e * F32);
    mem.alloc("layer_output", t * m * F32);
    mem.alloc("expert_weights", s.local_experts as u64 * 2 * m * v * F32);
}

/// Tracks simulated device memory usage (current and peak).
///
/// Used to reproduce the paper's Table 4 (GPU memory cost of a single
/// MoE layer: Fairseq's dense dispatch tensors vs Tutel's sparse
/// encode), without a real allocator: producers call [`MemoryMeter::alloc`]
/// for every tensor they would materialize on device and
/// [`MemoryMeter::free`] when it dies.
///
/// # Example
///
/// ```
/// use tutel_kernels::memory::MemoryMeter;
///
/// let mut mem = MemoryMeter::new();
/// mem.alloc("activations", 1 << 20);
/// mem.alloc("weights", 1 << 22);
/// mem.free(1 << 20);
/// assert_eq!(mem.current_bytes(), 1 << 22);
/// assert_eq!(mem.peak_bytes(), (1 << 20) + (1 << 22));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryMeter {
    current: u64,
    peak: u64,
    allocations: Vec<(String, u64)>,
}

impl MemoryMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        MemoryMeter::default()
    }

    /// Records an allocation of `bytes`, labeled for breakdowns.
    pub fn alloc(&mut self, label: &str, bytes: u64) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
        self.allocations.push((label.to_string(), bytes));
    }

    /// Records a free of `bytes` (saturating at zero).
    pub fn free(&mut self, bytes: u64) {
        self.current = self.current.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> u64 {
        self.current
    }

    /// High-water mark.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Peak usage in GiB.
    pub fn peak_gib(&self) -> f64 {
        self.peak as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// All recorded allocations `(label, bytes)` in order.
    pub fn allocations(&self) -> &[(String, u64)] {
        &self.allocations
    }

    /// Sum of allocations whose label contains `substr`.
    pub fn total_for(&self, substr: &str) -> u64 {
        self.allocations
            .iter()
            .filter(|(l, _)| l.contains(substr))
            .map(|(_, b)| *b)
            .sum()
    }
}

impl fmt::Display for MemoryMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory: current {:.3} GiB, peak {:.3} GiB ({} allocations)",
            self.current as f64 / (1024.0 * 1024.0 * 1024.0),
            self.peak_gib(),
            self.allocations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tutel_uses_less_memory_everywhere() {
        for tokens in [4096, 8192, 16384, 32768] {
            let s = MemorySettings::table4(tokens);
            let fair = fairseq_layer_memory(&s).peak_bytes();
            let tut = tutel_layer_memory(&s).peak_bytes();
            assert!(tut < fair, "tokens {tokens}: tutel {tut} vs fairseq {fair}");
        }
    }

    #[test]
    fn saving_grows_with_tokens_per_step() {
        // Table 4: −21.6 % at 4 Ki tokens growing to −90.2 % at 32 Ki.
        let save = |tokens: usize| {
            let s = MemorySettings::table4(tokens);
            let fair = fairseq_layer_memory(&s).peak_bytes() as f64;
            let tut = tutel_layer_memory(&s).peak_bytes() as f64;
            1.0 - tut / fair
        };
        let s4k = save(4096);
        let s32k = save(32768);
        assert!(s4k > 0.05 && s4k < 0.6, "4k saving {s4k}");
        assert!(s32k > 0.6, "32k saving {s32k}");
        assert!(s32k > s4k);
    }

    #[test]
    fn dense_overhead_is_superlinear_in_tokens() {
        let extra = |tokens: usize| {
            let s = MemorySettings::table4(tokens);
            fairseq_layer_memory(&s).total_for("dense") as f64
        };
        // Doubling T should more than double the dense bookkeeping
        // (ΔC also grows with T at fixed E-scaling).
        assert!(extra(16384) > 2.5 * extra(8192));
    }

    #[test]
    fn capacity_matches_equation1() {
        let s = MemorySettings::table4(16384);
        // E = 64, k = 2, f = 1: ΔC = 2·16384/64 = 512.
        assert_eq!(s.capacity(), 512);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryMeter::new();
        m.alloc("a", 100);
        m.alloc("b", 50);
        m.free(120);
        m.alloc("c", 10);
        assert_eq!(m.current_bytes(), 40);
        assert_eq!(m.peak_bytes(), 150);
    }

    #[test]
    fn free_saturates() {
        let mut m = MemoryMeter::new();
        m.alloc("a", 10);
        m.free(100);
        assert_eq!(m.current_bytes(), 0);
    }

    #[test]
    fn label_totals() {
        let mut m = MemoryMeter::new();
        m.alloc("dispatch_input", 64);
        m.alloc("dispatch_mask", 32);
        m.alloc("weights", 8);
        assert_eq!(m.total_for("dispatch"), 96);
        assert_eq!(m.total_for("weights"), 8);
        assert_eq!(m.total_for("nothing"), 0);
    }
}
