//! Runtime CPU-feature kernel dispatch: the **only** module in the
//! workspace allowed to touch `is_x86_feature_detected!` or
//! `#[target_feature]` (the `kernel_dispatch` lint enforces this).
//!
//! # Design
//!
//! CPU features are detected **once** (a `OnceLock`) and resolved into
//! one of three static [`KernelTable`]s of plain function pointers:
//! scalar, AVX2, and AVX-512, whose lanewise work (GEMM tiles, GELU,
//! `exp`, divides, row copies and combines) runs 16 lanes and whose
//! reduction trees run the AVX2 eight. Each kernel is **one
//! generic body per op** over a private lane trait, instantiated per
//! lane type: `f32` for the scalar table (and every kernel's tail),
//! `__m256` for AVX2, `__m512` for AVX-512. A table entry is a
//! one-line shim that compiles the body under its table's target
//! features. Hot paths fetch the active table with [`table`] (two
//! relaxed atomic loads, no detection, no branching beyond the table
//! select) and call through the pointers; per-call feature checks
//! never happen.
//!
//! The per-token-row passes of a routed step are **row-block
//! entries**: one call per block of rows — the gate's row function
//! ([`KernelTable::softmax_rows`]) and the dispatch passes'
//! [`gather_rows`](KernelTable::gather_rows),
//! [`combine_rows`](KernelTable::combine_rows) and
//! [`dot_rows`](KernelTable::dot_rows), and the gate's backward rows
//! ([`KernelTable::softmax_grad_rows`]) — whose row loops are compiled
//! under the table's features with the row kernels inlined, instead of
//! one to five indirect calls per row. The tests hold each to
//! per-element oracles that share no code with the kernels but the
//! one-lane `exp_neg`.
//!
//! # The bitwise-SIMD contract
//!
//! Every table is **bitwise-identical** to every other, so the PR-3
//! determinism contract (results are a pure function of the problem,
//! never of the worker count) extends to the `TUTEL_SIMD` axis
//! unchanged. This falls out of four rules:
//!
//! 1. **FMA in the GEMM tiles, and only there and in the one
//!    transcendental.** Every GEMM element is a chain of fused
//!    multiply-adds from zero within a `KC` panel: step `p` is `acc ←
//!    fma(a_p, b_p, acc)`, rounded once. The lane trait's `fma` is
//!    `f32::mul_add` on one lane (exact on every host) and `vfmadd` on
//!    eight or sixteen, the same IEEE operation, so the tables still
//!    agree bit for bit; both SIMD tables are only installed on AVX2+FMA
//!    hosts, matching how real deployments ship one fat binary. The
//!    tiles' right edge is a table entry too, compiled under its table's
//!    features, so its `mul_add` is the instruction there and a libm
//!    call only in the scalar table. Every other kernel (`dot`, `axpy`,
//!    GELU's own arithmetic, the row reductions) keeps a separate
//!    multiply and add, each rounded; the one other fused body is the
//!    transcendental whose definition fuses (rule 4's `exp_neg`).
//! 2. **One body, every lane width.** Every op of the lane trait is the
//!    same IEEE (or bit) operation in each lane, at 1, 8 or 16 lanes, so
//!    a lane-parallel kernel (the micro-tile pass, `axpy`, the lanewise
//!    divide, `exp_neg`, GELU) gives every table the same bits by
//!    construction.
//! 3. **Shared reduction trees.** Horizontal reductions (dot, row max,
//!    row sum) strip-mine into [`NR`] = 8 lanes and collapse them with
//!    one fixed tree — `(l0+l4)+(l1+l5)`, `(l2+l6)+(l3+l7)`, then the
//!    pair, then the scalar tail — in *every* table. They hold a row's
//!    eight lanes in eight `f32`s or one `ymm`, never a `zmm` (16 lanes
//!    would change the tree). No GEMM reduces across lanes: `A·Bᵀ` runs
//!    the `A·B` tiles over a transposed B, so a GEMM's vector lanes run
//!    across output columns. Top-k compares unique integer keys, so any
//!    lane width finds the same maximum.
//! 4. **Transcendentals are defined here, not called.** A libm call is
//!    scalar, branchy, and defined by whichever libm the host links,
//!    so neither a SIMD lane nor another host could match it bit for
//!    bit. The one transcendental is `exp_neg`, `exp(−a)` for every `a ≥
//!    0` whose value is a normal float (`a` up to 87.33654): cephes
//!    `expf`'s method (a `1.5·2²³` shift for `k`, a Cody–Waite `ln 2`
//!    split, a degree-5 polynomial in fused steps, one add to the
//!    exponent) as one generic body like every other kernel (rule 2),
//!    `+0` above that cut (`+inf` included) and NaN for NaN, the selects
//!    a `blend` each (`blendv` on AVX2, a mask-register blend on
//!    AVX-512). No value it makes is subnormal, so no lane takes a
//!    subnormal slow path. GELU is the tanh approximation written as
//!    `x·σ(2u)` over one `exp_neg` of `a` clamped at 46; softmax's
//!    numerators are `exp_neg(max − v)`. This code is the definition on
//!    every host: it moved every GELU bit once, when it replaced a port
//!    of glibc 2.36's `tanhf`, whose `1 + tanh` cancelled to errors of
//!    up to 4.8e6 ULP near x = −5.
//!
//! Mode selection: `TUTEL_SIMD=0` forces scalar, unset or `1` uses the
//! widest table the host has (read once); [`set_simd_override`] flips
//! the mode in-process so differential harnesses can compare both
//! sides without re-exec.

use std::hint::select_unpredictable as select;
use std::ops::{Add, Div, Mul, Sub};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Rows of A per micro-tile call: every table's tiles take up to `MR`
/// rows. The AVX-512 `WIDE_TILE_COLS` tile runs a full call as one
/// 12 × 32 pass (24 `zmm` accumulators); a shorter call, and every
/// other tile, runs as [`HALF_MR`]-row passes.
pub const MR: usize = 12;
/// Rows of the register pass every SIMD tile has.
pub const HALF_MR: usize = MR / 2;
/// Columns of the scalar and AVX2 micro-tile: two [`NR`]-lane vectors,
/// so a `HALF_MR`-row pass is 12 AVX2 accumulators. Every table ends
/// its [`KernelTable::micro_tiles`] with a tile this wide.
pub const TILE_COLS: usize = 16;
/// Columns of the AVX-512 micro-tile: two 16-lane vectors, 12 `zmm`
/// accumulators per `HALF_MR` rows.
pub const WIDE_TILE_COLS: usize = 32;
/// The strip-mining width of every lane-tree reduction (eight lanes).
pub const NR: usize = 8;

/// Which kernel family the active table dispatches to, narrowest
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdMode {
    /// The kernels on plain `f32`, one lane at a time.
    Scalar,
    /// The kernels on `__m256` lanes (bitwise-identical to scalar).
    Avx2,
    /// `__m512` lanewise kernels over the AVX2 reduction trees (also
    /// bitwise-identical to scalar).
    Avx512,
}

impl SimdMode {
    /// Short label for telemetry and bench records.
    pub fn label(&self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Avx2 => "avx2",
            SimdMode::Avx512 => "avx512",
        }
    }
}

/// `out[r * n ..][..cols] += A · b` micro-tile of some width `cols`,
/// A read in place; see [`KernelTable::micro_tiles`].
pub type MicroTileFn = fn(&[f32], usize, usize, usize, &[f32], &mut [f32], usize, usize);
/// A micro-tile of any width `cols ≤ TILE_COLS`: [`MicroTileFn`]'s
/// arguments, then `cols`; see [`KernelTable::micro_edge`].
pub type MicroEdgeFn = fn(&[f32], usize, usize, usize, &[f32], &mut [f32], usize, usize, usize);
/// One row's top `idx.len()` columns and values; see
/// [`KernelTable::topk`].
pub type TopkFn = fn(&[f32], &mut [u32], &mut [f32]);
/// `out[i] += v[i]`.
pub type AddAssignFn = fn(&[f32], &mut [f32]);
/// A block of rows' softmax and top-k; see [`KernelTable::softmax_rows`].
pub type SoftmaxRowsFn = fn(&mut [f32], usize, &mut [u32], &mut [f32]);
/// Packed rows gathered from token rows; see [`KernelTable::gather_rows`].
pub type GatherRowsFn = fn(&[f32], usize, &[u32], usize, Option<&[f32]>, &mut [f32]);
/// Token rows combined from packed rows; see [`KernelTable::combine_rows`].
pub type CombineRowsFn = fn(&[f32], usize, Picks<'_>, usize, Option<&[f32]>, &mut [f32]);
/// Each assignment's row dot; see [`KernelTable::dot_rows`].
pub type DotRowsFn = fn(&[f32], &[f32], usize, Picks<'_>, usize, &mut [f32]);
/// The gate chain's backward rows; see [`KernelTable::softmax_grad_rows`].
pub type SoftmaxGradRowsFn = fn(&[f32], &[u32], &[f32], &[f32], bool, &mut [f32]);
/// In-place rounding of every element to its nearest bf16 value.
pub type Bf16RoundFn = fn(&mut [f32]);
/// GELU in place, `h[i] ← gelu(h[i])`; see [`KernelTable::gelu`].
pub type GeluFn = fn(&mut [f32], Option<(&mut [f32], &mut [f32])>);
/// `g[i] *= gelu'(pre[i])`; see [`KernelTable::gelu_backward`].
pub type GeluBackwardFn = fn(&[f32], &[f32], &mut [f32]);

/// The index that names no row: a packed slot no assignment owns, or a
/// pick the capacity clamp dropped.
pub const NO_ROW: u32 = u32::MAX;

/// The picks of a block of token rows, `k` per row in selection order,
/// as a routing record lays them out: pick `a` reads packed row
/// `offsets[expert[a]] + slot[a]`, or nothing when `slot[a]` is
/// [`NO_ROW`]. `expert` and `slot` are the block's `(rows·k)` entries;
/// `offsets` is every bin's start.
#[derive(Clone, Copy, Debug)]
pub struct Picks<'a> {
    /// Packed-row start of each bin (`E + 1` prefix sums).
    pub offsets: &'a [usize],
    /// Each pick's bin.
    pub expert: &'a [u32],
    /// Each pick's row within its bin, or [`NO_ROW`].
    pub slot: &'a [u32],
}

impl Picks<'_> {
    /// Pick `a`'s packed row, if it was granted one.
    #[inline(always)]
    fn row(&self, a: usize) -> Option<usize> {
        let slot = self.slot[a];
        (slot != NO_ROW).then(|| self.offsets[self.expert[a] as usize] + slot as usize)
    }
}

/// The resolved kernel set for one [`SimdMode`]. All pointers are
/// plain safe `fn`s; the SIMD entries wrap `#[target_feature]` bodies
/// and are only ever installed after runtime detection succeeded.
pub struct KernelTable {
    /// Which family this table belongs to.
    pub mode: SimdMode,
    /// Full-width `MR × cols` GEMM micro-tiles as `(cols, kernel)`,
    /// widest first, the last [`TILE_COLS`] wide. A kernel takes
    /// `(a, row, step, kc_len, b, out, n, mr_eff)`: A is read in place,
    /// step `p < kc_len` of row `r < mr_eff ≤ MR` at `a[r * row + p *
    /// step]` (an `A·B` tile reads rows `k` apart at step 1, an `Aᵀ·B`
    /// tile adjacent rows at step `m`); `b` holds `kc_len` rows at
    /// stride `n ≥ cols`, and the tile adds into the `mr_eff` rows of
    /// `out` at stride `n`. Register rows past `mr_eff` repeat the last
    /// row and are never stored. Each element is a chain of `kc_len`
    /// fused multiply-adds from zero in `p` order, `acc ← fma(a_p, b_p,
    /// acc)`, then the chain's sum is added to `out`: the order is the
    /// element's, not the tile's, so the tiles of every table are
    /// interchangeable bit for bit.
    pub micro_tiles: &'static [(usize, MicroTileFn)],
    /// The tile at any width `cols ≤ TILE_COLS`, one lane at a time,
    /// each element in [`micro_tiles`](Self::micro_tiles)' order: the
    /// scalar table's tile, and every table's right edge (`n %
    /// TILE_COLS` columns). Compiled under the table's features, so its
    /// fused multiply-add is one instruction there.
    pub micro_edge: MicroEdgeFn,
    /// `(row, idx, val)`: the top `idx.len()` columns of `row`, best
    /// first, and their values read back from `row` (ties and NaN as
    /// [`Tensor::topk_last`](crate::Tensor::topk_last) orders them).
    /// The scalar table runs the one-scan insertion reference; the SIMD
    /// tables run one branch-free integer-max pass per slot over the
    /// same unique keys, so every table selects the same columns.
    pub topk: TopkFn,
    /// `out += v` over equal-length slices.
    pub add_assign: AddAssignFn,
    /// The gate's row function over a block of rows: `(rows, cols, idx,
    /// val)` replaces each `(R, E = cols)` row of `rows` by its softmax —
    /// the row-max tree, `exp(v − max)` as `exp_neg(max − v)` (rule 4),
    /// the row-sum tree, a lanewise divide — and, when `idx` and `val`
    /// hold `k ≥ 1` slots per row (`(R, k)` each), writes the row's top
    /// `k` of the probabilities there as [`topk`](Self::topk) does;
    /// empty `idx` and `val` mean softmax only.
    pub softmax_rows: SoftmaxRowsFn,
    /// `(src, m, owner, k, gate, out)`: packed row `s` of `out`
    /// (`(owner.len(), m)`) is row `owner[s] / k` of `src` (`(T, m)`),
    /// copied, or `0 + gate[owner[s]] · it` lanewise when `gate` (the
    /// `(T·k)` weights) is given; zero when `owner[s]` is [`NO_ROW`].
    pub gather_rows: GatherRowsFn,
    /// `(src, m, picks, k, gate, out)`: token row `t` of `out` (`(rows,
    /// m)`, `k` picks per row) is the sum from zero, in pick order, of
    /// the packed rows of `src` (`(R, m)`) its picks name — each added
    /// lanewise as it is, or times its weight `gate[t·k + i]` (mul,
    /// then add) when `gate` (the rows' `(rows·k)` weights) is given; a
    /// dropped pick adds nothing.
    pub combine_rows: CombineRowsFn,
    /// `(y, d, m, picks, k, out)`: `out[t·k + i]` is the 8-lane-tree
    /// dot of pick `i`'s packed row of `y` (`(R, m)`) with token row `t`
    /// of `d` (`(rows, m)`), and `0` for a dropped pick.
    pub dot_rows: DotRowsFn,
    /// The gate chain's backward over a block of token rows, the mirror
    /// of [`softmax_rows`](Self::softmax_rows): `(y, picks, d_gates, aux,
    /// normalized, out)` writes each row of `out` (`(R, E)`, `E =
    /// aux.len()`) from the row's probabilities `y` (`(R, E)`), its `k`
    /// selected experts `picks` and their gate gradients `d_gates`
    /// (`(R, k)` each) and the scaled aux row: `g = 0 + aux`, the gate
    /// term `+ aux` at each pick (through normalization `g_i = v_i / Σv`
    /// when `normalized`: `s = max(Σ y_pick, 1e-9)`, `dot = Σ d·(y/s)`,
    /// `(d − dot)/s`), then the softmax backward `y ⊙ (g − ⟨y, g⟩)`.
    /// Every sum is sequential from `-0.0` (`Iterator::sum`'s start),
    /// each product rounded then added; the `⟨y, g⟩` chains of eight rows
    /// advance side by side (the SIMD tables transpose 8 × 8 blocks of
    /// products so one vector add steps every chain).
    pub softmax_grad_rows: SoftmaxGradRowsFn,
    /// In-place round-to-nearest-even to the bf16 grid
    /// ([`bf16_round_one`] per element).
    pub bf16_round: Bf16RoundFn,
    /// GELU (tanh approximation) in place: `(h, keep)` replaces each
    /// `h[i]` by `gelu(h[i])`; with `keep = Some((pre, sig))` (training)
    /// it also stores the input in `pre[i]` and `σ(2u)` in `sig[i]`,
    /// equal-length slices. Every element is `0.5·x·(1 + tanh(u))`, `u =
    /// √(2/π)·(x + 0.044715·x³)`, evaluated as `x·σ(2u)` with one
    /// `exp_neg` and one divide, the far negative tail cut to −0 (rule
    /// 4).
    pub gelu: GeluFn,
    /// `(pre, sig, g)`: `g[i] *= gelu'(pre[i])`, reading the `σ(2u)` a
    /// capturing [`gelu`](Self::gelu) stored: `gelu' = s + x·s·(1 −
    /// s)·2√(2/π)·(1 + 3·0.044715·x²)`.
    pub gelu_backward: GeluBackwardFn,
}

static SCALAR_TABLE: KernelTable = KernelTable {
    mode: SimdMode::Scalar,
    micro_tiles: &[(TILE_COLS, |a, row, step, kc_len, b, out, n, mr_eff| {
        micro_edge(ONE_LANE, a, row, step, kc_len, b, out, n, mr_eff, TILE_COLS)
    })],
    micro_edge: |a, row, step, kc_len, b, out, n, mr_eff, cols| {
        micro_edge(ONE_LANE, a, row, step, kc_len, b, out, n, mr_eff, cols)
    },
    topk: crate::ops::topk_scan,
    add_assign: |v, out| add_assign(ONE_LANE, v, out),
    softmax_rows: |rows, cols, idx, val| softmax_rows(ONE_PAIR, rows, cols, idx, val),
    gather_rows: |src, m, owner, k, gate, out| gather_rows(ONE_LANE, src, m, owner, k, gate, out),
    combine_rows: |src, m, picks, k, gate, out| combine_rows(ONE_LANE, src, m, picks, k, gate, out),
    dot_rows: |y, d, m, picks, k, out| dot_rows(ONE_LANE, y, d, m, picks, k, out),
    softmax_grad_rows: |y, picks, d_gates, aux, normalized, out| {
        softmax_grad_rows(ONE_PAIR, row_dots, y, picks, d_gates, aux, normalized, out)
    },
    bf16_round: |data| bf16_round(ONE_LANE, data),
    gelu: |h, keep| gelu(ONE_LANE, h, keep),
    gelu_backward: |pre, sig, g| gelu_backward(ONE_LANE, pre, sig, g),
};

/// `OVERRIDE` encodes [`set_simd_override`]: 0 = follow the
/// environment default, otherwise one more than the pinned
/// [`SimdMode`]'s discriminant.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Every SIMD mode the host supports, narrowest first: AVX2 needs
/// `avx2 && fma`, AVX-512 needs `avx512f && avx512dq` on top. Detected
/// once; every later call is one `OnceLock` load.
pub(crate) fn simd_modes() -> &'static [SimdMode] {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: OnceLock<&'static [SimdMode]> = OnceLock::new();
        DETECTED.get_or_init(|| {
            if !(std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            {
                &[]
            } else if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                &[SimdMode::Avx2, SimdMode::Avx512]
            } else {
                &[SimdMode::Avx2]
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[]
    }
}

/// True iff the host supports the AVX2+FMA kernel set.
pub fn simd_available() -> bool {
    !simd_modes().is_empty()
}

/// The `TUTEL_SIMD` environment default, read once: unset or any
/// value other than `"0"` enables SIMD (when available).
fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("TUTEL_SIMD").map_or(true, |v| v != "0"))
}

/// The [`OVERRIDE`] code that pins `mode`.
fn pin(mode: SimdMode) -> u8 {
    mode as u8 + 1
}

/// The [`OVERRIDE`] code for a [`set_simd_override`] argument.
fn override_code(force: Option<bool>) -> u8 {
    match force {
        None => 0,
        Some(false) => pin(SimdMode::Scalar),
        Some(true) => pin(SimdMode::Avx512),
    }
}

/// Overrides the mode in-process: `Some(true)` forces the widest SIMD
/// table the host has (scalar on hosts without AVX2+FMA), `Some(false)`
/// forces scalar, `None` reverts to the `TUTEL_SIMD` environment
/// default. Used by the differential harness to run both sides of the
/// scalar-vs-SIMD comparison in one process.
pub fn set_simd_override(force: Option<bool>) {
    OVERRIDE.store(override_code(force), Ordering::Relaxed);
}

/// Runs `f` with the SIMD override pinned to `force` (see
/// [`set_simd_override`]), restoring the previous override afterwards
/// even on panic. Mode-switching callers are serialized by a global
/// lock so concurrent switchers can't observe each other's override;
/// threads that *don't* switch are unaffected either way, because the
/// kernel tables are bitwise-identical. Not reentrant.
pub fn with_simd_mode<R>(force: Option<bool>, f: impl FnOnce() -> R) -> R {
    with_override(override_code(force), f)
}

/// [`with_simd_mode`] pinned to one table: `mode`, or the widest the
/// host has below it. The differential tests run every table the host
/// has through this.
pub fn with_kernel_mode<R>(mode: SimdMode, f: impl FnOnce() -> R) -> R {
    with_override(pin(mode), f)
}

/// Scalar, then every SIMD mode the host has: the tables a
/// differential test compares.
pub fn kernel_modes() -> impl Iterator<Item = SimdMode> {
    std::iter::once(SimdMode::Scalar).chain(simd_modes().iter().copied())
}

fn with_override<R>(code: u8, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Reset(u8);
    impl Drop for Reset {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _reset = Reset(OVERRIDE.load(Ordering::Relaxed));
    OVERRIDE.store(code, Ordering::Relaxed);
    f()
}

/// The mode the next [`table`] call resolves to: the pinned or
/// environment-selected mode, clamped to the widest the host has.
pub fn simd_mode() -> SimdMode {
    let want = match OVERRIDE.load(Ordering::Relaxed) {
        0 if env_enabled() => SimdMode::Avx512,
        0 | 1 => SimdMode::Scalar,
        2 => SimdMode::Avx2,
        _ => SimdMode::Avx512,
    };
    let widest = simd_modes().last().copied().unwrap_or(SimdMode::Scalar);
    want.min(widest)
}

/// The active kernel table. Cheap enough for per-chunk use on hot
/// paths: an atomic load, a `OnceLock` load, and a static ref — no
/// feature detection, no allocation.
pub fn table() -> &'static KernelTable {
    table_for(simd_mode())
}

/// The table of `mode`; callers pass a mode [`simd_modes`] reported.
#[cfg(target_arch = "x86_64")]
fn table_for(mode: SimdMode) -> &'static KernelTable {
    match mode {
        SimdMode::Scalar => &SCALAR_TABLE,
        SimdMode::Avx2 => &avx2::TABLE,
        SimdMode::Avx512 => &avx512::TABLE,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn table_for(_: SimdMode) -> &'static KernelTable {
    &SCALAR_TABLE
}

/// Rounds one `f32` to its nearest bf16-representable value
/// (round-to-nearest-even on the dropped 16 bits): the `bf16_round`
/// kernel on one lane.
#[inline]
pub fn bf16_round_one(v: f32) -> f32 {
    bf16_lanes(v)
}

/// Packs one `f32` into bf16 storage bits (round-to-nearest-even): the
/// high half of [`bf16_round_one`].
#[inline]
pub fn bf16_pack_one(v: f32) -> u16 {
    (bf16_round_one(v).to_bits() >> 16) as u16
}

/// The scalar maximum with `_mm256_max_ps` lane semantics
/// (`if a > b { a } else { b }`: ties, signed zeros, and NaNs all
/// resolve to `b`), so the scalar and AVX2 row-max trees agree
/// bit-for-bit on every input.
#[inline]
fn maxps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Collapses 8 accumulator lanes with the fixed reduction tree shared
/// by every horizontal sum in the workspace.
#[inline]
fn sum_lanes_tree(lanes: &[f32; NR]) -> f32 {
    let s0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let s1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    s0 + s1
}

/// Collapses 8 max lanes with the same tree shape as
/// [`sum_lanes_tree`], using [`maxps`] semantics.
#[inline]
fn max_lanes_tree(lanes: &[f32; NR]) -> f32 {
    let m0 = maxps(maxps(lanes[0], lanes[4]), maxps(lanes[1], lanes[5]));
    let m1 = maxps(maxps(lanes[2], lanes[6]), maxps(lanes[3], lanes[7]));
    maxps(m0, m1)
}

/// A micro-tile's A operand, read where it lies: step `p` of register
/// row `r` is `a[r * row + p * step]`, and the rows from `rows` on
/// repeat row `rows − 1` (their sums are computed, never stored), so a
/// short tile reads nothing past its operand. [`ARows::new`] checks the
/// largest index any row and step reach, so [`ARows::at`] does not.
struct ARows<'a, const R: usize> {
    a: &'a [f32],
    base: [usize; R],
    step: usize,
    steps: usize,
}

impl<'a, const R: usize> ARows<'a, R> {
    /// `rows ∈ 1..=R` rows of `steps` steps each.
    #[inline(always)]
    fn new(a: &'a [f32], row: usize, step: usize, steps: usize, rows: usize) -> Self {
        assert!((1..=R).contains(&rows), "micro-tile of {rows} rows");
        let r = (rows - 1).checked_mul(row);
        let p = steps.saturating_sub(1).checked_mul(step);
        let last = r.zip(p).and_then(|(r, p)| r.checked_add(p));
        let inside = steps == 0 || last.is_some_and(|i| i < a.len());
        assert!(inside, "micro-tile past its A");
        let base = std::array::from_fn(|r| r.min(rows - 1) * row);
        ARows {
            a,
            base,
            step,
            steps,
        }
    }

    /// Step `p` of register row `r`.
    #[inline(always)]
    fn at(&self, r: usize, p: usize) -> f32 {
        assert!(p < self.steps, "step past the micro-tile");
        // SAFETY: `base[r] ≤ (rows − 1) · row` and `p · step ≤ (steps −
        // 1) · step`, and `new` checked that their sum is in bounds.
        unsafe { *self.a.get_unchecked(self.base[r] + p * self.step) }
    }
}

/// Elements a `rows × cols` tile at stride `ld` spans.
fn span(rows: usize, ld: usize, cols: usize) -> usize {
    rows.checked_sub(1).map_or(0, |r| r * ld + cols)
}

/// An `mr_eff ≤ MR`-row tile as [`HALF_MR`]-row passes, `(first row,
/// rows)` each.
fn halves(mr_eff: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..mr_eff)
        .step_by(HALF_MR)
        .map(move |h| (h, HALF_MR.min(mr_eff - h)))
}

/// The `micro_edge` entry: the micro-tile at any width `cols ≤
/// TILE_COLS` on one lane, whichever lanes its table has, so the
/// bitwise contract holds on the remainder for free.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_edge<L: Lane>(
    _: L,
    a: &[f32],
    row: usize,
    step: usize,
    kc_len: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    mr_eff: usize,
    cols: usize,
) {
    assert!(cols <= TILE_COLS.min(n), "edge tile of {cols} columns");
    let a = ARows::<MR>::new(a, row, step, kc_len, mr_eff);
    let mut acc = [[0.0f32; TILE_COLS]; MR];
    for p in 0..kc_len {
        let brow = &b[p * n..][..cols];
        for (r, accr) in acc.iter_mut().enumerate().take(mr_eff) {
            let av = a.at(r, p);
            for (aj, &bv) in accr.iter_mut().zip(brow) {
                *aj = av.fma(bv, *aj);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr_eff) {
        for (o, &aj) in out[r * n..][..cols].iter_mut().zip(accr) {
            *o += aj;
        }
    }
}

/// A vector of `f32` lanes, the type every kernel body is written
/// against (the [module-level](self) rule 2): `f32` itself, and on
/// x86-64 the AVX2 and AVX-512 vectors of [`x86_lanes`]. `splat` and
/// `load` take a vector as `self`: an x86 vector is first made in a
/// detection-gated table entry, so holding one shows the host has its
/// features.
trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    /// The same lanes as `i32`.
    type I: Ints<F = Self>;
    const LANES: usize;
    fn splat(self, x: f32) -> Self;
    fn splat_i(self, x: i32) -> Self::I;
    /// The lanes `s[..LANES]`; panics if `s` is shorter.
    fn load(self, s: &[f32]) -> Self;
    /// Writes the lanes over `s[..LANES]`; panics if `s` is shorter.
    fn store(self, s: &mut [f32]);
    /// `self · b + c` in every lane, rounded once (the module-level
    /// rule 1).
    fn fma(self, b: Self, c: Self) -> Self;
    /// [`maxps`] in every lane.
    fn maxps(self, o: Self) -> Self;
    fn xor(self, o: Self) -> Self;
    /// The lanes' bits.
    fn bits(self) -> Self::I;
    /// `t` in the lanes `m` selects, `self` in the others.
    fn blend(self, m: <Self::I as Ints>::M, t: Self) -> Self;
}

/// The `i32` lanes of a [`Lane`]. Arithmetic wraps, and a shift count
/// is below 32.
trait Ints: Copy {
    /// The `f32` lanes of the same width.
    type F;
    /// A per-lane condition: what the compares return, and what
    /// [`Lane::blend`] takes.
    type M: Copy;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn and(self, o: Self) -> Self;
    fn shl(self, n: i32) -> Self;
    /// Logical shift right by `n`.
    fn shr(self, n: i32) -> Self;
    /// `self > o`, signed.
    fn cmpgt(self, o: Self) -> Self::M;
    /// The lanes whose sign bit is set.
    fn sign(self) -> Self::M;
    /// The lanes' bits as `f32`.
    fn as_f32(self) -> Self::F;
}

/// One lane: the scalar table's, and every kernel's tail in every
/// table. `select` makes the blends branch-free.
const ONE_LANE: f32 = 0.0;
/// The scalar table's `(lanewise, tree)` lanes for a body that takes
/// both (rule 3's trees hold at most eight lanes).
const ONE_PAIR: (f32, f32) = (ONE_LANE, ONE_LANE);

impl Lane for f32 {
    type I = i32;
    const LANES: usize = 1;
    #[inline(always)]
    fn splat(self, x: f32) -> f32 {
        x
    }
    #[inline(always)]
    fn splat_i(self, x: i32) -> i32 {
        x
    }
    #[inline(always)]
    fn load(self, s: &[f32]) -> f32 {
        s[0]
    }
    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        s[0] = self;
    }
    #[inline(always)]
    fn fma(self, b: f32, c: f32) -> f32 {
        self.mul_add(b, c)
    }
    #[inline(always)]
    fn maxps(self, o: f32) -> f32 {
        maxps(self, o)
    }
    #[inline(always)]
    fn xor(self, o: f32) -> f32 {
        f32::from_bits(self.to_bits() ^ o.to_bits())
    }
    #[inline(always)]
    fn bits(self) -> i32 {
        self.to_bits() as i32
    }
    #[inline(always)]
    fn blend(self, m: bool, t: f32) -> f32 {
        select(m, t, self)
    }
}

impl Ints for i32 {
    type F = f32;
    type M = bool;
    #[inline(always)]
    fn add(self, o: i32) -> i32 {
        self.wrapping_add(o)
    }
    #[inline(always)]
    fn sub(self, o: i32) -> i32 {
        self.wrapping_sub(o)
    }
    #[inline(always)]
    fn and(self, o: i32) -> i32 {
        self & o
    }
    #[inline(always)]
    fn shl(self, n: i32) -> i32 {
        self << n
    }
    #[inline(always)]
    fn shr(self, n: i32) -> i32 {
        (self as u32 >> n) as i32
    }
    #[inline(always)]
    fn cmpgt(self, o: i32) -> bool {
        self > o
    }
    #[inline(always)]
    fn sign(self) -> bool {
        self < 0
    }
    #[inline(always)]
    fn as_f32(self) -> f32 {
        f32::from_bits(self as u32)
    }
}

/// Defines `$f`, `$lanes` x86 `f32` lanes in a `$fv`, and `$i`, the
/// same lanes as `i32` in a `$iv`, with `$f::new`, and implements
/// [`Lane`] and [`Ints`] for them: every op is one intrinsic, or one
/// `#[target_feature]` adapter where the intrinsic takes its arguments
/// in another order.
///
/// The intrinsics need `$features`, and every `unsafe` below rests on
/// one argument: a `$f` or `$i` exists only on a host that has them.
/// Both are newtypes whose field is private to the module that invokes
/// this macro, and the only way to make one from nothing is `new`, a
/// `#[target_feature(enable = $features)]` fn: safe code can call it
/// only from a fn compiled for those features, a table entry of
/// [`simd_entries`] that [`table`] installs after [`simd_modes`]
/// detected them. Every other op makes its result from a vector it was
/// given.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_lanes {
    (
        $f:ident($fv:ty), $i:ident($iv:ty), mask $m:ty, $lanes:literal, $features:literal;
        new $zero:ident, splat $splat:ident, splat_i $splat_i:ident,
        load $load:ident, store $store:ident, fma $fma:ident, blend $blend:ident,
        sign $sign:ident;
        ops [$($tr:ident $op:ident $opi:ident),*];
        f32 [$($fm:ident $fmi:ident),*];
        to_i32 [$($ti:ident $tii:ident),*];
        i32 [$($im:ident $imi:ident),*];
        shifts [$($sm:ident $smi:ident),*];
        cmp [$($cm:ident $cmi:ident),*];
        to_f32 [$($tf:ident $tfi:ident),*];
    ) => {
        #[derive(Clone, Copy)]
        pub(super) struct $f($fv);
        #[derive(Clone, Copy)]
        pub(super) struct $i($iv);

        impl $f {
            /// Zeros: a table entry's first vector.
            #[target_feature(enable = $features)]
            pub(super) fn new() -> Self {
                $f($zero())
            }
        }

        $(impl core::ops::$tr for $f {
            type Output = Self;
            #[inline(always)]
            fn $op(self, o: Self) -> Self {
                // SAFETY: `self` shows the host has the intrinsic's
                // features (see the macro).
                $f(unsafe { $opi(self.0, o.0) })
            }
        })*

        impl super::Lane for $f {
            type I = $i;
            const LANES: usize = $lanes;
            #[inline(always)]
            fn splat(self, x: f32) -> Self {
                // SAFETY: as for the operators.
                $f(unsafe { $splat(x) })
            }
            #[inline(always)]
            fn splat_i(self, x: i32) -> $i {
                // SAFETY: as for the operators.
                $i(unsafe { $splat_i(x) })
            }
            #[inline(always)]
            fn load(self, s: &[f32]) -> Self {
                assert!(s.len() >= $lanes, "load past the slice");
                // SAFETY: as for the operators, and the `$lanes` floats
                // read are in `s` (checked above); the load is unaligned.
                $f(unsafe { $load(s.as_ptr()) })
            }
            #[inline(always)]
            fn store(self, s: &mut [f32]) {
                assert!(s.len() >= $lanes, "store past the slice");
                // SAFETY: as for `load`.
                unsafe { $store(s.as_mut_ptr(), self.0) }
            }
            #[inline(always)]
            fn fma(self, b: Self, c: Self) -> Self {
                // SAFETY: as for the operators.
                $f(unsafe { $fma(self.0, b.0, c.0) })
            }
            $(#[inline(always)]
            fn $fm(self, o: Self) -> Self {
                // SAFETY: as for the operators.
                $f(unsafe { $fmi(self.0, o.0) })
            })*
            $(#[inline(always)]
            fn $ti(self) -> $i {
                // SAFETY: as for the operators.
                $i(unsafe { $tii(self.0) })
            })*
            #[inline(always)]
            fn blend(self, m: $m, t: Self) -> Self {
                // SAFETY: as for the operators.
                $f(unsafe { $blend(self.0, m, t.0) })
            }
        }

        impl super::Ints for $i {
            type F = $f;
            type M = $m;
            $(#[inline(always)]
            fn $im(self, o: Self) -> Self {
                // SAFETY: `self` shows the host has the intrinsic's
                // features (see the macro).
                $i(unsafe { $imi(self.0, o.0) })
            })*
            $(#[inline(always)]
            fn $sm(self, n: i32) -> Self {
                // SAFETY: as above; the count is an SSE2 register, and
                // SSE2 is part of every x86-64 host.
                $i(unsafe { $smi(self.0, _mm_cvtsi32_si128(n)) })
            })*
            $(#[inline(always)]
            fn $cm(self, o: Self) -> $m {
                // SAFETY: as above.
                unsafe { $cmi(self.0, o.0) }
            })*
            #[inline(always)]
            fn sign(self) -> $m {
                // SAFETY: as above.
                unsafe { $sign(self.0) }
            }
            $(#[inline(always)]
            fn $tf(self) -> $f {
                // SAFETY: as above.
                $f(unsafe { $tfi(self.0) })
            })*
        }
    };
}

/// The safe entries of one SIMD table: each `fn name(args) -> R =
/// body;` becomes a `fn name(args) -> R` that runs `body(lanes, args…)`
/// compiled for `$features`, `lanes` being `$lanes`. The signatures are
/// the [`KernelTable`] ABI.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_entries {
    (
        $features:literal, $lanes:expr;
        $($(#[$attr:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:expr;)*
    ) => {$(
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            fn entry($($arg: $ty),*) $(-> $ret)? {
                $body($lanes, $($arg),*)
            }
            // SAFETY: `entry` needs `$features`. This fn is reached only
            // through its module's table (the AVX-512 table reuses the
            // AVX2 entries), which `table` returns only after
            // `simd_modes` detected them, or, under test, for a mode
            // `simd_modes` listed.
            unsafe { entry($($arg),*) }
        }
    )*};
}

/// The `MR`-row micro-tile two vectors wide (`2 · L::LANES` columns;
/// [`KernelTable::micro_tiles`]' arguments): a full call as one
/// `FULL`-row pass, anything shorter as [`HALF_MR`]-row passes, so no
/// row is padded that those would not pad.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_tile<L: Lane, const FULL: usize>(
    l: L,
    a: &[f32],
    row: usize,
    step: usize,
    kc_len: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    mr_eff: usize,
) {
    if mr_eff == FULL {
        micro_pass::<L, FULL>(l, a, row, step, kc_len, b, out, n, FULL);
    } else {
        for (h, rows) in halves(mr_eff) {
            let (a, out) = (&a[h * row..], &mut out[h * n..]);
            micro_pass::<L, HALF_MR>(l, a, row, step, kc_len, b, out, n, rows);
        }
    }
}

/// One `R`-row pass of [`micro_tile`]: `2·R` accumulators (24 `zmm` at
/// 12 rows, 12 `ymm` at 6), two B vectors and one broadcast.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_pass<L: Lane, const R: usize>(
    l: L,
    a: &[f32],
    row: usize,
    step: usize,
    kc_len: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    mr_eff: usize,
) {
    let cols = 2 * L::LANES;
    assert!(cols <= n, "micro-tile past its row");
    let b = &b[..span(kc_len, n, cols)];
    let out = &mut out[..span(mr_eff, n, cols)];
    let a = ARows::<R>::new(a, row, step, kc_len, mr_eff);
    let mut acc = [[l.splat(0.0); 2]; R];
    for p in 0..kc_len {
        // SAFETY: `b` is `span(kc_len, n, cols)` = `(kc_len − 1)·n + cols`
        // long (the slice above) and `p < kc_len`, so row `p` is in it.
        let brow = unsafe { b.get_unchecked(p * n..p * n + cols) };
        let bv = [l.load(brow), l.load(&brow[L::LANES..])];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = l.splat(a.at(r, p));
            for (accv, &bv) in accr.iter_mut().zip(&bv) {
                // One rounding per step (rule 1).
                *accv = av.fma(bv, *accv);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr_eff) {
        for (h, &accv) in accr.iter().enumerate() {
            let o = &mut out[r * n + h * L::LANES..];
            (l.load(o) + accv).store(o);
        }
    }
}

/// Rule 3's eight lanes held as `NR / L::LANES` vectors `acc[..]`, in
/// lane order.
#[inline(always)]
fn tree_lanes<L: Lane>(acc: &[L; NR]) -> [f32; NR] {
    const { assert!(NR.is_multiple_of(L::LANES), "the lane tree is 8 lanes wide") };
    let mut lanes = [0.0; NR];
    for (j, v) in acc.iter().take(NR / L::LANES).enumerate() {
        v.store(&mut lanes[j * L::LANES..]);
    }
    lanes
}

/// The strip-mined dot product (rule 3): lane `p mod 8` sums the
/// products of the whole 8-lane blocks, the lanes collapse in the
/// fixed tree, and the tail's products, summed in order, add last.
#[inline(always)]
fn dot<L: Lane>(l: L, x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let ((xb, xt), (yb, yt)) = (x[..n].as_chunks::<NR>(), y[..n].as_chunks::<NR>());
    let mut acc = [l.splat(0.0); NR];
    for (xb, yb) in xb.iter().zip(yb) {
        for (j, a) in acc.iter_mut().take(NR / L::LANES).enumerate() {
            let at = j * L::LANES;
            *a = *a + l.load(&xb[at..]) * l.load(&yb[at..]);
        }
    }
    let tail = xt.iter().zip(yt).fold(0.0, |t, (&a, &b)| t + a * b);
    sum_lanes_tree(&tree_lanes(&acc)) + tail
}

/// [`dot`]'s order with [`maxps`] for the sum, the tail folded into the
/// tree's result; `-inf` for an empty row.
#[inline(always)]
fn row_max<L: Lane>(l: L, x: &[f32]) -> f32 {
    let (blocks, tail) = x.as_chunks::<NR>();
    let mut acc = [l.splat(f32::NEG_INFINITY); NR];
    for b in blocks {
        for (j, a) in acc.iter_mut().take(NR / L::LANES).enumerate() {
            *a = a.maxps(l.load(&b[j * L::LANES..]));
        }
    }
    let m = max_lanes_tree(&tree_lanes(&acc));
    tail.iter().fold(m, |m, &v| maxps(m, v))
}

/// [`dot`]'s order over the elements themselves.
#[inline(always)]
fn row_sum<L: Lane>(l: L, x: &[f32]) -> f32 {
    let (blocks, tail) = x.as_chunks::<NR>();
    let mut acc = [l.splat(0.0); NR];
    for b in blocks {
        for (j, a) in acc.iter_mut().take(NR / L::LANES).enumerate() {
            *a = *a + l.load(&b[j * L::LANES..]);
        }
    }
    sum_lanes_tree(&tree_lanes(&acc)) + tail.iter().fold(0.0, |t, &v| t + v)
}

/// `out[i] += a * v[i]` over the common prefix; the tail runs this body
/// on one lane.
#[inline(always)]
fn axpy<L: Lane>(l: L, a: f32, v: &[f32], out: &mut [f32]) {
    debug_assert_eq!(v.len(), out.len());
    let n = v.len().min(out.len());
    let mut vs = v[..n].chunks_exact(L::LANES);
    let mut os = out[..n].chunks_exact_mut(L::LANES);
    for (v, o) in (&mut vs).zip(&mut os) {
        (l.load(o) + l.splat(a) * l.load(v)).store(o);
    }
    if L::LANES > 1 {
        axpy(ONE_LANE, a, vs.remainder(), os.into_remainder());
    }
}

/// `out[i] += v[i]` over the common prefix.
#[inline(always)]
fn add_assign<L: Lane>(l: L, v: &[f32], out: &mut [f32]) {
    debug_assert_eq!(v.len(), out.len());
    let n = v.len().min(out.len());
    let mut vs = v[..n].chunks_exact(L::LANES);
    let mut os = out[..n].chunks_exact_mut(L::LANES);
    for (v, o) in (&mut vs).zip(&mut os) {
        (l.load(o) + l.load(v)).store(o);
    }
    if L::LANES > 1 {
        add_assign(ONE_LANE, vs.remainder(), os.into_remainder());
    }
}

/// `row[i] /= denom`.
#[inline(always)]
fn div_assign<L: Lane>(l: L, row: &mut [f32], denom: f32) {
    let mut rs = row.chunks_exact_mut(L::LANES);
    for r in &mut rs {
        (l.load(r) / l.splat(denom)).store(r);
    }
    if L::LANES > 1 {
        div_assign(ONE_LANE, rs.into_remainder(), denom);
    }
}

/// Round-to-nearest-even to the bf16 grid in every lane: the bias
/// added to the bits, then the low 16 bits dropped.
#[inline(always)]
fn bf16_lanes<L: Lane>(v: L) -> L {
    let bits = v.bits();
    let bias = v.splat_i(0x7fff).add(bits.shr(16).and(v.splat_i(1)));
    bits.add(bias).shr(16).shl(16).as_f32()
}

/// The `bf16_round` entry: [`bf16_lanes`] in place.
#[inline(always)]
fn bf16_round<L: Lane>(l: L, data: &mut [f32]) {
    let mut ds = data.chunks_exact_mut(L::LANES);
    for d in &mut ds {
        bf16_lanes(l.load(d)).store(d);
    }
    if L::LANES > 1 {
        bf16_round(ONE_LANE, ds.into_remainder());
    }
}

/// `ops::topk_by_max`, one plain body, as a table entry.
#[inline(always)]
fn topk<L: Lane>(_: L, row: &[f32], idx: &mut [u32], val: &mut [f32]) {
    crate::ops::topk_by_max(row, idx, val);
}

/// `row[i] ← exp(row[i] − max)`, the softmax numerator: `max −
/// row[i]` rounded to `f32` (it equals `−(row[i] − max)` exactly), then
/// [`exp_neg`].
#[inline(always)]
fn exp_shift<L: Lane>(l: L, row: &mut [f32], max: f32) {
    let mut rs = row.chunks_exact_mut(L::LANES);
    for r in &mut rs {
        exp_neg(l.splat(max) - l.load(r)).store(r);
    }
    if L::LANES > 1 {
        exp_shift(ONE_LANE, rs.into_remainder(), max);
    }
}

/// The `softmax_rows` entry: each row's `row_max` (on the tree lanes
/// `n`), `exp_shift`, `row_sum` (on `n`) and `div_assign`, then its top
/// `k` — the scalar table's one-scan `topk`, the SIMD tables' key-max
/// passes — when `idx` holds `k` slots per row.
#[inline(always)]
fn softmax_rows<W: Lane, N: Lane>(
    (w, n): (W, N),
    rows: &mut [f32],
    cols: usize,
    idx: &mut [u32],
    val: &mut [f32],
) {
    let count = rows.len().checked_div(cols).unwrap_or(0);
    let k = idx.len().checked_div(count).unwrap_or(0);
    assert!(
        rows.len() == count * cols && idx.len() == count * k && val.len() == idx.len(),
        "softmax_rows: {} values in rows of {cols}, {} / {} top-k slots",
        rows.len(),
        idx.len(),
        val.len()
    );
    // Each row is one long chain of dependent steps (a reduction feeds
    // the next pass), so the rows go through each step a few at a time,
    // giving the core independent work to overlap.
    let group = SOFTMAX_GROUP * cols.max(1);
    for (g, rows) in rows.chunks_mut(group).enumerate() {
        let mut scale = [0.0f32; SOFTMAX_GROUP];
        for (row, max) in rows.chunks_exact(cols.max(1)).zip(&mut scale) {
            *max = row_max(n, row);
        }
        // The lanewise steps run the wide lanes over a row's whole wide
        // blocks and the tree lanes over the rest, so a row narrower
        // than `W` (E = 8, say) still runs in vectors.
        for (row, &max) in rows.chunks_exact_mut(cols.max(1)).zip(&scale) {
            let (wide, rest) = row.split_at_mut(cols / W::LANES * W::LANES);
            exp_shift(w, wide, max);
            exp_shift(n, rest, max);
        }
        for (row, denom) in rows.chunks_exact(cols.max(1)).zip(&mut scale) {
            *denom = row_sum(n, row);
        }
        for (row, &denom) in rows.chunks_exact_mut(cols.max(1)).zip(&scale) {
            let (wide, rest) = row.split_at_mut(cols / W::LANES * W::LANES);
            div_assign(w, wide, denom);
            div_assign(n, rest, denom);
        }
        if k == 0 {
            continue;
        }
        let (idx, val) = (
            &mut idx[g * SOFTMAX_GROUP * k..],
            &mut val[g * SOFTMAX_GROUP * k..],
        );
        if W::LANES == 1 {
            for (r, row) in rows.chunks_exact(cols.max(1)).enumerate() {
                crate::ops::topk_scan(row, &mut idx[r * k..][..k], &mut val[r * k..][..k]);
            }
            continue;
        }
        // The key-max passes: slot `i` of every row of the group before
        // slot `i + 1` of any, so the rows' passes run side by side.
        let mut below = [u64::MAX; SOFTMAX_GROUP];
        for slot in 0..k {
            for (r, (row, below)) in rows.chunks_exact(cols.max(1)).zip(&mut below).enumerate() {
                *below = crate::ops::topk_pass(row, *below);
                (idx[r * k + slot], val[r * k + slot]) = crate::ops::topk_pick(row, *below);
            }
        }
    }
}

/// Rows [`softmax_rows`] takes through each step together.
const SOFTMAX_GROUP: usize = 4;

/// `out[i] = v[i]` lanewise.
#[inline(always)]
fn copy_row<L: Lane>(l: L, v: &[f32], out: &mut [f32]) {
    let mut vs = v.chunks_exact(L::LANES);
    let mut os = out.chunks_exact_mut(L::LANES);
    for (v, o) in (&mut vs).zip(&mut os) {
        l.load(v).store(o);
    }
    if L::LANES > 1 {
        copy_row(ONE_LANE, vs.remainder(), os.into_remainder());
    }
}

/// `out[i] = 0 + a · v[i]` lanewise: [`axpy`] into a zeroed row, in one
/// pass.
#[inline(always)]
fn scale_row<L: Lane>(l: L, a: f32, v: &[f32], out: &mut [f32]) {
    let mut vs = v.chunks_exact(L::LANES);
    let mut os = out.chunks_exact_mut(L::LANES);
    for (v, o) in (&mut vs).zip(&mut os) {
        (l.splat(0.0) + l.splat(a) * l.load(v)).store(o);
    }
    if L::LANES > 1 {
        scale_row(ONE_LANE, a, vs.remainder(), os.into_remainder());
    }
}

/// `out[i] = 0` lanewise.
#[inline(always)]
fn zero_row<L: Lane>(l: L, out: &mut [f32]) {
    let mut os = out.chunks_exact_mut(L::LANES);
    for o in &mut os {
        l.splat(0.0).store(o);
    }
    if L::LANES > 1 {
        zero_row(ONE_LANE, os.into_remainder());
    }
}

/// The `gather_rows` entry.
#[inline(always)]
fn gather_rows<L: Lane>(
    l: L,
    src: &[f32],
    m: usize,
    owner: &[u32],
    k: usize,
    gate: Option<&[f32]>,
    out: &mut [f32],
) {
    assert!(
        out.len() == owner.len() * m,
        "gather_rows: {} rows of {m} for {} owners",
        out.len(),
        owner.len()
    );
    for (&a, orow) in owner.iter().zip(out.chunks_exact_mut(m.max(1))) {
        if a == NO_ROW {
            zero_row(l, orow);
            continue;
        }
        let (a, t) = (a as usize, a as usize / k);
        let row = &src[t * m..][..m];
        match gate {
            None => copy_row(l, row, orow),
            Some(gate) => scale_row(l, gate[a], row, orow),
        }
    }
}

/// The `combine_rows` entry.
#[inline(always)]
fn combine_rows<L: Lane>(
    l: L,
    src: &[f32],
    m: usize,
    picks: Picks<'_>,
    k: usize,
    gate: Option<&[f32]>,
    out: &mut [f32],
) {
    let rows = out.len().checked_div(m).unwrap_or(0);
    assert!(
        out.len() == rows * m && picks.expert.len() == rows * k && picks.slot.len() == rows * k,
        "combine_rows: {} values in rows of {m}, {} picks of {k}",
        out.len(),
        picks.slot.len()
    );
    for (t, orow) in out.chunks_exact_mut(m.max(1)).enumerate() {
        zero_row(l, orow);
        for a in t * k..(t + 1) * k {
            if let Some(r) = picks.row(a) {
                let row = &src[r * m..][..m];
                match gate {
                    None => add_assign(l, row, orow),
                    Some(gate) => axpy(l, gate[a], row, orow),
                }
            }
        }
    }
}

/// `softmax_grad_rows`' `⟨y_r, g_r⟩` of eight rows of `cols` on one
/// lane (the scalar table's, and the SIMD ones' tail): each row's chain
/// a step per column, the eight side by side.
#[inline(always)]
fn row_dots(y: &[f32], g: &[f32], cols: usize) -> [f32; NR] {
    row_dots_from(y, g, cols, 0, [-0.0; NR])
}

/// The `softmax_grad_rows` entry: the lanewise passes on the wide lanes
/// `w` over a row's whole wide blocks and the tree lanes `n` over the
/// rest, eight rows' dots by `dots8`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn softmax_grad_rows<W: Lane, N: Lane>(
    (w, n): (W, N),
    dots8: impl Fn(&[f32], &[f32], usize) -> [f32; NR],
    y: &[f32],
    picks: &[u32],
    d_gates: &[f32],
    aux: &[f32],
    normalized: bool,
    out: &mut [f32],
) {
    let e = aux.len();
    let rows = out.len().checked_div(e).unwrap_or(0);
    let k = picks.len().checked_div(rows).unwrap_or(0);
    assert!(
        out.len() == rows * e
            && y.len() == out.len()
            && picks.len() == rows * k
            && d_gates.len() == picks.len(),
        "softmax_grad_rows: {} values in rows of {e}, {} probabilities, {} / {} picks",
        out.len(),
        y.len(),
        picks.len(),
        d_gates.len()
    );
    let wide = e / W::LANES * W::LANES;
    let ((aux_w, aux_n), span) = (aux.split_at(wide), NR * e.max(1));
    for (r, (yrow, orow)) in y
        .chunks_exact(e.max(1))
        .zip(out.chunks_exact_mut(e.max(1)))
        .enumerate()
    {
        let (ow, on) = orow.split_at_mut(wide);
        scale_row(w, 1.0, aux_w, ow);
        scale_row(n, 1.0, aux_n, on);
        let (picks, dg) = (&picks[r * k..][..k], &d_gates[r * k..][..k]);
        if normalized {
            let s: f32 = picks
                .iter()
                .map(|&p| yrow[p as usize])
                .sum::<f32>()
                .max(1e-9);
            let dot: f32 = dg
                .iter()
                .zip(picks)
                .map(|(d, &p)| d * (yrow[p as usize] / s))
                .sum();
            for (&p, d) in picks.iter().zip(dg) {
                orow[p as usize] = (d - dot) / s + aux[p as usize];
            }
        } else {
            for (&p, &d) in picks.iter().zip(dg) {
                orow[p as usize] = d + aux[p as usize];
            }
        }
    }
    for (yb, ob) in y.chunks(span).zip(out.chunks_mut(span)) {
        let dots = if yb.len() == span {
            dots8(yb, ob, e)
        } else {
            let mut dots = [-0.0f32; NR];
            for (dot, (y, g)) in dots.iter_mut().zip(yb.chunks(e).zip(ob.chunks(e))) {
                *dot = y.iter().zip(g).map(|(y, g)| y * g).sum();
            }
            dots
        };
        for ((yrow, orow), dot) in yb.chunks(e.max(1)).zip(ob.chunks_mut(e.max(1))).zip(dots) {
            let (yw, yn) = yrow.split_at(wide);
            let (ow, on) = orow.split_at_mut(wide);
            softmax_backward_row(w, yw, dot, ow);
            softmax_backward_row(n, yn, dot, on);
        }
    }
}

/// `g[i] ← y[i] · (g[i] − dot)` lanewise.
#[inline(always)]
fn softmax_backward_row<L: Lane>(l: L, y: &[f32], dot: f32, g: &mut [f32]) {
    let mut ys = y.chunks_exact(L::LANES);
    let mut gs = g.chunks_exact_mut(L::LANES);
    for (y, g) in (&mut ys).zip(&mut gs) {
        (l.load(y) * (l.load(g) - l.splat(dot))).store(g);
    }
    if L::LANES > 1 {
        softmax_backward_row(ONE_LANE, ys.remainder(), dot, gs.into_remainder());
    }
}

/// [`row_dots`] from column `first` on, the chains at `dots`.
#[inline(always)]
fn row_dots_from(
    y: &[f32],
    g: &[f32],
    cols: usize,
    first: usize,
    mut dots: [f32; NR],
) -> [f32; NR] {
    let y: [&[f32]; NR] = std::array::from_fn(|r| &y[r * cols..][..cols]);
    let g: [&[f32]; NR] = std::array::from_fn(|r| &g[r * cols..][..cols]);
    for j in first..cols {
        for (r, dot) in dots.iter_mut().enumerate() {
            *dot += y[r][j] * g[r][j];
        }
    }
    dots
}

/// The `dot_rows` entry, on the tree lanes `n`.
#[inline(always)]
fn dot_rows<N: Lane>(
    n: N,
    y: &[f32],
    d: &[f32],
    m: usize,
    picks: Picks<'_>,
    k: usize,
    out: &mut [f32],
) {
    assert!(
        out.len() == picks.slot.len()
            && picks.expert.len() == out.len()
            && d.len() * k == out.len() * m,
        "dot_rows: {} gates of {k} per row over {} values in rows of {m}",
        out.len(),
        d.len()
    );
    for (a, g) in out.iter_mut().enumerate() {
        *g = match picks.row(a) {
            Some(r) => dot(n, &y[r * m..][..m], &d[a / k * m..][..m]),
            None => 0.0,
        };
    }
}

/// `√(2/π)`, the tanh approximation's inner scale.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;
/// `2·√(2/π)`, the scale of `2u` (doubling is exact).
const SQRT_8_OVER_PI: f32 = 2.0 * SQRT_2_OVER_PI;
/// The tanh approximation's cubic coefficient.
const GELU_CUBIC: f32 = 0.044715;
/// Where GELU's tail is cut: `exp(−2|u|)` takes `2|u|` clamped to this,
/// and `σ(2u)` is 0 past it on the negative side, where `|gelu(x)| ≤
/// e⁻⁴⁶·|x| ≈ 1e−20·|x|` (x below ≈ −7.78). The clamp keeps every
/// `exp_neg` value, `σ` and `gelu'` a normal float.
const GELU_TAIL: f32 = 46.0;

/// GELU, tanh approximation, in every lane: `(gelu(x), σ(2u))`.
///
/// `0.5·x·(1 + tanh(u))` with `u = √(2/π)·(x + 0.044715·x³)` is
/// `x·σ(2u)`, and `σ(2u)` is `1/(1 + E)` for `x ≥ 0` and `E/(1 + E)`
/// below, with `E = exp(−2|u|)` ≤ 1: one [`exp_neg`] and one divide,
/// and no `1 + tanh` cancellation on the negative side. `σ` is the only
/// part the derivative shares. `gelu(−inf)` is −0, its limit (−inf is
/// clamped to the least finite float, whose `σ` is 0); NaN stays NaN and
/// `+inf` stays `+inf`; a subnormal `x` gives `x·0.5`, rounded.
#[inline(always)]
fn gelu_lanes<L: Lane>(x: L) -> (L, L) {
    let one = x.splat(1.0);
    let u2 = x.splat(SQRT_8_OVER_PI) * (x + x.splat(GELU_CUBIC) * x * x * x);
    // `2|u|`'s bits: as a non-negative float its integer order is its
    // order, so one integer compare clamps it (NaN lands in `far`).
    let a = u2.bits().and(x.splat_i(0x7fff_ffff));
    let far = a.cmpgt(x.splat_i(GELU_TAIL.to_bits() as i32));
    let e = exp_neg(a.as_f32().blend(far, x.splat(GELU_TAIL)));
    let num = one.blend(x.bits().sign(), e.blend(far, x.splat(0.0)));
    let s = num / (one + e);
    (x.splat(-f32::MAX).maxps(x) * s, s)
}

/// The `gelu` entry: [`gelu_lanes`] over `h` in place, keeping the
/// input and `σ(2u)` over the common prefix when asked.
#[inline(always)]
fn gelu<L: Lane>(l: L, h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) {
    match keep {
        Some((pre, sig)) => {
            let n = h.len().min(pre.len()).min(sig.len());
            let mut hs = h[..n].chunks_exact_mut(L::LANES);
            let mut ps = pre[..n].chunks_exact_mut(L::LANES);
            let mut ss = sig[..n].chunks_exact_mut(L::LANES);
            for ((h, p), s) in (&mut hs).zip(&mut ps).zip(&mut ss) {
                let x = l.load(h);
                let (g, sv) = gelu_lanes(x);
                x.store(p);
                g.store(h);
                sv.store(s);
            }
            if L::LANES > 1 {
                let keep = Some((ps.into_remainder(), ss.into_remainder()));
                gelu(ONE_LANE, hs.into_remainder(), keep);
            }
        }
        None => {
            let mut hs = h.chunks_exact_mut(L::LANES);
            for h in &mut hs {
                gelu_lanes(l.load(h)).0.store(h);
            }
            if L::LANES > 1 {
                gelu(ONE_LANE, hs.into_remainder(), None);
            }
        }
    }
}

/// Where `gelu_backward` clamps `x`: `x²` stays finite up to ≈ 1.8e19,
/// and past ±1e19 `gelu'` is already its limit (1 above, 0 below).
const GELU_BACKWARD_CLAMP: f32 = 1e19;

/// `x` clamped to `±GELU_BACKWARD_CLAMP`, NaN kept bit for bit. The
/// compares are on the magnitude's bits, as in [`gelu_lanes`]: no float
/// compare or max whose NaN operand order the compiler could change.
#[inline(always)]
fn clamp_gelu_x<L: Lane>(x: L) -> L {
    let (bits, edge) = (x.bits(), x.splat(GELU_BACKWARD_CLAMP));
    let abs = bits.and(x.splat_i(0x7fff_ffff));
    let signed_edge = bits.and(x.splat_i(i32::MIN)).as_f32().xor(edge);
    let big = abs.cmpgt(edge.bits());
    let nan = abs.cmpgt(x.splat_i(f32::INFINITY.to_bits() as i32));
    x.blend(big, signed_edge).blend(nan, x)
}

/// The `gelu_backward` entry: `g[i] *= gelu'(pre[i])` over the common
/// prefix, from the `σ(2u)` a capturing [`gelu`] kept: `gelu' = s +
/// x·s·(1 − s)·2√(2/π)·(1 + 3·0.044715·x²)`, left to right, with `x`
/// clamped to ±1e19 first so that `x²` cannot overflow into a `0·inf`
/// (every `x` inside the clamp keeps its bits).
#[inline(always)]
fn gelu_backward<L: Lane>(l: L, pre: &[f32], sig: &[f32], g: &mut [f32]) {
    let n = g.len().min(pre.len()).min(sig.len());
    let mut ps = pre[..n].chunks_exact(L::LANES);
    let mut ss = sig[..n].chunks_exact(L::LANES);
    let mut gs = g[..n].chunks_exact_mut(L::LANES);
    let one = l.splat(1.0);
    // `3 · GELU_CUBIC · x · x` folds left to right, so the constant
    // product comes first.
    let cubic3 = l.splat(3.0 * GELU_CUBIC);
    for ((p, s), g) in (&mut ps).zip(&mut ss).zip(&mut gs) {
        let (x, s) = (clamp_gelu_x(l.load(p)), l.load(s));
        let du2 = l.splat(SQRT_8_OVER_PI) * (one + cubic3 * x * x);
        let d = s + x * s * (one - s) * du2;
        (l.load(g) * d).store(g);
    }
    if L::LANES > 1 {
        let (pre, sig) = (ps.remainder(), ss.remainder());
        gelu_backward(ONE_LANE, pre, sig, gs.into_remainder());
    }
}

/// `log₂ e`, the `k` estimate's scale.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 · 2²³`: adding it rounds an `f32` of magnitude below 2²² to an
/// integer in its low mantissa bits.
const EXP_NEG_SHIFT: f32 = 12_582_912.0;
/// The Cody–Waite split `ln 2 = LN2_C1 + LN2_C2`: `LN2_C1` is
/// 0.693359375, 9 significant bits, so `k · LN2_C1` is exact for every
/// `k` here (cephes `expf`).
const LN2_C1: f32 = 0.693_359_4;
const LN2_C2: f32 = -2.121_944_4e-4;
/// Cephes `expf`'s degree-5 minimax polynomial: `exp(r) ≈ 1 + r +
/// r²·P(r)` on `|r| ≤ ln 2 / 2`, highest coefficient first.
const EXP_NEG_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    0.5,
];

/// The largest `a` whose `exp(−a)` is a normal float (87.33654):
/// [`exp_neg`] is `+0` above it.
const EXP_NEG_CUT: f32 = f32::from_bits(0x42ae_ac4f);

/// `exp(−a)` in every lane: `k = round(−a·log₂ e)` by the shift, `r = −a
/// − k·ln 2` by the Cody–Waite split, cephes `expf`'s polynomial, then
/// `2ᵏ` added to the exponent once. The `k` estimate, both reduction
/// steps and the polynomial's steps are fused multiply-adds: those
/// fusions define the function (rule 1). On `0 ≤ a ≤ EXP_NEG_CUT` (and
/// `−0`) `k ∈ [−126, 0]` and the result is a normal float, so the
/// exponent add is exact. Above the cut, `+inf` included, the result is
/// `+0`, and NaN gives `a` back; each is a select after the body, whose
/// bits there are garbage. A negative `a` is outside the domain (softmax
/// makes one only in a row holding NaN, whose outputs are all NaN).
#[inline(always)]
fn exp_neg<L: Lane>(a: L) -> L {
    let x = a.xor(a.splat(-0.0));
    let shift = a.splat(EXP_NEG_SHIFT);
    let t = x.fma(a.splat(LOG2E), shift);
    let k = t.bits().sub(shift.bits());
    let kf = t - shift;
    let r = kf.fma(a.splat(-LN2_C1), x);
    let r = kf.fma(a.splat(-LN2_C2), r);
    let [p0, ps @ ..] = EXP_NEG_P;
    let p = ps
        .into_iter()
        .fold(a.splat(p0), |p, c| p.fma(r, a.splat(c)));
    let y = p.fma(r * r, r) + a.splat(1.0);
    let e = y.bits().add(k.shl(23)).as_f32();
    // `a`'s bits: a non-negative float's integer order is its order, and
    // a negative one's is below every cut.
    let bits = a.bits();
    let far = bits.cmpgt(a.splat_i(EXP_NEG_CUT.to_bits() as i32));
    let nan = bits
        .and(a.splat_i(0x7fff_ffff))
        .cmpgt(a.splat_i(f32::INFINITY.to_bits() as i32));
    e.blend(far, a.splat(0.0)).blend(nan, a)
}

/// The AVX2 table: the generic bodies on `__m256` lanes, each entry
/// compiled for AVX2+FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{KernelTable, Lane, Picks, SimdMode, HALF_MR, NR, TILE_COLS};
    use core::arch::x86_64::*;

    x86_lanes! {
        V8(__m256), I8(__m256i), mask __m256i, 8, "avx2,fma";
        new _mm256_setzero_ps, splat _mm256_set1_ps, splat_i _mm256_set1_epi32,
        load _mm256_loadu_ps, store _mm256_storeu_ps, fma _mm256_fmadd_ps, blend blendv,
        sign sign_bits;
        ops [Add add _mm256_add_ps, Sub sub _mm256_sub_ps, Mul mul _mm256_mul_ps,
            Div div _mm256_div_ps];
        f32 [maxps _mm256_max_ps, xor _mm256_xor_ps];
        to_i32 [bits _mm256_castps_si256];
        i32 [add _mm256_add_epi32, sub _mm256_sub_epi32, and _mm256_and_si256];
        shifts [shl _mm256_sll_epi32, shr _mm256_srl_epi32];
        cmp [cmpgt _mm256_cmpgt_epi32];
        to_f32 [as_f32 _mm256_castsi256_ps];
    }

    /// `t` in the lanes whose sign bit `m` sets, `f` in the others.
    #[target_feature(enable = "avx2")]
    fn blendv(f: __m256, m: __m256i, t: __m256) -> __m256 {
        _mm256_blendv_ps(f, t, _mm256_castsi256_ps(m))
    }

    /// [`blendv`] reads only each lane's sign bit, so a lane's bits are
    /// their own sign mask.
    #[target_feature(enable = "avx2")]
    fn sign_bits(v: __m256i) -> __m256i {
        v
    }

    pub(super) static TABLE: KernelTable = KernelTable {
        mode: SimdMode::Avx2,
        micro_tiles: &[(TILE_COLS, micro_tile)],
        micro_edge,
        topk,
        add_assign,
        softmax_rows,
        gather_rows,
        combine_rows,
        dot_rows,
        softmax_grad_rows,
        bf16_round,
        gelu,
        gelu_backward,
    };

    simd_entries! {
        "avx2,fma", V8::new();
        fn micro_tile(
            a: &[f32], row: usize, step: usize, kc_len: usize, b: &[f32], out: &mut [f32],
            n: usize, mr_eff: usize
        ) = super::micro_tile::<V8, HALF_MR>;
        fn micro_edge(
            a: &[f32], row: usize, step: usize, kc_len: usize, b: &[f32], out: &mut [f32],
            n: usize, mr_eff: usize, cols: usize
        ) = super::micro_edge;
        fn topk(row: &[f32], idx: &mut [u32], val: &mut [f32]) = super::topk;
        fn add_assign(v: &[f32], out: &mut [f32]) = super::add_assign;
        fn gather_rows(
            src: &[f32], m: usize, owner: &[u32], k: usize, gate: Option<&[f32]>, out: &mut [f32]
        ) = super::gather_rows;
        fn combine_rows(
            src: &[f32], m: usize, picks: Picks<'_>, k: usize, gate: Option<&[f32]>,
            out: &mut [f32]
        ) = super::combine_rows;
        fn dot_rows(
            y: &[f32], d: &[f32], m: usize, picks: Picks<'_>, k: usize, out: &mut [f32]
        ) = super::dot_rows;
        fn bf16_round(data: &mut [f32]) = super::bf16_round;
        fn gelu(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) = super::gelu;
        fn gelu_backward(pre: &[f32], sig: &[f32], g: &mut [f32]) = super::gelu_backward;
    }

    simd_entries! {
        "avx2,fma", (V8::new(), V8::new());
        fn softmax_rows(
            rows: &mut [f32], cols: usize, idx: &mut [u32], val: &mut [f32]
        ) = super::softmax_rows;
        fn softmax_grad_rows(
            y: &[f32], picks: &[u32], d_gates: &[f32], aux: &[f32], normalized: bool,
            out: &mut [f32]
        ) = softmax_grad_body;
    }

    /// The `softmax_grad_rows` entry: the generic body, its eight-row
    /// dots [`row_dots8`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    fn softmax_grad_body(
        lanes: (V8, V8),
        y: &[f32],
        picks: &[u32],
        d_gates: &[f32],
        aux: &[f32],
        normalized: bool,
        out: &mut [f32],
    ) {
        let dots8 = |y: &[f32], g: &[f32], cols: usize| row_dots8(lanes.1, y, g, cols);
        super::softmax_grad_rows(lanes, dots8, y, picks, d_gates, aux, normalized, out);
    }

    /// Eight rows' `⟨y_r, g_r⟩` for `softmax_grad_rows`: per 8 columns,
    /// the eight rows' products (lanes along the row) transposed so that
    /// lane `r` of vector `c` is row `r`'s product at that column, then
    /// added into the chains one column at a time; the last `cols mod 8`
    /// columns step each chain on one lane.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn row_dots8(l: V8, y: &[f32], g: &[f32], cols: usize) -> [f32; NR] {
        let whole = cols / NR * NR;
        let mut acc = l.splat(-0.0).0;
        for j in (0..whole).step_by(NR) {
            let p: [__m256; NR] = std::array::from_fn(|r| {
                let at = r * cols + j;
                _mm256_mul_ps(l.load(&y[at..]).0, l.load(&g[at..]).0)
            });
            for column in transpose8(p) {
                acc = _mm256_add_ps(acc, column);
            }
        }
        let mut dots = [0.0; NR];
        V8(acc).store(&mut dots);
        super::row_dots_from(y, g, cols, whole, dots)
    }

    /// The 8 × 8 transpose of `rows`: vector `c` of the result holds
    /// lane `c` of every row, row `r` in lane `r`.
    #[target_feature(enable = "avx2")]
    fn transpose8(rows: [__m256; NR]) -> [__m256; NR] {
        let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
        let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
        let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
        let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xee>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xee>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xee>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xee>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }
}

/// The AVX-512 table: every lanewise body — the micro-tile pass (12 or
/// 6 rows × 32), GELU, `exp`, the divide, the row copies and combines —
/// on `__m512` lanes and `topk`, each compiled for AVX-512F+DQ; the
/// reductions (`dot_rows`, the softmax's max and sum) keep rule 3's
/// 8-lane trees on `__m256` lanes, and `micro_edge`, `add_assign` and
/// `bf16_round` are the AVX2 entries.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2::{self, V8};
    use super::{KernelTable, Picks, SimdMode, MR, TILE_COLS, WIDE_TILE_COLS};
    use core::arch::x86_64::*;

    x86_lanes! {
        V16(__m512), I16(__m512i), mask __mmask16, 16, "avx512f,avx512dq";
        new _mm512_setzero_ps, splat _mm512_set1_ps, splat_i _mm512_set1_epi32,
        load _mm512_loadu_ps, store _mm512_storeu_ps, fma _mm512_fmadd_ps, blend mask_blend,
        sign _mm512_movepi32_mask;
        ops [Add add _mm512_add_ps, Sub sub _mm512_sub_ps, Mul mul _mm512_mul_ps,
            Div div _mm512_div_ps];
        f32 [maxps _mm512_max_ps, xor _mm512_xor_ps];
        to_i32 [bits _mm512_castps_si512];
        i32 [add _mm512_add_epi32, sub _mm512_sub_epi32, and _mm512_and_si512];
        shifts [shl _mm512_sll_epi32, shr _mm512_srl_epi32];
        cmp [cmpgt _mm512_cmpgt_epi32_mask];
        to_f32 [as_f32 _mm512_castsi512_ps];
    }

    /// `t` in the lanes `m` sets, `f` in the others.
    #[target_feature(enable = "avx512f")]
    fn mask_blend(f: __m512, m: __mmask16, t: __m512) -> __m512 {
        _mm512_mask_blend_ps(m, f, t)
    }

    pub(super) static TABLE: KernelTable = KernelTable {
        mode: SimdMode::Avx512,
        micro_tiles: &[(WIDE_TILE_COLS, micro_tile), (TILE_COLS, avx2::micro_tile)],
        micro_edge: avx2::micro_edge,
        topk,
        add_assign: avx2::add_assign,
        softmax_rows,
        gather_rows,
        combine_rows,
        dot_rows,
        softmax_grad_rows,
        bf16_round: avx2::bf16_round,
        gelu,
        gelu_backward,
    };

    simd_entries! {
        "avx512f,avx512dq", V16::new();
        fn micro_tile(
            a: &[f32], row: usize, step: usize, kc_len: usize, b: &[f32], out: &mut [f32],
            n: usize, mr_eff: usize
        ) = super::micro_tile::<V16, MR>;
        fn topk(row: &[f32], idx: &mut [u32], val: &mut [f32]) = super::topk;
        fn gather_rows(
            src: &[f32], m: usize, owner: &[u32], k: usize, gate: Option<&[f32]>, out: &mut [f32]
        ) = super::gather_rows;
        fn combine_rows(
            src: &[f32], m: usize, picks: Picks<'_>, k: usize, gate: Option<&[f32]>,
            out: &mut [f32]
        ) = super::combine_rows;
        fn gelu(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) = super::gelu;
        fn gelu_backward(pre: &[f32], sig: &[f32], g: &mut [f32]) = super::gelu_backward;
    }

    simd_entries! {
        "avx512f,avx512dq", (V16::new(), V8::new());
        fn softmax_rows(
            rows: &mut [f32], cols: usize, idx: &mut [u32], val: &mut [f32]
        ) = super::softmax_rows;
        fn softmax_grad_rows(
            y: &[f32], picks: &[u32], d_gates: &[f32], aux: &[f32], normalized: bool,
            out: &mut [f32]
        ) = softmax_grad_body;
    }

    /// The `softmax_grad_rows` entry: the generic body on `__m512` lanes,
    /// its eight-row dots the AVX2 table's transpose.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn softmax_grad_body(
        lanes: (V16, V8),
        y: &[f32],
        picks: &[u32],
        d_gates: &[f32],
        aux: &[f32],
        normalized: bool,
        out: &mut [f32],
    ) {
        let dots8 = |y: &[f32], g: &[f32], cols: usize| avx2::row_dots8(lanes.1, y, g, cols);
        super::softmax_grad_rows(lanes, dots8, y, picks, d_gates, aux, normalized, out);
    }

    simd_entries! {
        "avx512f,avx512dq", V8::new();
        fn dot_rows(
            y: &[f32], d: &[f32], m: usize, picks: Picks<'_>, k: usize, out: &mut [f32]
        ) = super::dot_rows;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ramp(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::Rng::seed(seed);
        (0..n).map(|_| rng.normal() * 2.0).collect()
    }

    /// Every SIMD table the host has, narrowest first.
    fn simd_tables() -> impl Iterator<Item = &'static KernelTable> {
        simd_modes().iter().map(|&mode| table_for(mode))
    }

    /// A `rows × cols` micro-tile's product element by element, in the
    /// order [`KernelTable::micro_tiles`] documents: each element is a
    /// chain of `kc_len` fused multiply-adds from zero in `p` order, then
    /// the chain's sum is added to `out`. The reference for every
    /// table's tiles; it shares no code with them.
    #[allow(clippy::too_many_arguments)]
    fn tile_ref(
        (a, row, step): (&[f32], usize, usize),
        kc_len: usize,
        b: &[f32],
        out: &mut [f32],
        n: usize,
        rows: usize,
        cols: usize,
    ) {
        for r in 0..rows {
            for j in 0..cols {
                let mut acc = 0.0f32;
                for p in 0..kc_len {
                    acc = a[r * row + p * step].mul_add(b[p * n + j], acc);
                }
                out[r * n + j] += acc;
            }
        }
    }

    /// GELU on one lane, `(gelu(x), σ(2u))`: the scalar body the other
    /// crates' tests compare their launches with.
    pub(crate) fn gelu_one(x: f32) -> (f32, f32) {
        gelu_lanes(x)
    }

    /// Rule 3's order, element by element: lane `l` sums `f(i)` for every
    /// `i ≡ l (mod 8)` of the whole 8-element blocks, in order from 0;
    /// the lanes fold as `((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 +
    /// l7))`; the tail's `f(i)`, summed in order from 0, adds last.
    fn tree_sum_ref(n: usize, f: impl Fn(usize) -> f32) -> f32 {
        let whole = n / 8 * 8;
        let mut l = [0.0f32; 8];
        for i in 0..whole {
            l[i % 8] += f(i);
        }
        let mut tail = 0.0f32;
        for i in whole..n {
            tail += f(i);
        }
        (((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))) + tail
    }

    /// `row_max`'s order: [`tree_sum_ref`]'s lanes and tree with `max(a,
    /// b) = if a > b { a } else { b }` from `-inf`, the tail folded into
    /// the tree's result one element at a time.
    fn row_max_ref(x: &[f32]) -> f32 {
        let max = |a: f32, b: f32| if a > b { a } else { b };
        let whole = x.len() / 8 * 8;
        let mut l = [f32::NEG_INFINITY; 8];
        for (i, &v) in x[..whole].iter().enumerate() {
            l[i % 8] = max(l[i % 8], v);
        }
        let m = max(
            max(max(l[0], l[4]), max(l[1], l[5])),
            max(max(l[2], l[6]), max(l[3], l[7])),
        );
        x[whole..].iter().fold(m, |m, &v| max(m, v))
    }

    /// GELU's derivative written out: `gelu'(x)` from `s = σ(2u)`, `x`
    /// clamped to ±1e19 (NaN kept) as the backward clamps it.
    fn gelu_derivative(x: f32, s: f32) -> f32 {
        let x = x.clamp(-1e19, 1e19);
        let du2 = SQRT_8_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x);
        s + x * s * (1.0 - s) * du2
    }

    /// The nearest bf16 value to `v`, by the independent
    /// round-to-nearest-even reference; ±inf and x86's default NaN are
    /// their own.
    fn bf16_ref(v: f32) -> f32 {
        if v.is_finite() {
            properties::unpack(properties::bf16_reference(v))
        } else {
            v
        }
    }

    #[test]
    fn override_selects_tables_and_reverts() {
        with_simd_mode(Some(false), || {
            assert_eq!(simd_mode(), SimdMode::Scalar);
            assert_eq!(table().mode, SimdMode::Scalar);
        });
        let widest = simd_modes().last().copied().unwrap_or(SimdMode::Scalar);
        with_simd_mode(Some(true), || {
            assert_eq!(simd_mode(), widest);
            assert_eq!(table().mode, widest);
        });
        for mode in kernel_modes() {
            with_kernel_mode(mode, || {
                assert_eq!(simd_mode(), mode);
                assert_eq!(table().mode, mode);
            });
        }
    }

    #[test]
    fn every_table_ends_with_the_base_tiles() {
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            let label = kt.mode.label();
            let tiles: Vec<usize> = kt.micro_tiles.iter().map(|t| t.0).collect();
            assert_eq!(tiles.last(), Some(&TILE_COLS), "{label}");
            assert!(tiles.windows(2).all(|w| w[0] > w[1]), "{label}");
            assert!(tiles.iter().all(|c| c % TILE_COLS == 0), "{label}");
        }
    }

    /// x86's default NaN: every NaN the arithmetic makes or passes on
    /// then has these bits, whichever operand order the compiler gives
    /// an instruction, so results compare bit for bit.
    const NAN: f32 = f32::from_bits(0xffc0_0000);

    /// `v` with every fifth element, from a seed-chosen start, replaced
    /// by one of ±0, ±inf, [`NAN`] and the least subnormal in turn.
    pub(crate) fn sprinkle(mut v: Vec<f32>, seed: u64) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            NAN,
            f32::from_bits(1),
        ];
        for (i, x) in v.iter_mut().enumerate().skip(seed as usize % 5).step_by(5) {
            *x = specials[(i / 5 + seed as usize) % specials.len()];
        }
        v
    }

    /// `(len, skew, xs, ys)` for every length from 0 to past two 8-lane
    /// blocks and either side of 64 and 128, each at four float
    /// offsets: `xs` and `ys` hold `skew + len` values, ±0, ±inf, NaN
    /// and subnormals among them, and a kernel runs on `[skew..]` (so
    /// most accesses are unaligned).
    fn ragged_slices() -> impl Iterator<Item = (usize, usize, Vec<f32>, Vec<f32>)> {
        let lens = (0..=33).chain([63, 64, 65, 127, 128, 129]);
        lens.flat_map(|len| {
            (0..4).map(move |skew| {
                let seed = (len * 4 + skew) as u64;
                let xs = sprinkle(ramp(skew + len, seed), seed);
                let ys = sprinkle(ramp(skew + len, seed + 1), seed + 3);
                (len, skew, xs, ys)
            })
        })
    }

    /// `x` with NaN and `+inf`, either of which makes a whole softmax row
    /// NaN, replaced by `−inf` and `−0`, so the row's max, sum and divide
    /// show in its outputs.
    fn tame(x: &[f32]) -> Vec<f32> {
        let tame = |v: f32| match v {
            _ if v.is_nan() => f32::NEG_INFINITY,
            f32::INFINITY => -0.0,
            _ => v,
        };
        x.iter().map(|&v| tame(v)).collect()
    }

    /// The softmax of one row, element by element: [`row_max_ref`],
    /// `exp_neg(max − v)` on one lane, [`tree_sum_ref`], then a divide.
    fn softmax_ref(row: &[f32]) -> Vec<f32> {
        let max = row_max_ref(row);
        let e: Vec<f32> = row.iter().map(|&v| exp_neg(max - v)).collect();
        let sum = tree_sum_ref(e.len(), |i| e[i]);
        e.iter().map(|&v| v / sum).collect()
    }

    /// Picks of one token row: pick `i < k` reads packed row `i`.
    fn first_rows(k: usize) -> Picks<'static> {
        let (expert, slot): (&[u32], &[u32]) = (&[0, 0], &[0, 1]);
        Picks {
            offsets: &[0, 2],
            expert: &expert[..k],
            slot: &slot[..k],
        }
    }

    /// The per-row kernels on one ragged slice `x = xs[skew..]` (and `y`),
    /// through the row-block entries that inline them, as one row each:
    /// `softmax_rows` (row max, `exp_shift`, row sum, divide) of `x` and
    /// of [`tame`]`(x)`, `dot_rows` of `x` and `y`, `combine_rows` of `y`
    /// then `x` (`add_assign`, and `axpy` at weights 1 and 0.37),
    /// `gather_rows` of `x` (a copy, and `0 + 0.37·x`); then the
    /// `add_assign`, `bf16_round` and `gelu_backward` entries. Each
    /// output is its whole buffer, so a write before `skew` shows.
    fn slice_passes(kt: &KernelTable, skew: usize, xs: &[f32], ys: &[f32]) -> Vec<Vec<f32>> {
        let (x, y) = (&xs[skew..], &ys[skew..]);
        let len = x.len();
        let mut out = Vec::new();
        for mut row in [xs.to_vec(), [&xs[..skew], &tame(x)].concat()] {
            (kt.softmax_rows)(&mut row[skew..], len, &mut [], &mut []);
            out.push(row);
        }
        let mut d = vec![0.0];
        (kt.dot_rows)(x, y, len, first_rows(1), 1, &mut d);
        out.push(d);
        let packed = [&xs[..skew], y, x].concat();
        for gate in [None, Some(&[1.0, 0.37][..])] {
            let mut o = ys.to_vec();
            // `combine_rows` takes its row count from `len`.
            if len > 0 {
                let src = &packed[skew..];
                (kt.combine_rows)(src, len, first_rows(2), 2, gate, &mut o[skew..]);
            }
            out.push(o);
        }
        for gate in [None, Some(&[0.37][..])] {
            let mut o = ys.to_vec();
            (kt.gather_rows)(x, len, &[0], 1, gate, &mut o[skew..]);
            out.push(o);
        }
        let mut o = ys.to_vec();
        (kt.add_assign)(x, &mut o[skew..]);
        out.push(o);
        let mut o = xs.to_vec();
        (kt.bf16_round)(&mut o[skew..]);
        out.push(o);
        let mut g = ys.to_vec();
        (kt.gelu_backward)(x, y, &mut g[skew..]);
        out.push(g);
        out
    }

    /// [`slice_passes`]' outputs written element by element, sharing no
    /// code with the kernels but the one-lane `exp_neg`.
    fn slice_oracles(skew: usize, xs: &[f32], ys: &[f32]) -> Vec<Vec<f32>> {
        let (x, y) = (&xs[skew..], &ys[skew..]);
        let len = x.len();
        let after = |pre: &[f32], f: &dyn Fn(usize) -> f32| {
            pre[..skew].iter().copied().chain((0..len).map(f)).collect()
        };
        let (p, q) = (softmax_ref(x), softmax_ref(&tame(x)));
        vec![
            after(xs, &|i| p[i]),
            after(xs, &|i| q[i]),
            vec![tree_sum_ref(len, |i| x[i] * y[i])],
            after(ys, &|i| 0.0 + y[i] + x[i]),
            after(ys, &|i| (0.0 + 1.0 * y[i]) + 0.37 * x[i]),
            after(ys, &|i| x[i]),
            after(ys, &|i| 0.0 + 0.37 * x[i]),
            after(ys, &|i| y[i] + x[i]),
            after(xs, &|i| bf16_ref(x[i])),
            after(ys, &|i| y[i] * gelu_derivative(x[i], y[i])),
        ]
    }

    /// The names of [`slice_passes`]' outputs.
    const SLICE_PASSES: [&str; 10] = [
        "softmax",
        "softmax tame",
        "dot",
        "combine",
        "combine gated",
        "gather",
        "gather gated",
        "add_assign",
        "bf16_round",
        "gelu_backward",
    ];

    /// Every SIMD table's [`slice_passes`] equal the scalar table's bit
    /// for bit on [`ragged_slices`].
    #[test]
    fn slice_kernels_match_scalar_on_ragged_unaligned_and_empty_slices() {
        for (len, skew, xs, ys) in ragged_slices() {
            let want = slice_passes(&SCALAR_TABLE, skew, &xs, &ys);
            for simd in simd_tables() {
                let got = slice_passes(simd, skew, &xs, &ys);
                for ((what, got), want) in SLICE_PASSES.iter().zip(&got).zip(&want) {
                    let label = simd.mode.label();
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{label} {what} len {len} skew {skew}"
                    );
                }
            }
        }
    }

    /// Every table's [`slice_passes`] — the row max, row sum and dot in
    /// rule 3's order, the lanewise passes lane by lane, `bf16_round` by
    /// the independent round-to-nearest-even reference — equal
    /// [`slice_oracles`] on [`ragged_slices`].
    #[test]
    fn slice_kernels_match_per_element_oracles_on_ragged_unaligned_and_empty_slices() {
        for (len, skew, xs, ys) in ragged_slices() {
            let want = slice_oracles(skew, &xs, &ys);
            for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
                let got = slice_passes(kt, skew, &xs, &ys);
                for ((what, got), want) in SLICE_PASSES.iter().zip(&got).zip(&want) {
                    let label = kt.mode.label();
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{label} {what} len {len} skew {skew}"
                    );
                }
            }
        }
    }

    /// Every table's `topk` entry equals the scalar scan, indices and
    /// value bits, for `E ∈ 1..=17 ∪ {31, 32, 33, 63, 64, 65}` and every
    /// `k ≤ E`, on rows of exact ties, ±0, NaN of both signs, ±inf,
    /// all-NaN rows, subnormals and random mixes of them.
    #[test]
    fn topk_agrees_across_tables_on_ties_zeros_nans_and_infs() {
        let neg_nan = f32::from_bits(0xffc0_0001);
        let pool = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            neg_nan,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        let mut rng = crate::Rng::seed(44);
        for e in (1..=17).chain([31, 32, 33, 63, 64, 65]) {
            let mut rows: Vec<Vec<f32>> = vec![
                vec![0.5; e],
                (0..e)
                    .map(|j| if j % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
                (0..e)
                    .map(|j| if j % 2 == 0 { f32::NAN } else { neg_nan })
                    .collect(),
                (0..e)
                    .map(|j| [f32::INFINITY, f32::NEG_INFINITY][j % 2])
                    .collect(),
                (0..e)
                    .map(|j| f32::from_bits(j as u32 % 3) * [1.0, -1.0][j % 2])
                    .collect(),
                ramp(e, e as u64),
            ];
            for _ in 0..24 {
                rows.push((0..e).map(|_| pool[rng.below(pool.len())]).collect());
            }
            // Three copies: more rows than one of `topk_last`'s chunks.
            let t = crate::Tensor::from_vec(rows.concat().repeat(3), &[3 * rows.len(), e]).unwrap();
            for k in 1..=e {
                for row in &rows {
                    let run = |kt: &KernelTable| {
                        let (mut idx, mut val) = (vec![0u32; k], vec![0.0f32; k]);
                        (kt.topk)(row, &mut idx, &mut val);
                        (idx, bits(&val))
                    };
                    let want = run(&SCALAR_TABLE);
                    for simd in simd_tables() {
                        assert_eq!(
                            run(simd),
                            want,
                            "{} E {e} k {k} row {row:?}",
                            simd.mode.label()
                        );
                    }
                }
                // And through `topk_last`, whose row chunks run on the pool.
                let launch = |mode| {
                    let (idx, val) = with_kernel_mode(mode, || t.topk_last(k)).unwrap();
                    (idx, bits(&val))
                };
                let want = launch(SimdMode::Scalar);
                for &mode in simd_modes() {
                    assert_eq!(launch(mode), want, "{} topk_last E {e} k {k}", mode.label());
                }
            }
        }
    }

    #[test]
    fn bf16_round_matches_scalar() {
        let src = ramp(53, 3);
        let mut r_s = src.clone();
        (SCALAR_TABLE.bf16_round)(&mut r_s);
        let one: Vec<f32> = src.iter().copied().map(bf16_round_one).collect();
        assert_eq!(bits(&r_s), bits(&one), "kernel vs bf16_round_one");
        for simd in simd_tables() {
            let mut r_v = src.clone();
            (simd.bf16_round)(&mut r_v);
            assert_eq!(bits(&r_s), bits(&r_v), "{} round", simd.mode.label());
        }
    }

    /// Every tile of every table, and its edge at every width below
    /// `TILE_COLS`, on every row count `1..=MR`, with A laid out as an
    /// `A·B` block reads it (rows `k` apart, step 1) and as an `Aᵀ·B`
    /// block does (adjacent rows, step `m`), equals the per-element
    /// reference bit for bit.
    #[test]
    fn micro_tile_matches_scalar_bitwise_on_short_tiles() {
        let (kc_len, k, m) = (9usize, 11usize, MR + 2);
        let a = ramp(m * k, 5);
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            let edge = kt.micro_edge;
            let edges = (1..TILE_COLS).map(|c| (c, None));
            let tiles = kt.micro_tiles.iter().map(|&(c, t)| (c, Some(t)));
            for (cols, tile) in tiles.chain(edges) {
                let n = cols + 5;
                let b = ramp(kc_len * n, 4);
                for (row, step) in [(k, 1), (1, m)] {
                    for mr_eff in 1..=MR {
                        let mut want = ramp(MR * n, 6);
                        let mut got = want.clone();
                        tile_ref((&a, row, step), kc_len, &b, &mut want, n, mr_eff, cols);
                        match tile {
                            Some(tile) => tile(&a, row, step, kc_len, &b, &mut got, n, mr_eff),
                            None => edge(&a, row, step, kc_len, &b, &mut got, n, mr_eff, cols),
                        }
                        let label = kt.mode.label();
                        let at = format!("{label} {cols} rows {mr_eff} strides ({row}, {step})");
                        assert_eq!(bits(&want), bits(&got), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn modes_swap_under_override_for_the_active_table() {
        for force in [false, true] {
            with_simd_mode(Some(force), || {
                let mode = simd_mode();
                assert_eq!(table().mode, mode);
                let src = ramp(31, 8);
                let mut back = src.clone();
                (table().bf16_round)(&mut back);
                for (s, b) in src.iter().zip(&back) {
                    assert!(
                        (s - b).abs() <= s.abs() / 128.0 + 1e-6,
                        "{mode:?}: {s} vs {b}"
                    );
                }
            });
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Columns of the softmax rows that carry `exp_neg`'s inputs to every
    /// table's lanes: 16 + 8, so the AVX-512 table runs both its lane
    /// widths and the AVX2 table three vectors.
    const JUDGE_COLS: usize = 24;

    /// Rows of [`JUDGE_COLS`], `[0, −a₀, −a₁, …]`, padded with `−inf`:
    /// each row's max is 0, so the numerator of `−a` is `exp_neg(0 − (−a))
    /// = exp_neg(a)` and a pad's is `exp_neg(+inf) = +0`.
    fn judge_rows(a_s: &[f32]) -> Vec<f32> {
        let mut rows = Vec::new();
        for c in a_s.chunks(JUDGE_COLS - 1) {
            rows.push(0.0);
            rows.extend(c.iter().map(|&a| -a));
            rows.resize(rows.len() + JUDGE_COLS - 1 - c.len(), f32::NEG_INFINITY);
        }
        rows
    }

    /// The bound [`ExpJudge`] holds `exp_neg` to on `[0, EXP_NEG_CUT]`,
    /// in ULP of an `f64` `exp(−a)`.
    const EXP_NEG_MAX_ULP: f64 = 1.05;

    /// `exp_neg` on one lane against `f64` `exp`: its worst error on `[0,
    /// EXP_NEG_CUT]` in ULP of the reference, and where.
    #[derive(Default)]
    struct ExpJudge {
        max: f64,
        at: f32,
    }

    impl ExpJudge {
        /// Judges `exp_neg` at every `a` of `a_s` (each `±0`, positive or
        /// NaN), and panics where it is not NaN for NaN, not `+0` above
        /// the cut, or not a normal float on the domain; then panics
        /// where a SIMD table's `softmax_rows` on [`judge_rows`] differs
        /// from the scalar table's, the only entry that runs `exp_neg`
        /// unclamped.
        fn add(&mut self, a_s: &[f32]) {
            for &a in a_s {
                let e = exp_neg(a);
                if a.is_nan() || a > EXP_NEG_CUT {
                    let want = if a.is_nan() { a } else { 0.0 };
                    assert!(same(e, want), "exp_neg({a:e}) = {e:e}");
                    continue;
                }
                assert!(e.is_normal(), "exp_neg({a:e}) = {e:e}");
                let want = (-f64::from(a)).exp();
                let err = (f64::from(e) - want).abs() / ulp_f32(want);
                if err > self.max {
                    (self.max, self.at) = (err, a);
                }
            }
            let rows = judge_rows(a_s);
            let scalar = softmax_of(&SCALAR_TABLE, &rows, JUDGE_COLS);
            for kt in simd_tables() {
                let label = kt.mode.label();
                let simd = softmax_of(kt, &rows, JUDGE_COLS);
                for ((&x, &s), &v) in rows.iter().zip(&scalar).zip(&simd) {
                    assert!(
                        same(s, v),
                        "{label} softmax at −a = {x:e}: {v:e}, scalar {s:e}"
                    );
                }
            }
        }

        fn merge(self, o: ExpJudge) -> ExpJudge {
            if o.max > self.max {
                o
            } else {
                self
            }
        }

        /// Prints the worst error and asserts [`EXP_NEG_MAX_ULP`].
        fn assert_bound(&self) {
            let (max, at) = (self.max, self.at);
            println!("exp_neg vs f64 on [0, {EXP_NEG_CUT}]: max {max:.3} ULP at {at:e}");
            assert!(max <= EXP_NEG_MAX_ULP, "exp_neg: {max} ULP at {at:e}");
        }
    }

    /// The edges of `exp_neg`'s domain: ±0, the least subnormal and
    /// normal, GELU's clamp, the cut and a step either side of each, the
    /// largest float, `+inf` and NaN of both signs.
    fn exp_neg_edges() -> Vec<f32> {
        let edges = [
            1u32,
            0x0080_0000,
            GELU_TAIL.to_bits(),
            EXP_NEG_CUT.to_bits(),
            0x7f7f_ffff,
        ];
        let mut a_s: Vec<u32> = edges.iter().flat_map(|&b| [b - 1, b, b + 1]).collect();
        a_s.extend([0x8000_0000, 0x7f80_0000, 0x7fc0_0000, 0xffc0_0000]);
        a_s.into_iter().map(f32::from_bits).collect()
    }

    /// Runs the `gelu` (capturing) and `gelu_backward` entries of `kt`
    /// over `xs`: `[gelu, pre, σ(2u), g·gelu']` for upstream `g[i] = 0.5 +
    /// i mod 7`.
    fn run_gelu(kt: &KernelTable, xs: &[f32]) -> [Vec<f32>; 4] {
        let mut h = xs.to_vec();
        let (mut pre, mut sig) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
        (kt.gelu)(&mut h, Some((&mut pre, &mut sig)));
        let mut g: Vec<f32> = (0..xs.len()).map(|i| 0.5 + (i % 7) as f32).collect();
        (kt.gelu_backward)(&pre, &sig, &mut g);
        [h, pre, sig, g]
    }

    /// Panics at the first `x` in `xs` where the `gelu` (output, kept
    /// input, kept `σ(2u)`) or `gelu_backward` entry of any SIMD table
    /// the host has differs from the scalar one. NaN equals NaN. Returns
    /// the scalar run.
    fn check_gelu(xs: &[f32]) -> [Vec<f32>; 4] {
        let scalar = run_gelu(&SCALAR_TABLE, xs);
        for kt in simd_tables() {
            let (simd, label) = (run_gelu(kt, xs), kt.mode.label());
            for (what, (s, v)) in ["gelu", "pre", "sig", "gelu_backward"]
                .iter()
                .zip(scalar.iter().zip(&simd))
            {
                for ((&x, &s), &v) in xs.iter().zip(s).zip(v) {
                    assert!(same(s, v), "{what} at {x:e}: scalar {s:e}, {label} {v:e}");
                }
            }
        }
        scalar
    }

    /// `gelu(x)` in `f64` with the exact constants, as `x·σ(2u)`: free of
    /// the `1 + tanh` cancellation, which at `f64` precision would still
    /// zero the tail below x ≈ −4.5.
    fn gelu_f64(x: f32) -> f64 {
        let x = f64::from(x);
        let u2 = 2.0 * (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x);
        x / (1.0 + (-u2).exp())
    }

    /// One `f32` ULP at `v`'s magnitude: the subnormal spacing below the
    /// normals.
    fn ulp_f32(v: f64) -> f64 {
        let e = ((v.abs().to_bits() >> 52) as i32 - 1023).max(-126);
        2f64.powi(e - 23)
    }

    /// The GELU that `tanhf`'s port defined, judged against [`gelu_f64`]
    /// on all 2³² inputs before `x·σ(2u)` replaced it: its worst error
    /// on x ∈ [−5, 5] in ULP …
    const PORT_MAX_ULP_CORE: f64 = 4.84e6;
    /// … and the largest x where it returned 0, −5.157855 (it returned 0
    /// on every x up to there, where its `tanh` rounded to −1).
    const PORT_ZERO_UP_TO: f32 = f32::from_bits(0xc0a5_0d26);
    /// The bound on x > 5, where `σ(2u)` rounds to 1 and `gelu(x) = x`.
    const TAIL_MAX_ULP: f64 = 0.531;

    /// The judge's regions of x: the cut tail, where `gelu` is −0 by
    /// definition (x ≤ −7.778842, so the error is the whole value), the
    /// rest below −5, [−5, 5], and above 5.
    const REGIONS: [&str; 4] = ["x <= -7.778842 (-0)", "(-7.778842, -5)", "[-5, 5]", "x > 5"];

    fn region(x: f32) -> usize {
        match x {
            _ if x <= f32::from_bits(0xc0f8_ec47) => 0,
            _ if x < -5.0 => 1,
            _ if x <= 5.0 => 2,
            _ => 3,
        }
    }

    /// GELU's error against [`gelu_f64`] in ULP of the reference, by
    /// [`REGIONS`].
    #[derive(Default)]
    struct GeluJudge {
        max: [f64; 4],
        at: [f32; 4],
        /// Inputs in [−5, 5] above 1, 4 and 16 ULP.
        above: [u64; 3],
    }

    impl GeluJudge {
        /// Judges the scalar run `[gelu, _, σ(2u), _]` of `xs` at every
        /// finite `x`, and panics at a normal `x` whose `gelu` is ±0 where
        /// the port's was not, or whose `σ(2u)` or `gelu'` is subnormal.
        fn add(&mut self, xs: &[f32], [h, _, sig, _]: &[Vec<f32>; 4]) {
            let mut d = vec![1.0; xs.len()];
            (SCALAR_TABLE.gelu_backward)(xs, sig, &mut d);
            for (((&x, &y), &s), &d) in xs.iter().zip(h).zip(sig).zip(&d) {
                if !x.is_finite() {
                    continue;
                }
                if x.is_normal() {
                    assert!(y != 0.0 || x <= PORT_ZERO_UP_TO, "gelu({x:e}) = {y:e}");
                    assert!(!s.is_subnormal(), "σ(2u) at {x:e} = {s:e}");
                    assert!(!d.is_subnormal(), "gelu'({x:e}) = {d:e}");
                }
                let want = gelu_f64(x);
                let err = (f64::from(y) - want).abs() / ulp_f32(want);
                let r = region(x);
                if err > self.max[r] {
                    (self.max[r], self.at[r]) = (err, x);
                }
                if r == 2 {
                    for (n, bound) in self.above.iter_mut().zip([1.0, 4.0, 16.0]) {
                        *n += u64::from(err > bound);
                    }
                }
            }
        }

        fn merge(mut self, o: GeluJudge) -> GeluJudge {
            for r in 0..REGIONS.len() {
                if o.max[r] > self.max[r] {
                    (self.max[r], self.at[r]) = (o.max[r], o.at[r]);
                }
            }
            for (n, o) in self.above.iter_mut().zip(o.above) {
                *n += o;
            }
            self
        }

        /// Prints the figures and asserts the bounds: no worse than the
        /// port on [−5, 5], within [`TAIL_MAX_ULP`] above 5.
        fn assert_bounds(&self) {
            for (r, name) in REGIONS.iter().enumerate() {
                let (max, at) = (self.max[r], self.at[r]);
                println!("gelu vs f64 on {name}: max {max:.3} ULP at {at:e}");
            }
            let [a1, a4, a16] = self.above;
            println!("gelu vs f64 on [-5, 5]: above 1 / 4 / 16 ULP: {a1} / {a4} / {a16}");
            assert!(self.max[2] <= PORT_MAX_ULP_CORE, "[-5, 5]: {}", self.max[2]);
            assert!(self.max[3] <= TAIL_MAX_ULP, "x > 5: {}", self.max[3]);
        }
    }

    #[test]
    fn gelu_matches_across_tables_and_the_judge_on_edges_and_a_stride() {
        // Both sides of 0, of the tail cut (2|u| > 46 from x =
        // −7.778842), of ±5, of x³'s overflow, the subnormals, ±inf and
        // NaN.
        let boundaries = [
            0u32,
            1,
            0x007f_ffff,
            0x0080_0000,
            0x3f80_0000,
            0x40a0_0000,
            0x40f8_ec47,
            0x5590_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7fc0_0000,
        ];
        let mut xs: Vec<f32> = boundaries
            .iter()
            .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
            .flat_map(|b| [b, b | 0x8000_0000])
            .map(f32::from_bits)
            .collect();
        xs.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        xs.extend((-120_000..120_000).map(|i| i as f32 * 1e-4));
        let scalar = check_gelu(&xs);
        let mut judge = GeluJudge::default();
        judge.add(&xs, &scalar);
        judge.assert_bounds();
    }

    /// The edges of GELU's domain, in every table: `gelu(−inf) = −0` (its
    /// limit), `gelu(+inf) = +inf`, NaN stays NaN, a subnormal `x` gives
    /// `x·0.5` rounded, ±0 keep their sign, and the far negative tail is
    /// −0 with a zero derivative.
    #[test]
    fn gelu_takes_its_limits_at_infinities_nan_subnormals_and_the_tail() {
        let tiny = [1u32, 2, 3, 0x0040_0001, 0x007f_ffff];
        let subnormals = tiny
            .iter()
            .flat_map(|&b| [b, b | 0x8000_0000])
            .map(f32::from_bits);
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            let label = kt.mode.label();
            let one = |x: f32| {
                let [h, _, _, g] = run_gelu(kt, &[x]);
                (h[0], g[0])
            };
            assert_eq!(one(f32::NEG_INFINITY).0.to_bits(), 0x8000_0000, "{label}");
            assert_eq!(one(f32::INFINITY).0, f32::INFINITY, "{label}");
            assert!(one(f32::NAN).0.is_nan(), "{label}");
            assert!(one(NAN).0.is_nan(), "{label}");
            assert_eq!(one(0.0).0.to_bits(), 0, "{label}");
            assert_eq!(one(-0.0).0.to_bits(), 0x8000_0000, "{label}");
            for x in subnormals.clone() {
                assert_eq!(one(x).0.to_bits(), (x * 0.5).to_bits(), "{label} {x:e}");
            }
            for x in [-7.778_842_4, -12.0, -1e3] {
                let (h, d) = one(x);
                assert_eq!((h.to_bits(), d), (0x8000_0000, 0.0), "{label} {x:e}");
            }
            assert_eq!(one(-f32::MAX).0.to_bits(), 0x8000_0000, "{label}");
            assert_eq!(one(1e3).0, 1e3, "{label}");
        }
    }

    /// `gelu'` where `x²` would overflow, in every table, on whole lanes
    /// and the tail: 1 on the positive side and 0 on the negative (its
    /// limits), from ±1e19 (the clamp) through ±1e20, ±`f32::MAX` and
    /// ±inf, and NaN for NaN.
    #[test]
    fn gelu_backward_takes_its_limits_past_the_clamp() {
        let big = [1e19f32, 1e20, f32::MAX, f32::INFINITY];
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            let label = kt.mode.label();
            let derivative = |x: f32| {
                let xs = vec![x; 33];
                let [_, pre, sig, _] = run_gelu(kt, &xs);
                let mut d = vec![1.0; xs.len()];
                (kt.gelu_backward)(&pre, &sig, &mut d);
                d
            };
            for x in big {
                assert!(
                    derivative(x).iter().all(|&d| d == 1.0),
                    "{label} gelu'({x:e})"
                );
                assert!(
                    derivative(-x).iter().all(|&d| d == 0.0),
                    "{label} gelu'(-{x:e})"
                );
            }
            for nan in [f32::NAN, NAN] {
                assert!(
                    derivative(nan).iter().all(|d| d.is_nan()),
                    "{label} gelu'(NaN)"
                );
            }
        }
    }

    /// The widths the row-block sweeps take for `M` and `E`: either side
    /// of every lane count and tree width.
    const ROW_WIDTHS: [usize; 11] = [1, 4, 7, 8, 15, 16, 17, 31, 32, 33, 64];

    /// `rows × width` values, with ±0, ±inf, NaN and subnormals among
    /// them when `special`.
    fn block_of(rows: usize, width: usize, seed: u64, special: bool) -> Vec<f32> {
        let v = ramp(rows * width, seed);
        if special {
            sprinkle(v, seed)
        } else {
            v
        }
    }

    /// Every table's `softmax_rows` equals [`softmax_ref`] row by row,
    /// and its top-k the scalar scan of those probabilities, for every
    /// `E` of [`ROW_WIDTHS`], `k` of 0 (softmax only), 1, 2 and `E`, on
    /// blocks of 0, 1, 3 and 9 rows, plain and holding ±0, ±inf, NaN and
    /// subnormals.
    #[test]
    fn softmax_rows_equals_a_per_element_oracle_in_every_table() {
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            for e in ROW_WIDTHS {
                for (rows, special) in [0, 1, 3, 9]
                    .into_iter()
                    .flat_map(|r| [(r, false), (r, true)])
                {
                    let x = block_of(rows, e, (e * 31 + rows) as u64, special);
                    let want: Vec<f32> = x.chunks(e).flat_map(softmax_ref).collect();
                    for k in [0, 1, 2.min(e), e] {
                        let slots = || (vec![0u32; rows * k], vec![0.0f32; rows * k]);
                        let (mut got, (mut gi, mut gv)) = (x.clone(), slots());
                        (kt.softmax_rows)(&mut got, e, &mut gi, &mut gv);
                        let (mut wi, mut wv) = slots();
                        for (r, row) in want.chunks(e).enumerate().filter(|_| k > 0) {
                            crate::ops::topk_scan(
                                row,
                                &mut wi[r * k..][..k],
                                &mut wv[r * k..][..k],
                            );
                        }
                        let at = format!("{} E {e} rows {rows} k {k} {special}", kt.mode.label());
                        assert_eq!(bits(&got), bits(&want), "{at} probabilities");
                        assert_eq!((gi, bits(&gv)), (wi, bits(&wv)), "{at} top-k");
                    }
                }
            }
        }
    }

    /// One block of `rows` (of `e` columns) through `kt`'s
    /// `softmax_rows`, no top-k.
    fn softmax_of(kt: &KernelTable, rows: &[f32], e: usize) -> Vec<f32> {
        let mut p = rows.to_vec();
        (kt.softmax_rows)(&mut p, e, &mut [], &mut []);
        p
    }

    /// The margin past which an `f32` softmax's top-k must pick what an
    /// `f64` softmax picks: `max − v` is rounded to `f32` before
    /// `exp_neg`, so a probability carries a relative error near `a ·
    /// 2⁻²⁴` on top of `exp_neg`'s ULP, below 1e−6 for these rows.
    const PICK_EPS: f64 = 1e-5;

    /// Softmax in every table: a row whose spread passes `EXP_NEG_CUT`
    /// gives exact `+0` past the cut and no subnormal, and
    /// `softmax_grad_rows` on it no subnormal either; a one-hot row gives
    /// exactly 1 at its max; rows holding NaN or ±inf give what the
    /// `expf` port gave (NaN wherever `max − v` is NaN anywhere in the
    /// row, 0 at `−inf`); on random rows the top-k equals an `f64`
    /// softmax's wherever each of its first `k` margins exceeds
    /// [`PICK_EPS`]; exact ties pick the lower column first. A numerator
    /// within `ln Σ` of the cut can still divide to a subnormal
    /// probability; the spread row keeps its kept numerators above that.
    #[test]
    fn softmax_makes_no_subnormal_and_its_top_k_matches_an_f64_softmax() {
        // Numerators at a = 0 .. 78, then a past the cut up to `+inf`.
        let kept = [0.0f32, 1.0, 2.5, 13.0, 43.0, 78.0];
        let past = [
            87.34f32,
            87.5,
            90.0,
            100.0,
            150.0,
            1e3,
            1e30,
            f32::MAX,
            f32::INFINITY,
        ];
        let spread: Vec<f32> = kept
            .iter()
            .chain(&past)
            .chain(&[200.0; 4])
            .map(|a| 3.0 - a)
            .collect();
        let e = spread.len();
        let picks = [0u32, 3];
        let aux: Vec<f32> = (0..e).map(|j| 0.25 - 0.125 * j as f32).collect();
        let special: [(&[f32], &[f32]); 7] = [
            (&[f32::NAN, 1.0, 2.0], &[f32::NAN; 3]),
            (&[f32::INFINITY, 1.0, 2.0], &[f32::NAN; 3]),
            (&[f32::INFINITY, f32::INFINITY], &[f32::NAN; 2]),
            (&[f32::INFINITY, f32::NEG_INFINITY], &[f32::NAN; 2]),
            (&[f32::NEG_INFINITY, f32::NEG_INFINITY], &[f32::NAN; 2]),
            (&[f32::NEG_INFINITY, 1.0, 1.0], &[0.0, 0.5, 0.5]),
            (
                &[f32::NEG_INFINITY, 2.0, f32::NEG_INFINITY, 2.0, 2.0, 2.0],
                &[0.0, 0.25, 0.0, 0.25, 0.25, 0.25],
            ),
        ];
        let mut tie19 = [0.0f32; 19];
        for j in [3, 17, 18] {
            tie19[j] = 4.0;
        }
        let ties: [(&[f32], &[u32]); 4] = [
            (&[1.0, 3.0, 3.0, 2.0], &[1, 2]),
            (&[5.0; 4], &[0, 1, 2]),
            (&[0.0, 2.0, 1.0, 2.0, 2.0], &[1, 3]),
            (&tie19, &[3, 17, 18]),
        ];
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            let label = kt.mode.label();
            let p = softmax_of(kt, &spread, e);
            for (j, &v) in p.iter().enumerate() {
                assert!(!v.is_subnormal(), "{label} spread p[{j}] = {v:e}");
                let gone = j >= kept.len();
                assert!(!gone || v.to_bits() == 0, "{label} spread p[{j}] = {v:e}");
            }
            for normalized in [false, true] {
                let mut g = vec![0.0; e];
                (kt.softmax_grad_rows)(&p, &picks, &[0.3, -0.7], &aux, normalized, &mut g);
                for (j, &v) in g.iter().enumerate() {
                    assert!(!v.is_subnormal(), "{label} spread grad[{j}] = {v:e}");
                    assert!(
                        j < kept.len() || v == 0.0,
                        "{label} spread grad[{j}] = {v:e}"
                    );
                }
            }
            for hot in [0, 8, 16, e - 1] {
                let row: Vec<f32> = (0..e).map(|j| if j == hot { 100.0 } else { 0.0 }).collect();
                let p = softmax_of(kt, &row, e);
                let want: Vec<f32> = (0..e).map(|j| if j == hot { 1.0 } else { 0.0 }).collect();
                assert_eq!(bits(&p), bits(&want), "{label} one-hot at {hot}");
            }
            for (row, want) in special {
                let p = softmax_of(kt, row, row.len());
                assert!(
                    p.iter().zip(want).all(|(&v, &w)| same(v, w)),
                    "{label} {row:?}: {p:?}"
                );
            }
            let top_k = |rows: &[f32], e: usize, k: usize| {
                let (mut idx, mut val) = (
                    vec![0u32; rows.len() / e * k],
                    vec![0.0; rows.len() / e * k],
                );
                (kt.softmax_rows)(&mut rows.to_vec(), e, &mut idx, &mut val);
                idx
            };
            let (mut compared, mut total) = (0, 0);
            for (e, seed) in [(8usize, 71u64), (19, 72), (64, 73)] {
                let rows = ramp(e * 200, seed);
                for k in [1, 2, 4] {
                    let idx = top_k(&rows, e, k);
                    for (r, row) in rows.chunks(e).enumerate() {
                        let p = softmax_f64(row);
                        let mut order: Vec<usize> = (0..e).collect();
                        order.sort_by(|&i, &j| p[j].total_cmp(&p[i]).then(i.cmp(&j)));
                        total += 1;
                        if (0..k).all(|i| p[order[i]] - p[order[i + 1]] > PICK_EPS) {
                            compared += 1;
                            let want: Vec<u32> = order[..k].iter().map(|&i| i as u32).collect();
                            assert_eq!(idx[r * k..][..k], want[..], "{label} E {e} k {k} row {r}");
                        }
                    }
                }
            }
            assert!(
                compared * 20 >= total * 19,
                "{label}: {compared} of {total} rows compared"
            );
            for (row, want) in ties {
                let idx = top_k(row, row.len(), want.len());
                assert_eq!(idx, want, "{label} ties {row:?}");
            }
        }
    }

    /// The softmax of one row in `f64`, from the `f32` inputs.
    fn softmax_f64(row: &[f32]) -> Vec<f64> {
        let max = row
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| m.max(f64::from(v)));
        let e: Vec<f64> = row.iter().map(|&v| (f64::from(v) - max).exp()).collect();
        let sum: f64 = e.iter().sum();
        e.iter().map(|v| v / sum).collect()
    }

    /// A routed block for the dispatch sweeps: `tokens` token rows of `k`
    /// picks over three bins at `offsets` (the middle one empty), every
    /// fifth pick dropped, and `owner`, packed row → pick, with some
    /// rows unowned.
    struct Routed {
        offsets: Vec<usize>,
        expert: Vec<u32>,
        slot: Vec<u32>,
        owner: Vec<u32>,
    }

    fn routed(tokens: usize, k: usize) -> Routed {
        let offsets = vec![0, 5, 5, 13];
        let picks = tokens * k;
        let expert: Vec<u32> = (0..picks).map(|a| [0, 2][a % 2]).collect();
        let slot = (0..picks)
            .map(|a| {
                let bin = offsets[expert[a] as usize + 1] - offsets[expert[a] as usize];
                if a % 5 == 4 {
                    NO_ROW
                } else {
                    (a % bin) as u32
                }
            })
            .collect();
        let owner = (0..offsets[3])
            .map(|s| match picks {
                _ if s % 4 == 3 || picks == 0 => NO_ROW,
                _ => ((s * 7) % picks) as u32,
            })
            .collect();
        Routed {
            offsets,
            expert,
            slot,
            owner,
        }
    }

    /// Every table's `gather_rows`, `combine_rows` and `dot_rows` equal
    /// per-element oracles — a copy, `0 + g·v`, sums from zero in pick
    /// order (`o + v`, or `o + g·v`), [`tree_sum_ref`]'s dot — with and
    /// without gate weights, for every `M` of
    /// [`ROW_WIDTHS`] and `k` of 1–3, on blocks of 0 and 11 token rows
    /// whose picks include dropped ones and whose packed rows include
    /// unowned ones, the values plain and holding ±0, ±inf, NaN and
    /// subnormals.
    #[test]
    fn dispatch_row_entries_equal_per_element_oracles_in_every_table() {
        let garbage = |n: usize| vec![f32::from_bits(0x7fa0_0001); n];
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            for m in ROW_WIDTHS {
                for (tokens, k, special) in [0, 11]
                    .into_iter()
                    .flat_map(|t| (1..=3).flat_map(move |k| [(t, k, false), (t, k, true)]))
                {
                    let seed = (m * 7 + tokens * 3 + k) as u64;
                    let at = format!("{} M {m} T {tokens} k {k} {special}", kt.mode.label());
                    let r = routed(tokens, k);
                    let packed_rows = r.offsets[3];
                    let tok = block_of(tokens, m, seed, special);
                    let packed = block_of(packed_rows, m, seed + 1, special);
                    let gates = block_of(tokens, k, seed + 2, special);
                    let picks = Picks {
                        offsets: &r.offsets,
                        expert: &r.expert,
                        slot: &r.slot,
                    };
                    let owners: &[u32] = if tokens == 0 { &[] } else { &r.owner };
                    for gate in [None, Some(&gates[..])] {
                        // Slot-major: packed rows from token rows.
                        let mut got = garbage(owners.len() * m);
                        (kt.gather_rows)(&tok, m, owners, k, gate, &mut got);
                        let mut want = garbage(owners.len() * m);
                        for (&a, orow) in owners.iter().zip(want.chunks_mut(m)) {
                            let row = (a != NO_ROW).then(|| &tok[a as usize / k * m..][..m]);
                            for (j, o) in orow.iter_mut().enumerate() {
                                *o = match (row, gate) {
                                    (None, _) => 0.0,
                                    (Some(row), None) => row[j],
                                    (Some(row), Some(g)) => 0.0 + g[a as usize] * row[j],
                                };
                            }
                        }
                        assert_eq!(bits(&got), bits(&want), "{at} gather {}", gate.is_some());

                        // Token-major: token rows from packed rows.
                        let mut got = garbage(tokens * m);
                        (kt.combine_rows)(&packed, m, picks, k, gate, &mut got);
                        let mut want = garbage(tokens * m);
                        for (t, orow) in want.chunks_mut(m).enumerate() {
                            orow.fill(0.0);
                            for a in t * k..(t + 1) * k {
                                if let Some(s) = picks.row(a) {
                                    let row = &packed[s * m..][..m];
                                    for (o, &v) in orow.iter_mut().zip(row) {
                                        *o = match gate {
                                            None => *o + v,
                                            Some(g) => *o + g[a] * v,
                                        };
                                    }
                                }
                            }
                        }
                        assert_eq!(bits(&got), bits(&want), "{at} combine {}", gate.is_some());
                    }
                    let mut got = garbage(tokens * k);
                    (kt.dot_rows)(&packed, &tok, m, picks, k, &mut got);
                    let want: Vec<f32> = (0..tokens * k)
                        .map(|a| match picks.row(a) {
                            Some(s) => tree_sum_ref(m, |i| packed[s * m + i] * tok[a / k * m + i]),
                            None => 0.0,
                        })
                        .collect();
                    assert_eq!(bits(&got), bits(&want), "{at} dot");
                }
            }
        }
    }

    /// Every table's `softmax_grad_rows` equals the gate chain's backward
    /// written row by row — zeroed row, gate term, `+= aux`, the
    /// sequential `⟨y, g⟩`, `y ⊙ (g − dot)` — for every `E` of
    /// [`ROW_WIDTHS`], `k` of 1, 2 and `E`, normalized and not, on blocks
    /// of 0, 1, 7, 8, 9 and 17 rows (either side of the eight rows whose
    /// dots run together), plain and holding ±0, ±inf, NaN and
    /// subnormals.
    #[test]
    fn softmax_grad_rows_equals_the_per_row_chain_in_every_table() {
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            for e in ROW_WIDTHS {
                for (rows, special) in [0, 1, 7, 8, 9, 17]
                    .into_iter()
                    .flat_map(|r| [(r, false), (r, true)])
                {
                    let seed = (e * 13 + rows) as u64;
                    let y = block_of(rows, e, seed, special);
                    let aux = block_of(1, e, seed + 1, special);
                    for (k, normalized) in [1, 2.min(e), e]
                        .into_iter()
                        .flat_map(|k| [(k, false), (k, true)])
                    {
                        let picks: Vec<u32> = (0..rows * k)
                            .map(|a| ((a / k + a % k) % e) as u32)
                            .collect();
                        let d_gates = block_of(rows, k, seed + 2, special);
                        let mut got = vec![f32::from_bits(0x7fa0_0001); rows * e];
                        (kt.softmax_grad_rows)(&y, &picks, &d_gates, &aux, normalized, &mut got);
                        let mut want = vec![0.0f32; rows * e];
                        for (r, (yrow, orow)) in y.chunks(e).zip(want.chunks_mut(e)).enumerate() {
                            let (picks, dg) = (&picks[r * k..][..k], &d_gates[r * k..][..k]);
                            orow.fill(0.0);
                            if normalized {
                                let s: f32 = picks
                                    .iter()
                                    .map(|&p| yrow[p as usize])
                                    .sum::<f32>()
                                    .max(1e-9);
                                let dot: f32 = dg
                                    .iter()
                                    .zip(picks)
                                    .map(|(d, &p)| d * (yrow[p as usize] / s))
                                    .sum();
                                for (&p, d) in picks.iter().zip(dg) {
                                    orow[p as usize] = (d - dot) / s;
                                }
                            } else {
                                for (&p, &d) in picks.iter().zip(dg) {
                                    orow[p as usize] = d;
                                }
                            }
                            for (g, c) in orow.iter_mut().zip(&aux) {
                                *g += c;
                            }
                            let dot: f32 = yrow.iter().zip(orow.iter()).map(|(y, g)| y * g).sum();
                            for (g, y) in orow.iter_mut().zip(yrow) {
                                *g = y * (*g - dot);
                            }
                        }
                        let at = format!(
                            "{} E {e} rows {rows} k {k} {normalized} {special}",
                            kt.mode.label()
                        );
                        assert_eq!(bits(&got), bits(&want), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[ignore = "sweeps all 2^32 inputs (minutes in release): ci.sh runs it by name"]
    fn gelu_judge_holds_and_simd_lanes_match_scalar_exhaustively() {
        // Small enough that the checks' scratch vectors stay below
        // the allocator's mmap threshold and are recycled, not faulted.
        const CHUNK: u64 = 1 << 12;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunks = (1u64 << 32) / CHUNK;
        let judge = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut judge = GeluJudge::default();
                        for c in (w..chunks).step_by(workers as usize) {
                            let xs: Vec<f32> = (c * CHUNK..(c + 1) * CHUNK)
                                .map(|b| f32::from_bits(b as u32))
                                .collect();
                            judge.add(&xs, &check_gelu(&xs));
                        }
                        judge
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold(GeluJudge::default(), GeluJudge::merge)
        });
        judge.assert_bounds();
    }

    /// `exp_neg` on one lane against `f64` `exp`, on a stride of its
    /// domain `[0, EXP_NEG_CUT]`: within 2 ULP, and normal.
    #[test]
    fn exp_neg_is_within_two_ulp_and_normal_on_its_domain() {
        let top = EXP_NEG_CUT.to_bits();
        for a in (0..=top).step_by(4099).chain([top]).map(f32::from_bits) {
            let got = exp_neg(a);
            let want = (-f64::from(a)).exp();
            let err = (f64::from(got) - want).abs() / ulp_f32(want);
            assert!(
                err <= 2.0 && got.is_normal(),
                "exp_neg({a:e}) = {got:e}, {err} ULP"
            );
        }
    }

    /// [`ExpJudge`] on the edges of `exp_neg`'s domain and on every 65
    /// 537th pattern: the exhaustive judge's checks, sampled.
    #[test]
    fn exp_neg_judge_holds_on_edges_and_a_stride() {
        let mut judge = ExpJudge::default();
        judge.add(&exp_neg_edges());
        let stride: Vec<f32> = (0..=0x7fc0_0000)
            .step_by(65_537)
            .map(f32::from_bits)
            .collect();
        judge.add(&stride);
        judge.assert_bound();
    }

    #[test]
    #[ignore = "sweeps every exp_neg input (a minute or more in release): ci.sh runs it by name"]
    fn exp_neg_judge_holds_and_simd_lanes_match_scalar_exhaustively() {
        // Whole rows of `judge_rows`, small enough that the scratch
        // vectors stay below the allocator's mmap threshold.
        const CHUNK: u32 = (JUDGE_COLS as u32 - 1) << 7;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let top = EXP_NEG_CUT.to_bits();
        let chunks = top / CHUNK + 1;
        let judge = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut judge = ExpJudge::default();
                        for c in (w..chunks).step_by(workers as usize) {
                            let end = (c * CHUNK).saturating_add(CHUNK - 1).min(top);
                            let a_s: Vec<f32> = (c * CHUNK..=end).map(f32::from_bits).collect();
                            judge.add(&a_s);
                        }
                        judge
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold(ExpJudge::default(), ExpJudge::merge)
        });
        let mut edges = ExpJudge::default();
        edges.add(&exp_neg_edges());
        judge.merge(edges).assert_bound();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Independent round-to-nearest-even reference: pick between
        /// the two neighboring bf16 values by exact `f64` distance,
        /// breaking ties toward the even (low-bit-zero) encoding.
        /// Defined for finite inputs only.
        pub(super) fn bf16_reference(v: f32) -> u16 {
            let down = (v.to_bits() >> 16) as u16;
            let lo = unpack(down);
            if lo == v {
                return down;
            }
            let up = down.wrapping_add(1);
            let hi = unpack(up);
            // When `up` overflows past the largest finite bf16 it
            // encodes ±inf, but for rounding purposes it denotes the
            // phantom value ±2¹²⁸ (exact in f64) — IEEE RNE overflows
            // to inf exactly when that phantom value is nearer.
            let hi_val = if hi.is_finite() {
                f64::from(hi)
            } else {
                2.0f64.powi(128) * f64::from(v.signum())
            };
            let dl = (f64::from(v) - f64::from(lo)).abs();
            let dh = (hi_val - f64::from(v)).abs();
            match dl.partial_cmp(&dh) {
                Some(std::cmp::Ordering::Less) => down,
                Some(std::cmp::Ordering::Greater) => up,
                _ => {
                    if down & 1 == 0 {
                        down
                    } else {
                        up
                    }
                }
            }
        }

        /// The exact `f32` that bf16 storage bits denote.
        pub(super) fn unpack(h: u16) -> f32 {
            f32::from_bits(u32::from(h) << 16)
        }

        /// `len` values from `seed`, as a sub-slice starting at the odd
        /// float offset `skew` of a larger buffer, so no 8-lane access
        /// into it is 32-byte aligned.
        fn skewed(len: usize, seed: u64, skew: usize) -> Vec<f32> {
            let mut buf = ramp(skew, seed ^ 0x5eed);
            buf.extend(ramp(len, seed));
            buf
        }

        /// Odd float offsets for [`skewed`].
        fn skew() -> impl Strategy<Value = usize> {
            (0usize..4).prop_map(|s| 2 * s + 1)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every micro-tile of every table (6 × 16 on AVX2; 12- or
            /// 6-row × 32, then 6 × 16, on AVX-512; each table's edge at
            /// every narrower width) equals the per-element reference
            /// bit for bit on every row count `1..=MR`, every panel depth
            /// from `kc_len = 0` and a tile right of the first (`jc > 0`)
            /// of an `n` off the tile width, with A laid out as an `A·B`
            /// block or an `Aᵀ·B` block reads it (strides off the tile's
            /// shape), ±0, ±inf, NaN and subnormals among the operands,
            /// all three at odd offsets and exactly as long as the tile
            /// reaches — so a short tile's repeated rows read nothing
            /// past A.
            #[test]
            fn micro_tile_agrees_across_modes_on_edges(
                mr_eff in 1usize..=MR,
                kc_len in 0usize..20,
                (transposed, pad) in (any::<bool>(), 0usize..3),
                (jt, rem) in (1usize..3, 1usize..WIDE_TILE_COLS),
                skews in (skew(), skew(), skew()),
                seed in 0u64..1024,
            ) {
                for (cols, kt, tile) in std::iter::once(&SCALAR_TABLE).chain(simd_tables()).flat_map(|kt| {
                    let edges = (1..TILE_COLS).map(move |c| (c, kt, None));
                    kt.micro_tiles.iter().map(move |&(c, t)| (c, kt, Some(t))).chain(edges)
                }) {
                    let (n, jc) = ((jt + 1) * cols + 1 + rem % cols.max(2), jt * cols);
                    let (row, step) = if transposed { (1, mr_eff + pad) } else { (kc_len + pad, 1) };
                    let a_len = (mr_eff - 1) * row + kc_len.saturating_sub(1) * step + 1;
                    let a = sprinkle(skewed(a_len, seed, skews.0), seed);
                    let b = sprinkle(skewed(jc + span(kc_len, n, cols), seed + 1, skews.1), seed + 2);
                    let out = skewed(jc + span(mr_eff, n, cols), seed + 2, skews.2);
                    let (a, b) = (&a[skews.0..], &b[skews.1 + jc..]);
                    let (mut want, mut got) = (out.clone(), out);
                    let o = skews.2 + jc;
                    tile_ref((a, row, step), kc_len, b, &mut want[o..], n, mr_eff, cols);
                    match tile {
                        Some(tile) => tile(a, row, step, kc_len, b, &mut got[o..], n, mr_eff),
                        None => (kt.micro_edge)(a, row, step, kc_len, b, &mut got[o..], n, mr_eff, cols),
                    }
                    let label = kt.mode.label();
                    prop_assert_eq!(bits(&want), bits(&got), "{} {} strides ({}, {})", label, cols, row, step);
                }
            }

            /// `bf16_pack_one` implements round-to-nearest-even on
            /// every finite input, per the independent reference.
            #[test]
            fn bf16_pack_is_round_to_nearest_even(raw in any::<u32>()) {
                let v = f32::from_bits(raw);
                if v.is_finite() {
                    prop_assert_eq!(bf16_pack_one(v), bf16_reference(v), "v = {}", v);
                }
            }

            /// Packing a bf16 value gives back its storage bits, and
            /// rounding it is the identity (no double rounding).
            #[test]
            fn bf16_round_trip_is_stable(raw in any::<u32>()) {
                let h = (raw & 0xFFFF) as u16;
                let v = unpack(h);
                if !v.is_nan() {
                    prop_assert_eq!(bf16_pack_one(v), h);
                }
                prop_assert_eq!(bf16_round_one(v).to_bits(), v.to_bits());
            }

            /// Scalar and every SIMD table's `bf16_round` agree
            /// bit-for-bit on arbitrary bit patterns (all are pure
            /// integer pipelines, so even NaN payloads must match).
            #[test]
            fn bf16_round_agrees_across_modes(raws in proptest::collection::vec(any::<u32>(), 1..64)) {
                let mut rs: Vec<f32> = raws.iter().map(|&r| f32::from_bits(r)).collect();
                (SCALAR_TABLE.bf16_round)(&mut rs);
                for simd in simd_tables() {
                    let mut rv: Vec<f32> = raws.iter().map(|&r| f32::from_bits(r)).collect();
                    (simd.bf16_round)(&mut rv);
                    prop_assert_eq!(bits(&rs), bits(&rv), "{} round", simd.mode.label());
                }
            }
        }
    }
}
