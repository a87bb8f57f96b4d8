//! Runtime CPU-feature kernel dispatch: the **only** module in the
//! workspace allowed to touch `is_x86_feature_detected!` or
//! `#[target_feature]` (the `kernel_dispatch` lint enforces this).
//!
//! # Design
//!
//! CPU features are detected **once** (a `OnceLock`) and resolved into
//! one of three static [`KernelTable`]s of plain function pointers — a
//! scalar table that is the portable reference, an AVX2 table of
//! explicit `f32x8` intrinsic kernels, and an AVX-512 table whose GEMM
//! tiles and GELU are `f32x16` kernels and whose other entries are the
//! AVX2 ones; the SIMD tables' top-k is one plain body
//! (`ops::topk_by_max`) compiled under each table's target features.
//! Hot paths fetch the active table with [`table`] (two relaxed atomic
//! loads, no detection, no branching beyond the table select) and call
//! through the pointers; per-call feature checks never happen.
//!
//! # The bitwise-SIMD contract
//!
//! Every SIMD kernel is **bitwise-identical** to its scalar twin, so
//! the PR-3 determinism contract (results are a pure function of the
//! problem, never of the worker count) extends to the `TUTEL_SIMD`
//! axis unchanged. This falls out of four rules:
//!
//! 1. **No FMA in accumulation.** The scalar microkernel computes
//!    `acc += a * b` with *two* roundings (multiply, then add); a
//!    fused multiply-add rounds once and differs in the last bit. The
//!    SIMD kernels therefore emit `add(mul(..))` pairs — FMA
//!    availability is part of the detection gate (both SIMD tables are
//!    only installed on AVX2+FMA hosts, matching how real deployments
//!    ship one fat binary) but the instruction is deliberately never
//!    used where it would change results. The one place it is used is
//!    inside a transcendental whose definition fuses (rule 4's `exp`):
//!    there the scalar body fuses the very same steps with `mul_add`,
//!    which is exact on every host, and nothing is accumulated.
//! 2. **Lane-for-lane identical data flow.** A vector `add`/`mul`/
//!    `div`/`max` is the same IEEE operation per lane as the scalar
//!    loop it replaces, so any kernel that is already lane-parallel
//!    (the micro-tiles, `axpy`, lanewise divide, GELU) is bitwise for
//!    free, at 8 lanes or 16.
//! 3. **Shared reduction trees.** Horizontal reductions (dot, the
//!    `A·Bᵀ` tile, row max, row sum) strip-mine into [`NR`] = 8 lanes
//!    and collapse them with one fixed tree — `(l0+l4)+(l1+l5)`,
//!    `(l2+l6)+(l3+l7)`, then the pair, then the scalar tail — in
//!    *every* table. `dot` and the row reductions accumulate a row's
//!    lanes in one `ymm`; the `A·Bᵀ` tile keeps each output's eight
//!    lanes as eight accumulators whose vector lanes run across output
//!    columns, so the same tree is one vector add per level. Top-k
//!    compares unique integer keys, so any lane width finds the same
//!    maximum.
//! 4. **Transcendentals are ported, not called.** A libm call is
//!    scalar, branchy, and defined by whichever libm the host links,
//!    so neither a SIMD twin nor another host could match it bit
//!    for bit. The GELU's `tanh` is therefore `dispatch::tanh`, a
//!    branch-free port of glibc 2.36's `s_tanhf.c` + `s_expm1f.c`
//!    that computes every path and selects by mask, with 8- and
//!    16-lane twins that are the same data flow lane for lane (rule 2
//!    — separate `mul`/`add`, truncating `cvtt` for `k`, integer
//!    shifts for the exponent tricks, `blendv` or a mask-register
//!    blend for the selects). The port equals glibc 2.36's `tanhf` on
//!    all 2³² inputs, so digests pinned against that libm keep their
//!    bits, and no digest depends on the host's libm any more:
//!    elsewhere, the port is the definition. Softmax's `exp` is
//!    `dispatch::exp`, a branch-free port of glibc 2.36's `e_expf.c` as
//!    its ifunc resolves on an AVX2+FMA host (`__expf_fma`): `f64`
//!    arithmetic with exactly the four fused steps that build contracts
//!    (`InvLn2N·x − kd`, `C0·r + C1`, `C2·r + 1`, `z·r² + y`), a
//!    32-entry table of `2^(i/32)`, and the `|x| ≥ 88` filter selected
//!    last. Its 8-lane twin (two 4-lane `f64` halves, the table read by
//!    `gather`) is the AVX2 table's `exp_shift` entry, which the
//!    AVX-512 table reuses; both equal `f32::exp` on all 2³² inputs on
//!    such a host.
//!
//! Mode selection: `TUTEL_SIMD=0` forces scalar, unset or `1` uses the
//! widest table the host has (read once); [`set_simd_override`] flips
//! the mode in-process so differential harnesses can compare both
//! sides without re-exec.

use std::hint::select_unpredictable as select;
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
/// The strip-mining width of every lane-tree reduction (one `f32x8`).
pub const NR: usize = 8;
/// Rows of A per [`KernelTable::nt_tile`].
pub const NT_ROWS: usize = 3;
/// Columns of a packed `Bᵀ` panel and of every table's
/// [`KernelTable::nt_tile`]: the AVX-512 tile is one 16-lane vector
/// wide, the AVX2 tile runs the panel as two 8-lane halves.
pub const NT_COLS: usize = 16;

/// Which kernel family the active table dispatches to, narrowest
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdMode {
    /// Portable scalar kernels (the reference semantics).
    Scalar,
    /// Explicit AVX2 `f32x8` kernels (bitwise-identical to scalar).
    Avx2,
    /// `f32x16` GEMM tiles and GELU over the AVX2 table (also
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
/// Strip-mined dot product with the fixed lane tree.
pub type DotFn = fn(&[f32], &[f32]) -> f32;
/// `out[r * ldo + j] += dot(a_r, b_j)` over up to `NT_ROWS × NT_COLS`
/// outputs of one packed `Bᵀ` panel; see [`KernelTable::nt_tile`].
pub type NtTileFn = fn(&[f32], usize, usize, &[f32], &mut [f32], usize, usize);
/// One row's top `idx.len()` columns and values; see
/// [`KernelTable::topk`].
pub type TopkFn = fn(&[f32], &mut [u32], &mut [f32]);
/// `out[i] += a * v[i]`.
pub type AxpyFn = fn(f32, &[f32], &mut [f32]);
/// `out[i] += v[i]`.
pub type AddAssignFn = fn(&[f32], &mut [f32]);
/// Lane-tree horizontal reduction of one row.
pub type RowReduceFn = fn(&[f32]) -> f32;
/// `row[i] /= denom`.
pub type DivAssignFn = fn(&mut [f32], f32);
/// `row[i] ← exp(row[i] − shift)`; see [`KernelTable::exp_shift`].
pub type ExpShiftFn = fn(&mut [f32], f32);
/// In-place rounding of every element to its nearest bf16 value.
pub type Bf16RoundFn = fn(&mut [f32]);
/// GELU in place, `h[i] ← gelu(h[i])`; see [`KernelTable::gelu`].
pub type GeluFn = fn(&mut [f32], Option<(&mut [f32], &mut [f32])>);
/// `g[i] *= gelu'(pre[i])`; see [`KernelTable::gelu_backward`].
pub type GeluBackwardFn = fn(&[f32], &[f32], &mut [f32]);

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
    /// row and are never stored. Each element sums its `kc_len`
    /// products from zero in `p` order, then adds the sum to `out`: the
    /// order is the element's, not the tile's, so the tiles of every
    /// table are interchangeable bit for bit.
    pub micro_tiles: &'static [(usize, MicroTileFn)],
    /// 8-lane strip-mined dot product (fixed reduction tree).
    pub dot: DotFn,
    /// The `A·Bᵀ` tile, `(a, rows, k, panel, out, ldo, cols)`: `a`
    /// holds `rows ∈ 1..=NT_ROWS` rows of length `k > 0` back to back,
    /// `panel` is `k × NT_COLS` of `Bᵀ` (row `p` holds element `p` of
    /// each of `NT_COLS` B rows, zero past the last), and for `r < rows`,
    /// `j < cols ≤ NT_COLS`, `out[r * ldo + j] += dot(a_r, b_j)` bit for
    /// bit. Each output keeps [`dot`](Self::dot)'s eight accumulators,
    /// step `p < k − k % 8` adding into accumulator `p mod 8` (A before
    /// B, accumulator first), then the shared lane tree and the tail;
    /// the vector lanes run across the panel's columns, so the tree is
    /// one vector add per level for a whole row of outputs.
    pub nt_tile: NtTileFn,
    /// `(row, idx, val)`: the top `idx.len()` columns of `row`, best
    /// first, and their values read back from `row` (ties and NaN as
    /// [`Tensor::topk_last`](crate::Tensor::topk_last) orders them).
    /// The scalar table runs the one-scan insertion reference; the SIMD
    /// tables run one branch-free integer-max pass per slot over the
    /// same unique keys, so every table selects the same columns.
    pub topk: TopkFn,
    /// `out += a * v` over equal-length slices.
    pub axpy: AxpyFn,
    /// `out += v` over equal-length slices.
    pub add_assign: AddAssignFn,
    /// Lane-tree maximum of a row (`-inf` for an empty row).
    pub row_max: RowReduceFn,
    /// Lane-tree sum of a row.
    pub row_sum: RowReduceFn,
    /// Lanewise `row[i] /= denom`.
    pub div_assign: DivAssignFn,
    /// Lanewise `row[i] ← exp(row[i] − shift)`, the softmax numerator:
    /// the difference rounded to `f32`, then the ported `exp` (rule
    /// 4).
    pub exp_shift: ExpShiftFn,
    /// In-place round-to-nearest-even to the bf16 grid
    /// ([`bf16_round_one`] per element).
    pub bf16_round: Bf16RoundFn,
    /// GELU (tanh approximation) in place: `(h, keep)` replaces each
    /// `h[i]` by `gelu(h[i])`; with `keep = Some((pre, tanh))`
    /// (training) it also stores the input in `pre[i]` and
    /// `tanh(inner(h[i]))` in `tanh[i]`, equal-length slices. Every
    /// element is `ops::gelu_scalar` over the ported `tanh` (rule 4).
    pub gelu: GeluFn,
    /// `(pre, tanh, g)`: `g[i] *= gelu'(pre[i])`, reading the `tanh` a
    /// capturing [`gelu`](Self::gelu) stored (`ops::gelu_derivative`).
    pub gelu_backward: GeluBackwardFn,
}

static SCALAR_TABLE: KernelTable = KernelTable {
    mode: SimdMode::Scalar,
    micro_tiles: &[(TILE_COLS, scalar::micro_tile)],
    dot: scalar::dot,
    nt_tile: scalar::nt_tile,
    topk: crate::ops::topk_scan,
    axpy: scalar::axpy,
    add_assign: scalar::add_assign,
    row_max: scalar::row_max,
    row_sum: scalar::row_sum,
    div_assign: scalar::div_assign,
    exp_shift: scalar::exp_shift,
    bf16_round: scalar::bf16_round,
    gelu: scalar::gelu,
    gelu_backward: scalar::gelu_backward,
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
/// (round-to-nearest-even on the dropped 16 bits). The scalar
/// reference both tables' `bf16_round` kernels must match bit-for-bit.
#[inline]
pub fn bf16_round_one(v: f32) -> f32 {
    f32::from_bits((u32::from(bf16_pack_one(v))) << 16)
}

/// Packs one `f32` into bf16 storage bits (round-to-nearest-even).
#[inline]
pub fn bf16_pack_one(v: f32) -> u16 {
    let bits = v.to_bits();
    // Round-to-nearest-even on the truncated 16 low bits.
    let rounding_bias = 0x7FFF + ((bits >> 16) & 1);
    (bits.wrapping_add(rounding_bias) >> 16) as u16
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

/// The scalar micro-tile at any width `cols ≤ TILE_COLS`, with the
/// [`MicroTileFn`] arguments: the scalar table's tile, and every
/// table's right edge (`n % TILE_COLS` columns), so the bitwise
/// contract holds on the remainder for free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn micro_tile_edge(
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
                *aj += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr_eff) {
        for (o, &aj) in out[r * n..][..cols].iter_mut().zip(accr) {
            *o += aj;
        }
    }
}

/// `ln 2` split for the `expm1` argument reduction: `k · LN2_HI` is
/// exact for every `k` the reduction produces (glibc `s_expm1f.c`).
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `s_expm1f.c`'s scaled rational coefficients `Q1..Q5`.
const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `tanh(x)`, bit-identical to glibc 2.36's `tanhf` (`s_tanhf.c` +
/// `s_expm1f.c`, fdlibm) on every `f32` — the [module-level](self)
/// rule 4. Branch-free: every path is computed and the result picked
/// by an unpredictable select, which the AVX2 twin mirrors with
/// `blendv`; no libm call. NaN in, NaN out. Always inlined, so a plain
/// loop over it (the scalar table's `gelu`) auto-vectorises: every
/// step is a lane-wise IEEE operation, so that moves no bit.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    // |x| ≥ 1: tanh = 1 − 2/(expm1(2|x|) + 2); below: −t/(t + 2) with
    // t = expm1(−2|x|).
    let big = ix >= 0x3f80_0000;
    let ax = f32::from_bits(ix);
    let t = expm1_for_tanh(select(big, 2.0 * ax, -2.0 * ax));
    let z = select(big, 1.0 - 2.0 / (t + 2.0), -t / (t + 2.0));
    // |x| ≥ 22 (and ±inf): ±1 (`one - tiny` rounds to 1).
    let z = select(ix >= 0x41b0_0000, 1.0, z);
    let z = select(x.is_sign_negative(), -z, z);
    // |x| < 2⁻⁵⁵, ±0 included.
    let z = select(ix < 0x2400_0000, x * (1.0 + x), z);
    select(ix > 0x7f80_0000, x + x, z)
}

/// `e_expf.c`'s `2^(i/32)` table, as `bits(2^(i/32)) − (i << 47)`: adding
/// `k << 47` for `k ≡ i (mod 32)` gives `2^(k/32)`'s bits.
const EXP2_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `32 / ln 2`: `x · EXP_INV_LN2_N = k + r` splits `exp(x) = 2^(k/32) · 2^(r/32)`.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds a double to an integer in its low bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `e_expf.c`'s scaled `2^(r/32)` polynomial, `C0·r³ + C1·r² + C2·r + 1`.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `x` above this (`0x1.62e42ep6`, `ln 2¹²⁸`) overflows to `+inf`.
const EXP_OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `x` below this (`-0x1.9fe368p6`, `ln 2⁻¹⁵⁰`) underflows to `+0`.
const EXP_UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `x` below this (`-0x1.9d1d9ep6`, `ln 2⁻¹⁴⁹`) rounds to the least
/// subnormal, glibc's `__math_may_uflowf` result.
const EXP_MAY_UFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// `exp(x)`, bit-identical to glibc 2.36's `expf` as its ifunc resolves
/// on an AVX2+FMA host (`__expf_fma`: `e_expf.c` compiled with FMA
/// contraction) on every `f32` — the [module-level](self) rule 4. The
/// body runs in `f64` like the C source, and exactly its four
/// contracted steps are fused here: `r = InvLn2N·x − kd`, `C0·r + C1`,
/// `C2·r + 1` and `z·r² + y`. Those fusions define the transcendental;
/// nothing is accumulated, so rule 1 does not apply. Branch-free: the
/// special inputs are selected after the main path, which the 8-lane
/// twin mirrors with `blendv`. `f64::mul_add` is exact on every host,
/// so the scalar body is the same function with or without FMA
/// hardware.
#[inline(always)]
pub(crate) fn exp(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·N/ln2 = k + r, |r| ≤ 1/2: `kd` is z rounded to an integer, whose
    // bits `ki` carry k in their low half.
    let z = EXP_INV_LN2_N * xd;
    let kd = z + EXP_SHIFT;
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INV_LN2_N.mul_add(xd, -kd);
    // 2^(k/N) from the table entry of k mod N, k/N added to its exponent.
    let s = f64::from_bits(EXP2_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP_C;
    let z = c0.mul_add(r, c1);
    let r2 = r * r;
    let y = c2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    let e = (y * s) as f32;
    // glibc's |x| ≥ 88 filter, lowest priority first.
    let e = select(x < EXP_MAY_UFLOW, f32::from_bits(1), e);
    let e = select(x < EXP_UFLOW, 0.0, e);
    let e = select(x > EXP_OFLOW, f32::INFINITY, e);
    let e = select(x.to_bits() & 0x7fff_ffff >= 0x7f80_0000, x + x, e);
    select(x == f32::NEG_INFINITY, 0.0, e)
}

/// `expm1(y)` (`s_expm1f.c`) on the arguments [`tanh`] selects:
/// `2 ≤ y < 44` or `−2 < y ≤ 0`. That domain never meets the huge or
/// non-finite filters nor the `k = 1` branch, so those are not ported;
/// arguments outside it (from lanes [`tanh`] then discards) return an
/// unspecified value without panicking.
#[inline(always)]
fn expm1_for_tanh(y: f32) -> f32 {
    let hx = y.to_bits() & 0x7fff_ffff;
    let neg = y.is_sign_negative();
    // Reduce y = k·ln2 + x, |x| ≤ ln2/2: `k = ±1` on (ln2/2, 3·ln2/2),
    // 0 below, where the formulas reduce exactly to `x = y`, `c = 0`.
    // `as` truncates toward zero, as C's float → int conversion.
    let k_far = (INV_LN2 * y + select(neg, -0.5, 0.5)) as i32;
    let k = select(hx < 0x3f85_1592, select(neg, -1, 1), k_far);
    let k = select(hx > 0x3eb1_7218, k, 0);
    let kf = k as f32;
    let hi = y - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (6.0 - x * t));
    let e = (x * (e0 - c) - c) - hxs;
    // Adds `k` to a float's exponent field.
    let scale = |v: f32| f32::from_bits(v.to_bits().wrapping_add((k << 23) as u32));
    let r_k0 = x - (x * e0 - hxs);
    let r_km1 = 0.5 * (x - e) - 0.5;
    let r_far = scale(1.0 - (e - x)) - 1.0;
    // 2 ≤ k < 23: t = 1 − 2⁻ᵏ (`checked_shr` is `srlv`'s 0 past 31).
    let t_small = 0x3f80_0000 - 0x0100_0000u32.checked_shr(k as u32).unwrap_or(0);
    let r_small = scale(f32::from_bits(t_small) - (e - x));
    // 23 ≤ k ≤ 56: t = 2⁻ᵏ.
    let t_mid = (0x7f_i32.wrapping_sub(k) as u32) << 23;
    let r_mid = scale((x - (e + f32::from_bits(t_mid))) + 1.0);
    // The C if-chain, lowest priority first.
    let r = select(k < 23, r_small, r_mid);
    let r = select(k <= -2 || k > 56, r_far, r);
    let r = select(k == -1, r_km1, r);
    let r = select(k == 0, r_k0, r);
    // |y| < 2⁻²⁵: expm1(y) rounds to y.
    select(hx < 0x3300_0000, y, r)
}

/// Portable reference kernels. These define the semantics; the SIMD
/// twins must match them bit-for-bit (pinned by the dispatch
/// proptests and the harness kernel-mode matrix).
mod scalar {
    use super::{max_lanes_tree, maxps, sum_lanes_tree, NR, NT_COLS, TILE_COLS};
    use crate::ops::{gelu_derivative, gelu_scalar};

    // The 8-ary signature IS the `MicroTileFn` table ABI: every table
    // must share it exactly so the pointers are interchangeable.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn micro_tile(
        a: &[f32],
        row: usize,
        step: usize,
        kc_len: usize,
        b: &[f32],
        out: &mut [f32],
        n: usize,
        mr_eff: usize,
    ) {
        super::micro_tile_edge(a, row, step, kc_len, b, out, n, mr_eff, TILE_COLS);
    }

    pub(super) fn dot(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let mut lanes = [0.0f32; NR];
        let blocks = x.len() / NR;
        for c in 0..blocks {
            let xb = &x[c * NR..c * NR + NR];
            let yb = &y[c * NR..c * NR + NR];
            for l in 0..NR {
                lanes[l] += xb[l] * yb[l];
            }
        }
        let mut tail = 0.0f32;
        for i in blocks * NR..x.len() {
            tail += x[i] * y[i];
        }
        sum_lanes_tree(&lanes) + tail
    }

    // The 7-ary signature IS the `NtTileFn` table ABI.
    pub(super) fn nt_tile(
        a: &[f32],
        rows: usize,
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        ldo: usize,
        cols: usize,
    ) {
        let (k8, panel) = (k - k % NR, &panel[..k * NT_COLS]);
        for (r, arow) in a[..rows * k].chunks_exact(k).enumerate() {
            // `dot`'s eight accumulators for each of the panel's columns.
            let mut lanes = [[0.0f32; NT_COLS]; NR];
            let mut tail = [0.0f32; NT_COLS];
            for (p, (&av, brow)) in arow.iter().zip(panel.chunks_exact(NT_COLS)).enumerate() {
                let acc = if p < k8 {
                    &mut lanes[p % NR]
                } else {
                    &mut tail
                };
                for (l, &bv) in acc.iter_mut().zip(brow) {
                    *l += av * bv;
                }
            }
            for (j, o) in out[r * ldo..][..cols].iter_mut().enumerate() {
                *o += sum_lanes_tree(&std::array::from_fn(|l| lanes[l][j])) + tail[j];
            }
        }
    }

    pub(super) fn axpy(a: f32, v: &[f32], out: &mut [f32]) {
        debug_assert_eq!(v.len(), out.len());
        for (o, &x) in out.iter_mut().zip(v) {
            *o += a * x;
        }
    }

    pub(super) fn add_assign(v: &[f32], out: &mut [f32]) {
        debug_assert_eq!(v.len(), out.len());
        for (o, &x) in out.iter_mut().zip(v) {
            *o += x;
        }
    }

    pub(super) fn row_max(x: &[f32]) -> f32 {
        let mut lanes = [f32::NEG_INFINITY; NR];
        let blocks = x.len() / NR;
        for c in 0..blocks {
            let xb = &x[c * NR..c * NR + NR];
            for l in 0..NR {
                lanes[l] = maxps(lanes[l], xb[l]);
            }
        }
        let mut m = max_lanes_tree(&lanes);
        for &v in &x[blocks * NR..] {
            m = maxps(m, v);
        }
        m
    }

    pub(super) fn row_sum(x: &[f32]) -> f32 {
        let mut lanes = [0.0f32; NR];
        let blocks = x.len() / NR;
        for c in 0..blocks {
            let xb = &x[c * NR..c * NR + NR];
            for l in 0..NR {
                lanes[l] += xb[l];
            }
        }
        let mut tail = 0.0f32;
        for &v in &x[blocks * NR..] {
            tail += v;
        }
        sum_lanes_tree(&lanes) + tail
    }

    pub(super) fn div_assign(row: &mut [f32], denom: f32) {
        for v in row.iter_mut() {
            *v /= denom;
        }
    }

    pub(super) fn exp_shift(row: &mut [f32], shift: f32) {
        for v in row.iter_mut() {
            *v = super::exp(*v - shift);
        }
    }

    pub(super) fn bf16_round(data: &mut [f32]) {
        for v in data.iter_mut() {
            *v = super::bf16_round_one(*v);
        }
    }

    pub(super) fn gelu(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) {
        match keep {
            Some((pre, tanh)) => {
                debug_assert!(pre.len() == h.len() && tanh.len() == h.len());
                for ((v, p), t) in h.iter_mut().zip(pre).zip(tanh) {
                    *p = *v;
                    (*v, *t) = gelu_scalar(*v);
                }
            }
            None => {
                for v in h {
                    *v = gelu_scalar(*v).0;
                }
            }
        }
    }

    pub(super) fn gelu_backward(pre: &[f32], tanh: &[f32], g: &mut [f32]) {
        debug_assert!(pre.len() == g.len() && tanh.len() == g.len());
        for ((g, &x), &t) in g.iter_mut().zip(pre).zip(tanh) {
            *g *= gelu_derivative(x, t);
        }
    }
}

/// Explicit AVX2 `f32x8` kernels. Every entry is a safe wrapper whose
/// body is a `#[target_feature(enable = "avx2")]` function; the
/// wrappers are only reachable through [`TABLE`] and the AVX-512
/// table, which [`table`](super::table) returns exclusively after
/// [`simd_modes`](super::simd_modes) confirmed AVX2+FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        halves, max_lanes_tree, maxps, span, sum_lanes_tree, ARows, KernelTable, SimdMode,
        EXP2_TAB, EXPM1_Q, EXP_C, EXP_INV_LN2_N, EXP_MAY_UFLOW, EXP_OFLOW, EXP_SHIFT, EXP_UFLOW,
        HALF_MR, INV_LN2, LN2_HI, LN2_LO, NR, NT_COLS, NT_ROWS, TILE_COLS,
    };
    use crate::ops::{gelu_derivative, gelu_scalar, GELU_CUBIC, SQRT_2_OVER_PI};
    use core::arch::x86_64::{
        __m256, __m256d, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_pd, _mm256_add_ps,
        _mm256_and_ps, _mm256_and_si256, _mm256_blendv_epi8, _mm256_blendv_ps, _mm256_castpd_si256,
        _mm256_castps256_ps128, _mm256_castps_si256, _mm256_castsi256_pd, _mm256_castsi256_ps,
        _mm256_cmp_ps, _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_cvtepi32_ps, _mm256_cvtpd_ps,
        _mm256_cvtps_pd, _mm256_cvttps_epi32, _mm256_div_ps, _mm256_extractf128_ps,
        _mm256_fmadd_pd, _mm256_fmsub_pd, _mm256_i64gather_epi64, _mm256_loadu_ps,
        _mm256_loadu_si256, _mm256_max_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_or_si256,
        _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_set1_ps, _mm256_set_m128,
        _mm256_setzero_ps, _mm256_setzero_si256, _mm256_slli_epi32, _mm256_slli_epi64,
        _mm256_srai_epi32, _mm256_srli_epi32, _mm256_srlv_epi32, _mm256_storeu_ps,
        _mm256_storeu_si256, _mm256_sub_epi32, _mm256_sub_pd, _mm256_sub_ps, _mm256_xor_ps,
        _CMP_GT_OQ, _CMP_LT_OQ,
    };

    pub(super) static TABLE: KernelTable = KernelTable {
        mode: SimdMode::Avx2,
        micro_tiles: &[(TILE_COLS, micro_tile)],
        dot,
        nt_tile,
        topk,
        axpy,
        add_assign,
        row_max,
        row_sum,
        div_assign,
        exp_shift,
        bf16_round,
        gelu,
        gelu_backward,
    };

    /// Loads 8 consecutive `f32`s from a slice of length ≥ `off + 8`.
    #[inline(always)]
    pub(super) fn load8(s: &[f32], off: usize) -> __m256 {
        debug_assert!(off + NR <= s.len());
        // SAFETY: the caller-checked bound above guarantees 8 in-range
        // f32s at `off`; unaligned loads are permitted by `loadu`.
        unsafe { _mm256_loadu_ps(s.as_ptr().add(off)) }
    }

    /// Stores 8 lanes over `s[off .. off + 8]`.
    #[inline(always)]
    pub(super) fn store8(s: &mut [f32], off: usize, v: __m256) {
        debug_assert!(off + NR <= s.len());
        // SAFETY: the bound above guarantees 8 in-range f32s at `off`;
        // unaligned stores are permitted by `storeu`.
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(off), v) }
    }

    // The 8-ary signature IS the `MicroTileFn` table ABI: every table
    // must share it exactly so the pointers are interchangeable.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn micro_tile(
        a: &[f32],
        row: usize,
        step: usize,
        kc_len: usize,
        b: &[f32],
        out: &mut [f32],
        n: usize,
        mr_eff: usize,
    ) {
        for (h, rows) in halves(mr_eff) {
            let (a, out) = (&a[h * row..], &mut out[h * n..]);
            // SAFETY: this wrapper is reachable only through `TABLE` and
            // the AVX-512 table, installed after AVX2+FMA detection.
            unsafe { micro_tile_body(a, row, step, kc_len, b, out, n, rows) }
        }
    }

    /// One `HALF_MR`-row pass of [`micro_tile`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn micro_tile_body(
        a: &[f32],
        row: usize,
        step: usize,
        kc_len: usize,
        b: &[f32],
        out: &mut [f32],
        n: usize,
        mr_eff: usize,
    ) {
        // With the tile inside a row, these two slices bound every
        // 8-lane access below.
        assert!(TILE_COLS <= n, "micro-tile past its row");
        let b = &b[..span(kc_len, n, TILE_COLS)];
        let out = &mut out[..span(mr_eff, n, TILE_COLS)];
        let a = ARows::<HALF_MR>::new(a, row, step, kc_len, mr_eff);
        // 12 accumulators, two B vectors and one broadcast: 15 of the
        // 16 `ymm` registers.
        let mut acc = [[_mm256_setzero_ps(); TILE_COLS / NR]; HALF_MR];
        for p in 0..kc_len {
            let bv = [load8(b, p * n), load8(b, p * n + NR)];
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(a.at(r, p));
                for (accv, &bv) in accr.iter_mut().zip(&bv) {
                    // Two roundings (mul, then add) exactly like the
                    // scalar kernel; `_mm256_fmadd_ps` would fuse them
                    // and break the bitwise contract.
                    *accv = _mm256_add_ps(*accv, _mm256_mul_ps(av, bv));
                }
            }
        }
        for (r, accr) in acc.iter().enumerate().take(mr_eff) {
            for (h, accv) in accr.iter().enumerate() {
                let sum = _mm256_add_ps(load8(out, r * n + h * NR), *accv);
                store8(out, r * n + h * NR, sum);
            }
        }
    }

    pub(super) fn dot(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { dot_body(x, y) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn dot_body(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let blocks = x.len() / NR;
        let lanes_v = {
            let mut acc = _mm256_setzero_ps();
            for c in 0..blocks {
                let prod = _mm256_mul_ps(load8(x, c * NR), load8(y, c * NR));
                acc = _mm256_add_ps(acc, prod);
            }
            acc
        };
        let mut lanes = [0.0f32; NR];
        store8(&mut lanes[..], 0, lanes_v);
        let mut tail = 0.0f32;
        for i in blocks * NR..x.len() {
            tail += x[i] * y[i];
        }
        sum_lanes_tree(&lanes) + tail
    }

    // The 7-ary signature IS the `NtTileFn` table ABI.
    fn nt_tile(
        a: &[f32],
        rows: usize,
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        ldo: usize,
        cols: usize,
    ) {
        assert!((1..=NT_ROWS).contains(&rows), "A·Bᵀ tile of {rows} rows");
        // SAFETY: reachable only through the detection-gated `TABLE`.
        unsafe {
            match rows {
                1 => nt_tile_body::<1>(a, k, panel, out, ldo, cols),
                2 => nt_tile_body::<2>(a, k, panel, out, ldo, cols),
                _ => nt_tile_body::<NT_ROWS>(a, k, panel, out, ldo, cols),
            }
        }
    }

    /// The `R`-row tile over each 8-column half of the panel that holds
    /// a column: [`nt_half_tree`] twice, then the tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn nt_tile_body<const R: usize>(
        a: &[f32],
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        ldo: usize,
        cols: usize,
    ) {
        // These bounds cover every access below.
        assert!(
            R <= NT_ROWS && cols <= NT_COLS && cols <= ldo,
            "A·Bᵀ tile shape"
        );
        let (a, panel) = (&a[..R * k], &panel[..k * NT_COLS]);
        let out = &mut out[..(R - 1) * ldo + cols];
        let k8 = k - k % NR;
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
        let ablocks: [&[[f32; NR]]; R] = arows.map(|row| row.as_chunks::<NR>().0);
        let pblocks = &panel[..k8 * NT_COLS];
        for h in (0..cols).step_by(NR) {
            let s0 = nt_half_tree::<R, 0>(&ablocks, pblocks, h);
            let s1 = nt_half_tree::<R, 2>(&ablocks, pblocks, h);
            for (r, arow) in arows.iter().enumerate() {
                let mut tail = _mm256_setzero_ps();
                for (p, &av) in arow.iter().enumerate().skip(k8) {
                    let prod = _mm256_mul_ps(_mm256_set1_ps(av), load8(panel, p * NT_COLS + h));
                    tail = _mm256_add_ps(tail, prod);
                }
                let sum = _mm256_add_ps(_mm256_add_ps(s0[r], s1[r]), tail);
                let (at, n) = (r * ldo + h, NR.min(cols - h));
                if n == NR {
                    store8(out, at, _mm256_add_ps(load8(out, at), sum));
                } else {
                    let mut lanes = [0.0f32; NR];
                    store8(&mut lanes, 0, sum);
                    for (o, &v) in out[at..at + n].iter_mut().zip(&lanes) {
                        *o += v;
                    }
                }
            }
        }
    }

    /// One half of the lane tree for the 8 columns from `h` of each of
    /// `R` rows, `(l_I + l_{I+4}) + (l_{I+1} + l_{I+5})`: the reduction
    /// runs over the accumulators `p mod 8 ∈ {I, I+1, I+4, I+5}` only,
    /// so `4R` of them are live (three rows fit the 16 `ymm`
    /// registers), and folds them as it ends.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2-gated bodies. `pblocks` is whole 8-row
    // blocks of the panel and `h + 8 ≤ NT_COLS`, so every load is in
    // bounds.
    unsafe fn nt_half_tree<const R: usize, const I: usize>(
        ablocks: &[&[[f32; NR]]; R],
        pblocks: &[f32],
        h: usize,
    ) -> [__m256; R] {
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        for (c, pblk) in pblocks.chunks_exact(NR * NT_COLS).enumerate() {
            let ablk: [&[f32; NR]; R] = std::array::from_fn(|r| &ablocks[r][c]);
            for (q, l) in [I, I + 1, I + 4, I + 5].into_iter().enumerate() {
                let bv = load8(pblk, l * NT_COLS + h);
                for (accr, ab) in acc.iter_mut().zip(&ablk) {
                    accr[q] = _mm256_add_ps(accr[q], _mm256_mul_ps(_mm256_set1_ps(ab[l]), bv));
                }
            }
        }
        acc.map(|[li, lj, li4, lj4]| _mm256_add_ps(_mm256_add_ps(li, li4), _mm256_add_ps(lj, lj4)))
    }

    fn topk(row: &[f32], idx: &mut [u32], val: &mut [f32]) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { topk_body(row, idx, val) }
    }

    /// `ops::topk_by_max` compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn topk_body(row: &[f32], idx: &mut [u32], val: &mut [f32]) {
        crate::ops::topk_by_max(row, idx, val);
    }

    pub(super) fn axpy(a: f32, v: &[f32], out: &mut [f32]) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { axpy_body(a, v, out) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn axpy_body(a: f32, v: &[f32], out: &mut [f32]) {
        debug_assert_eq!(v.len(), out.len());
        let blocks = v.len() / NR;
        // Lanewise mul+add matches the scalar `*o += a * x` roundings.
        let av = _mm256_set1_ps(a);
        for c in 0..blocks {
            let sum = _mm256_add_ps(load8(out, c * NR), _mm256_mul_ps(av, load8(v, c * NR)));
            store8(out, c * NR, sum);
        }
        for i in blocks * NR..v.len() {
            out[i] += a * v[i];
        }
    }

    pub(super) fn add_assign(v: &[f32], out: &mut [f32]) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { add_assign_body(v, out) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn add_assign_body(v: &[f32], out: &mut [f32]) {
        debug_assert_eq!(v.len(), out.len());
        let blocks = v.len() / NR;
        for c in 0..blocks {
            let sum = _mm256_add_ps(load8(out, c * NR), load8(v, c * NR));
            store8(out, c * NR, sum);
        }
        for i in blocks * NR..v.len() {
            out[i] += v[i];
        }
    }

    pub(super) fn row_max(x: &[f32]) -> f32 {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { row_max_body(x) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn row_max_body(x: &[f32]) -> f32 {
        let blocks = x.len() / NR;
        // `_mm256_max_ps` has the exact semantics of the scalar
        // `maxps` helper per lane.
        let lanes_v = {
            let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
            for c in 0..blocks {
                acc = _mm256_max_ps(acc, load8(x, c * NR));
            }
            acc
        };
        let mut lanes = [0.0f32; NR];
        store8(&mut lanes[..], 0, lanes_v);
        let mut m = max_lanes_tree(&lanes);
        for &v in &x[blocks * NR..] {
            m = maxps(m, v);
        }
        m
    }

    pub(super) fn row_sum(x: &[f32]) -> f32 {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { row_sum_body(x) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn row_sum_body(x: &[f32]) -> f32 {
        let blocks = x.len() / NR;
        let lanes_v = {
            let mut acc = _mm256_setzero_ps();
            for c in 0..blocks {
                acc = _mm256_add_ps(acc, load8(x, c * NR));
            }
            acc
        };
        let mut lanes = [0.0f32; NR];
        store8(&mut lanes[..], 0, lanes_v);
        let mut tail = 0.0f32;
        for &v in &x[blocks * NR..] {
            tail += v;
        }
        sum_lanes_tree(&lanes) + tail
    }

    pub(super) fn div_assign(row: &mut [f32], denom: f32) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { div_assign_body(row, denom) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn div_assign_body(row: &mut [f32], denom: f32) {
        let blocks = row.len() / NR;
        // Lanewise IEEE divide is identical to the scalar `/=`.
        let dv = _mm256_set1_ps(denom);
        for c in 0..blocks {
            let q = _mm256_div_ps(load8(row, c * NR), dv);
            store8(row, c * NR, q);
        }
        for v in &mut row[blocks * NR..] {
            *v /= denom;
        }
    }

    pub(super) fn exp_shift(row: &mut [f32], shift: f32) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { exp_shift_body(row, shift) }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn exp_shift_body(row: &mut [f32], shift: f32) {
        let blocks = row.len() / NR;
        // Lanewise IEEE subtract, then the ported `exp` on 8 lanes.
        let sv = _mm256_set1_ps(shift);
        for c in 0..blocks {
            let e = exp8(_mm256_sub_ps(load8(row, c * NR), sv));
            store8(row, c * NR, e);
        }
        for v in &mut row[blocks * NR..] {
            *v = super::exp(*v - shift);
        }
    }

    /// [`super::exp`] on 8 lanes: the `f64` main path on two halves of
    /// 4, then the special inputs selected with `blendv`, in the same
    /// order.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2+FMA-gated bodies. Register-only arithmetic
    // plus the in-bounds table gather of `exp4d`.
    unsafe fn exp8(x: __m256) -> __m256 {
        let lo = _mm256_cvtpd_ps(exp4d(_mm256_cvtps_pd(_mm256_castps256_ps128(x))));
        let hi = _mm256_cvtpd_ps(exp4d(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x))));
        let mut e = _mm256_set_m128(hi, lo);
        let bits = _mm256_castps_si256(x);
        let abs = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fff_ffff));
        let picks = [
            (
                _mm256_set1_ps(f32::from_bits(1)),
                _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_MAY_UFLOW)),
            ),
            (
                _mm256_setzero_ps(),
                _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_UFLOW)),
            ),
            (
                _mm256_set1_ps(f32::INFINITY),
                _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXP_OFLOW)),
            ),
            (
                _mm256_add_ps(x, x),
                _mm256_castsi256_ps(_mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7f7f_ffff))),
            ),
            (
                _mm256_setzero_ps(),
                _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                    bits,
                    _mm256_set1_epi32(f32::NEG_INFINITY.to_bits() as i32),
                )),
            ),
        ];
        for (value, mask) in picks {
            e = _mm256_blendv_ps(e, value, mask);
        }
        e
    }

    /// [`super::exp`]'s `f64` main path on 4 lanes, `y · s` before the
    /// narrowing, with its four `vfmadd`/`vfmsub` steps.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2+FMA-gated bodies.
    unsafe fn exp4d(xd: __m256d) -> __m256d {
        let inv = _mm256_set1_pd(EXP_INV_LN2_N);
        let shift = _mm256_set1_pd(EXP_SHIFT);
        let kd = _mm256_add_pd(_mm256_mul_pd(inv, xd), shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let slot = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every `slot` lane is in 0..32, an index into the
        // 32-entry table; `gather` reads 8-byte elements at it.
        let tab = unsafe { _mm256_i64gather_epi64::<8>(EXP2_TAB.as_ptr().cast::<i64>(), slot) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(tab, _mm256_slli_epi64::<47>(ki)));
        let [c0, c1, c2] = EXP_C.map(|c| _mm256_set1_pd(c));
        let z = _mm256_fmadd_pd(c0, r, c1);
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(c2, r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_mul_pd(y, s)
    }

    /// Applies the round-to-nearest-even bias and truncates 8 packed
    /// f32 bit patterns to their high 16 bits (as 32-bit lanes).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2-gated bodies. Register-only integer ops
    // replicating the scalar `bits + 0x7FFF + ((bits >> 16) & 1)`
    // bias (wrapping) and logical right shift.
    unsafe fn bf16_bias_shift(bits: __m256i) -> __m256i {
        let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(1));
        let bias = _mm256_add_epi32(_mm256_set1_epi32(0x7FFF), lsb);
        _mm256_srli_epi32::<16>(_mm256_add_epi32(bits, bias))
    }

    pub(super) fn bf16_round(data: &mut [f32]) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { bf16_round_body(data) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn bf16_round_body(data: &mut [f32]) {
        let blocks = data.len() / NR;
        for c in 0..blocks {
            // SAFETY: 8 in-bounds f32s read and rewritten per
            // iteration; bias-shift-left reproduces the scalar
            // `((bits + bias) >> 16) << 16` per lane.
            unsafe {
                let bits = _mm256_loadu_si256(data.as_ptr().add(c * NR).cast::<__m256i>());
                let rounded = _mm256_slli_epi32::<16>(bf16_bias_shift(bits));
                _mm256_storeu_si256(data.as_mut_ptr().add(c * NR).cast::<__m256i>(), rounded);
            }
        }
        for v in &mut data[blocks * NR..] {
            *v = super::bf16_round_one(*v);
        }
    }

    /// [`super::tanh`] on 8 lanes, the same operations in the same
    /// order: each scalar `select` is a `blendv` between both computed
    /// sides.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2-gated bodies. Register-only arithmetic.
    unsafe fn tanh8(x: __m256) -> __m256 {
        let ix = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
        let big = _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7f_ffff)));
        let ax = _mm256_castsi256_ps(ix);
        let (one, two, sign) = (
            _mm256_set1_ps(1.0),
            _mm256_set1_ps(2.0),
            _mm256_set1_ps(-0.0),
        );
        let y = _mm256_blendv_ps(
            _mm256_mul_ps(_mm256_set1_ps(-2.0), ax),
            _mm256_mul_ps(two, ax),
            big,
        );
        let t = expm1_for_tanh8(y);
        let tp2 = _mm256_add_ps(t, two);
        let z = _mm256_blendv_ps(
            _mm256_div_ps(_mm256_xor_ps(t, sign), tp2),
            _mm256_sub_ps(one, _mm256_div_ps(two, tp2)),
            big,
        );
        let sat = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41af_ffff));
        let z = _mm256_blendv_ps(z, one, _mm256_castsi256_ps(sat));
        // `-z` where x is negative: xor in x's sign bit.
        let z = _mm256_xor_ps(z, _mm256_and_ps(x, sign));
        let tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x2400_0000), ix);
        let small = _mm256_mul_ps(x, _mm256_add_ps(one, x));
        let z = _mm256_blendv_ps(z, small, _mm256_castsi256_ps(tiny));
        let nan = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f80_0000));
        _mm256_blendv_ps(z, _mm256_add_ps(x, x), _mm256_castsi256_ps(nan))
    }

    /// [`super::expm1_for_tanh`] on 8 lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2-gated bodies. Register-only arithmetic.
    unsafe fn expm1_for_tanh8(y: __m256) -> __m256 {
        let ybits = _mm256_castps_si256(y);
        let hx = _mm256_and_si256(ybits, _mm256_set1_epi32(0x7fff_ffff));
        // `blendv` selects on the mask's sign bit, so `y` itself is
        // the `y < 0` mask.
        let half = _mm256_blendv_ps(_mm256_set1_ps(0.5), _mm256_set1_ps(-0.5), y);
        let k_far = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(INV_LN2), y),
            half,
        ));
        // ±1 by y's sign: (y >> 31 arithmetic) | 1.
        let k_one = _mm256_or_si256(_mm256_srai_epi32::<31>(ybits), _mm256_set1_epi32(1));
        let far = _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3f85_1591));
        let k = _mm256_blendv_epi8(k_one, k_far, far);
        let k = _mm256_and_si256(k, _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3eb1_7218)));
        let kf = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(y, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_HI)));
        let lo = _mm256_mul_ps(kf, _mm256_set1_ps(LN2_LO));
        let x = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let hfx = _mm256_mul_ps(half, x);
        let hxs = _mm256_mul_ps(x, hfx);
        let mut poly = _mm256_set1_ps(EXPM1_Q[4]);
        for q in [EXPM1_Q[3], EXPM1_Q[2], EXPM1_Q[1], EXPM1_Q[0]] {
            poly = _mm256_add_ps(_mm256_set1_ps(q), _mm256_mul_ps(hxs, poly));
        }
        let r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
        let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
        let e0 = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(x, t)),
            ),
        );
        let e = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e0, c)), c),
            hxs,
        );
        let k23 = _mm256_slli_epi32::<23>(k);
        let r_k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e0), hxs));
        let r_km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(x, e)), half);
        let r_far = _mm256_sub_ps(
            add_exponent(_mm256_sub_ps(one, _mm256_sub_ps(e, x)), k23),
            one,
        );
        let t_small = _mm256_castsi256_ps(_mm256_sub_epi32(
            _mm256_set1_epi32(0x3f80_0000),
            _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
        ));
        let r_small = add_exponent(_mm256_sub_ps(t_small, _mm256_sub_ps(e, x)), k23);
        let t_mid = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(
            _mm256_set1_epi32(0x7f),
            k,
        )));
        let r_mid = add_exponent(
            _mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, t_mid)), one),
            k23,
        );
        // The scalar if-chain, applied lowest priority first.
        let is_far = _mm256_or_si256(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
            _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
        );
        let picks = [
            (r_small, _mm256_cmpgt_epi32(_mm256_set1_epi32(23), k)),
            (r_far, is_far),
            (r_km1, _mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))),
            (r_k0, _mm256_cmpeq_epi32(k, _mm256_setzero_si256())),
            (y, _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3300_0000), hx)),
        ];
        let mut r = r_mid;
        for (value, mask) in picks {
            r = _mm256_blendv_ps(r, value, _mm256_castsi256_ps(mask));
        }
        r
    }

    /// Adds the pre-shifted `k << 23` to each lane's exponent field.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2-gated bodies. Register-only integer add.
    unsafe fn add_exponent(v: __m256, k23: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(v), k23))
    }

    /// `ops::gelu_scalar` on 8 lanes: `(gelu, tanh(inner))`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX2-gated bodies. Register-only arithmetic.
    unsafe fn gelu8(x: __m256) -> (__m256, __m256) {
        let cube = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_CUBIC), x), x),
            x,
        );
        let th = tanh8(_mm256_mul_ps(
            _mm256_set1_ps(SQRT_2_OVER_PI),
            _mm256_add_ps(x, cube),
        ));
        let half_x = _mm256_mul_ps(_mm256_set1_ps(0.5), x);
        (
            _mm256_mul_ps(half_x, _mm256_add_ps(_mm256_set1_ps(1.0), th)),
            th,
        )
    }

    fn gelu(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { gelu_body(h, keep) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn gelu_body(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) {
        match keep {
            Some((pre, tanh)) => {
                // The common prefix, as the scalar kernel's `zip`:
                // every 8-lane access below is then in bounds.
                let n = h.len().min(pre.len()).min(tanh.len());
                let (h, pre, tanh) = (&mut h[..n], &mut pre[..n], &mut tanh[..n]);
                let blocks = n / NR;
                for c in 0..blocks {
                    let x = load8(h, c * NR);
                    let (g, t) = gelu8(x);
                    store8(pre, c * NR, x);
                    store8(h, c * NR, g);
                    store8(tanh, c * NR, t);
                }
                for i in blocks * NR..n {
                    pre[i] = h[i];
                    (h[i], tanh[i]) = gelu_scalar(h[i]);
                }
            }
            None => {
                let blocks = h.len() / NR;
                for c in 0..blocks {
                    let (g, _) = gelu8(load8(h, c * NR));
                    store8(h, c * NR, g);
                }
                for v in &mut h[blocks * NR..] {
                    *v = gelu_scalar(*v).0;
                }
            }
        }
    }

    fn gelu_backward(pre: &[f32], tanh: &[f32], g: &mut [f32]) {
        // SAFETY: reachable only through the detection-gated tables.
        unsafe { gelu_backward_body(pre, tanh, g) }
    }

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatch table's detection
    /// gate).
    #[target_feature(enable = "avx2")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn gelu_backward_body(pre: &[f32], tanh: &[f32], g: &mut [f32]) {
        let n = g.len().min(pre.len()).min(tanh.len());
        let (pre, tanh, g) = (&pre[..n], &tanh[..n], &mut g[..n]);
        let blocks = n / NR;
        let (one, half) = (_mm256_set1_ps(1.0), _mm256_set1_ps(0.5));
        // `ops::gelu_derivative`'s `3.0 * GELU_CUBIC * x * x` folds
        // left to right, so the constant product comes first.
        let cubic3 = _mm256_set1_ps(3.0 * GELU_CUBIC);
        for c in 0..blocks {
            let (x, t) = (load8(pre, c * NR), load8(tanh, c * NR));
            let dinner = _mm256_mul_ps(
                _mm256_set1_ps(SQRT_2_OVER_PI),
                _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(cubic3, x), x)),
            );
            let d = _mm256_add_ps(
                _mm256_mul_ps(half, _mm256_add_ps(one, t)),
                _mm256_mul_ps(
                    _mm256_mul_ps(
                        _mm256_mul_ps(half, x),
                        _mm256_sub_ps(one, _mm256_mul_ps(t, t)),
                    ),
                    dinner,
                ),
            );
            store8(g, c * NR, _mm256_mul_ps(load8(g, c * NR), d));
        }
        for i in blocks * NR..n {
            g[i] *= gelu_derivative(pre[i], tanh[i]);
        }
    }

    /// The AVX2 `tanh` lanes over every whole 8-lane block of `xs`
    /// (a tail shorter than 8 is left as is), for the sweeps that
    /// compare them with the scalar port. Returns how many lanes it
    /// wrote.
    #[cfg(test)]
    pub(super) fn tanh_lanes(xs: &mut [f32]) -> usize {
        assert!(super::simd_available(), "AVX2 lanes need an AVX2 host");
        for c in 0..xs.len() / NR {
            // SAFETY: AVX2 was detected just above; `c * NR + NR` is
            // within `xs` by the loop bound.
            unsafe { store8(xs, c * NR, tanh8(load8(xs, c * NR))) }
        }
        xs.len() / NR * NR
    }

    /// The AVX2 `exp` lanes over every whole 8-lane block of `xs`, as
    /// [`tanh_lanes`] does for `tanh`.
    #[cfg(test)]
    pub(super) fn exp_lanes(xs: &mut [f32]) -> usize {
        assert!(super::simd_available(), "AVX2 lanes need an AVX2 host");
        for c in 0..xs.len() / NR {
            // SAFETY: AVX2+FMA was detected just above; `c * NR + NR`
            // is within `xs` by the loop bound.
            unsafe { store8(xs, c * NR, exp8(load8(xs, c * NR))) }
        }
        xs.len() / NR * NR
    }
}

/// `f32x16` kernels for the five that carry the expert FFN and the
/// gate — the 12- and 6-row × 32 micro-tile, the 3 × 16 `A·Bᵀ` tile, `gelu`,
/// `gelu_backward` and `topk` (the shared body at 512 bits); every
/// other entry of [`TABLE`] is the AVX2 one. Every body is a
/// `#[target_feature(enable = "avx512f,avx512dq")]` function behind a
/// safe wrapper that is only reachable through [`TABLE`], which
/// [`table`](super::table) returns exclusively after
/// [`simd_modes`](super::simd_modes) confirmed AVX2+FMA and
/// AVX-512F+DQ.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2;
    use super::{
        halves, span, ARows, KernelTable, SimdMode, EXPM1_Q, HALF_MR, INV_LN2, LN2_HI, LN2_LO, MR,
        NR, NT_COLS, NT_ROWS, TILE_COLS, WIDE_TILE_COLS,
    };
    use crate::ops::{gelu_derivative, gelu_scalar, GELU_CUBIC, SQRT_2_OVER_PI};
    use core::arch::x86_64::{
        __m512, __m512i, __mmask16, _mm512_add_epi32, _mm512_add_ps, _mm512_and_ps,
        _mm512_and_si512, _mm512_castps_si512, _mm512_castsi512_ps, _mm512_cmpeq_epi32_mask,
        _mm512_cmpgt_epi32_mask, _mm512_cvtepi32_ps, _mm512_cvttps_epi32, _mm512_div_ps,
        _mm512_loadu_ps, _mm512_mask_blend_epi32, _mm512_mask_blend_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_maskz_mov_epi32, _mm512_movepi32_mask, _mm512_mul_ps,
        _mm512_or_si512, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps, _mm512_slli_epi32,
        _mm512_srai_epi32, _mm512_srlv_epi32, _mm512_storeu_ps, _mm512_sub_epi32, _mm512_sub_ps,
        _mm512_xor_ps,
    };

    /// Lanes per `zmm`.
    const LANES: usize = 16;

    pub(super) static TABLE: KernelTable = KernelTable {
        mode: SimdMode::Avx512,
        micro_tiles: &[(WIDE_TILE_COLS, micro_tile), (TILE_COLS, avx2::micro_tile)],
        dot: avx2::dot,
        nt_tile,
        topk,
        axpy: avx2::axpy,
        add_assign: avx2::add_assign,
        row_max: avx2::row_max,
        row_sum: avx2::row_sum,
        div_assign: avx2::div_assign,
        exp_shift: avx2::exp_shift,
        bf16_round: avx2::bf16_round,
        gelu,
        gelu_backward,
    };

    /// Loads 16 consecutive `f32`s from a slice of length ≥ `off + 16`.
    #[inline(always)]
    fn load16(s: &[f32], off: usize) -> __m512 {
        debug_assert!(off + LANES <= s.len());
        // SAFETY: every caller bounds `off + 16` by the slice's length
        // (checked above in debug builds); `loadu` permits unaligned
        // loads.
        unsafe { _mm512_loadu_ps(s.as_ptr().add(off)) }
    }

    /// Stores 16 lanes over `s[off .. off + 16]`.
    #[inline(always)]
    fn store16(s: &mut [f32], off: usize, v: __m512) {
        debug_assert!(off + LANES <= s.len());
        // SAFETY: as for `load16`; `storeu` permits unaligned stores.
        unsafe { _mm512_storeu_ps(s.as_mut_ptr().add(off), v) }
    }

    // The 8-ary signature IS the `MicroTileFn` table ABI: every table
    // must share it exactly so the pointers are interchangeable.
    #[allow(clippy::too_many_arguments)]
    fn micro_tile(
        a: &[f32],
        row: usize,
        step: usize,
        kc_len: usize,
        b: &[f32],
        out: &mut [f32],
        n: usize,
        mr_eff: usize,
    ) {
        // A full call is one 12-row pass; anything shorter runs as the
        // 6-row passes, so no row is padded that those would not pad.
        if mr_eff == MR {
            // SAFETY: this wrapper is reachable only through `TABLE`,
            // which the dispatcher installs after AVX-512F+DQ detection.
            unsafe { micro_tile_body::<MR>(a, row, step, kc_len, b, out, n, MR) }
        } else {
            for (h, rows) in halves(mr_eff) {
                let (a, out) = (&a[h * row..], &mut out[h * n..]);
                // SAFETY: as above.
                unsafe { micro_tile_body::<HALF_MR>(a, row, step, kc_len, b, out, n, rows) }
            }
        }
    }

    /// The `R`-row pass of [`micro_tile`]: `2·R` accumulators (24 of the
    /// 32 `zmm` at 12 rows), two B vectors and one broadcast.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F+DQ (guaranteed by the dispatch table's
    /// detection gate).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn micro_tile_body<const R: usize>(
        a: &[f32],
        row: usize,
        step: usize,
        kc_len: usize,
        b: &[f32],
        out: &mut [f32],
        n: usize,
        mr_eff: usize,
    ) {
        // With the tile inside a row, these two slices bound every
        // 16-lane access below.
        assert!(WIDE_TILE_COLS <= n, "micro-tile past its row");
        let b = &b[..span(kc_len, n, WIDE_TILE_COLS)];
        let out = &mut out[..span(mr_eff, n, WIDE_TILE_COLS)];
        let a = ARows::<R>::new(a, row, step, kc_len, mr_eff);
        let mut acc = [[_mm512_setzero_ps(); WIDE_TILE_COLS / LANES]; R];
        for p in 0..kc_len {
            let bv = [load16(b, p * n), load16(b, p * n + LANES)];
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(a.at(r, p));
                for (accv, &bv) in accr.iter_mut().zip(&bv) {
                    // Two roundings, as the scalar kernel (rule 1).
                    *accv = _mm512_add_ps(*accv, _mm512_mul_ps(av, bv));
                }
            }
        }
        for (r, accr) in acc.iter().enumerate().take(mr_eff) {
            for (h, accv) in accr.iter().enumerate() {
                let sum = _mm512_add_ps(load16(out, r * n + h * LANES), *accv);
                store16(out, r * n + h * LANES, sum);
            }
        }
    }

    // The 7-ary signature IS the `NtTileFn` table ABI.
    fn nt_tile(
        a: &[f32],
        rows: usize,
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        ldo: usize,
        cols: usize,
    ) {
        assert!((1..=NT_ROWS).contains(&rows), "A·Bᵀ tile of {rows} rows");
        // SAFETY: reachable only through the detection-gated `TABLE`.
        unsafe {
            match rows {
                1 => nt_tile_body::<1>(a, k, panel, out, ldo, cols),
                2 => nt_tile_body::<2>(a, k, panel, out, ldo, cols),
                _ => nt_tile_body::<NT_ROWS>(a, k, panel, out, ldo, cols),
            }
        }
    }

    /// The `R`-row tile in one pass: `dot`'s eight accumulators of
    /// each row are eight `zmm`s across the panel's 16 columns, 24 for
    /// three rows, with A broadcast from its row.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F+DQ (guaranteed by the dispatch table's
    /// detection gate).
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn nt_tile_body<const R: usize>(
        a: &[f32],
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        ldo: usize,
        cols: usize,
    ) {
        // These bounds cover every access below.
        assert!(
            R <= NT_ROWS && cols <= NT_COLS && cols <= ldo,
            "A·Bᵀ tile shape"
        );
        let (a, panel) = (&a[..R * k], &panel[..k * NT_COLS]);
        let out = &mut out[..(R - 1) * ldo + cols];
        let k8 = k - k % NR;
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
        let ablocks: [&[[f32; NR]]; R] = arows.map(|row| row.as_chunks::<NR>().0);
        let mut acc = [[_mm512_setzero_ps(); NR]; R];
        for (c, pblk) in panel[..k8 * NT_COLS].chunks_exact(NR * LANES).enumerate() {
            let ablk: [&[f32; NR]; R] = std::array::from_fn(|r| &ablocks[r][c]);
            for l in 0..NR {
                let bv = load16(pblk, l * LANES);
                for (accr, ab) in acc.iter_mut().zip(&ablk) {
                    // Two roundings, as `dot` (rule 1).
                    accr[l] = _mm512_add_ps(accr[l], _mm512_mul_ps(_mm512_set1_ps(ab[l]), bv));
                }
            }
        }
        // Only the columns below `cols` are loaded or stored.
        let mask = ((1u32 << cols) - 1) as __mmask16;
        for (r, (accr, arow)) in acc.iter().zip(&arows).enumerate() {
            let mut tail = _mm512_setzero_ps();
            for p in k8..k {
                let prod = _mm512_mul_ps(_mm512_set1_ps(arow[p]), load16(panel, p * LANES));
                tail = _mm512_add_ps(tail, prod);
            }
            let [l0, l1, l2, l3, l4, l5, l6, l7] = *accr;
            let s0 = _mm512_add_ps(_mm512_add_ps(l0, l4), _mm512_add_ps(l1, l5));
            let s1 = _mm512_add_ps(_mm512_add_ps(l2, l6), _mm512_add_ps(l3, l7));
            let sum = _mm512_add_ps(_mm512_add_ps(s0, s1), tail);
            let at = out[r * ldo..].as_mut_ptr();
            // SAFETY: `out` holds `cols` elements from `r * ldo` (the
            // slice above), and the mask loads and stores no lane past
            // them.
            unsafe {
                let o = _mm512_maskz_loadu_ps(mask, at);
                _mm512_mask_storeu_ps(at, mask, _mm512_add_ps(o, sum));
            }
        }
    }

    fn topk(row: &[f32], idx: &mut [u32], val: &mut [f32]) {
        // SAFETY: reachable only through the detection-gated `TABLE`.
        unsafe { topk_body(row, idx, val) }
    }

    /// `ops::topk_by_max` compiled for AVX-512.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F+DQ (guaranteed by the dispatch table's
    /// detection gate).
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn topk_body(row: &[f32], idx: &mut [u32], val: &mut [f32]) {
        crate::ops::topk_by_max(row, idx, val);
    }

    /// [`super::tanh`] on 16 lanes, the same operations in the same
    /// order: each scalar `select` is a mask-register blend between
    /// both computed sides.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F+DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX-512-gated bodies. Register-only arithmetic.
    unsafe fn tanh16(x: __m512) -> __m512 {
        let ix = _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(0x7fff_ffff));
        let big = _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(0x3f7f_ffff));
        let ax = _mm512_castsi512_ps(ix);
        let (one, two, sign) = (
            _mm512_set1_ps(1.0),
            _mm512_set1_ps(2.0),
            _mm512_set1_ps(-0.0),
        );
        let y = _mm512_mask_blend_ps(
            big,
            _mm512_mul_ps(_mm512_set1_ps(-2.0), ax),
            _mm512_mul_ps(two, ax),
        );
        let t = expm1_for_tanh16(y);
        let tp2 = _mm512_add_ps(t, two);
        let z = _mm512_mask_blend_ps(
            big,
            _mm512_div_ps(_mm512_xor_ps(t, sign), tp2),
            _mm512_sub_ps(one, _mm512_div_ps(two, tp2)),
        );
        let sat = _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(0x41af_ffff));
        let z = _mm512_mask_blend_ps(sat, z, one);
        // `-z` where x is negative: xor in x's sign bit.
        let z = _mm512_xor_ps(z, _mm512_and_ps(x, sign));
        let tiny = _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x2400_0000), ix);
        let small = _mm512_mul_ps(x, _mm512_add_ps(one, x));
        let z = _mm512_mask_blend_ps(tiny, z, small);
        let nan = _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(0x7f80_0000));
        _mm512_mask_blend_ps(nan, z, _mm512_add_ps(x, x))
    }

    /// [`super::expm1_for_tanh`] on 16 lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F+DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX-512-gated bodies. Register-only arithmetic.
    unsafe fn expm1_for_tanh16(y: __m512) -> __m512 {
        let ybits = _mm512_castps_si512(y);
        let hx = _mm512_and_si512(ybits, _mm512_set1_epi32(0x7fff_ffff));
        // The sign bits: `y < 0`, `-0.0` and negative NaNs included.
        let neg = _mm512_movepi32_mask(ybits);
        let half = _mm512_mask_blend_ps(neg, _mm512_set1_ps(0.5), _mm512_set1_ps(-0.5));
        let k_far = _mm512_cvttps_epi32(_mm512_add_ps(
            _mm512_mul_ps(_mm512_set1_ps(INV_LN2), y),
            half,
        ));
        // ±1 by y's sign: (y >> 31 arithmetic) | 1.
        let k_one = _mm512_or_si512(_mm512_srai_epi32::<31>(ybits), _mm512_set1_epi32(1));
        let far = _mm512_cmpgt_epi32_mask(hx, _mm512_set1_epi32(0x3f85_1591));
        let k = _mm512_mask_blend_epi32(far, k_one, k_far);
        let reduce = _mm512_cmpgt_epi32_mask(hx, _mm512_set1_epi32(0x3eb1_7218));
        let k = _mm512_maskz_mov_epi32(reduce, k);
        let kf = _mm512_cvtepi32_ps(k);
        let hi = _mm512_sub_ps(y, _mm512_mul_ps(kf, _mm512_set1_ps(LN2_HI)));
        let lo = _mm512_mul_ps(kf, _mm512_set1_ps(LN2_LO));
        let x = _mm512_sub_ps(hi, lo);
        let c = _mm512_sub_ps(_mm512_sub_ps(hi, x), lo);
        let one = _mm512_set1_ps(1.0);
        let half = _mm512_set1_ps(0.5);
        let hfx = _mm512_mul_ps(half, x);
        let hxs = _mm512_mul_ps(x, hfx);
        let mut poly = _mm512_set1_ps(EXPM1_Q[4]);
        for q in [EXPM1_Q[3], EXPM1_Q[2], EXPM1_Q[1], EXPM1_Q[0]] {
            poly = _mm512_add_ps(_mm512_set1_ps(q), _mm512_mul_ps(hxs, poly));
        }
        let r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, poly));
        let t = _mm512_sub_ps(_mm512_set1_ps(3.0), _mm512_mul_ps(r1, hfx));
        let e0 = _mm512_mul_ps(
            hxs,
            _mm512_div_ps(
                _mm512_sub_ps(r1, t),
                _mm512_sub_ps(_mm512_set1_ps(6.0), _mm512_mul_ps(x, t)),
            ),
        );
        let e = _mm512_sub_ps(
            _mm512_sub_ps(_mm512_mul_ps(x, _mm512_sub_ps(e0, c)), c),
            hxs,
        );
        let k23 = _mm512_slli_epi32::<23>(k);
        let r_k0 = _mm512_sub_ps(x, _mm512_sub_ps(_mm512_mul_ps(x, e0), hxs));
        let r_km1 = _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(x, e)), half);
        let r_far = _mm512_sub_ps(
            add_exponent(_mm512_sub_ps(one, _mm512_sub_ps(e, x)), k23),
            one,
        );
        let t_small = _mm512_castsi512_ps(_mm512_sub_epi32(
            _mm512_set1_epi32(0x3f80_0000),
            _mm512_srlv_epi32(_mm512_set1_epi32(0x0100_0000), k),
        ));
        let r_small = add_exponent(_mm512_sub_ps(t_small, _mm512_sub_ps(e, x)), k23);
        let t_mid = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_sub_epi32(
            _mm512_set1_epi32(0x7f),
            k,
        )));
        let r_mid = add_exponent(
            _mm512_add_ps(_mm512_sub_ps(x, _mm512_add_ps(e, t_mid)), one),
            k23,
        );
        // The scalar if-chain, applied lowest priority first.
        let is_far = _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(-1), k)
            | _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56));
        let picks = [
            (r_small, _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(23), k)),
            (r_far, is_far),
            (r_km1, _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1))),
            (r_k0, _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(0))),
            (
                y,
                _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x3300_0000), hx),
            ),
        ];
        let mut r = r_mid;
        for (value, mask) in picks {
            r = _mm512_mask_blend_ps(mask, r, value);
        }
        r
    }

    /// Adds the pre-shifted `k << 23` to each lane's exponent field.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F+DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX-512-gated bodies. Register-only integer add.
    unsafe fn add_exponent(v: __m512, k23: __m512i) -> __m512 {
        _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(v), k23))
    }

    /// `ops::gelu_scalar` on 16 lanes: `(gelu, tanh(inner))`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F+DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; callers
    // are themselves AVX-512-gated bodies. Register-only arithmetic.
    unsafe fn gelu16(x: __m512) -> (__m512, __m512) {
        let cube = _mm512_mul_ps(
            _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(GELU_CUBIC), x), x),
            x,
        );
        let th = tanh16(_mm512_mul_ps(
            _mm512_set1_ps(SQRT_2_OVER_PI),
            _mm512_add_ps(x, cube),
        ));
        let half_x = _mm512_mul_ps(_mm512_set1_ps(0.5), x);
        (
            _mm512_mul_ps(half_x, _mm512_add_ps(_mm512_set1_ps(1.0), th)),
            th,
        )
    }

    fn gelu(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) {
        // SAFETY: reachable only through the detection-gated `TABLE`.
        unsafe { gelu_body(h, keep) }
    }

    /// # Safety
    ///
    /// Requires AVX-512F+DQ (guaranteed by the dispatch table's
    /// detection gate).
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn gelu_body(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) {
        match keep {
            Some((pre, tanh)) => {
                // The common prefix, as the scalar kernel's `zip`:
                // every 16-lane access below is then in bounds.
                let n = h.len().min(pre.len()).min(tanh.len());
                let (h, pre, tanh) = (&mut h[..n], &mut pre[..n], &mut tanh[..n]);
                let blocks = n / LANES;
                for c in 0..blocks {
                    let x = load16(h, c * LANES);
                    let (g, t) = gelu16(x);
                    store16(pre, c * LANES, x);
                    store16(h, c * LANES, g);
                    store16(tanh, c * LANES, t);
                }
                for i in blocks * LANES..n {
                    pre[i] = h[i];
                    (h[i], tanh[i]) = gelu_scalar(h[i]);
                }
            }
            None => {
                let blocks = h.len() / LANES;
                for c in 0..blocks {
                    let (g, _) = gelu16(load16(h, c * LANES));
                    store16(h, c * LANES, g);
                }
                for v in &mut h[blocks * LANES..] {
                    *v = gelu_scalar(*v).0;
                }
            }
        }
    }

    fn gelu_backward(pre: &[f32], tanh: &[f32], g: &mut [f32]) {
        // SAFETY: reachable only through the detection-gated `TABLE`.
        unsafe { gelu_backward_body(pre, tanh, g) }
    }

    /// # Safety
    ///
    /// Requires AVX-512F+DQ (guaranteed by the dispatch table's
    /// detection gate).
    #[target_feature(enable = "avx512f,avx512dq")]
    // SAFETY: `target_feature` makes this fn unsafe-to-call; the only
    // caller is the detection-gated wrapper above.
    unsafe fn gelu_backward_body(pre: &[f32], tanh: &[f32], g: &mut [f32]) {
        let n = g.len().min(pre.len()).min(tanh.len());
        let (pre, tanh, g) = (&pre[..n], &tanh[..n], &mut g[..n]);
        let blocks = n / LANES;
        let (one, half) = (_mm512_set1_ps(1.0), _mm512_set1_ps(0.5));
        // `ops::gelu_derivative`'s `3.0 * GELU_CUBIC * x * x` folds
        // left to right, so the constant product comes first.
        let cubic3 = _mm512_set1_ps(3.0 * GELU_CUBIC);
        for c in 0..blocks {
            let (x, t) = (load16(pre, c * LANES), load16(tanh, c * LANES));
            let dinner = _mm512_mul_ps(
                _mm512_set1_ps(SQRT_2_OVER_PI),
                _mm512_add_ps(one, _mm512_mul_ps(_mm512_mul_ps(cubic3, x), x)),
            );
            let d = _mm512_add_ps(
                _mm512_mul_ps(half, _mm512_add_ps(one, t)),
                _mm512_mul_ps(
                    _mm512_mul_ps(
                        _mm512_mul_ps(half, x),
                        _mm512_sub_ps(one, _mm512_mul_ps(t, t)),
                    ),
                    dinner,
                ),
            );
            store16(g, c * LANES, _mm512_mul_ps(load16(g, c * LANES), d));
        }
        for i in blocks * LANES..n {
            g[i] *= gelu_derivative(pre[i], tanh[i]);
        }
    }

    /// The AVX-512 `tanh` lanes over every whole 16-lane block of `xs`
    /// (a tail shorter than 16 is left as is), for the sweeps that
    /// compare them with the scalar port. Returns how many lanes it
    /// wrote.
    #[cfg(test)]
    pub(super) fn tanh_lanes(xs: &mut [f32]) -> usize {
        assert!(
            super::simd_modes().contains(&SimdMode::Avx512),
            "AVX-512 lanes need an AVX-512 host"
        );
        for c in 0..xs.len() / LANES {
            // SAFETY: AVX-512F+DQ was detected just above; `c * 16 + 16`
            // is within `xs` by the loop bound.
            unsafe { store16(xs, c * LANES, tanh16(load16(xs, c * LANES))) }
        }
        xs.len() / LANES * LANES
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
    /// order [`KernelTable::micro_tiles`] documents: each element sums
    /// its `kc_len` products from zero in `p` order, then adds the sum
    /// to `out`. The reference for every table's tiles; it shares no
    /// code with them.
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
                    acc += a[r * row + p * step] * b[p * n + j];
                }
                out[r * n + j] += acc;
            }
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

    #[test]
    fn simd_kernels_match_scalar_bitwise() {
        let x = ramp(67, 1);
        let y = ramp(67, 2);
        let scalar = &SCALAR_TABLE;
        for simd in simd_tables() {
            let label = simd.mode.label();
            assert_eq!(
                (scalar.dot)(&x, &y).to_bits(),
                (simd.dot)(&x, &y).to_bits(),
                "{label} dot"
            );
            assert_eq!(
                (scalar.row_max)(&x).to_bits(),
                (simd.row_max)(&x).to_bits(),
                "{label} row_max"
            );
            assert_eq!(
                (scalar.row_sum)(&x).to_bits(),
                (simd.row_sum)(&x).to_bits(),
                "{label} row_sum"
            );
            let mut a = x.clone();
            let mut b = x.clone();
            (scalar.axpy)(0.37, &y, &mut a);
            (simd.axpy)(0.37, &y, &mut b);
            assert_eq!(bits(&a), bits(&b), "{label} axpy");
            (scalar.add_assign)(&y, &mut a);
            (simd.add_assign)(&y, &mut b);
            assert_eq!(bits(&a), bits(&b), "{label} add_assign");
            (scalar.div_assign)(&mut a, 1.7);
            (simd.div_assign)(&mut b, 1.7);
            assert_eq!(bits(&a), bits(&b), "{label} div_assign");
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

    /// The `unsafe` slice kernels no tile or transcendental sweep
    /// covers — `axpy`, `add_assign`, `row_max`, `row_sum`,
    /// `div_assign` and `bf16_round` — equal scalar bit for bit in
    /// every SIMD table on every length from 0 to past two 8-lane
    /// blocks and either side of 64 and 128, each at four float
    /// offsets (so most accesses are unaligned), with ±0, ±inf, NaN and
    /// subnormals among the values.
    #[test]
    fn slice_kernels_match_scalar_on_ragged_unaligned_and_empty_slices() {
        let scalar = &SCALAR_TABLE;
        for len in (0..=33).chain([63, 64, 65, 127, 128, 129]) {
            for skew in 0..4 {
                let seed = (len * 4 + skew) as u64;
                let xs = sprinkle(ramp(skew + len, seed), seed);
                let ys = sprinkle(ramp(skew + len, seed + 1), seed + 3);
                let (x, y) = (&xs[skew..], &ys[skew..]);
                for simd in simd_tables() {
                    let label = format!("{} len {len} skew {skew}", simd.mode.label());
                    for reduce in [scalar.row_max, scalar.row_sum]
                        .iter()
                        .zip([simd.row_max, simd.row_sum])
                    {
                        assert_eq!(
                            reduce.0(x).to_bits(),
                            reduce.1(x).to_bits(),
                            "{label} reduce"
                        );
                    }
                    let (mut a, mut b) = (xs.clone(), xs.clone());
                    (scalar.axpy)(0.37, y, &mut a[skew..]);
                    (simd.axpy)(0.37, y, &mut b[skew..]);
                    assert_eq!(bits(&a), bits(&b), "{label} axpy");
                    (scalar.add_assign)(y, &mut a[skew..]);
                    (simd.add_assign)(y, &mut b[skew..]);
                    assert_eq!(bits(&a), bits(&b), "{label} add_assign");
                    for denom in [1.7, -0.0, f32::INFINITY, NAN] {
                        let (mut a, mut b) = (a.clone(), b.clone());
                        (scalar.div_assign)(&mut a[skew..], denom);
                        (simd.div_assign)(&mut b[skew..], denom);
                        assert_eq!(bits(&a), bits(&b), "{label} div_assign {denom}");
                    }
                    (scalar.bf16_round)(&mut a[skew..]);
                    (simd.bf16_round)(&mut b[skew..]);
                    assert_eq!(bits(&a), bits(&b), "{label} bf16_round");
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

    /// Every tile of every table, on every row count `1..=MR`, with A
    /// laid out as an `A·B` block reads it (rows `k` apart, step 1) and
    /// as an `Aᵀ·B` block does (adjacent rows, step `m`), equals the
    /// per-element reference bit for bit.
    #[test]
    fn micro_tile_matches_scalar_bitwise_on_short_tiles() {
        let (kc_len, k, m) = (9usize, 11usize, MR + 2);
        let a = ramp(m * k, 5);
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            for &(cols, tile) in kt.micro_tiles {
                let n = cols + 5;
                let b = ramp(kc_len * n, 4);
                for (row, step) in [(k, 1), (1, m)] {
                    for mr_eff in 1..=MR {
                        let mut want = ramp(MR * n, 6);
                        let mut got = want.clone();
                        tile_ref((&a, row, step), kc_len, &b, &mut want, n, mr_eff, cols);
                        tile(&a, row, step, kc_len, &b, &mut got, n, mr_eff);
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

    /// Panics at the first `x` in `xs` where the scalar `tanh` port
    /// differs from the host's `f32::tanh` or from the `tanh` lanes of
    /// any SIMD table the host has. NaN equals NaN.
    fn check_tanh(xs: &[f32]) {
        let port: Vec<f32> = xs.iter().map(|&x| tanh(x)).collect();
        for (&x, &p) in xs.iter().zip(&port) {
            let libm = x.tanh();
            assert!(
                same(p, libm),
                "tanh({x:e} = {:#010x}): port {p:e}, host libm {libm:e}. The port \
                 reproduces glibc 2.36's s_tanhf.c + s_expm1f.c bit for bit; under \
                 another libm the port is the definition",
                x.to_bits()
            );
        }
        for &mode in simd_modes() {
            let mut lanes = xs.to_vec();
            let whole = match mode {
                SimdMode::Avx512 => avx512::tanh_lanes(&mut lanes),
                _ => avx2::tanh_lanes(&mut lanes),
            };
            for ((&x, &p), &v) in xs.iter().zip(&port).zip(&lanes).take(whole) {
                let label = mode.label();
                assert!(same(v, p), "{label} tanh({x:e}) = {v:e}, scalar {p:e}");
            }
        }
    }

    /// Panics at the first `x` in `xs` where the scalar `exp` port
    /// differs from the host's `f32::exp`, or the AVX2 `exp` lanes
    /// (which every SIMD table's `exp_shift` runs) from the scalar port.
    /// NaN equals NaN.
    fn check_exp(xs: &[f32]) {
        let port: Vec<f32> = xs.iter().map(|&x| exp(x)).collect();
        for (&x, &p) in xs.iter().zip(&port) {
            let libm = x.exp();
            assert!(
                same(p, libm),
                "exp({x:e} = {:#010x}): port {p:e}, host libm {libm:e}. The port \
                 reproduces glibc 2.36's e_expf.c as built for FMA hosts bit for bit; \
                 under another libm the port is the definition",
                x.to_bits()
            );
        }
        if simd_available() {
            let mut lanes = xs.to_vec();
            let whole = avx2::exp_lanes(&mut lanes);
            for ((&x, &p), &v) in xs.iter().zip(&port).zip(&lanes).take(whole) {
                assert!(same(v, p), "avx2 exp({x:e}) = {v:e}, scalar {p:e}");
            }
        }
    }

    /// Panics at the first `x` in `xs` where the `gelu` (output, kept
    /// input, kept `tanh`) or `gelu_backward` entry of any SIMD table
    /// the host has differs from the scalar one. NaN equals NaN.
    fn check_gelu(xs: &[f32]) {
        let run = |kt: &KernelTable| {
            let mut h = xs.to_vec();
            let (mut pre, mut th) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
            (kt.gelu)(&mut h, Some((&mut pre, &mut th)));
            let mut g: Vec<f32> = (0..xs.len()).map(|i| 0.5 + (i % 7) as f32).collect();
            (kt.gelu_backward)(&pre, &th, &mut g);
            [h, pre, th, g]
        };
        let scalar = run(&SCALAR_TABLE);
        for kt in simd_tables() {
            let (simd, label) = (run(kt), kt.mode.label());
            for (what, (s, v)) in ["gelu", "pre", "tanh", "gelu_backward"]
                .iter()
                .zip(scalar.iter().zip(&simd))
            {
                for ((&x, &s), &v) in xs.iter().zip(s).zip(v) {
                    assert!(same(s, v), "{what} at {x:e}: scalar {s:e}, {label} {v:e}");
                }
            }
        }
    }

    #[test]
    fn tanh_port_matches_libm_and_simd_lanes_on_edges_and_a_stride() {
        // The branch boundaries of both glibc sources, a step either
        // side, both signs: `tanh`'s own thresholds on x, and
        // `expm1`'s on its argument ∓2|x| (so at x of half the size —
        // one less in the exponent field).
        let boundaries = [
            0u32,
            1,
            0x2400_0000,
            0x3eb1_7218,
            0x3e31_7218,
            0x3f85_1592,
            0x3f05_1592,
            0x3280_0000,
            0x3f80_0000,
            0x41b0_0000,
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
        check_tanh(&xs);
        check_gelu(&xs);
    }

    #[test]
    #[ignore = "sweeps all 2^32 inputs (minutes in release): ci.sh runs it by name"]
    fn tanh_port_matches_libm_and_simd_lanes_exhaustively() {
        // Small enough that the checks' scratch vectors stay below
        // the allocator's mmap threshold and are recycled, not faulted.
        const CHUNK: u64 = 1 << 12;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunks = (1u64 << 32) / CHUNK;
        std::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || {
                    for c in (w..chunks).step_by(workers as usize) {
                        let xs: Vec<f32> = (c * CHUNK..(c + 1) * CHUNK)
                            .map(|b| f32::from_bits(b as u32))
                            .collect();
                        check_tanh(&xs);
                        check_gelu(&xs);
                    }
                });
            }
        });
    }

    #[test]
    fn exp_port_matches_libm_and_simd_lanes_on_edges_and_a_stride() {
        // `e_expf.c`'s filter thresholds (|x| ≥ 88, the overflow and
        // both underflow bounds, ±inf, NaN), the edges of the `f32`
        // range, the two inputs where a port without the fused
        // `InvLn2N·x − kd` differs (32.564632 and −63.09946), and a step
        // either side of each, both signs.
        let boundaries = [
            0u32,
            1,
            0x3300_0000,
            0x3f80_0000,
            0x4202_422f,
            0x427c_65d9,
            0x42b0_0000,
            0x42b1_7217,
            0x42ce_8ecf,
            0x42cf_f1b4,
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
        check_exp(&xs);
        // Every table's `exp_shift` entry is the port of the rounded
        // difference, on whole lanes and the tail alike.
        let shift = 0.75f32;
        for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
            let mut row = xs.clone();
            (kt.exp_shift)(&mut row, shift);
            for (&x, &v) in xs.iter().zip(&row) {
                let want = exp(x - shift);
                let label = kt.mode.label();
                assert!(
                    same(v, want),
                    "{label} exp_shift({x:e}) = {v:e}, port {want:e}"
                );
            }
        }
    }

    #[test]
    #[ignore = "sweeps all 2^32 inputs (a minute or more in release): ci.sh runs it by name"]
    fn exp_port_matches_libm_and_simd_lanes_exhaustively() {
        const CHUNK: u64 = 1 << 12;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunks = (1u64 << 32) / CHUNK;
        std::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || {
                    for c in (w..chunks).step_by(workers as usize) {
                        let xs: Vec<f32> = (c * CHUNK..(c + 1) * CHUNK)
                            .map(|b| f32::from_bits(b as u32))
                            .collect();
                        check_exp(&xs);
                    }
                });
            }
        });
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Independent round-to-nearest-even reference: pick between
        /// the two neighboring bf16 values by exact `f64` distance,
        /// breaking ties toward the even (low-bit-zero) encoding.
        /// Defined for finite inputs only.
        fn bf16_reference(v: f32) -> u16 {
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
        fn unpack(h: u16) -> f32 {
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
            /// 6-row × 32, then 6 × 16, on AVX-512; the scalar edge at
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
                let tables = std::iter::once(&SCALAR_TABLE).chain(simd_tables());
                let edges = (1..TILE_COLS).map(|c| (c, None));
                let tiles = tables.flat_map(|kt| kt.micro_tiles.iter().map(move |&(c, t)| (c, Some((kt, t)))));
                for (cols, tile) in tiles.chain(edges) {
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
                    let label = match tile {
                        Some((kt, tile)) => {
                            tile(a, row, step, kc_len, b, &mut got[o..], n, mr_eff);
                            kt.mode.label()
                        }
                        None => {
                            micro_tile_edge(a, row, step, kc_len, b, &mut got[o..], n, mr_eff, cols);
                            "edge"
                        }
                    };
                    prop_assert_eq!(bits(&want), bits(&got), "{} {} strides ({}, {})", label, cols, row, step);
                }
            }

            /// Every table's `A·Bᵀ` tile equals `dot` per element bit for
            /// bit on every short tile (`rows ∈ 1..=NT_ROWS`, `cols ∈
            /// 1..=NT_COLS`), every `k % 8` from `k = 1` to past eight
            /// 8-lane blocks and any output stride, with ±0, ±inf, NaN
            /// and subnormals among the operands, all three at odd
            /// offsets and `out` exactly as long as the tile reaches.
            #[test]
            fn nt_tile_agrees_with_dot_on_edges(
                (rows, cols) in (1usize..=NT_ROWS, 1usize..=NT_COLS),
                (kq, kr) in (0usize..9, 0usize..NR),
                extra in 0usize..5,
                skews in (skew(), skew(), skew()),
                seed in 0u64..1024,
            ) {
                let (k, ldo) = ((kq * NR + kr).max(1), cols + extra);
                let a = sprinkle(skewed(rows * k, seed, skews.0), seed);
                let b = sprinkle(ramp(cols * k, seed + 1), seed + 2);
                // The panel as the launch packs it: `Bᵀ`, zero past `cols`.
                let mut panel = skewed(k * NT_COLS, seed + 3, skews.1);
                let o = skews.1;
                for (p, prow) in panel[o..].chunks_exact_mut(NT_COLS).enumerate() {
                    for (j, v) in prow.iter_mut().enumerate() {
                        *v = if j < cols { b[j * k + p] } else { 0.0 };
                    }
                }
                let out = skewed((rows - 1) * ldo + cols, seed + 4, skews.2);
                let a_s = &a[skews.0..];
                for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
                    let mut want = out[skews.2..].to_vec();
                    for r in 0..rows {
                        for j in 0..cols {
                            want[r * ldo + j] += (kt.dot)(&a_s[r * k..][..k], &b[j * k..][..k]);
                        }
                    }
                    let mut got = out.clone();
                    (kt.nt_tile)(a_s, rows, k, &panel[o..], &mut got[skews.2..], ldo, cols);
                    prop_assert_eq!(bits(&got[skews.2..]), bits(&want), "{}", kt.mode.label());
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
