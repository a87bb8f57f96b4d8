//! Runtime CPU-feature kernel dispatch: the **only** module in the
//! workspace allowed to touch `is_x86_feature_detected!` or
//! `#[target_feature]` (the `kernel_dispatch` lint enforces this).
//!
//! # Design
//!
//! CPU features are detected **once** (a `OnceLock`) and resolved into
//! one of three static [`KernelTable`]s of plain function pointers:
//! scalar, AVX2, and AVX-512, whose GEMM tiles and GELU run 16 lanes
//! and whose other entries are the AVX2 ones. Each kernel is **one
//! generic body per op** over a private lane trait, instantiated per
//! lane type: `f32` for the scalar table (and every kernel's tail),
//! `__m256` for AVX2, `__m512` for AVX-512. A table entry is a
//! one-line shim that compiles the body under its table's target
//! features. Hot paths fetch the active table with [`table`] (two
//! relaxed atomic loads, no detection, no branching beyond the table
//! select) and call through the pointers; per-call feature checks
//! never happen.
//!
//! # The bitwise-SIMD contract
//!
//! Every table is **bitwise-identical** to every other, so the PR-3
//! determinism contract (results are a pure function of the problem,
//! never of the worker count) extends to the `TUTEL_SIMD` axis
//! unchanged. This falls out of four rules:
//!
//! 1. **FMA in the GEMM tiles, and only there and in `exp`.** Every
//!    GEMM element is a chain of fused multiply-adds from zero within a
//!    `KC` panel: step `p` is `acc ← fma(a_p, b_p, acc)`, rounded once.
//!    The lane trait's `fma` is `f32::mul_add` on one lane (exact on
//!    every host) and `vfmadd` on eight or sixteen, the same IEEE
//!    operation, so the tables still agree bit for bit; both SIMD
//!    tables are only installed on AVX2+FMA hosts, matching how real
//!    deployments ship one fat binary. The tiles' right edge is a table
//!    entry too, compiled under its table's features, so its
//!    `mul_add` is the instruction there and a libm call only in the
//!    scalar table. Every other kernel (`dot`, `axpy`, GELU, the row
//!    reductions) keeps a separate multiply and add, each rounded; the
//!    one other fused body is a transcendental whose definition fuses
//!    (rule 4's `exp`).
//! 2. **One body, every lane width.** Every op of the lane trait is the
//!    same IEEE (or bit) operation in each lane, at 1, 8 or 16 lanes, so
//!    a lane-parallel kernel (the micro-tile pass, `axpy`, the lanewise
//!    divide, `tanh`, GELU) gives every table the same bits by
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
//! 4. **Transcendentals are ported, not called.** A libm call is
//!    scalar, branchy, and defined by whichever libm the host links,
//!    so neither a SIMD lane nor another host could match it bit for
//!    bit. The GELU's `tanh` is therefore a branch-free port of glibc
//!    2.36's `s_tanhf.c` + `s_expm1f.c` that computes every path and
//!    selects by mask, one generic body like every other kernel (rule
//!    2): separate `mul`/`add`, a truncating `cvtt` for `k`, integer
//!    shifts for the exponent tricks, and a `blend` per select
//!    (`blendv` on AVX2, a mask-register blend on AVX-512). The port
//!    equals glibc 2.36's `tanhf` on all 2³² inputs, so digests pinned
//!    against that libm keep their bits, and no digest depends on the
//!    host's libm any more: elsewhere, the port is the definition.
//!    Softmax's `exp` is `dispatch::exp`, a branch-free port of glibc
//!    2.36's `e_expf.c` as its ifunc resolves on an AVX2+FMA host
//!    (`__expf_fma`): `f64` arithmetic with exactly the four fused
//!    steps that build contracts (`InvLn2N·x − kd`, `C0·r + C1`,
//!    `C2·r + 1`, `z·r² + y`), a 32-entry table of `2^(i/32)`, and the
//!    `|x| ≥ 88` filter selected last. Its `f64` halves would need a
//!    second lane type, so it is written twice: the scalar body and an
//!    8-lane AVX2 body (two 4-lane `f64` halves, the table read by
//!    `gather`), the AVX2 table's `exp_shift` entry, which the AVX-512
//!    table reuses; both equal `f32::exp` on all 2³² inputs on such a
//!    host.
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
    /// `__m512` GEMM tiles and GELU over the AVX2 table (also
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
/// Strip-mined dot product with the fixed lane tree.
pub type DotFn = fn(&[f32], &[f32]) -> f32;
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
    /// 8-lane strip-mined dot product (fixed reduction tree).
    pub dot: DotFn,
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
    /// element is `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))` over the
    /// ported `tanh` (rule 4).
    pub gelu: GeluFn,
    /// `(pre, tanh, g)`: `g[i] *= gelu'(pre[i])`, reading the `tanh` a
    /// capturing [`gelu`](Self::gelu) stored: `gelu' = 0.5·(1 + t) +
    /// 0.5·x·(1 − t²)·√(2/π)·(1 + 3·0.044715·x²)`.
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
    dot: |x, y| dot(ONE_LANE, x, y),
    topk: crate::ops::topk_scan,
    axpy: |a, v, out| axpy(ONE_LANE, a, v, out),
    add_assign: |v, out| add_assign(ONE_LANE, v, out),
    row_max: |x| row_max(ONE_LANE, x),
    row_sum: |x| row_sum(ONE_LANE, x),
    div_assign: |row, denom| div_assign(ONE_LANE, row, denom),
    exp_shift: |row, shift| row.iter_mut().for_each(|v| *v = exp(*v - shift)),
    bf16_round: |data| bf16_round(ONE_LANE, data),
    gelu: |h, keep| gelu(ONE_LANE, h, keep),
    gelu_backward: |pre, tanh, g| gelu_backward(ONE_LANE, pre, tanh, g),
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
    fn and(self, o: Self) -> Self;
    fn xor(self, o: Self) -> Self;
    /// The lanes' bits.
    fn bits(self) -> Self::I;
    /// Each lane truncated toward zero; unspecified outside `i32`.
    fn cvtt(self) -> Self::I;
    /// `t` in the lanes `m` selects, `self` in the others.
    fn blend(self, m: <Self::I as Ints>::M, t: Self) -> Self;
}

/// The `i32` lanes of a [`Lane`]. Arithmetic wraps, and a shift count
/// is below 32.
trait Ints: Copy {
    /// The `f32` lanes of the same width.
    type F;
    /// A per-lane condition: what the compares return, and what
    /// [`Lane::blend`] and [`keep`](Ints::keep) take.
    type M: Copy;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn and(self, o: Self) -> Self;
    fn shl(self, n: i32) -> Self;
    /// Logical shift right by `n`.
    fn shr(self, n: i32) -> Self;
    /// Logical shift right by each lane of `by`, read as unsigned: 0
    /// from 32 on.
    fn srlv(self, by: Self) -> Self;
    /// `self > o`, signed.
    fn cmpgt(self, o: Self) -> Self::M;
    fn cmpeq(self, o: Self) -> Self::M;
    /// The lanes whose sign bit is set.
    fn sign(self) -> Self::M;
    /// `self` in the lanes a compare's `m` selects, 0 in the others.
    fn keep(self, m: Self::M) -> Self;
    /// Each lane converted to the nearest `f32`.
    fn cvt(self) -> Self::F;
    /// The lanes' bits as `f32`.
    fn as_f32(self) -> Self::F;
}

/// One lane: the scalar table's, and every kernel's tail in every
/// table. `select` makes the blends branch-free.
const ONE_LANE: f32 = 0.0;

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
    fn and(self, o: f32) -> f32 {
        f32::from_bits(self.to_bits() & o.to_bits())
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
    fn cvtt(self) -> i32 {
        self as i32
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
    fn srlv(self, by: i32) -> i32 {
        (self as u32).checked_shr(by as u32).unwrap_or(0) as i32
    }
    #[inline(always)]
    fn cmpgt(self, o: i32) -> bool {
        self > o
    }
    #[inline(always)]
    fn cmpeq(self, o: i32) -> bool {
        self == o
    }
    #[inline(always)]
    fn sign(self) -> bool {
        self < 0
    }
    #[inline(always)]
    fn keep(self, m: bool) -> i32 {
        select(m, self, 0)
    }
    #[inline(always)]
    fn cvt(self) -> f32 {
        self as f32
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
        sign $sign:ident, keep $keep:ident;
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
            #[inline(always)]
            fn keep(self, m: $m) -> Self {
                // SAFETY: as above.
                $i(unsafe { $keep(self.0, m) })
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

/// `√(2/π)`, the tanh approximation's inner scale.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;
/// The tanh approximation's cubic coefficient.
const GELU_CUBIC: f32 = 0.044715;

/// GELU, tanh approximation, in every lane: `(gelu(x), tanh(inner(x)))`.
/// The `tanh` is the expensive half and the only part the derivative
/// shares.
#[inline(always)]
fn gelu_lanes<L: Lane>(x: L) -> (L, L) {
    let th = tanh(x.splat(SQRT_2_OVER_PI) * (x + x.splat(GELU_CUBIC) * x * x * x));
    (x.splat(0.5) * x * (x.splat(1.0) + th), th)
}

/// The `gelu` entry: [`gelu_lanes`] over `h` in place, keeping the
/// input and the `tanh` over the common prefix when asked.
#[inline(always)]
fn gelu<L: Lane>(l: L, h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) {
    match keep {
        Some((pre, tanh)) => {
            let n = h.len().min(pre.len()).min(tanh.len());
            let mut hs = h[..n].chunks_exact_mut(L::LANES);
            let mut ps = pre[..n].chunks_exact_mut(L::LANES);
            let mut ts = tanh[..n].chunks_exact_mut(L::LANES);
            for ((h, p), t) in (&mut hs).zip(&mut ps).zip(&mut ts) {
                let x = l.load(h);
                let (g, th) = gelu_lanes(x);
                x.store(p);
                g.store(h);
                th.store(t);
            }
            if L::LANES > 1 {
                let keep = Some((ps.into_remainder(), ts.into_remainder()));
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

/// The `gelu_backward` entry: `g[i] *= gelu'(pre[i])` over the common
/// prefix, from the `tanh` a capturing [`gelu`] kept.
#[inline(always)]
fn gelu_backward<L: Lane>(l: L, pre: &[f32], tanh: &[f32], g: &mut [f32]) {
    let n = g.len().min(pre.len()).min(tanh.len());
    let mut ps = pre[..n].chunks_exact(L::LANES);
    let mut ts = tanh[..n].chunks_exact(L::LANES);
    let mut gs = g[..n].chunks_exact_mut(L::LANES);
    let (one, half) = (l.splat(1.0), l.splat(0.5));
    // `3 · GELU_CUBIC · x · x` folds left to right, so the constant
    // product comes first.
    let cubic3 = l.splat(3.0 * GELU_CUBIC);
    for ((p, t), g) in (&mut ps).zip(&mut ts).zip(&mut gs) {
        let (x, t) = (l.load(p), l.load(t));
        let dinner = l.splat(SQRT_2_OVER_PI) * (one + cubic3 * x * x);
        let d = half * (one + t) + half * x * (one - t * t) * dinner;
        (l.load(g) * d).store(g);
    }
    if L::LANES > 1 {
        let (pre, tanh) = (ps.remainder(), ts.remainder());
        gelu_backward(ONE_LANE, pre, tanh, gs.into_remainder());
    }
}

/// `xs[i] ← tanh(xs[i])` on `L`'s lanes, the tail on one: the lanes the
/// `tanh` sweeps compare with the host's libm.
#[cfg(test)]
#[inline(always)]
fn tanh_in_place<L: Lane>(l: L, xs: &mut [f32]) {
    let mut cs = xs.chunks_exact_mut(L::LANES);
    for c in &mut cs {
        tanh(l.load(c)).store(c);
    }
    if L::LANES > 1 {
        tanh_in_place(ONE_LANE, cs.into_remainder());
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

/// `tanh(x)` in every lane, bit-identical to glibc 2.36's `tanhf`
/// (`s_tanhf.c` + `s_expm1f.c`, fdlibm) on every `f32` — the
/// [module-level](self) rule 4. Branch-free: every path is computed
/// and the result picked by a `blend`; no libm call. NaN in, NaN out.
#[inline(always)]
fn tanh<L: Lane>(x: L) -> L {
    let ix = x.bits().and(x.splat_i(0x7fff_ffff));
    // |x| ≥ 1: tanh = 1 − 2/(expm1(2|x|) + 2); below: −t/(t + 2) with
    // t = expm1(−2|x|).
    let big = ix.cmpgt(x.splat_i(0x3f7f_ffff));
    let ax = ix.as_f32();
    let (one, two, sign) = (x.splat(1.0), x.splat(2.0), x.splat(-0.0));
    let t = expm1_for_tanh((x.splat(-2.0) * ax).blend(big, two * ax));
    let tp2 = t + two;
    let z = (t.xor(sign) / tp2).blend(big, one - two / tp2);
    // |x| ≥ 22 (and ±inf): ±1 (`one - tiny` rounds to 1).
    let z = z.blend(ix.cmpgt(x.splat_i(0x41af_ffff)), one);
    // `-z` where x is negative: xor in x's sign bit.
    let z = z.xor(x.and(sign));
    // |x| < 2⁻⁵⁵, ±0 included.
    let z = z.blend(x.splat_i(0x2400_0000).cmpgt(ix), x * (one + x));
    z.blend(ix.cmpgt(x.splat_i(0x7f80_0000)), x + x)
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

/// `expm1(y)` (`s_expm1f.c`) in every lane, on the arguments [`tanh`]
/// selects: `2 ≤ y < 44` or `−2 < y ≤ 0`. That domain never meets the
/// huge or non-finite filters nor the `k = 1` branch, so those are not
/// ported; a lane outside it (one [`tanh`] then discards) holds an
/// unspecified value.
#[inline(always)]
fn expm1_for_tanh<L: Lane>(y: L) -> L {
    let ybits = y.bits();
    let hx = ybits.and(y.splat_i(0x7fff_ffff));
    // Reduce y = k·ln2 + x, |x| ≤ ln2/2: `k = ±1` (y's sign, `half +
    // half`) on (ln2/2, 3·ln2/2), 0 below, where the formulas reduce
    // exactly to `x = y`, `c = 0`. `cvtt` truncates toward zero, as C's
    // float → int conversion.
    let half = y.splat(0.5).blend(ybits.sign(), y.splat(-0.5));
    let far = hx.cmpgt(y.splat_i(0x3f85_1591));
    let k = (half + half).blend(far, y.splat(INV_LN2) * y + half).cvtt();
    let k = k.keep(hx.cmpgt(y.splat_i(0x3eb1_7218)));
    let kf = k.cvt();
    let hi = y - kf * y.splat(LN2_HI);
    let lo = kf * y.splat(LN2_LO);
    let x = hi - lo;
    let c = (hi - x) - lo;
    let [q1, q2, q3, q4, q5] = EXPM1_Q.map(|q| y.splat(q));
    let (one, half) = (y.splat(1.0), y.splat(0.5));
    let hfx = half * x;
    let hxs = x * hfx;
    let r1 = one + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = y.splat(3.0) - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (y.splat(6.0) - x * t));
    let e = (x * (e0 - c) - c) - hxs;
    // Adds `k` to a lane's exponent field.
    let k23 = k.shl(23);
    let scale = |v: L| v.bits().add(k23).as_f32();
    let r_k0 = x - (x * e0 - hxs);
    let r_km1 = half * (x - e) - half;
    let r_far = scale(one - (e - x)) - one;
    // 2 ≤ k < 23: t = 1 − 2⁻ᵏ (`srlv` gives 0 past 31).
    let t_small = y.splat_i(0x3f80_0000).sub(y.splat_i(0x0100_0000).srlv(k));
    let r_small = scale(t_small.as_f32() - (e - x));
    // 23 ≤ k ≤ 56: t = 2⁻ᵏ.
    let t_mid = y.splat_i(0x7f).sub(k).shl(23).as_f32();
    let r_mid = scale((x - (e + t_mid)) + one);
    // The C if-chain, lowest priority first.
    let r = r_mid.blend(y.splat_i(23).cmpgt(k), r_small);
    let r = r.blend(y.splat_i(-1).cmpgt(k), r_far);
    let r = r.blend(k.cmpgt(y.splat_i(56)), r_far);
    let r = r.blend(k.cmpeq(y.splat_i(-1)), r_km1);
    let r = r.blend(k.cmpeq(y.splat_i(0)), r_k0);
    // |y| < 2⁻²⁵: expm1(y) rounds to y.
    r.blend(y.splat_i(0x3300_0000).cmpgt(hx), y)
}

/// The AVX2 table: the generic bodies on `__m256` lanes and the
/// hand-written `exp` lanes, each entry compiled for AVX2+FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        KernelTable, SimdMode, EXP2_TAB, EXP_C, EXP_INV_LN2_N, EXP_MAY_UFLOW, EXP_OFLOW, EXP_SHIFT,
        EXP_UFLOW, HALF_MR, NR, TILE_COLS,
    };
    use core::arch::x86_64::*;

    x86_lanes! {
        V8(__m256), I8(__m256i), mask __m256i, 8, "avx2,fma";
        new _mm256_setzero_ps, splat _mm256_set1_ps, splat_i _mm256_set1_epi32,
        load _mm256_loadu_ps, store _mm256_storeu_ps, fma _mm256_fmadd_ps, blend blendv,
        sign sign_bits, keep _mm256_and_si256;
        ops [Add add _mm256_add_ps, Sub sub _mm256_sub_ps, Mul mul _mm256_mul_ps,
            Div div _mm256_div_ps];
        f32 [maxps _mm256_max_ps, and _mm256_and_ps, xor _mm256_xor_ps];
        to_i32 [bits _mm256_castps_si256, cvtt _mm256_cvttps_epi32];
        i32 [add _mm256_add_epi32, sub _mm256_sub_epi32, and _mm256_and_si256,
            srlv _mm256_srlv_epi32];
        shifts [shl _mm256_sll_epi32, shr _mm256_srl_epi32];
        cmp [cmpgt _mm256_cmpgt_epi32, cmpeq _mm256_cmpeq_epi32];
        to_f32 [cvt _mm256_cvtepi32_ps, as_f32 _mm256_castsi256_ps];
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
        dot,
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
        fn dot(x: &[f32], y: &[f32]) -> f32 = super::dot;
        fn topk(row: &[f32], idx: &mut [u32], val: &mut [f32]) = super::topk;
        fn axpy(a: f32, v: &[f32], out: &mut [f32]) = super::axpy;
        fn add_assign(v: &[f32], out: &mut [f32]) = super::add_assign;
        fn row_max(x: &[f32]) -> f32 = super::row_max;
        fn row_sum(x: &[f32]) -> f32 = super::row_sum;
        fn div_assign(row: &mut [f32], denom: f32) = super::div_assign;
        fn exp_shift(row: &mut [f32], shift: f32) = exp_shift_body;
        fn bf16_round(data: &mut [f32]) = super::bf16_round;
        fn gelu(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) = super::gelu;
        fn gelu_backward(pre: &[f32], tanh: &[f32], g: &mut [f32]) = super::gelu_backward;
        /// The AVX2 `tanh` lanes over all of `xs`, for the sweeps.
        #[cfg(test)]
        fn tanh_lanes(xs: &mut [f32]) = super::tanh_in_place;
        /// The AVX2 `exp` lanes, for the sweeps.
        #[cfg(test)]
        fn exp_lanes(xs: &mut [f32]) -> usize = exp_blocks;
    }

    /// Loads 8 consecutive `f32`s from a slice of length ≥ `off + 8`.
    #[inline(always)]
    fn load8(s: &[f32], off: usize) -> __m256 {
        assert!(NR <= s.len() && off <= s.len() - NR, "load past the slice");
        // SAFETY: the bound above guarantees 8 in-range f32s at `off`;
        // unaligned loads are permitted by `loadu`.
        unsafe { _mm256_loadu_ps(s.as_ptr().add(off)) }
    }

    /// Stores 8 lanes over `s[off .. off + 8]`.
    #[inline(always)]
    fn store8(s: &mut [f32], off: usize, v: __m256) {
        assert!(NR <= s.len() && off <= s.len() - NR, "store past the slice");
        // SAFETY: the bound above guarantees 8 in-range f32s at `off`;
        // unaligned stores are permitted by `storeu`.
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(off), v) }
    }

    /// The `exp_shift` entry.
    #[target_feature(enable = "avx2,fma")]
    fn exp_shift_body(_: V8, row: &mut [f32], shift: f32) {
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
    #[target_feature(enable = "avx2,fma")]
    fn exp8(x: __m256) -> __m256 {
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
    #[target_feature(enable = "avx2,fma")]
    fn exp4d(xd: __m256d) -> __m256d {
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

    /// The `exp_lanes` entry: [`exp8`] over every whole 8-lane block of
    /// `xs` (a shorter tail is left as is); returns how many lanes it
    /// wrote.
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    fn exp_blocks(_: V8, xs: &mut [f32]) -> usize {
        for c in 0..xs.len() / NR {
            store8(xs, c * NR, exp8(load8(xs, c * NR)));
        }
        xs.len() / NR * NR
    }
}

/// The AVX-512 table: the micro-tile pass (12 or 6 rows × 32), `gelu`
/// and `gelu_backward` on `__m512` lanes and `topk`, each compiled for
/// AVX-512F+DQ; every other entry of [`TABLE`] is the AVX2 one.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2;
    use super::{KernelTable, SimdMode, MR, TILE_COLS, WIDE_TILE_COLS};
    use core::arch::x86_64::*;

    x86_lanes! {
        V16(__m512), I16(__m512i), mask __mmask16, 16, "avx512f,avx512dq";
        new _mm512_setzero_ps, splat _mm512_set1_ps, splat_i _mm512_set1_epi32,
        load _mm512_loadu_ps, store _mm512_storeu_ps, fma _mm512_fmadd_ps, blend mask_blend,
        sign _mm512_movepi32_mask, keep maskz;
        ops [Add add _mm512_add_ps, Sub sub _mm512_sub_ps, Mul mul _mm512_mul_ps,
            Div div _mm512_div_ps];
        f32 [maxps _mm512_max_ps, and _mm512_and_ps, xor _mm512_xor_ps];
        to_i32 [bits _mm512_castps_si512, cvtt _mm512_cvttps_epi32];
        i32 [add _mm512_add_epi32, sub _mm512_sub_epi32, and _mm512_and_si512,
            srlv _mm512_srlv_epi32];
        shifts [shl _mm512_sll_epi32, shr _mm512_srl_epi32];
        cmp [cmpgt _mm512_cmpgt_epi32_mask, cmpeq _mm512_cmpeq_epi32_mask];
        to_f32 [cvt _mm512_cvtepi32_ps, as_f32 _mm512_castsi512_ps];
    }

    /// `t` in the lanes `m` sets, `f` in the others.
    #[target_feature(enable = "avx512f")]
    fn mask_blend(f: __m512, m: __mmask16, t: __m512) -> __m512 {
        _mm512_mask_blend_ps(m, f, t)
    }

    /// `v` in the lanes `m` sets, 0 in the others.
    #[target_feature(enable = "avx512f")]
    fn maskz(v: __m512i, m: __mmask16) -> __m512i {
        _mm512_maskz_mov_epi32(m, v)
    }

    pub(super) static TABLE: KernelTable = KernelTable {
        mode: SimdMode::Avx512,
        micro_tiles: &[(WIDE_TILE_COLS, micro_tile), (TILE_COLS, avx2::micro_tile)],
        micro_edge: avx2::micro_edge,
        dot: avx2::dot,
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

    simd_entries! {
        "avx512f,avx512dq", V16::new();
        fn micro_tile(
            a: &[f32], row: usize, step: usize, kc_len: usize, b: &[f32], out: &mut [f32],
            n: usize, mr_eff: usize
        ) = super::micro_tile::<V16, MR>;
        fn topk(row: &[f32], idx: &mut [u32], val: &mut [f32]) = super::topk;
        fn gelu(h: &mut [f32], keep: Option<(&mut [f32], &mut [f32])>) = super::gelu;
        fn gelu_backward(pre: &[f32], tanh: &[f32], g: &mut [f32]) = super::gelu_backward;
        /// The AVX-512 `tanh` lanes over all of `xs`, for the sweeps.
        #[cfg(test)]
        fn tanh_lanes(xs: &mut [f32]) = super::tanh_in_place;
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

    /// GELU on one lane, `(gelu(x), tanh(inner(x)))`: the scalar port
    /// the other crates' tests compare their launches with.
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

    /// GELU's derivative written out: `gelu'(x)` from `t =
    /// tanh(inner(x))`.
    fn gelu_derivative(x: f32, t: f32) -> f32 {
        let dinner = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
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

    /// The slice kernels no tile or transcendental sweep covers —
    /// `axpy`, `add_assign`, `row_max`, `row_sum`, `div_assign` and
    /// `bf16_round` — equal scalar bit for bit in every SIMD table on
    /// [`ragged_slices`].
    #[test]
    fn slice_kernels_match_scalar_on_ragged_unaligned_and_empty_slices() {
        let scalar = &SCALAR_TABLE;
        for (len, skew, xs, ys) in ragged_slices() {
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

    /// Every table's slice kernels — `row_sum`, `row_max` and `dot` in
    /// rule 3's order, `axpy`, `add_assign`, `div_assign` and
    /// `gelu_backward` lane by lane, `bf16_round` by the independent
    /// round-to-nearest-even reference — equal per-element oracles that
    /// share no code with them, on [`ragged_slices`].
    #[test]
    fn slice_kernels_match_per_element_oracles_on_ragged_unaligned_and_empty_slices() {
        for (len, skew, xs, ys) in ragged_slices() {
            let (x, y) = (&xs[skew..], &ys[skew..]);
            // Every element `i` of a slice kernel's output against `want(i)`.
            let lanewise = |what: &str, got: &[f32], want: &dyn Fn(usize) -> f32| {
                let want: Vec<f32> = (0..len).map(want).collect();
                assert_eq!(
                    bits(&got[skew..]),
                    bits(&want),
                    "{what} len {len} skew {skew}"
                );
            };
            for kt in std::iter::once(&SCALAR_TABLE).chain(simd_tables()) {
                let label = kt.mode.label();
                let reductions = [
                    ("row_sum", (kt.row_sum)(x), tree_sum_ref(len, |i| x[i])),
                    ("row_max", (kt.row_max)(x), row_max_ref(x)),
                    ("dot", (kt.dot)(x, y), tree_sum_ref(len, |i| x[i] * y[i])),
                ];
                for (what, got, want) in reductions {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{label} {what} len {len} skew {skew}"
                    );
                }
                let mut out = ys.clone();
                (kt.axpy)(0.37, x, &mut out[skew..]);
                lanewise(&format!("{label} axpy"), &out, &|i| y[i] + 0.37 * x[i]);
                let mut out = ys.clone();
                (kt.add_assign)(x, &mut out[skew..]);
                lanewise(&format!("{label} add_assign"), &out, &|i| y[i] + x[i]);
                for denom in [1.7, -0.0, f32::INFINITY, NAN] {
                    let mut out = xs.clone();
                    (kt.div_assign)(&mut out[skew..], denom);
                    lanewise(&format!("{label} div_assign {denom}"), &out, &|i| {
                        x[i] / denom
                    });
                }
                let mut out = xs.clone();
                (kt.bf16_round)(&mut out[skew..]);
                lanewise(&format!("{label} bf16_round"), &out, &|i| bf16_ref(x[i]));
                // `x` as the kept input, `y` as the kept `tanh`.
                let mut g = ys.clone();
                (kt.gelu_backward)(x, y, &mut g[skew..]);
                let want = |i: usize| y[i] * gelu_derivative(x[i], y[i]);
                lanewise(&format!("{label} gelu_backward"), &g, &want);
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
            match mode {
                SimdMode::Avx512 => avx512::tanh_lanes(&mut lanes),
                _ => avx2::tanh_lanes(&mut lanes),
            }
            for ((&x, &p), &v) in xs.iter().zip(&port).zip(&lanes) {
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
