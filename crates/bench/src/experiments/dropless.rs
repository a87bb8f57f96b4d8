//! Token-imbalance sweep for the dropless grouped compute path (the
//! Figure 7 workload family under skewed routing).
//!
//! The padded `(E, C, M)` twin prices every expert at the capacity
//! `C = max_e bin_e`, so its FLOP bill cliffs as routing skews: at
//! single-hot routing it computes `E·R` rows for `R` routed tokens.
//! The grouped path walks the CSR offsets and computes exactly `R`
//! rows at every skew. This sweep drives both engines over the same
//! routed rows across a skew ladder (uniform → Zipf → single-hot),
//! asserts the no-cliff acceptance criteria, and rewrites the
//! `grouped_gemm` section of `BENCH_compute.json`.
//!
//! Everything except the timings is a pure function of the seed: the
//! grouped and padded outputs are compared bitwise per level, and
//! [`digest`] folds the output bits so CI can pin the sweep across
//! `TUTEL_SIMD={0,1} × TUTEL_THREADS={1,4}`.

use std::time::Instant;

use tutel_experts::ExpertsBlock;
use tutel_obs::json::Value;
use tutel_rt::with_parallelism_limit;
use tutel_tensor::{Rng, Tensor, TensorError};

use crate::Table;

/// Experts in the sweep block.
pub const EXPERTS: usize = 8;
/// Token embedding width.
pub const MODEL_DIM: usize = 64;
/// FFN hidden width.
pub const HIDDEN_DIM: usize = 128;
/// Routed rows at every level — the grouped path's whole workload.
pub const ROWS: usize = 1024;
/// Timed iterations per engine per level (median), after one warmup.
const ITERS: usize = 7;

/// One rung of the skew ladder.
#[derive(Debug, Clone, Copy)]
pub struct SkewLevel {
    /// Display / JSON key, e.g. `zipf_1.0`.
    pub label: &'static str,
    /// Zipf exponent over expert ranks; `None` = single-hot (all rows
    /// to expert 0, the worst case for padding).
    pub zipf_s: Option<f64>,
}

/// Uniform → Zipf(0.5) → Zipf(1.0) → Zipf(1.5) → single-hot.
pub fn skew_ladder() -> Vec<SkewLevel> {
    vec![
        SkewLevel {
            label: "uniform",
            zipf_s: Some(0.0),
        },
        SkewLevel {
            label: "zipf_0.5",
            zipf_s: Some(0.5),
        },
        SkewLevel {
            label: "zipf_1.0",
            zipf_s: Some(1.0),
        },
        SkewLevel {
            label: "zipf_1.5",
            zipf_s: Some(1.5),
        },
        SkewLevel {
            label: "single_hot",
            zipf_s: None,
        },
    ]
}

/// Deterministic bin sizes for a rung: expert `e` gets a share
/// proportional to `(e+1)^-s`, floored, with the remainder dealt in
/// expert order so the bins always sum to `rows`.
pub fn bins_for(level: &SkewLevel, experts: usize, rows: usize) -> Vec<usize> {
    let Some(s) = level.zipf_s else {
        let mut bins = vec![0usize; experts];
        bins[0] = rows;
        return bins;
    };
    let weights: Vec<f64> = (0..experts).map(|e| ((e + 1) as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut bins: Vec<usize> = weights
        .iter()
        .map(|w| ((rows as f64) * w / total).floor() as usize)
        .collect();
    let mut short = rows - bins.iter().sum::<usize>();
    let mut e = 0usize;
    while short > 0 {
        bins[e % experts] += 1;
        short -= 1;
        e += 1;
    }
    bins
}

/// One measured rung of the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Rung label.
    pub label: &'static str,
    /// Rows the grouped path computed (always [`ROWS`]).
    pub routed_rows: usize,
    /// Capacity the padded twin ran at (`max_e bin_e`).
    pub capacity: usize,
    /// Rows the padded twin computed (`EXPERTS · capacity`).
    pub padded_rows: usize,
    /// Grouped median wall time, microseconds.
    pub grouped_us: f64,
    /// Padded median wall time, microseconds.
    pub padded_us: f64,
    /// Grouped and padded real rows agreed bitwise.
    pub bitwise: bool,
    /// FNV-1a over the grouped output bits (thread/SIMD invariant).
    pub out_digest: u64,
}

fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn fnv(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the skew ladder under `threads` pool workers. With
/// `timed = false` each engine runs exactly once per rung (digest-only
/// mode for the CI determinism sweep); timings are reported as 0.
///
/// # Errors
///
/// Propagates [`TensorError`] from either engine.
pub fn sweep(threads: usize, timed: bool) -> Result<Vec<SweepPoint>, TensorError> {
    with_parallelism_limit(threads, || sweep_inner(timed))
}

fn sweep_inner(timed: bool) -> Result<Vec<SweepPoint>, TensorError> {
    let mut rng = Rng::seed(0xD80B);
    let block = ExpertsBlock::new(EXPERTS, MODEL_DIM, HIDDEN_DIM, &mut rng);
    let x = rng.normal_tensor(&[ROWS, MODEL_DIM], 0.0, 1.0);

    let mut points = Vec::new();
    for level in skew_ladder() {
        let bins = bins_for(&level, EXPERTS, ROWS);
        let mut offsets = vec![0usize; EXPERTS + 1];
        for (e, b) in bins.iter().enumerate() {
            offsets[e + 1] = offsets[e] + b;
        }
        let capacity = bins.iter().copied().max().unwrap_or(0);

        // The padded twin sees the same rows, laid out (E, C, M) with
        // zeros past each bin — exactly what `fast_encode` produces.
        let mut padded_x = vec![0.0f32; EXPERTS * capacity * MODEL_DIM];
        for e in 0..EXPERTS {
            let rows = &x.as_slice()[offsets[e] * MODEL_DIM..offsets[e + 1] * MODEL_DIM];
            padded_x[e * capacity * MODEL_DIM..e * capacity * MODEL_DIM + rows.len()]
                .copy_from_slice(rows);
        }
        let padded_x = Tensor::from_vec(padded_x, &[EXPERTS, capacity, MODEL_DIM])?;

        let grouped_y = block.infer_grouped(&x, &offsets)?;
        let padded_y = block.infer(&padded_x)?;
        let bitwise = (0..EXPERTS).all(|e| {
            let g = &grouped_y.as_slice()[offsets[e] * MODEL_DIM..offsets[e + 1] * MODEL_DIM];
            let p =
                &padded_y.as_slice()[e * capacity * MODEL_DIM..e * capacity * MODEL_DIM + g.len()];
            g == p
        });
        let out_digest = fnv(
            0xcbf2_9ce4_8422_2325,
            grouped_y
                .as_slice()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes()),
        );

        let (grouped_us, padded_us) = if timed {
            let mut g = Vec::with_capacity(ITERS);
            let mut p = Vec::with_capacity(ITERS);
            for _ in 0..ITERS {
                let t = Instant::now();
                let _ = block.infer_grouped(&x, &offsets)?;
                g.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                let _ = block.infer(&padded_x)?;
                p.push(t.elapsed().as_secs_f64() * 1e6);
            }
            (median_us(&mut g), median_us(&mut p))
        } else {
            (0.0, 0.0)
        };

        points.push(SweepPoint {
            label: level.label,
            routed_rows: ROWS,
            capacity,
            padded_rows: EXPERTS * capacity,
            grouped_us,
            padded_us,
            bitwise,
            out_digest,
        });
    }
    Ok(points)
}

/// Renders the sweep as a printable table.
pub fn sweep_table(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(
        "Token-imbalance sweep: grouped (dropless) vs padded FFN compute",
        &[
            "skew", "routed", "slots", "grouped", "padded", "pad/grp", "bitwise",
        ],
    );
    for p in points {
        t.row(&[
            p.label.to_string(),
            p.routed_rows.to_string(),
            p.padded_rows.to_string(),
            format!("{:.0} us", p.grouped_us),
            format!("{:.0} us", p.padded_us),
            format!("{:.2}x", p.padded_us / p.grouped_us.max(1e-9)),
            if p.bitwise { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

/// The acceptance criteria, returned as human-readable failures
/// (empty = pass):
///
/// 1. every rung's grouped and padded real rows agree bitwise;
/// 2. grouped at max skew stays within 10 % of grouped at uniform
///    (its workload never changed — no cliff);
/// 3. padded at max skew degrades ≥ 1.5× vs padded at uniform (the
///    cliff the grouped path removes — if this fails the sweep isn't
///    exercising the claim);
/// 4. grouped beats padded at every rung from Zipf(1.0) up.
pub fn failures(points: &[SweepPoint]) -> Vec<String> {
    let mut out = Vec::new();
    for p in points {
        if !p.bitwise {
            out.push(format!("{}: grouped and padded rows diverged", p.label));
        }
    }
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        out.push("empty sweep".to_string());
        return out;
    };
    if last.grouped_us > 1.10 * first.grouped_us {
        out.push(format!(
            "grouped cliff: {:.0} us at {} vs {:.0} us at {} (> 1.10x)",
            last.grouped_us, last.label, first.grouped_us, first.label
        ));
    }
    if last.padded_us < 1.5 * first.padded_us {
        out.push(format!(
            "padded cliff too small: {:.0} us at {} vs {:.0} us at {} (< 1.5x)",
            last.padded_us, last.label, first.padded_us, first.label
        ));
    }
    for p in points {
        let steep = matches!(p.label, "zipf_1.0" | "zipf_1.5" | "single_hot");
        if steep && p.grouped_us >= p.padded_us {
            out.push(format!(
                "{}: grouped {:.0} us does not beat padded {:.0} us",
                p.label, p.grouped_us, p.padded_us
            ));
        }
    }
    out
}

/// FNV-1a over the per-rung output digests and bin geometry — the
/// thread- and SIMD-invariant slice of the sweep. CI compares this
/// line across `TUTEL_SIMD={0,1} × TUTEL_THREADS={1,4}`.
pub fn digest(points: &[SweepPoint]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        h = fnv(h, p.out_digest.to_le_bytes());
        h = fnv(h, (p.capacity as u64).to_le_bytes());
        h = fnv(h, u64::from(p.bitwise).to_le_bytes());
    }
    h
}

/// The `grouped_gemm` section for `BENCH_compute.json`.
pub fn grouped_gemm_section(points: &[SweepPoint], threads: usize) -> Value {
    let mut pairs = vec![
        (
            "units".to_string(),
            Value::Str(
                "microseconds, median of 7; ExpertsBlock infer over one skew ladder, \
                 grouped CSR bins vs padded (E, C, M) at C = max bin"
                    .to_string(),
            ),
        ),
        (
            "shape".to_string(),
            Value::Str(format!(
                "E{EXPERTS} M{MODEL_DIM} V{HIDDEN_DIM}, {ROWS} routed rows"
            )),
        ),
        ("threads".to_string(), Value::Num(threads as f64)),
    ];
    for p in points {
        pairs.push((
            p.label.to_string(),
            Value::obj([
                ("grouped_us", Value::Num(round2(p.grouped_us))),
                ("padded_us", Value::Num(round2(p.padded_us))),
                (
                    "padded_over_grouped",
                    Value::Num(round2(p.padded_us / p.grouped_us.max(1e-9))),
                ),
                ("capacity_slots", Value::Num(p.padded_rows as f64)),
                ("routed_rows", Value::Num(p.routed_rows as f64)),
            ]),
        ));
    }
    pairs.push((
        "no_cliff".to_string(),
        Value::Bool(failures(points).is_empty()),
    ));
    Value::Obj(pairs)
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Replaces (or appends) the `grouped_gemm` section in the JSON file
/// at `path`, preserving every other section and re-rendering the
/// document with [`Value::to_pretty`].
///
/// # Errors
///
/// I/O errors from read/write; a parse failure of the existing file
/// surfaces as [`std::io::ErrorKind::InvalidData`].
pub fn merge_section(path: &str, section: Value) -> std::io::Result<()> {
    let doc = match std::fs::read_to_string(path) {
        Ok(text) => Value::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::Obj(Vec::new()),
        Err(e) => return Err(e),
    };
    let Value::Obj(mut pairs) = doc else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path} is not a JSON object"),
        ));
    };
    match pairs.iter_mut().find(|(k, _)| k == "grouped_gemm") {
        Some((_, v)) => *v = section,
        None => {
            // Keep trailing notes last if the file has them.
            let at = pairs
                .iter()
                .position(|(k, _)| k == "notes")
                .unwrap_or(pairs.len());
            pairs.insert(at, ("grouped_gemm".to_string(), section));
        }
    }
    std::fs::write(path, Value::Obj(pairs).to_pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_sum_and_skew_shape() {
        for level in skew_ladder() {
            let bins = bins_for(&level, EXPERTS, ROWS);
            assert_eq!(bins.iter().sum::<usize>(), ROWS, "{}", level.label);
            assert!(bins.windows(2).all(|w| w[0] >= w[1]), "{}", level.label);
        }
        assert_eq!(
            bins_for(&skew_ladder()[0], EXPERTS, ROWS),
            vec![ROWS / EXPERTS; EXPERTS]
        );
        let hot = bins_for(&skew_ladder()[4], EXPERTS, ROWS);
        assert_eq!(hot[0], ROWS);
    }

    #[test]
    fn digest_is_thread_invariant_and_outputs_bitwise() {
        let a = sweep(1, false).unwrap();
        let b = sweep(2, false).unwrap();
        assert_eq!(digest(&a), digest(&b), "dropless digest moved with threads");
        assert!(a.iter().all(|p| p.bitwise));
        // Padding blow-up is monotone along the ladder and hits E x at
        // single-hot.
        assert_eq!(a[0].padded_rows, ROWS);
        assert_eq!(a[4].padded_rows, EXPERTS * ROWS);
        assert!(a.windows(2).all(|w| w[0].capacity <= w[1].capacity));
    }

    #[test]
    fn merge_rewrites_only_the_grouped_gemm_section() {
        let dir = std::env::temp_dir().join("tutel_dropless_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "{\"keep\": {\"a\": 1},\n\"notes\": [\"n\"]}\n").unwrap();
        let points = sweep(1, false).unwrap();
        merge_section(path, grouped_gemm_section(&points, 1)).unwrap();
        let doc = Value::parse(std::fs::read_to_string(path).unwrap().trim()).unwrap();
        assert_eq!(
            doc.get("keep").unwrap().get("a").unwrap().as_f64(),
            Some(1.0)
        );
        let section = doc.get("grouped_gemm").unwrap();
        assert!(section.get("uniform").is_some());
        assert!(section.get("single_hot").is_some());
        // notes stayed last.
        if let Value::Obj(pairs) = &doc {
            assert_eq!(pairs.last().unwrap().0, "notes");
            assert_eq!(pairs[1].0, "grouped_gemm");
        } else {
            panic!("not an object");
        }
        std::fs::remove_file(path).unwrap();
    }
}
