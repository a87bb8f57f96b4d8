//! Adaptive pipelining (Section 3.3): token partitioning for
//! multi-stream comm/compute overlap, a timing model for any
//! (All-to-All algorithm × pipelining degree) strategy, and the online
//! strategy search of Algorithm 2.
//!
//! Each decision is one function that takes the telemetry handle:
//! [`PipelineTimeModel::best_strategy`] and both searches'
//! `next_strategy` (plus [`MeasuredStrategySearch::record`], which
//! backfills the measured cost) append their audit record to an
//! enabled handle and record nothing through a disabled one.

use std::collections::HashMap;

use tutel_comm::AllToAllAlgo;
use tutel_simgpu::{calib, Protocol, Seconds, StreamId, Timeline};

use crate::cost::ClusterModel;

/// One pipelining strategy: which All-to-All algorithm to run and how
/// many capacity-dimension partitions to overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineStrategy {
    /// All-to-All algorithm for dispatch and combine.
    pub algo: AllToAllAlgo,
    /// Pipelining degree `d ∈ {1, 2, 4, 8}` (1 = no overlap).
    pub degree: usize,
}

impl PipelineStrategy {
    /// The paper's strategy space: {Linear, 2DH} × {1, 2, 4, 8}, in
    /// search order (the [`baseline`](Self::baseline) first).
    pub fn all() -> [PipelineStrategy; 8] {
        let [[a, b, c, d], [e, f, g, h]] = AllToAllAlgo::ALL
            .map(|algo| [1, 2, 4, 8].map(|degree| PipelineStrategy { algo, degree }));
        [a, b, c, d, e, f, g, h]
    }

    /// The static baseline every comparison in Table 7 is against:
    /// linear All-to-All, degree 1.
    pub fn baseline() -> PipelineStrategy {
        PipelineStrategy {
            algo: AllToAllAlgo::Linear,
            degree: 1,
        }
    }
}

impl std::fmt::Display for PipelineStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}×d{}", self.algo, self.degree)
    }
}

/// Per-iteration dimensions of a single MoE layer on one GPU, in the
/// paper's Table 2 notation (`tokens` is tokens/step *per GPU*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDims {
    /// Tokens per step per GPU (`T`).
    pub tokens: usize,
    /// Model dimension (`M`).
    pub model_dim: usize,
    /// Expert hidden dimension (`V`).
    pub hidden_dim: usize,
    /// Local experts per GPU (`ΔE`); fractional values < 1 (expert
    /// sharded over GPUs) are expressed as 1 with a wider world.
    pub local_experts: usize,
    /// Top-k.
    pub k: usize,
    /// Capacity factor `f`.
    pub capacity_factor: f64,
}

impl LayerDims {
    /// The Figure 23 setting: tokens/step = 16,384, `f = 1`,
    /// `M = V = 2,048`, `ΔE = 2`, top-2.
    pub fn figure23() -> Self {
        LayerDims {
            tokens: 16384,
            model_dim: 2048,
            hidden_dim: 2048,
            local_experts: 2,
            k: 2,
            capacity_factor: 1.0,
        }
    }

    /// Per-GPU All-to-All payload bytes: `E·ΔC·M·4 = k·f·T·M·4`,
    /// independent of world size.
    pub fn a2a_bytes(&self) -> f64 {
        self.k as f64 * self.capacity_factor * self.tokens as f64 * self.model_dim as f64 * 4.0
    }

    /// Rows of expert work per GPU: `ΔE · C = k·f·T`.
    pub fn expert_rows(&self) -> usize {
        (self.k as f64 * self.capacity_factor * self.tokens as f64).ceil() as usize
    }
}

/// Prices one MoE layer iteration (forward) under a pipelining strategy.
///
/// Schedules, on a two-stream [`Timeline`], the dispatch All-to-All
/// chunks (communication stream), the expert GEMM chunks (computation
/// stream), and the combine All-to-All chunks, with the dependency
/// structure of Figure 14. Encode/decode and gating are not partitioned
/// (the paper partitions only the two All-to-Alls and the expert).
///
/// When `degree > 1`, overlapped kernels interfere: compute inflates by
/// [`calib::OVERLAP_COMPUTE_INFLATION`] and communication by a
/// per-algorithm factor — the asymmetry that makes the joint search
/// necessary (Section 2.3).
#[derive(Debug, Clone, Copy)]
pub struct PipelineTimeModel {
    cluster: ClusterModel,
    /// Use Tutel's sparse encode/decode (vs the dense Fairseq einsum).
    pub sparse_kernels: bool,
    /// Use Flexible All-to-All output layout (vs the rigid
    /// `(W, ΔE, ΔC, M)` layout whose tiny GEMM rows kill throughput).
    pub flexible_layout: bool,
    /// Model comm/compute interference when streams overlap (Section
    /// 2.3). Disable for the ablation that shows how an
    /// interference-blind search over-pipelines.
    pub interference: bool,
    /// Weight storage precision in effect, carried into every audit
    /// record this model emits. Expert GEMMs accumulate in `f32`
    /// regardless, so this does not change modeled compute time; it
    /// documents which price book the decision belongs to.
    pub precision: tutel_tensor::Precision,
}

impl PipelineTimeModel {
    /// Creates a model with Tutel kernels and flexible layout enabled.
    pub fn new(cluster: ClusterModel) -> Self {
        PipelineTimeModel {
            cluster,
            sparse_kernels: true,
            flexible_layout: true,
            interference: true,
            precision: tutel_tensor::Precision::F32,
        }
    }

    /// Tags the model (and its audit records) with a weight storage
    /// precision.
    pub fn with_precision(mut self, precision: tutel_tensor::Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Prices the pieces of one iteration under `strategy`: the
    /// prologue and one chunk of each partitioned stage, its All-to-All
    /// priced by the NCCL-style collectives.
    fn strategy_schedule(&self, dims: &LayerDims, strategy: PipelineStrategy) -> Schedule {
        let degree = strategy.degree.max(1);
        let w = self.cluster.size();
        let gpu = self.cluster.gpu();
        let e_global = w * dims.local_experts;

        // Unpartitioned portions.
        let gate = gpu.gate_time(dims.tokens, e_global);
        let encode_decode = if self.sparse_kernels {
            2.0 * gpu.sparse_encode_time(dims.tokens, dims.k, dims.model_dim)
        } else {
            let dc = (dims.expert_rows() / e_global.max(1)).max(1);
            2.0 * gpu.dense_encode_time(dims.tokens, e_global, dc, dims.model_dim)
        };

        // Interference inflation only applies when streams overlap.
        let (comm_inflation, comp_inflation) = if degree > 1 && self.interference {
            let comm_inflation = match strategy.algo {
                AllToAllAlgo::Linear => calib::OVERLAP_COMM_INFLATION_LINEAR,
                AllToAllAlgo::TwoDh => calib::OVERLAP_COMM_INFLATION_2DH,
            };
            (comm_inflation, calib::OVERLAP_COMPUTE_INFLATION)
        } else {
            (1.0, 1.0)
        };
        Schedule {
            degree,
            gate,
            encode_decode,
            a2a_once: self.cluster.all_to_all_time(
                strategy.algo,
                dims.a2a_bytes() / degree as f64,
                Protocol::Simple,
            ),
            expert_once: self.expert_time(dims, w, (dims.expert_rows() / degree).max(1)),
            comm_inflation,
            comp_inflation,
        }
    }

    /// Per-iteration time of the full MoE layer under `strategy`.
    pub fn step_time(&self, dims: &LayerDims, strategy: PipelineStrategy) -> Seconds {
        self.strategy_schedule(dims, strategy).step_time()
    }

    /// Expert GEMM time for `chunk_rows` rows per GPU, honoring the
    /// layout. The rigid layout batches per *source GPU*, collapsing the
    /// per-matrix row count by a factor of `W` (Figure 7); the flexible
    /// layout keeps `ΔE` big matrices regardless of scale.
    fn expert_time(&self, dims: &LayerDims, world: usize, chunk_rows: usize) -> Seconds {
        let (m, v) = (dims.model_dim, dims.hidden_dim);
        let de = dims.local_experts;
        let (batch, rows) = if self.flexible_layout {
            (de, (chunk_rows / de).max(1))
        } else {
            (world * de, (chunk_rows / (world * de)).max(1))
        };
        let gpu = self.cluster.gpu();
        gpu.gemm_time(batch, rows, m, v) + gpu.gemm_time(batch, rows, v, m)
    }

    /// The strategy with the lowest modeled time — the "oracle" the
    /// online search converges to. An enabled `tel` gets an
    /// adaptive-decision audit record: all eight candidate strategies
    /// with their modeled costs, plus the winner.
    pub fn best_strategy(
        &self,
        dims: &LayerDims,
        tel: &tutel_obs::Telemetry,
    ) -> (PipelineStrategy, Seconds) {
        let costs = PipelineStrategy::all().map(|s| (s, self.step_time(dims, s)));
        // The first strategy of least cost, in search order.
        let (best, best_t) = costs.into_iter().fold(costs[0], |best, c| {
            if c.1.total_cmp(&best.1).is_lt() {
                c
            } else {
                best
            }
        });
        if tel.is_enabled() {
            tel.decision(tutel_obs::DecisionRecord {
                precision: Some(self.precision.label().to_string()),
                ..decision_record(
                    "pipeline",
                    dims.capacity_factor,
                    costs.to_vec(),
                    best,
                    Some(best_t),
                )
            });
        }
        (best, best_t)
    }

    /// Per-stage attribution of [`PipelineTimeModel::step_time`]:
    /// serial cost of each stage plus how much the pipelined schedule
    /// saved by overlapping. Satisfies
    /// `gate + encode + a2a_dispatch + expert + a2a_combine + decode
    /// - overlap_saving == step_time` up to rounding.
    pub fn stage_breakdown(&self, dims: &LayerDims, strategy: PipelineStrategy) -> StageBreakdown {
        let s = self.strategy_schedule(dims, strategy);
        let a2a_leg = s.degree as f64 * s.a2a_once * s.comm_inflation;
        let expert = s.degree as f64 * s.expert_once * s.comp_inflation;
        let serial = s.gate + s.encode_decode + 2.0 * a2a_leg + expert;
        let overlap_saving = serial - s.step_time();
        StageBreakdown {
            strategy,
            gate: s.gate,
            encode: s.encode_decode / 2.0,
            a2a_dispatch: a2a_leg,
            expert,
            a2a_combine: a2a_leg,
            decode: s.encode_decode / 2.0,
            overlap_saving,
        }
    }
}

/// One iteration priced piecewise — what every view of
/// [`PipelineTimeModel`] schedules or sums. Chunk times and inflations
/// stay separate factors: the breakdown multiplies by `degree` first,
/// the timeline by the inflation first, and the modeled numbers are
/// pinned to the bit.
struct Schedule {
    /// Pipelining degree, ≥ 1.
    degree: usize,
    gate: Seconds,
    /// Encode plus decode (equal halves).
    encode_decode: Seconds,
    /// One chunk's All-to-All, before interference.
    a2a_once: Seconds,
    /// One chunk's expert GEMMs, before interference.
    expert_once: Seconds,
    comm_inflation: f64,
    comp_inflation: f64,
}

impl Schedule {
    /// The pipelined iteration: prologue, two-stream makespan and —
    /// when streams overlap — the barrier that rejoins them.
    fn step_time(&self) -> Seconds {
        let barrier = if self.degree > 1 {
            calib::BARRIER_OVERHEAD
        } else {
            0.0
        };
        self.gate + self.encode_decode + (self.makespan() + barrier)
    }

    /// Makespan of Figure 14's dependency structure on two streams:
    /// `degree` dispatch chunks (communication), each feeding an expert
    /// chunk (computation), each feeding a combine chunk.
    fn makespan(&self) -> Seconds {
        let comm = StreamId(0);
        let comp = StreamId(1);
        let a2a = self.a2a_once * self.comm_inflation;
        let expert = self.expert_once * self.comp_inflation;
        let mut tl = Timeline::new();
        let dispatched: Vec<_> = (0..self.degree).map(|_| tl.push(comm, a2a, &[])).collect();
        let computed: Vec<_> = dispatched
            .iter()
            .map(|&dep| tl.push(comp, expert, &[dep]))
            .collect();
        for &dep in &computed {
            tl.push(comm, a2a, &[dep]);
        }
        tl.makespan()
    }
}

/// Serial per-stage costs of one modeled MoE iteration, plus the time
/// the two-stream schedule recovered by overlapping. Produced by
/// [`PipelineTimeModel::stage_breakdown`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBreakdown {
    /// The strategy the breakdown was computed for.
    pub strategy: PipelineStrategy,
    /// Gating (softmax + top-k + cumsum) time.
    pub gate: Seconds,
    /// Sparse (or dense) dispatch encode.
    pub encode: Seconds,
    /// All chunks of the dispatch All-to-All, serialized.
    pub a2a_dispatch: Seconds,
    /// All expert GEMM chunks, serialized.
    pub expert: Seconds,
    /// All chunks of the combine All-to-All, serialized.
    pub a2a_combine: Seconds,
    /// Sparse (or dense) combine decode.
    pub decode: Seconds,
    /// Serial sum minus the pipelined makespan (0 at degree 1).
    pub overlap_saving: Seconds,
}

impl StageBreakdown {
    /// Sum of the serial stages without any overlap credit.
    pub fn serial_total(&self) -> Seconds {
        self.gate + self.encode + self.a2a_dispatch + self.expert + self.a2a_combine + self.decode
    }

    /// The modeled step time this breakdown attributes.
    pub fn total(&self) -> Seconds {
        self.serial_total() - self.overlap_saving
    }

    /// The stages as `(name, seconds)` pairs, in execution order —
    /// ready for [`tutel_obs::StepRecord::stages`].
    pub fn stages(&self) -> [(&'static str, Seconds); 6] {
        [
            ("gate", self.gate),
            ("encode", self.encode),
            ("a2a_dispatch", self.a2a_dispatch),
            ("expert", self.expert),
            ("a2a_combine", self.a2a_combine),
            ("decode", self.decode),
        ]
    }
}

/// Key for memoizing capacity factors (f64 quantized to 1e-6).
fn fkey(f: f64) -> u64 {
    (f * 1e6).round() as u64
}

/// `time` observed at capacity factor `f`, rescaled to its bucket's
/// lowest factor `lo` so measurements from different factors sharing
/// the bucket are comparable.
fn normalized(time: Seconds, lo: f64, f: f64) -> Seconds {
    time * lo.max(f64::EPSILON) / f.max(f64::EPSILON)
}

/// The audit record every pipeline search emits; callers add what only
/// they know (measured cost, cause, precision) by struct update.
fn decision_record(
    kind: &str,
    f: f64,
    candidates: Vec<(PipelineStrategy, Seconds)>,
    chosen: PipelineStrategy,
    predicted_s: Option<Seconds>,
) -> tutel_obs::DecisionRecord {
    tutel_obs::DecisionRecord {
        kind: kind.to_string(),
        capacity_factor: f,
        candidates: candidates
            .into_iter()
            .map(|(s, t)| (s.to_string(), t))
            .collect(),
        chosen: chosen.to_string(),
        predicted_s,
        measured_s: None,
        cause: None,
        precision: None,
        dropless: f == 0.0,
        step: None,
    }
}

/// Per-strategy evidence both searches keep: a (normalized) time per
/// strategy tried so far.
#[derive(Debug, Clone, Default)]
struct Memo {
    tried: HashMap<PipelineStrategy, Seconds>,
}

impl Memo {
    fn best(&self) -> Option<(PipelineStrategy, Seconds)> {
        self.tried
            .iter()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&s, &t)| (s, t))
    }

    /// Strategies without evidence yet, in search-space order.
    fn untried(&self) -> impl Iterator<Item = PipelineStrategy> + '_ {
        PipelineStrategy::all()
            .into_iter()
            .filter(|s| !self.tried.contains_key(s))
    }

    fn all_tried(&self) -> bool {
        self.tried.len() >= PipelineStrategy::all().len()
    }

    /// GETSTRATEGY over this evidence: the first untried strategy in
    /// search order, else the cheapest tried one. Never `None`: a memo
    /// with nothing untried holds all eight strategies.
    fn choice(&self) -> Option<PipelineStrategy> {
        self.untried()
            .next()
            .or_else(|| self.best().map(|(s, _)| s))
    }

    /// Records `t` for `s` unless a cheaper time is already known.
    fn keep_min(&mut self, s: PipelineStrategy, t: Seconds) {
        let entry = self.tried.entry(s).or_insert(t);
        *entry = entry.min(t);
    }

    /// The evidence, cheapest first.
    fn ranked(&self) -> Vec<(PipelineStrategy, Seconds)> {
        let mut ranked: Vec<_> = self.tried.iter().map(|(&s, &t)| (s, t)).collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked
    }
}

#[derive(Debug, Clone)]
struct Bucket {
    /// Lowest f in the bucket — the normalization anchor.
    lo: f64,
    memo: Memo,
}

/// Algorithm 2: the online pipelining strategy search.
///
/// Capacity factors observed at runtime are grouped into buckets of
/// length `L`; factors in the same bucket share strategy measurements
/// (normalized by the bucket's lowest factor), so each bucket explores
/// every strategy at most once and the whole search amortizes to O(1)
/// per iteration.
///
/// # Example
///
/// ```
/// use tutel::pipeline::{OnlineStrategySearch, PipelineStrategy};
/// use tutel_obs::Telemetry;
///
/// let mut search = OnlineStrategySearch::new(1.0);
/// // Feed it a synthetic workload where the oracle is (2DH, d=4).
/// let oracle = |s: PipelineStrategy| if s.degree == 4 { 1.0 } else { 2.0 };
/// for _ in 0..20 {
///     let s = search.next_strategy(1.3, &Telemetry::disabled());
///     search.record(1.3, s, oracle(s));
/// }
/// assert_eq!(search.next_strategy(1.3, &Telemetry::disabled()).degree, 4);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineStrategySearch {
    bucket_len: f64,
    known_fs: Vec<f64>,
    per_f: HashMap<u64, Memo>,
    buckets: Vec<Bucket>,
}

impl OnlineStrategySearch {
    /// Creates a search with bucket length `L`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_len` is not positive.
    pub fn new(bucket_len: f64) -> Self {
        assert!(bucket_len > 0.0, "bucket length must be positive");
        OnlineStrategySearch {
            bucket_len,
            known_fs: Vec::new(),
            per_f: HashMap::new(),
            buckets: Vec::new(),
        }
    }

    /// GETSTRATEGY: the strategy to run for capacity factor `f` this
    /// iteration.
    ///
    /// An enabled `tel` gets an adaptive-decision audit record: every
    /// strategy the relevant memo has measured so far (normalized
    /// seconds), the choice made this iteration, and — once the bucket
    /// has finished exploring — the predicted cost of that choice.
    /// While still exploring, `predicted_s` is `None` (the pick is a
    /// probe, not a prediction).
    pub fn next_strategy(&mut self, f: f64, tel: &tutel_obs::Telemetry) -> PipelineStrategy {
        if !self.known_fs.iter().any(|&k| fkey(k) == fkey(f)) {
            self.recompute_buckets(f);
        }
        // `f` is bucketed by now; evidence-free, the search would probe
        // the first strategy, the baseline.
        let memo = self.memo_for(f);
        let choice = memo
            .and_then(Memo::choice)
            .unwrap_or_else(PipelineStrategy::baseline);
        if tel.is_enabled() {
            let candidates = memo.map(Memo::ranked).unwrap_or_default();
            let predicted_s = match memo {
                Some(m) if m.all_tried() => candidates.first().map(|&(_, t)| t),
                _ => None,
            };
            tel.decision(decision_record(
                "pipeline.online",
                f,
                candidates,
                choice,
                predicted_s,
            ));
        }
        choice
    }

    /// The evidence consulted for `f`: its own memo once that has tried
    /// every strategy, else its bucket's shared memo.
    fn memo_for(&self, f: f64) -> Option<&Memo> {
        match self.per_f.get(&fkey(f)) {
            Some(m) if m.all_tried() => Some(m),
            _ => self.bucket_index(f).map(|b| &self.buckets[b].memo),
        }
    }

    /// OPTIMIZESTRATEGY: records a measured iteration time for
    /// (`f`, `strategy`).
    pub fn record(&mut self, f: f64, strategy: PipelineStrategy, time: Seconds) {
        self.per_f
            .entry(fkey(f))
            .or_default()
            .tried
            .insert(strategy, time);
        if let Some(b) = self.bucket_index(f) {
            let bucket = &mut self.buckets[b];
            bucket
                .memo
                .keep_min(strategy, normalized(time, bucket.lo, f));
        }
    }

    /// Number of distinct capacity factors observed.
    pub fn known_factors(&self) -> usize {
        self.known_fs.len()
    }

    /// Number of buckets currently maintained.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// RECOMPUTEBUCKETS: adds `f` to the known list and greedily
    /// re-partitions all known factors into buckets of span ≤ L,
    /// rebuilding each new bucket's memo from its members' per-f memos
    /// (times normalized by the new bucket's lowest factor).
    fn recompute_buckets(&mut self, f: f64) {
        self.known_fs.push(f);
        self.known_fs.sort_by(|a, b| a.total_cmp(b));
        self.known_fs.dedup_by(|a, b| fkey(*a) == fkey(*b));
        self.buckets.clear();
        let Some(&first) = self.known_fs.first() else {
            return;
        };
        let bucket_at = |lo| Bucket {
            lo,
            memo: Memo::default(),
        };
        let mut current = bucket_at(first);
        for &kf in &self.known_fs {
            if kf - current.lo > self.bucket_len {
                let full = std::mem::replace(&mut current, bucket_at(kf));
                self.buckets.push(full);
            }
            if let Some(fm) = self.per_f.get(&fkey(kf)) {
                for (&s, &t) in &fm.tried {
                    current.memo.keep_min(s, normalized(t, current.lo, kf));
                }
            }
        }
        self.buckets.push(current);
    }

    fn bucket_index(&self, f: f64) -> Option<usize> {
        self.buckets
            .iter()
            .position(|b| f >= b.lo - 1e-12 && f - b.lo <= self.bucket_len + 1e-12)
    }
}

/// EWMA weight for new measurements in [`MeasuredStrategySearch`]: heavy enough to track drift, light
/// enough that one noisy chunk cannot flip a converged ranking.
const MEASURED_EWMA_ALPHA: f64 = 0.4;

/// Algorithm 2 ranked by **execution**, not by model: strategies are
/// ordered by the measured wall-clock of the overlapped schedule
/// ([`crate::overlap::run_overlapped`]), with the simgpu
/// [`PipelineTimeModel`] kept only as the cold-start prior that
/// decides exploration order.
///
/// Capacity factors land in fixed-grid buckets of length `L`
/// (`lo = ⌊f/L⌋·L`); measurements within a bucket are normalized by
/// `lo / f` so factors sharing a bucket share evidence, exactly like
/// [`OnlineStrategySearch`]. Each (bucket, strategy) keeps an EWMA of
/// its normalized measurements, so the ranking tracks machine drift
/// instead of freezing the first sample forever.
///
/// The decision loop: [`MeasuredStrategySearch::next_strategy`] picks
/// the cheapest *unmeasured* strategy under the model prior until all
/// eight have at least one measurement, then the measured argmin;
/// [`MeasuredStrategySearch::record`] folds each executed iteration's
/// wall-clock back in.
#[derive(Debug, Clone)]
pub struct MeasuredStrategySearch {
    bucket_len: f64,
    model: PipelineTimeModel,
    /// Fixed-grid cells keyed by `lo = ⌊f/L⌋·L`; each memo holds an
    /// EWMA of normalized wall-clock per strategy.
    buckets: HashMap<u64, Bucket>,
    /// Attributed cause (from the trace analyzer) carried into the
    /// *next* emitted decision record — see
    /// [`MeasuredStrategySearch::attribute`].
    pending_cause: Option<String>,
}

impl MeasuredStrategySearch {
    /// Creates a measured search over buckets of length `L`, with
    /// `model` as the exploration prior.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_len` is not positive.
    pub fn new(bucket_len: f64, model: PipelineTimeModel) -> Self {
        assert!(bucket_len > 0.0, "bucket length must be positive");
        MeasuredStrategySearch {
            bucket_len,
            model,
            buckets: HashMap::new(),
            pending_cause: None,
        }
    }

    /// Attaches an attributed cause (e.g. a straggler or imbalance
    /// anomaly found by [`tutel_obs::analyze`](mod@tutel_obs::analyze)) to the next decision
    /// record emitted by [`MeasuredStrategySearch::next_strategy`] — so
    /// when a
    /// measured regression changes (or fails to change) the chosen
    /// strategy, the audit log says *why* the measurement moved.
    pub fn attribute(&mut self, cause: impl Into<String>) {
        self.pending_cause = Some(cause.into());
    }

    /// The exploration prior.
    pub fn model(&self) -> &PipelineTimeModel {
        &self.model
    }

    fn bucket_lo(&self, f: f64) -> f64 {
        (f.max(0.0) / self.bucket_len).floor() * self.bucket_len
    }

    fn bucket(&mut self, f: f64) -> &mut Bucket {
        let lo = self.bucket_lo(f);
        self.buckets.entry(fkey(lo)).or_insert(Bucket {
            lo,
            memo: Memo::default(),
        })
    }

    fn memo(&self, f: f64) -> Option<&Memo> {
        let lo = self.bucket_lo(f);
        self.buckets.get(&fkey(lo)).map(|b| &b.memo)
    }

    /// GETSTRATEGY, measured flavor: the strategy to execute for
    /// `dims` this iteration. While the bucket still has unmeasured
    /// strategies, returns the one the model prices cheapest (probe
    /// the most promising first, so early iterations are near-optimal
    /// even mid-exploration); once every strategy has a measurement,
    /// returns the measured argmin.
    ///
    /// An enabled `tel` gets an audit record (`kind =
    /// "pipeline.measured"`): the measured candidates so far, the
    /// choice, the model's predicted cost of the choice, and — when the
    /// choice already has evidence — its measured EWMA, so the log
    /// carries the measured-vs-predicted delta for every iteration.
    pub fn next_strategy(
        &mut self,
        dims: &LayerDims,
        tel: &tutel_obs::Telemetry,
    ) -> PipelineStrategy {
        let model = self.model;
        let memo = &self.bucket(dims.capacity_factor).memo;
        let probe = memo.untried().min_by(|&a, &b| {
            model
                .step_time(dims, a)
                .total_cmp(&model.step_time(dims, b))
        });
        // Nothing unmeasured means all eight are measured, so `best` is
        // `Some`.
        let choice = probe
            .or_else(|| memo.best().map(|(s, _)| s))
            .unwrap_or_else(PipelineStrategy::baseline);
        if tel.is_enabled() {
            let predicted = model.step_time(dims, choice);
            let record = decision_record(
                "pipeline.measured",
                dims.capacity_factor,
                memo.ranked(),
                choice,
                Some(predicted),
            );
            let measured_s = memo.tried.get(&choice).copied();
            tel.decision(tutel_obs::DecisionRecord {
                measured_s,
                cause: self.pending_cause.take(),
                precision: Some(model.precision.label().to_string()),
                ..record
            });
        }
        choice
    }

    /// OPTIMIZESTRATEGY, measured flavor: folds one executed
    /// iteration's wall-clock seconds into the (bucket, strategy)
    /// EWMA, normalized by `lo / f` so factors sharing the bucket
    /// stay comparable.
    ///
    /// An enabled `tel` has its most recent `pipeline.measured`
    /// decision record for `strategy` backfilled with the updated EWMA
    /// — so the audit log's `measured_s` reflects the evidence the
    /// decision actually produced, not `null` until the strategy
    /// happens to be re-chosen.
    pub fn record(
        &mut self,
        f: f64,
        strategy: PipelineStrategy,
        wall_s: Seconds,
        tel: &tutel_obs::Telemetry,
    ) {
        let bucket = self.bucket(f);
        let t = normalized(wall_s, bucket.lo, f);
        let ewma = *bucket
            .memo
            .tried
            .entry(strategy)
            .and_modify(|e| *e = MEASURED_EWMA_ALPHA * t + (1.0 - MEASURED_EWMA_ALPHA) * *e)
            .or_insert(t);
        if tel.is_enabled() {
            tel.backfill_decision("pipeline.measured", &strategy.to_string(), ewma);
        }
    }

    /// Whether the bucket containing `f` has measured every strategy
    /// (i.e. [`MeasuredStrategySearch::next_strategy`] now returns
    /// the measured argmin rather than a probe).
    pub fn converged(&self, f: f64) -> bool {
        self.memo(f).is_some_and(Memo::all_tried)
    }

    /// The measured argmin for `f`'s bucket, with its normalized EWMA
    /// seconds — `None` until the first measurement lands.
    pub fn measured_best(&self, f: f64) -> Option<(PipelineStrategy, Seconds)> {
        self.memo(f).and_then(Memo::best)
    }

    /// Number of buckets currently maintained.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_obs::Telemetry;

    fn model(world_size: usize) -> PipelineTimeModel {
        PipelineTimeModel::new(ClusterModel::azure(world_size))
    }

    #[test]
    fn strategy_space_is_eight() {
        assert_eq!(PipelineStrategy::all().len(), 8);
    }

    /// The Figure 22 setting, where expert compute and All-to-All cost
    /// are comparable (V = 4,096 doubles compute per byte moved vs the
    /// Figure 23 dims) — the regime where overlap pays.
    fn figure22_dims() -> LayerDims {
        LayerDims {
            tokens: 4096,
            model_dim: 4096,
            hidden_dim: 4096,
            local_experts: 2,
            k: 2,
            capacity_factor: 1.0,
        }
    }

    #[test]
    fn pipelining_helps_when_comm_and_compute_are_comparable() {
        let m = model(64);
        let dims = figure22_dims();
        let d1 = m.step_time(
            &dims,
            PipelineStrategy {
                algo: AllToAllAlgo::Linear,
                degree: 1,
            },
        );
        let best = PipelineStrategy::all()
            .into_iter()
            .map(|s| m.step_time(&dims, s))
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < d1,
            "some overlap strategy must beat no-overlap: {best} vs {d1}"
        );
        // And a genuinely overlapped (degree > 1) strategy must beat
        // its own degree-1 variant for at least one algorithm.
        let overlapped_wins = AllToAllAlgo::ALL.iter().any(|&algo| {
            let base = m.step_time(&dims, PipelineStrategy { algo, degree: 1 });
            [2usize, 4, 8]
                .iter()
                .any(|&d| m.step_time(&dims, PipelineStrategy { algo, degree: d }) < base)
        });
        assert!(
            overlapped_wins,
            "overlap must pay somewhere in the Figure 22 regime"
        );
    }

    #[test]
    fn optimal_strategy_depends_on_scale() {
        // Figure 5: the optimum shifts across scales. At small scale
        // with large messages, linear is competitive; at 2,048 GPUs the
        // payload chunks are tiny and 2DH must win.
        let dims = LayerDims::figure23();
        let (best_big, _) = model(2048).best_strategy(&dims, &Telemetry::disabled());
        assert_eq!(
            best_big.algo,
            AllToAllAlgo::TwoDh,
            "2DH must win at 2,048 GPUs"
        );
        let mut small = dims;
        small.tokens = 65536; // huge per-GPU payload at 16 GPUs
        let (best_small, _) = model(16).best_strategy(&small, &Telemetry::disabled());
        assert_eq!(
            best_small.algo,
            AllToAllAlgo::Linear,
            "linear must win for fat messages at 16 GPUs"
        );
    }

    #[test]
    fn degree_is_a_real_tradeoff() {
        // Very small payloads: chunking costs α per chunk and message
        // efficiency; degree 1 or 2 should beat degree 8.
        let m = model(64);
        let mut dims = LayerDims::figure23();
        dims.tokens = 256;
        let t1 = m.step_time(
            &dims,
            PipelineStrategy {
                algo: AllToAllAlgo::Linear,
                degree: 1,
            },
        );
        let t8 = m.step_time(
            &dims,
            PipelineStrategy {
                algo: AllToAllAlgo::Linear,
                degree: 8,
            },
        );
        assert!(t1 < t8, "tiny payload: d1 {t1} must beat d8 {t8}");
    }

    #[test]
    fn flexible_layout_pays_off_at_scale() {
        let dims = LayerDims::figure23();
        let mut flex = model(2048);
        flex.flexible_layout = true;
        let mut rigid = model(2048);
        rigid.flexible_layout = false;
        let s = PipelineStrategy::baseline();
        let tf = flex.step_time(&dims, s);
        let tr = rigid.step_time(&dims, s);
        assert!(
            tr > tf,
            "rigid {tr} must be slower than flexible {tf} at 2,048 GPUs"
        );
        // And the gap shrinks at small scale.
        let mut flex16 = model(16);
        flex16.flexible_layout = true;
        let mut rigid16 = model(16);
        rigid16.flexible_layout = false;
        let gap_small = rigid16.step_time(&dims, s) / flex16.step_time(&dims, s);
        let gap_big = tr / tf;
        assert!(gap_big > gap_small, "layout gap must grow with scale");
    }

    #[test]
    fn pipeline_decision_records_carry_precision() {
        let m = model(64).with_precision(tutel_tensor::Precision::Bf16);
        let tel = Telemetry::enabled();
        let _ = m.best_strategy(&figure22_dims(), &tel);
        let decisions = tel.decisions();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].precision.as_deref(), Some("bf16"));
    }

    // --- Algorithm 2 ---

    #[test]
    fn search_explores_each_strategy_once_per_bucket() {
        let mut search = OnlineStrategySearch::new(1.0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..PipelineStrategy::all().len() {
            let s = search.next_strategy(2.0, &Telemetry::disabled());
            assert!(seen.insert(s), "strategy {s} repeated during exploration");
            search.record(2.0, s, 1.0);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn search_converges_to_oracle_within_a_bucket() {
        let mut search = OnlineStrategySearch::new(1.0);
        let oracle = |s: PipelineStrategy| {
            if s.algo == AllToAllAlgo::TwoDh && s.degree == 2 {
                1.0
            } else {
                2.0 + s.degree as f64
            }
        };
        for _ in 0..16 {
            let s = search.next_strategy(3.1, &Telemetry::disabled());
            search.record(3.1, s, oracle(s));
        }
        let s = search.next_strategy(3.1, &Telemetry::disabled());
        assert_eq!(
            s,
            PipelineStrategy {
                algo: AllToAllAlgo::TwoDh,
                degree: 2
            }
        );
    }

    #[test]
    fn close_factors_share_a_bucket_far_ones_do_not() {
        let mut search = OnlineStrategySearch::new(1.0);
        let s = search.next_strategy(1.0, &Telemetry::disabled());
        search.record(1.0, s, 1.0);
        search.next_strategy(1.5, &Telemetry::disabled());
        assert_eq!(
            search.num_buckets(),
            1,
            "1.0 and 1.5 share a bucket of length 1"
        );
        search.next_strategy(4.0, &Telemetry::disabled());
        assert_eq!(search.num_buckets(), 2, "4.0 starts a new bucket");
        assert_eq!(search.known_factors(), 3);
    }

    #[test]
    fn bucket_sharing_transfers_measurements() {
        // Measure all strategies at f = 1.0; then f = 1.4 (same bucket)
        // should immediately return the bucket best instead of
        // exploring from scratch.
        let mut search = OnlineStrategySearch::new(1.0);
        let oracle = |s: PipelineStrategy| if s.degree == 4 { 0.5 } else { 1.5 };
        for _ in 0..8 {
            let s = search.next_strategy(1.0, &Telemetry::disabled());
            search.record(1.0, s, oracle(s));
        }
        let s = search.next_strategy(1.4, &Telemetry::disabled());
        assert_eq!(
            s.degree, 4,
            "bucket must transfer the f=1.0 optimum to f=1.4"
        );
    }

    #[test]
    fn distant_buckets_explore_independently() {
        let mut search = OnlineStrategySearch::new(2.0);
        // Bucket [1.0, 3.0] converges on degree 8...
        for _ in 0..8 {
            let s = search.next_strategy(1.0, &Telemetry::disabled());
            search.record(1.0, s, if s.degree == 8 { 0.1 } else { 1.0 });
        }
        assert_eq!(search.next_strategy(1.0, &Telemetry::disabled()).degree, 8);
        // ...while f = 5.0 opens a fresh bucket, explores on its own,
        // and converges to its own optimum.
        for _ in 0..8 {
            let s = search.next_strategy(5.0, &Telemetry::disabled());
            search.record(5.0, s, if s.degree == 1 { 0.05 } else { 0.9 });
        }
        assert_eq!(search.num_buckets(), 2);
        assert_eq!(search.next_strategy(5.0, &Telemetry::disabled()).degree, 1);
        // The first bucket's knowledge is unaffected.
        assert_eq!(search.next_strategy(1.0, &Telemetry::disabled()).degree, 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_bucket_length() {
        OnlineStrategySearch::new(0.0);
    }

    // --- Measured search ---

    #[test]
    fn measured_search_explores_prior_cheapest_first() {
        let m = model(64);
        let dims = figure22_dims();
        let mut search = MeasuredStrategySearch::new(0.5, m);
        let first = search.next_strategy(&dims, &Telemetry::disabled());
        let (model_best, _) = m.best_strategy(&dims, &Telemetry::disabled());
        assert_eq!(
            first, model_best,
            "the first probe must be the model's favorite"
        );
    }

    #[test]
    fn measured_search_ranks_by_measurement_not_model() {
        // Feed measurements that *disagree* with the model: the
        // model's worst strategy measures fastest. The converged
        // choice must follow the measurements.
        let m = model(64);
        let dims = figure22_dims();
        let f = dims.capacity_factor;
        let mut search = MeasuredStrategySearch::new(0.5, m);
        let measured_oracle = |s: PipelineStrategy| {
            if s.algo == AllToAllAlgo::Linear && s.degree == 8 {
                0.001
            } else {
                0.010 + s.degree as f64 * 1e-4
            }
        };
        for _ in 0..PipelineStrategy::all().len() {
            let s = search.next_strategy(&dims, &Telemetry::disabled());
            assert!(!search.converged(f));
            search.record(f, s, measured_oracle(s), &Telemetry::disabled());
        }
        assert!(search.converged(f));
        let chosen = search.next_strategy(&dims, &Telemetry::disabled());
        assert_eq!(
            chosen,
            PipelineStrategy {
                algo: AllToAllAlgo::Linear,
                degree: 8
            },
            "measured argmin must win even against the model"
        );
        let (best, t) = search.measured_best(f).expect("converged");
        assert_eq!(best, chosen);
        assert!(t > 0.0);
    }

    #[test]
    fn measured_search_ewma_tracks_drift() {
        let m = model(64);
        let dims = figure22_dims();
        let f = dims.capacity_factor;
        let mut search = MeasuredStrategySearch::new(0.5, m);
        let a = PipelineStrategy::baseline();
        search.record(f, a, 1.0, &Telemetry::disabled());
        search.record(f, a, 2.0, &Telemetry::disabled());
        let (_, t) = search.measured_best(f).expect("one strategy measured");
        assert!(
            (t - 1.4).abs() < 1e-12,
            "EWMA(α=0.4) of [1, 2] is 1.4, got {t}"
        );
    }

    #[test]
    fn measured_search_buckets_share_fixed_grid_cells() {
        let m = model(64);
        let mut dims = figure22_dims();
        let mut search = MeasuredStrategySearch::new(1.0, m);
        // 1.1 and 1.9 share cell [1, 2); 2.1 opens a new one.
        dims.capacity_factor = 1.1;
        let probe = search.next_strategy(&dims, &Telemetry::disabled());
        search.record(1.1, probe, 1.0, &Telemetry::disabled());
        dims.capacity_factor = 1.9;
        let _ = search.next_strategy(&dims, &Telemetry::disabled());
        assert_eq!(search.num_buckets(), 1);
        dims.capacity_factor = 2.1;
        let _ = search.next_strategy(&dims, &Telemetry::disabled());
        assert_eq!(search.num_buckets(), 2);
    }

    #[test]
    fn measured_decision_carries_measured_vs_predicted() {
        let m = model(64);
        let dims = figure22_dims();
        let f = dims.capacity_factor;
        let mut search = MeasuredStrategySearch::new(0.5, m);
        for _ in 0..PipelineStrategy::all().len() {
            let s = search.next_strategy(&dims, &Telemetry::disabled());
            search.record(f, s, 0.003, &Telemetry::disabled());
        }
        let tel = Telemetry::enabled();
        let chosen = search.next_strategy(&dims, &tel);
        let decisions = tel.decisions();
        let rec = decisions
            .iter()
            .find(|d| d.kind == "pipeline.measured")
            .expect("audit record emitted");
        assert_eq!(rec.chosen, chosen.to_string());
        assert_eq!(rec.candidates.len(), 8, "every measured strategy listed");
        assert!(rec.predicted_s.is_some(), "model prediction attached");
        assert!(rec.measured_s.is_some(), "measured EWMA attached");
        // The audit log's own invariant: chosen == measured argmin.
        assert_eq!(rec.candidates[0].0, rec.chosen);
    }

    #[test]
    fn measured_decision_backfills_and_attributes_cause() {
        let m = model(64);
        let dims = figure22_dims();
        let f = dims.capacity_factor;
        let mut search = MeasuredStrategySearch::new(0.5, m);
        let tel = Telemetry::enabled();

        // First probe: no EWMA exists yet, so the record is emitted
        // with measured_s = None...
        let s0 = search.next_strategy(&dims, &tel);
        assert!(tel.decisions()[0].measured_s.is_none());
        // ...until the executed iteration reports back and backfills.
        search.record(f, s0, 0.004, &tel);
        let backfilled = tel.decisions()[0]
            .measured_s
            .expect("record backfills measured_s");
        assert!(backfilled > 0.0);

        // An attributed cause rides the next decision record, once.
        search.attribute("straggler: rank 2");
        let _ = search.next_strategy(&dims, &tel);
        let decisions = tel.decisions();
        assert_eq!(
            decisions[1].cause.as_deref(),
            Some("straggler: rank 2"),
            "attributed cause lands on the next record"
        );
        let _ = search.next_strategy(&dims, &tel);
        assert!(
            tel.decisions()[2].cause.is_none(),
            "cause is consumed, not sticky"
        );
    }
}
