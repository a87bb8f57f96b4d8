//! Per-stage time breakdown of one modeled MoE iteration, across
//! scales and strategies — the observability companion to Figure 22:
//! *where* each strategy spends its time (gate, encode, the two
//! All-to-All legs, expert GEMM, decode) and how much overlap recovers.

use tutel::cost::ClusterModel;
use tutel::pipeline::{LayerDims, PipelineStrategy, PipelineTimeModel, StageBreakdown};
use tutel_obs::json::Value;
use tutel_obs::Telemetry;

use crate::Table;

/// The Figure 22 workload at one world size.
fn dims() -> LayerDims {
    LayerDims {
        tokens: 4096,
        model_dim: 4096,
        hidden_dim: 4096,
        local_experts: 2,
        k: 2,
        capacity_factor: 1.0,
    }
}

/// One (world size, strategy) breakdown row.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// World size.
    pub world: usize,
    /// The breakdown itself (includes the strategy).
    pub stages: StageBreakdown,
    /// Whether the exhaustive search picked this strategy at this
    /// world size.
    pub chosen: bool,
}

/// Computes stage breakdowns for the baseline and the adaptively
/// chosen strategy at each world size, leaving the search's audit
/// records in `tel`.
pub fn breakdown_rows(tel: &Telemetry) -> Vec<BreakdownRow> {
    let mut rows = Vec::new();
    for w in [16usize, 64, 256, 1024] {
        let model = PipelineTimeModel::new(ClusterModel::azure(w));
        let d = dims();
        let (best, _) = model.best_strategy(&d, tel);
        for strategy in [PipelineStrategy::baseline(), best] {
            rows.push(BreakdownRow {
                world: w,
                stages: model.stage_breakdown(&d, strategy),
                chosen: strategy == best,
            });
        }
        rows.dedup_by(|a, b| a.world == b.world && a.stages.strategy == b.stages.strategy);
    }
    rows
}

/// The breakdown as a printable table (times in milliseconds).
pub fn breakdown_table(rows: &[BreakdownRow]) -> Table {
    let mut t = Table::new(
        "Per-stage breakdown of one MoE iteration (ms)",
        &[
            "GPUs", "strategy", "gate", "encode", "a2a-disp", "expert", "a2a-comb", "decode",
            "overlap", "total",
        ],
    );
    let ms = |s: f64| format!("{:.3}", s * 1e3);
    for r in rows {
        let b = &r.stages;
        let name = if r.chosen {
            format!("{} *", b.strategy)
        } else {
            b.strategy.to_string()
        };
        t.row(&[
            r.world.to_string(),
            name,
            ms(b.gate),
            ms(b.encode),
            ms(b.a2a_dispatch),
            ms(b.expert),
            ms(b.a2a_combine),
            ms(b.decode),
            format!("-{}", ms(b.overlap_saving.max(0.0))),
            ms(b.total()),
        ]);
    }
    t
}

/// The breakdown (plus the search's audit records) as a JSON document
/// for `BENCH_breakdown.json`.
pub fn breakdown_json(rows: &[BreakdownRow], tel: &Telemetry) -> Value {
    let row_values: Vec<Value> = rows
        .iter()
        .map(|r| {
            let b = &r.stages;
            let mut pairs = vec![
                ("world".to_string(), Value::from(r.world)),
                ("strategy".to_string(), Value::from(b.strategy.to_string())),
                ("chosen".to_string(), Value::Bool(r.chosen)),
            ];
            for (name, secs) in b.stages() {
                pairs.push((name.to_string(), Value::from(secs)));
            }
            pairs.push((
                "overlap_saving_s".to_string(),
                Value::from(b.overlap_saving),
            ));
            pairs.push(("total_s".to_string(), Value::from(b.total())));
            Value::Obj(pairs)
        })
        .collect();
    let decisions: Vec<Value> = tel
        .decisions()
        .iter()
        .map(|d| tutel_obs::Event::Decision(d.clone()).to_value())
        .collect();
    Value::obj([
        ("experiment", Value::from("stage_breakdown")),
        ("dims", dims_value()),
        ("rows", Value::Arr(row_values)),
        ("decisions", Value::Arr(decisions)),
    ])
}

fn dims_value() -> Value {
    let d = dims();
    Value::obj([
        ("tokens", Value::from(d.tokens)),
        ("model_dim", Value::from(d.model_dim)),
        ("hidden_dim", Value::from(d.hidden_dim)),
        ("local_experts", Value::from(d.local_experts)),
        ("k", Value::from(d.k)),
        ("capacity_factor", Value::from(d.capacity_factor)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_match_step_time() {
        for w in [16usize, 256] {
            let model = PipelineTimeModel::new(ClusterModel::azure(w));
            let d = dims();
            for s in PipelineStrategy::all() {
                let b = model.stage_breakdown(&d, s);
                let t = model.step_time(&d, s);
                assert!(
                    (b.total() - t).abs() < 1e-12 + t * 1e-9,
                    "{s} at {w} GPUs: breakdown {} vs step_time {t}",
                    b.total()
                );
            }
        }
    }

    #[test]
    fn rows_record_audit_decisions() {
        let tel = Telemetry::enabled();
        let rows = breakdown_rows(&tel);
        assert!(!rows.is_empty());
        assert!(rows.iter().any(|r| r.chosen));
        let decisions = tel.decisions();
        assert_eq!(decisions.len(), 4, "one pipeline decision per world size");
        assert!(decisions
            .iter()
            .all(|d| d.kind == "pipeline" && d.candidates.len() == 8));
    }

    #[test]
    fn json_document_is_well_formed() {
        let tel = Telemetry::enabled();
        let rows = breakdown_rows(&tel);
        let json = breakdown_json(&rows, &tel).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"experiment\":\"stage_breakdown\""));
        assert!(json.contains("\"a2a_dispatch\""));
        assert!(json.contains("\"decisions\""));
    }
}
