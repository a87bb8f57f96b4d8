//! End-to-end SwinLite-MoE: sparse-vs-dense accuracy on the synthetic
//! clustered task, plus the Table 10 transfer experiment (freeze vs
//! tune the MoE layers on a distribution-shifted task).
//!
//! Run with: `cargo run --release --example swinlite_moe`
//! (≈2 minutes on one core; pass a smaller step count as the first
//! argument for a quicker look, e.g. `-- 200`.)

use tutel_suite::obs::Telemetry;
use tutel_suite::tensor::{Rng, TensorError};
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{cross_entropy, SwinLiteConfig, SwinLiteMoe};
use tutel_suite::tutel::trainer::{evaluate, few_shot_linear_eval, train, TrainConfig};
use tutel_suite::tutel::MoeConfig;

fn build(moe: bool, seed: u64) -> SwinLiteMoe {
    // The capacity-bound setup of DESIGN.md §7: narrow dense hidden
    // width (8), linear mixers, 16 latent clusters.
    let mut cfg = SwinLiteConfig::new(32, 32, 16);
    cfg.channels = 32;
    cfg.hidden = 8;
    cfg.blocks = 4;
    if moe {
        cfg = cfg.with_moe(MoeConfig::new(0, 0, 8).with_capacity_factor(0.0));
    }
    let mut rng = Rng::seed(seed);
    SwinLiteMoe::new(&cfg, &mut rng).expect("valid config")
}

fn main() -> Result<(), TensorError> {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800);
    let dataset = SyntheticVision::new(32, 32, 16, 16, 2023);
    let tc = TrainConfig {
        steps,
        batch: 32,
        lr: 0.05,
        seed: 11,
        ..TrainConfig::default()
    };

    println!("pre-training dense and MoE models ({steps} steps each)...");
    let mut dense = build(false, 7);
    let dense_stats = train(&mut dense, &dataset, &tc, &Telemetry::disabled())?;
    let mut moe = build(true, 7);
    let moe_stats = train(&mut moe, &dataset, &tc, &Telemetry::disabled())?;

    println!("\n== Pre-training (ImageNet-22K analogue) ==");
    println!(
        "dense : {} params, final loss {:.3}, acc {:.1}%, 5-shot {:.1}%",
        dense.num_params(),
        dense_stats.final_loss,
        evaluate(&dense, &dataset, 8, 99)? * 100.0,
        few_shot_linear_eval(&dense, &dataset, 5, 100)? * 100.0,
    );
    println!(
        "MoE   : {} params ({} active), final loss {:.3}, acc {:.1}%, 5-shot {:.1}%",
        moe.num_params(),
        moe.active_params(),
        moe_stats.final_loss,
        evaluate(&moe, &dataset, 8, 99)? * 100.0,
        few_shot_linear_eval(&moe, &dataset, 5, 100)? * 100.0,
    );

    // Transfer to a distribution-shifted task (the COCO analogue) with
    // scarce data: tune vs freeze the MoE layers (Table 10).
    println!("\n== Transfer fine-tuning on a shifted task, scarce data ==");
    let shifted = dataset.shifted(555);
    let ft_steps = (steps / 2).clamp(100, 400);
    for freeze in [false, true] {
        let mut model = build(true, 7);
        train(&mut model, &dataset, &tc, &Telemetry::disabled())?;
        model.set_moe_frozen(freeze);
        let mut pool_rng = Rng::seed(42);
        let pool: Vec<_> = (0..8).map(|_| shifted.batch(16, &mut pool_rng)).collect();
        for i in 0..ft_steps {
            let (x, y) = &pool[i % pool.len()];
            let (logits, _, _) = model.forward(x, 16)?;
            let (_, dl) = cross_entropy(&logits, y);
            model.backward(&dl)?;
            model.step(0.03);
        }
        println!(
            "MoE layers {}: transfer acc {:.1}%",
            if freeze { "FIXED " } else { "tuned " },
            evaluate(&model, &shifted, 8, 7)? * 100.0
        );
    }
    println!("\n(The paper's Table 10 finding is that fixing MoE layers");
    println!(" during fine-tuning avoids overfitting; on this synthetic");
    println!(" substitute the freeze benefit does not fully reproduce —");
    println!(" see EXPERIMENTS.md for the analysis.)");
    Ok(())
}
