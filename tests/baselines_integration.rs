//! Cross-crate integration of the prior-work baselines with trained
//! models, and the GPP cost-model claims of Figs. 1c / 7.

use pivot::baselines::gpp::{
    baseline_workload, heatvit_workload, pivot_workload, vitcod_workload, Platform,
};
use pivot::baselines::{HeatVit, HeatVitConfig, VitCod};
use pivot::data::{Dataset, DatasetConfig};
use pivot::sim::VitGeometry;
use pivot::tensor::Rng;
use pivot::vit::{TrainConfig, Trainer, VisionTransformer, VitConfig};

fn trained_model_and_data() -> (VisionTransformer, Dataset) {
    let data = Dataset::generate(
        &DatasetConfig {
            classes: 4,
            image_size: 16,
            train_per_class: 45,
            test_per_class: 12,
            difficulty: (0.0, 0.7),
        },
        17,
    );
    let cfg = VitConfig {
        depth: 12,
        dim: 32,
        heads: 2,
        ..VitConfig::test_small()
    };
    let mut model = VisionTransformer::new(&cfg, &mut Rng::new(5));
    Trainer::new(TrainConfig {
        epochs: 18,
        distill_weight: 0.0,
        entropy_weight: 0.0,
        ..Default::default()
    })
    .train(&mut model, None, &data);
    (model, data)
}

/// Table 4 ordering on trained models: the dense model beats both
/// constant-ratio baselines, and moderate sparsity hurts less than heavy
/// token pruning plus heavy sparsity combined.
#[test]
fn baseline_accuracy_ordering_on_trained_model() {
    let (model, data) = trained_model_and_data();
    let model = model.prepare();
    let dense_acc = model.accuracy(&data.test) as f64;
    assert!(dense_acc > 0.5, "model must be trained (acc {dense_acc})");

    let vitcod_acc = VitCod::new(0.9).accuracy(&model, &data.test) as f64;
    let heatvit_acc = HeatVit::new(HeatVitConfig::deit_s(), 12).accuracy(&model, &data.test) as f64;

    // Both post-hoc compressions lose some accuracy vs dense; 90% attention
    // sparsity is the harsher intervention (paper: ViTCOD 78.1 < HeatViT
    // 79.1 < dense 79.8).
    assert!(
        dense_acc >= vitcod_acc,
        "dense {dense_acc} vs ViTCOD {vitcod_acc}"
    );
    assert!(
        dense_acc >= heatvit_acc - 0.05,
        "dense {dense_acc} vs HeatViT {heatvit_acc}"
    );
    // Mild sparsity degrades less than heavy sparsity.
    let mild_acc = VitCod::new(0.3).accuracy(&model, &data.test) as f64;
    assert!(
        mild_acc >= vitcod_acc,
        "mild {mild_acc} vs 90% sparse {vitcod_acc}"
    );
}

/// Fig. 1c / Fig. 7 cost-model claims hold on every platform.
#[test]
fn gpp_claims_hold_on_all_platforms() {
    let geom = VitGeometry::deit_s();
    let base = baseline_workload(&geom);
    let heatvit = heatvit_workload(&geom, 3);
    let vitcod = vitcod_workload(&geom, 0.9);
    // A PVDS-50-style point at high LEC: low effort 3, high effort 9,
    // F_H = 0.1.
    let low: Vec<bool> = (0..12).map(|i| i < 3).collect();
    let high: Vec<bool> = (0..12).map(|i| i < 9).collect();
    let pivot = pivot_workload(&geom, &low, &high, 0.1);

    for p in Platform::ALL {
        let spec = p.spec();
        let d_base = spec.delay_ms(&base);
        assert!(
            spec.delay_ms(&pivot) < d_base,
            "{}: PIVOT must be faster",
            spec.name
        );
        assert!(
            spec.delay_ms(&heatvit) > d_base,
            "{}: HeatViT must show overhead",
            spec.name
        );
        let vitcod_ratio = spec.delay_ms(&vitcod) / d_base;
        assert!(
            (0.98..1.25).contains(&vitcod_ratio),
            "{}: ViTCOD ratio {vitcod_ratio}",
            spec.name
        );
    }
}

/// The entropy check PIVOT adds on GPPs stays a small single-digit share
/// (the paper reports < 0.05% on the FPGA PS; a GPU host sync is pricier
/// but still marginal next to the re-computation overhead).
#[test]
fn pivot_gpp_sync_overhead_is_negligible() {
    let geom = VitGeometry::deit_s();
    let low: Vec<bool> = (0..12).map(|i| i < 3).collect();
    let high = vec![true; 12];
    let with_sync = pivot_workload(&geom, &low, &high, 0.0);
    let mut without_sync = with_sync;
    without_sync.sync_count = 0.0;
    for p in Platform::ALL {
        let spec = p.spec();
        let overhead = spec.delay_ms(&with_sync) - spec.delay_ms(&without_sync);
        let share = overhead / spec.delay_ms(&with_sync);
        assert!(share < 0.04, "{}: entropy sync share {share}", spec.name);
    }
}

/// HeatViT's progressive schedule really prunes on a trained forward pass
/// (cross-crate: pivot-baselines driving pivot-vit internals).
#[test]
fn heatvit_token_counts_shrink_through_stages() {
    let hv = HeatVit::new(HeatVitConfig::deit_s(), 12);
    let live = hv.live_tokens_per_encoder(12, 196);
    assert_eq!(live.len(), 12);
    assert!(live[11] < live[6] && live[6] < live[0]);
    // Final stage keeps 13% of tokens (paper: 87% pruning in encoders 10-12).
    assert_eq!(live[11], (0.13f32 * 196.0).ceil() as usize);
}
