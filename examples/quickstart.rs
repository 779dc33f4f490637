//! Quickstart: train a tiny ViT, pick skip paths with CKA, and deploy the
//! entropy-gated low/high-effort cascade.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pivot::core::{CascadeCache, EffortLadder, Parallelism, PipelineConfig, PivotPipeline};
use pivot::data::{Dataset, DatasetConfig};
use pivot::sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot::vit::{TrainConfig, VitConfig};

fn main() {
    // 1. A small difficulty-controlled dataset (stands in for ImageNet).
    let data = Dataset::generate(
        &DatasetConfig {
            classes: 4,
            image_size: 16,
            train_per_class: 40,
            test_per_class: 15,
            difficulty: (0.0, 0.9),
        },
        7,
    );
    println!(
        "dataset: {} train / {} test images",
        data.train.len(),
        data.test.len()
    );

    // 2. Train the teacher and two effort paths (Phase 1 inside).
    let pipeline = PivotPipeline::new(PipelineConfig {
        vit: VitConfig::test_small(),
        efforts: vec![2, 4],
        teacher_train: TrainConfig {
            epochs: 8,
            ..Default::default()
        },
        finetune: TrainConfig {
            epochs: 3,
            distill_weight: 0.5,
            ..Default::default()
        },
        cka_batch: 48,
        seed: 0,
    });
    let artifacts = pipeline.run(&data);
    println!(
        "teacher accuracy: {:.1}%",
        artifacts.teacher.accuracy(&data.test) * 100.0
    );
    for em in &artifacts.efforts {
        println!(
            "effort {}: path {} (score {:.2}), accuracy {:.1}%",
            em.effort,
            em.path,
            em.score,
            em.model.accuracy(&data.test) * 100.0
        );
    }

    // 3. Deploy the cascade: low effort for easy inputs, high for hard
    // ones. Iterate the entropy threshold until 70% of a calibration batch
    // exits at the low effort (the paper's LEC constraint).
    let low = artifacts.efforts[0].model.clone();
    let high = artifacts.efforts[1].model.clone();
    let mut cascade = EffortLadder::new(vec![low, high], vec![0.02]);
    let calibration = &data.train[..data.train.len().min(96)];
    // The cache runs low-effort inference once; every probed threshold is
    // then an O(N) query instead of a fresh forward pass per sample.
    let threshold = CascadeCache::build_prepared(
        &cascade.prepared_levels()[0],
        calibration,
        Parallelism::Auto,
    )
    .threshold_reaching(0.7, 0.02);
    cascade.set_thresholds(vec![threshold]);
    println!("entropy threshold Th = {threshold:.2} (LEC 70%)");
    let (stats, _) = cascade.evaluate(&data.test, Parallelism::Auto);
    println!(
        "cascade: accuracy {:.1}%, F_L {:.2} (inputs classified by the low effort)",
        stats.accuracy() * 100.0,
        stats.f_low()
    );

    // 4. Ask PIVOT-Sim what this buys on the ZCU102 at DeiT-S scale.
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geom = VitGeometry::deit_s();
    let baseline = sim.simulate(&geom, &[true; 12]);
    let low_mask: Vec<bool> = (0..12).map(|i| i < 6).collect();
    let high_mask = vec![true; 12];
    let combined = pivot::sim::combine_efforts(
        &sim.simulate(&geom, &low_mask),
        &sim.simulate(&geom, &high_mask),
        stats.f_low(),
    );
    println!(
        "DeiT-S scale: baseline {:.1} ms / EDP {:.1}; cascade {:.1} ms / EDP {:.1} ({:.2}x lower)",
        baseline.delay_ms,
        baseline.edp(),
        combined.delay_ms,
        combined.edp(),
        baseline.edp() / combined.edp()
    );
}
