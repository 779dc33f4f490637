//! End-to-end integration: dataset -> training -> CKA -> Phase 1 ->
//! Phase 2 (simulator in the loop) -> cascade deployment.

use pivot::core::{MultiEffortVit, Phase2Config, Phase2Search, PipelineConfig, PivotPipeline};
use pivot::data::{Dataset, DatasetConfig};
use pivot::sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot::vit::{TrainConfig, VitConfig};

fn dataset() -> Dataset {
    Dataset::generate(
        &DatasetConfig {
            classes: 4,
            image_size: 16,
            train_per_class: 30,
            test_per_class: 12,
            difficulty: (0.0, 1.0),
        },
        11,
    )
}

fn pipeline() -> PivotPipeline {
    PivotPipeline::new(PipelineConfig {
        vit: VitConfig {
            depth: 12,
            dim: 32,
            heads: 2,
            ..VitConfig::test_small()
        },
        efforts: vec![3, 6, 9, 12],
        teacher_train: TrainConfig {
            epochs: 14,
            ..Default::default()
        },
        finetune: TrainConfig {
            epochs: 2,
            distill_weight: 0.5,
            ..Default::default()
        },
        cka_batch: 40,
        seed: 2,
    })
}

#[test]
fn full_codesign_flow_produces_a_working_cascade() {
    let data = dataset();
    let artifacts = pipeline().run(&data);

    // Phase 1 artifacts are consistent.
    assert_eq!(artifacts.efforts.len(), 4);
    for em in &artifacts.efforts {
        assert_eq!(em.model.effort(), em.effort);
    }
    // The teacher learned something well beyond chance (0.25).
    let teacher_acc = artifacts.teacher.accuracy(&data.test);
    assert!(teacher_acc > 0.45, "teacher accuracy {teacher_acc}");

    // Phase 2 with the simulator in the loop at DeiT-S scale.
    let sim = Simulator::new(AcceleratorConfig::zcu102());
    let geometry = VitGeometry::deit_s();
    let calibration: Vec<_> = data.train.iter().take(60).cloned().collect();
    let search = Phase2Search::new(&sim, &geometry, &artifacts.efforts, &calibration);
    let result = search
        .run(&Phase2Config {
            lec: 0.7,
            delay_constraint_ms: 50.0,
            delay_tolerance: 0.05,
            threshold_step: 0.02,
        })
        .expect("50 ms is feasible for DeiT-S");

    // The combination respects the constraint and beats the baseline.
    assert!(result.perf.delay_ms <= 52.5);
    let baseline = sim.simulate(&geometry, &[true; 12]);
    assert!(result.perf.delay_ms < baseline.delay_ms);
    assert!(result.perf.edp() < baseline.edp());

    // Deploy the chosen cascade and check it works end to end.
    let low = artifacts
        .efforts
        .iter()
        .find(|e| e.effort == result.low_effort)
        .expect("low effort model");
    let high = artifacts
        .efforts
        .iter()
        .find(|e| e.effort == result.high_effort)
        .expect("high effort model");
    let cascade = MultiEffortVit::new(low.model.clone(), high.model.clone(), result.threshold);
    let stats = cascade.evaluate(&data.test);
    assert_eq!(stats.total(), data.test.len());

    // Input-awareness pays: the cascade is at least as accurate as the low
    // effort alone.
    let low_only_acc = low.model.accuracy(&data.test) as f64;
    assert!(
        stats.accuracy() >= low_only_acc - 0.02,
        "cascade {} worse than low-only {low_only_acc}",
        stats.accuracy()
    );
}

#[test]
fn cascade_escalates_more_on_harder_inputs() {
    use pivot::nn::normalized_entropy;

    let data = dataset();
    let artifacts = pipeline().run(&data);
    let low = artifacts.efforts[0].model.clone();

    let cfg = DatasetConfig {
        classes: 4,
        image_size: 16,
        train_per_class: 30,
        test_per_class: 12,
        difficulty: (0.0, 1.0),
    };
    let easy = Dataset::generate_difficulty_stripes(&cfg, &[0.05], 60, 31);
    let hard = Dataset::generate_difficulty_stripes(&cfg, &[0.95], 60, 32);

    // Core input-awareness property: the low-effort entropy is higher on
    // harder inputs.
    let low_view = low.prepare();
    let mean_entropy = |set: &[pivot::data::Sample]| {
        set.iter()
            .map(|s| normalized_entropy(&low_view.infer(&s.image)))
            .sum::<f32>()
            / set.len() as f32
    };
    let e_easy = mean_entropy(&easy);
    let e_hard = mean_entropy(&hard);
    assert!(
        e_hard > e_easy,
        "entropy must grow with difficulty: easy {e_easy}, hard {e_hard}"
    );

    // With a threshold between the two means, the cascade escalates more
    // hard inputs than easy ones.
    let threshold = 0.5 * (e_easy + e_hard);
    let cascade = MultiEffortVit::new(low, artifacts.teacher.clone(), threshold);
    let f_high_easy = cascade.evaluate(&easy).f_high();
    let f_high_hard = cascade.evaluate(&hard).f_high();
    assert!(
        f_high_hard > f_high_easy,
        "escalation must grow with difficulty: easy {f_high_easy}, hard {f_high_hard}"
    );
}

#[test]
fn phase1_paths_skip_deeper_layers_on_trained_models() {
    let data = dataset();
    let artifacts = pipeline().run(&data);
    // Paper Fig. 9: across efforts, skips concentrate in deeper layers
    // because CKA(MLP, A) is higher there.
    let mid = artifacts
        .efforts
        .iter()
        .find(|e| e.effort == 6)
        .expect("effort 6 exists");
    let skipped = mid.path.skipped();
    let mean_skip: f64 = skipped.iter().map(|&i| i as f64).sum::<f64>() / skipped.len() as f64;
    // Mean skipped index above the depth midpoint (5.5) means deep bias.
    assert!(
        mean_skip > 4.5,
        "skips {skipped:?} (mean {mean_skip:.2}) not biased toward deep layers"
    );
}
