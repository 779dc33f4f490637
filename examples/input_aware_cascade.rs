//! Input-difficulty awareness (the paper's Fig. 1d story): easy inputs
//! exit at the low effort, hard inputs escalate to the high effort.
//!
//! The synthetic dataset gives ground-truth difficulty labels, so this
//! example can verify directly that the entropy gate tracks difficulty —
//! something the paper can only argue indirectly on ImageNet.
//!
//! ```sh
//! cargo run --example input_aware_cascade
//! ```

use pivot::core::{EffortLadder, PipelineConfig, PivotPipeline};
use pivot::data::{Dataset, DatasetConfig};
use pivot::vit::{TrainConfig, VitConfig};

fn main() {
    let cfg = DatasetConfig {
        classes: 4,
        image_size: 16,
        train_per_class: 50,
        test_per_class: 10,
        difficulty: (0.0, 1.0),
    };
    let data = Dataset::generate(&cfg, 21);

    let pipeline = PivotPipeline::new(PipelineConfig {
        vit: VitConfig::test_small(),
        efforts: vec![2, 4],
        teacher_train: TrainConfig {
            epochs: 10,
            entropy_weight: 0.1,
            ..Default::default()
        },
        finetune: TrainConfig {
            epochs: 3,
            distill_weight: 0.5,
            ..Default::default()
        },
        cka_batch: 64,
        seed: 3,
    });
    let artifacts = pipeline.run(&data);
    let cascade = EffortLadder::new(
        vec![
            artifacts.efforts[0].model.clone(),
            artifacts.efforts[1].model.clone(),
        ],
        vec![0.7],
    );

    // Difficulty-striped evaluation sets: same classes, increasing corruption.
    println!("difficulty | escalation rate F_H | mean low-effort entropy | accuracy");
    println!("-----------------------------------------------------------------------");
    for difficulty in [0.05f32, 0.3, 0.6, 0.9] {
        let stripe = Dataset::generate_difficulty_stripes(&cfg, &[difficulty], 60, 99);
        let mut escalated = 0usize;
        let mut entropy_sum = 0.0f32;
        let mut correct = 0usize;
        for s in &stripe {
            let out = cascade.infer(&s.image);
            escalated += (out.level == 1) as usize;
            entropy_sum += out.low_entropy;
            correct += (out.prediction == s.label) as usize;
        }
        let n = stripe.len() as f32;
        println!(
            "   {difficulty:.2}    |        {:.2}         |          {:.3}          |  {:.1}%",
            escalated as f32 / n,
            entropy_sum / n,
            100.0 * correct as f32 / n
        );
    }
    println!("\nHarder inputs raise the low-effort entropy, so more of them take the");
    println!("high-effort path - the input-aware behaviour PIVOT is built around.");
}
