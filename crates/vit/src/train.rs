//! Training loop with the PIVOT objective `L_CE + L_Distill + L_En`.

use crate::VisionTransformer;
use pivot_data::Dataset;
use pivot_nn::{cross_entropy, distillation_mse, entropy_regularizer, Adam, AdamConfig};
use pivot_tensor::{Matrix, Rng};

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight of the feature-distillation term (`L_Distill`); 0 disables.
    pub distill_weight: f32,
    /// Weight of the entropy regularizer (`L_En`), applied to
    /// correctly-classified samples only, per the paper; 0 disables.
    pub entropy_weight: f32,
    /// Global gradient-norm clip applied per batch; `0` disables.
    /// Deep ViTs need this for stable training.
    pub grad_clip: f32,
    /// Fraction of total steps spent in linear learning-rate warmup before
    /// the cosine decay to 10% of the peak; `0` disables scheduling.
    pub warmup_fraction: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 16,
            lr: 1e-3,
            distill_weight: 0.5,
            entropy_weight: 0.1,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: 0,
        }
    }
}

/// Loss and accuracy of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean total loss per sample.
    pub mean_loss: f32,
    /// Training-set accuracy measured during the epoch.
    pub train_accuracy: f32,
}

/// Trains a [`VisionTransformer`] with the PIVOT loss.
///
/// # Example
///
/// ```
/// use pivot_data::{Dataset, DatasetConfig};
/// use pivot_tensor::Rng;
/// use pivot_vit::{TrainConfig, Trainer, VisionTransformer, VitConfig};
///
/// let data = Dataset::generate(&DatasetConfig::small(), 0);
/// let cfg = VitConfig { num_classes: 4, image_size: 16, ..VitConfig::test_small() };
/// let mut model = VisionTransformer::new(&cfg, &mut Rng::new(0));
/// let stats = Trainer::new(TrainConfig { epochs: 1, ..Default::default() })
///     .train(&mut model, None, &data);
/// assert_eq!(stats.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The hyper-parameters in use.
    pub fn config(&self) -> TrainConfig {
        self.config
    }

    /// Trains `model` on `data.train`, optionally distilling from `teacher`
    /// (the paper distills every effort path from the full-effort ViT).
    ///
    /// Returns one [`EpochStats`] per epoch.
    pub fn train(
        &self,
        model: &mut VisionTransformer,
        teacher: Option<&VisionTransformer>,
        data: &Dataset,
    ) -> Vec<EpochStats> {
        let cfg = self.config;
        let mut rng = Rng::new(cfg.seed);
        let mut adam = Adam::new(AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        });
        let mut stats = Vec::with_capacity(cfg.epochs);
        // The teacher is frozen for the whole fit: one view serves every
        // mini-batch's distillation targets.
        let teacher = teacher
            .filter(|_| cfg.distill_weight > 0.0)
            .map(VisionTransformer::prepare);

        let batches_per_epoch = data.train.len().div_ceil(cfg.batch_size).max(1);
        let total_steps = (cfg.epochs * batches_per_epoch) as f32;
        let warmup_steps = (cfg.warmup_fraction * total_steps).round().max(0.0);
        let mut step = 0.0f32;

        for epoch in 0..cfg.epochs {
            let mut total_loss = 0.0;
            let mut correct = 0usize;
            let mut seen = 0usize;
            for batch in data.train_batches(cfg.batch_size, &mut rng) {
                model.zero_grad();
                // One batched teacher forward per mini-batch; row `i` is
                // sample `i`'s traced class feature, bit for bit. The
                // student steps stay per sample: batching them would
                // change the order gradients are summed in.
                let targets = teacher.as_ref().map(|t| {
                    let images: Vec<&Matrix> =
                        batch.iter().map(|&i| &data.train[i].image).collect();
                    t.cls_features(&images, |cls| cls)
                });
                for (i, &idx) in batch.iter().enumerate() {
                    let sample = &data.train[idx];
                    let (logits, cls_feature) = model.forward(&sample.image);

                    let ce = cross_entropy(&logits, sample.label);
                    let predicted = logits.row_argmax(0);
                    let is_correct = predicted == sample.label;

                    let mut loss = ce.loss;
                    let mut d_logits = ce.grad;

                    if cfg.entropy_weight > 0.0 && is_correct {
                        let en = entropy_regularizer(&logits);
                        loss += cfg.entropy_weight * en.loss;
                        d_logits.add_scaled_in_place(&en.grad, cfg.entropy_weight);
                    }

                    let d_feature = targets.as_ref().map(|t| {
                        let dl = distillation_mse(&cls_feature, &t.slice_rows(i, i + 1));
                        loss += cfg.distill_weight * dl.loss;
                        dl.grad.scaled(cfg.distill_weight)
                    });

                    model.backward(&d_logits, d_feature.as_ref());
                    total_loss += loss;
                    correct += is_correct as usize;
                    seen += 1;
                }
                // Average gradients over the batch.
                let inv = 1.0 / batch.len() as f32;
                for p in model.params_mut() {
                    p.grad.scale_in_place(inv);
                }
                // Global gradient-norm clipping.
                if cfg.grad_clip > 0.0 {
                    let norm: f32 = model
                        .params_mut()
                        .iter()
                        .map(|p| p.grad.frobenius_norm().powi(2))
                        .sum::<f32>()
                        .sqrt();
                    if norm > cfg.grad_clip {
                        let scale = cfg.grad_clip / norm;
                        for p in model.params_mut() {
                            p.grad.scale_in_place(scale);
                        }
                    }
                }
                // Warmup + cosine schedule.
                if cfg.warmup_fraction > 0.0 {
                    let lr = if step < warmup_steps {
                        cfg.lr * (step + 1.0) / warmup_steps.max(1.0)
                    } else {
                        let progress =
                            (step - warmup_steps) / (total_steps - warmup_steps).max(1.0);
                        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                        cfg.lr * (0.1 + 0.9 * cos)
                    };
                    adam.set_lr(lr);
                }
                step += 1.0;
                adam.step(&mut model.params_mut());
            }
            stats.push(EpochStats {
                epoch,
                mean_loss: total_loss / seen.max(1) as f32,
                train_accuracy: correct as f32 / seen.max(1) as f32,
            });
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VitConfig;
    use pivot_data::DatasetConfig;

    fn small_data(seed: u64) -> Dataset {
        Dataset::generate(
            &DatasetConfig {
                classes: 4,
                image_size: 16,
                train_per_class: 20,
                test_per_class: 10,
                difficulty: (0.0, 0.5),
            },
            seed,
        )
    }

    fn small_model(seed: u64) -> VisionTransformer {
        VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(seed))
    }

    #[test]
    fn training_learns_the_small_dataset() {
        let data = small_data(0);
        let mut model = small_model(1);
        let before = model.accuracy(&data.test);
        let stats = Trainer::new(TrainConfig {
            epochs: 14,
            batch_size: 16,
            lr: 2e-3,
            distill_weight: 0.0,
            entropy_weight: 0.0,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: 2,
        })
        .train(&mut model, None, &data);
        let after = model.accuracy(&data.test);
        assert!(
            after > before + 0.2 && after > 0.5,
            "no learning: {before} -> {after}, stats {stats:?}"
        );
        // Loss decreases over epochs.
        assert!(stats.last().expect("stats").mean_loss < stats[0].mean_loss);
    }

    /// The paper applies `L_En` while fine-tuning effort paths, claiming it
    /// increases confident (low-entropy) classifications. Reproduce that:
    /// fine-tune one copy of a pre-trained model with the regularizer and
    /// one without, then compare mean entropy on the test set.
    #[test]
    fn entropy_regularizer_lowers_mean_entropy() {
        use pivot_nn::normalized_entropy;
        let data = small_data(3);
        let mut base = small_model(5);
        Trainer::new(TrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 2e-3,
            distill_weight: 0.0,
            entropy_weight: 0.0,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: 4,
        })
        .train(&mut base, None, &data);

        let finetune = TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 1e-3,
            distill_weight: 0.0,
            entropy_weight: 0.0,
            grad_clip: 1.0,
            warmup_fraction: 0.1,
            seed: 5,
        };
        let mut plain = base.clone();
        Trainer::new(finetune).train(&mut plain, None, &data);
        let mut regularized = base;
        Trainer::new(TrainConfig {
            entropy_weight: 0.5,
            ..finetune
        })
        .train(&mut regularized, None, &data);

        let mean_entropy = |m: &VisionTransformer| {
            let m = m.prepare();
            data.test
                .iter()
                .map(|s| normalized_entropy(&m.infer(&s.image)))
                .sum::<f32>()
                / data.test.len() as f32
        };
        let e_plain = mean_entropy(&plain);
        let e_reg = mean_entropy(&regularized);
        assert!(
            e_reg < e_plain,
            "L_En did not lower entropy: {e_reg} vs {e_plain}"
        );
    }

    #[test]
    fn distillation_pulls_student_toward_teacher() {
        let data = small_data(6);
        // Teacher: trained full model.
        let mut teacher = small_model(7);
        Trainer::new(TrainConfig {
            epochs: 4,
            distill_weight: 0.0,
            entropy_weight: 0.0,
            ..Default::default()
        })
        .train(&mut teacher, None, &data);

        // Students: same init, one with and one without distillation.
        let teacher_view = teacher.prepare();
        let feature_gap = |student: &VisionTransformer| {
            let (student, teacher) = (student.prepare(), &teacher_view);
            data.test
                .iter()
                .map(|s| {
                    let sf = student.infer_traced(&s.image).cls_feature;
                    let tf = teacher.infer_traced(&s.image).cls_feature;
                    (&sf - &tf).frobenius_norm()
                })
                .sum::<f32>()
        };
        let cfg = TrainConfig {
            epochs: 2,
            distill_weight: 0.0,
            entropy_weight: 0.0,
            ..Default::default()
        };
        let mut plain = small_model(8);
        plain.set_active_attentions(&[0, 2]);
        Trainer::new(cfg).train(&mut plain, None, &data);

        let mut distilled = small_model(8);
        distilled.set_active_attentions(&[0, 2]);
        Trainer::new(TrainConfig {
            distill_weight: 5.0,
            ..cfg
        })
        .train(&mut distilled, Some(&teacher), &data);

        assert!(
            feature_gap(&distilled) < feature_gap(&plain),
            "distillation did not reduce the feature gap"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = small_data(9);
        let cfg = TrainConfig {
            epochs: 1,
            ..Default::default()
        };
        let mut a = small_model(10);
        let sa = Trainer::new(cfg).train(&mut a, None, &data);
        let mut b = small_model(10);
        let sb = Trainer::new(cfg).train(&mut b, None, &data);
        assert_eq!(sa, sb);
        assert_eq!(a.infer(&data.test[0].image), b.infer(&data.test[0].image));
    }
}
