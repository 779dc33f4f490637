//! End-to-end PIVOT flow: teacher training, CKA capture, Phase-1 selection
//! and per-effort fine-tuning.

use crate::error::PivotError;
use crate::phase1::{select_optimal_path, Phase1Result};
use crate::{EffortModel, Parallelism};
use pivot_cka::{stack_flattened, CkaMatrix};
use pivot_data::{Dataset, Sample};
use pivot_tensor::{Matrix, Rng};
use pivot_vit::{TrainConfig, Trainer, VisionTransformer, VitConfig};

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Model geometry to train.
    pub vit: VitConfig,
    /// Efforts to prepare (the paper uses 3..=9 for DeiT-S, 4..=12 for
    /// LVViT-S).
    pub efforts: Vec<usize>,
    /// Teacher (full-effort) training hyper-parameters.
    pub teacher_train: TrainConfig,
    /// Per-effort fine-tuning hyper-parameters (the paper fine-tunes each
    /// effort for 30 epochs with distillation and `L_En`).
    pub finetune: TrainConfig,
    /// Calibration batch size for the CKA matrix (paper: 256 images).
    pub cka_batch: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// A fast configuration around the tiny DeiT stand-in, used by tests
    /// and the quickstart example.
    pub fn tiny() -> Self {
        Self {
            vit: VitConfig::tiny(),
            efforts: vec![3, 6, 9, 12],
            teacher_train: TrainConfig {
                epochs: 12,
                batch_size: 16,
                lr: 2e-3,
                distill_weight: 0.0,
                entropy_weight: 0.05,
                grad_clip: 1.0,
                warmup_fraction: 0.1,
                seed: 1,
            },
            finetune: TrainConfig {
                epochs: 4,
                batch_size: 16,
                lr: 1e-3,
                distill_weight: 0.5,
                entropy_weight: 0.1,
                grad_clip: 1.0,
                warmup_fraction: 0.1,
                seed: 2,
            },
            cka_batch: 128,
            seed: 0,
        }
    }

    /// Validates the configuration, returning a typed error instead of
    /// panicking.
    pub fn try_validate(&self) -> Result<(), PivotError> {
        self.vit.try_validate()?;
        if self.efforts.is_empty() {
            return Err(PivotError::invalid_config(
                "pipeline config",
                "need at least one effort",
            ));
        }
        for &e in &self.efforts {
            if e > self.vit.depth {
                return Err(PivotError::invalid_config(
                    "pipeline config",
                    format!("effort {e} exceeds depth {}", self.vit.depth),
                ));
            }
        }
        if self.cka_batch <= 1 {
            return Err(PivotError::invalid_config(
                "pipeline config",
                "CKA needs at least two samples",
            ));
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — the original fail-fast
    /// behavior, kept for API compatibility; fallible callers should use
    /// [`Self::try_validate`].
    // Panicking compat wrapper over the Result-returning validation path.
    #[allow(clippy::panic)]
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct PivotArtifacts {
    /// The trained full-effort teacher (also the evaluation baseline).
    pub teacher: VisionTransformer,
    /// The CKA matrix captured from the teacher (paper Fig. 3a).
    pub cka: CkaMatrix,
    /// Phase-1 results per requested effort (ranked paths included).
    pub phase1: Vec<Phase1Result>,
    /// Fine-tuned models per effort, ascending by effort.
    pub efforts: Vec<EffortModel>,
}

/// Runs teacher training, CKA capture, Phase-1 path selection and
/// per-effort fine-tuning.
///
/// # Example
///
/// ```no_run
/// use pivot_core::{PipelineConfig, PivotPipeline};
/// use pivot_data::{Dataset, DatasetConfig};
///
/// let data = Dataset::generate(&DatasetConfig::standard(), 0);
/// let artifacts = PivotPipeline::new(PipelineConfig::tiny()).run(&data);
/// assert_eq!(artifacts.efforts.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PivotPipeline {
    config: PipelineConfig,
}

impl PivotPipeline {
    /// Creates a pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PipelineConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full flow on a dataset.
    pub fn run(&self, data: &Dataset) -> PivotArtifacts {
        let cfg = &self.config;

        // 1. Train the teacher (the full-effort baseline).
        let mut teacher = VisionTransformer::new(&cfg.vit, &mut Rng::new(cfg.seed));
        Trainer::new(cfg.teacher_train).train(&mut teacher, None, data);

        // 2. CKA matrix from the teacher on a calibration batch.
        let batch: Vec<&Sample> = data.train.iter().take(cfg.cka_batch).collect();
        let cka = compute_cka_matrix(&teacher, &batch);

        // 3-4. Phase 1 per effort + fine-tuning with distillation and L_En.
        let mut efforts = Vec::with_capacity(cfg.efforts.len());
        let mut phase1 = Vec::with_capacity(cfg.efforts.len());
        let mut sorted_efforts = cfg.efforts.clone();
        sorted_efforts.sort_unstable();
        for &effort in &sorted_efforts {
            let result = select_optimal_path(effort, &cka, Parallelism::Auto);
            let mut student = teacher.clone();
            student.set_active_attentions(result.optimal.path.active());
            if effort < cfg.vit.depth {
                Trainer::new(cfg.finetune).train(&mut student, Some(&teacher), data);
            }
            efforts.push(EffortModel {
                effort,
                path: result.optimal.path.clone(),
                score: result.optimal.score,
                model: student,
            });
            phase1.push(result);
        }

        PivotArtifacts {
            teacher,
            cka,
            phase1,
            efforts,
        }
    }
}

/// Computes the paper's CKA matrix (`CKA(MLP_i, A_j)`) from a model's
/// traced activations on a calibration batch.
///
/// The model is [prepared](VisionTransformer::prepare) once up front, so
/// the whole batch of traced forward passes shares one fake-quant weight
/// materialization instead of refitting quantizers per sample.
///
/// # Panics
///
/// Panics if the batch is empty.
pub fn compute_cka_matrix(model: &VisionTransformer, batch: &[&Sample]) -> CkaMatrix {
    assert!(!batch.is_empty(), "CKA batch must be non-empty");
    let prepared = model.prepare();
    let depth = prepared.config().depth;
    let mut mlp_acts: Vec<Vec<Matrix>> = vec![Vec::with_capacity(batch.len()); depth];
    let mut attn_acts: Vec<Vec<Matrix>> = vec![Vec::with_capacity(batch.len()); depth];
    for sample in batch {
        let trace = prepared.infer_traced(&sample.image);
        for (i, (a, m)) in trace
            .attention_out
            .into_iter()
            .zip(trace.mlp_out)
            .enumerate()
        {
            attn_acts[i].push(a);
            mlp_acts[i].push(m);
        }
    }
    let mlp_reps: Vec<Matrix> = mlp_acts.iter().map(|acts| stack_flattened(acts)).collect();
    let attn_reps: Vec<Matrix> = attn_acts.iter().map(|acts| stack_flattened(acts)).collect();
    CkaMatrix::compute(&mlp_reps, &attn_reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::DatasetConfig;

    fn small_pipeline_config() -> PipelineConfig {
        PipelineConfig {
            vit: VitConfig::test_small(),
            efforts: vec![1, 2, 4],
            teacher_train: TrainConfig {
                epochs: 6,
                batch_size: 16,
                lr: 2e-3,
                distill_weight: 0.0,
                entropy_weight: 0.0,
                grad_clip: 1.0,
                warmup_fraction: 0.1,
                seed: 1,
            },
            finetune: TrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 1e-3,
                distill_weight: 0.5,
                entropy_weight: 0.1,
                grad_clip: 1.0,
                warmup_fraction: 0.1,
                seed: 2,
            },
            cka_batch: 32,
            seed: 0,
        }
    }

    fn small_data() -> Dataset {
        Dataset::generate(
            &DatasetConfig {
                classes: 4,
                image_size: 16,
                train_per_class: 20,
                test_per_class: 8,
                difficulty: (0.0, 0.8),
            },
            3,
        )
    }

    #[test]
    fn try_validate_returns_typed_errors_without_panicking() {
        assert!(small_pipeline_config().try_validate().is_ok());

        let mut no_efforts = small_pipeline_config();
        no_efforts.efforts.clear();
        let e = no_efforts.try_validate().unwrap_err();
        assert!(e.to_string().contains("at least one effort"), "{e}");

        let mut too_deep = small_pipeline_config();
        too_deep.efforts.push(99);
        let e = too_deep.try_validate().unwrap_err();
        assert!(e.to_string().contains("exceeds depth"), "{e}");

        let mut bad_vit = small_pipeline_config();
        bad_vit.vit.patch_size = 0;
        let e = bad_vit.try_validate().unwrap_err();
        assert!(e.to_string().contains("ViT config"), "{e}");

        let mut bad_cka = small_pipeline_config();
        bad_cka.cka_batch = 1;
        assert!(bad_cka.try_validate().is_err());
    }

    #[test]
    fn pipeline_produces_all_artifacts() {
        let data = small_data();
        let artifacts = PivotPipeline::new(small_pipeline_config()).run(&data);
        assert_eq!(artifacts.efforts.len(), 3);
        assert_eq!(artifacts.cka.depth(), 4);
        // Efforts ascending and realized in the models.
        for (e, em) in artifacts.efforts.iter().enumerate() {
            assert_eq!(em.model.effort(), em.effort);
            assert_eq!(em.path.effort(), em.effort);
            if e > 0 {
                assert!(em.effort > artifacts.efforts[e - 1].effort);
            }
        }
        // The full effort equals the teacher's configuration.
        let full = artifacts.efforts.last().expect("efforts");
        assert_eq!(full.effort, 4);
    }

    #[test]
    fn cka_matrix_values_are_valid() {
        let data = small_data();
        let mut model = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(0));
        Trainer::new(TrainConfig {
            epochs: 2,
            ..Default::default()
        })
        .train(&mut model, None, &data);
        let batch: Vec<&Sample> = data.train.iter().take(24).collect();
        let cka = compute_cka_matrix(&model, &batch);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let v = cka.get(i, j);
                assert!((0.0..=1.0).contains(&v), "CKA({i},{j}) = {v}");
            }
        }
        // Residual streams are strongly correlated in a trained ViT; the
        // matrix must not be all zeros.
        assert!(cka.get(0, 1) > 0.01);
    }

    #[test]
    fn lower_efforts_keep_reasonable_accuracy_via_distillation() {
        let data = small_data();
        let artifacts = PivotPipeline::new(small_pipeline_config()).run(&data);
        let teacher_acc = artifacts.teacher.accuracy(&data.test);
        let low = &artifacts.efforts[0];
        let low_acc = low.model.accuracy(&data.test);
        // The distilled 1-attention model must retain a useful fraction of
        // the teacher's accuracy (not collapse to chance = 0.25).
        assert!(
            low_acc > teacher_acc * 0.5,
            "effort {} accuracy {low_acc} vs teacher {teacher_acc}",
            low.effort
        );
    }
}
