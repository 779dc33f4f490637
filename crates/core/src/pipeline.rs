//! End-to-end PIVOT flow: teacher training, CKA capture, Phase-1 selection
//! and per-effort fine-tuning, optionally checkpointed model by model.

use crate::phase1::{select_optimal_path, Phase1Result};
use crate::{EffortModel, Parallelism};
use pivot_cka::CkaMatrix;
use pivot_data::{Dataset, Sample};
use pivot_tensor::{ContentHasher, Matrix, Rng};
use pivot_vit::{TrainConfig, Trainer, VisionTransformer, VitConfig};
use std::path::{Path, PathBuf};

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

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics, naming the rule, if the ViT geometry is invalid (see
    /// [`VitConfig::try_validate`]), there is no effort, an effort
    /// exceeds the depth, or `cka_batch` is below two.
    pub fn validate(&self) {
        self.vit
            .try_validate()
            .expect("PipelineConfig::vit is invalid");
        assert!(!self.efforts.is_empty(), "need at least one effort");
        for &e in &self.efforts {
            assert!(
                e <= self.vit.depth,
                "effort {e} exceeds depth {}",
                self.vit.depth
            );
        }
        assert!(self.cka_batch > 1, "CKA needs at least two samples");
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
/// With [`PivotPipeline::with_checkpoints`], each model (the teacher,
/// then each effort) is loaded from its file when the file exists, and
/// trained and written otherwise; the CKA matrix, Phase 1 and the
/// [`EffortModel`]s are computed the same way either way.
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
    checkpoints: Option<PathBuf>,
}

impl PivotPipeline {
    /// Creates a pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PipelineConfig) -> Self {
        config.validate();
        Self {
            config,
            checkpoints: None,
        }
    }

    /// Builder-style checkpoint directory: [`Self::run`] loads the teacher
    /// from `dir/<key>/teacher.bin` and effort `e` from
    /// `dir/<key>/effort_{e}.bin` when the file exists, and otherwise
    /// trains the model and writes that file (creating the directory). The
    /// key hashes everything that trains the models — the whole
    /// [`PipelineConfig`] and every training sample — so files written
    /// under one configuration or training set never load under another.
    /// A partly filled key directory trains only what is missing. A failed
    /// write is reported on stderr and never fails the run.
    ///
    /// A loaded file must hold a model of the configured [`VitConfig`],
    /// and a loaded effort must run its Phase-1 path; [`Self::run`]
    /// panics, naming the file, on a file that breaks either rule or
    /// cannot be read.
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoints = Some(dir.into());
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full flow on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if a checkpoint it loads is unreadable, holds another
    /// [`VitConfig`], or (for an effort) does not run its Phase-1 path.
    pub fn run(&self, data: &Dataset) -> PivotArtifacts {
        let cfg = &self.config;
        let checkpoints = self
            .checkpoints
            .as_ref()
            .map(|dir| dir.join(checkpoint_key(cfg, data)));
        let checkpoints = checkpoints.as_deref();

        // 1. Train (or load) the teacher, the full-effort baseline.
        let (teacher, _) = self.load_or_train(checkpoints, "teacher.bin", || {
            let mut teacher = VisionTransformer::new(&cfg.vit, &mut Rng::new(cfg.seed));
            Trainer::new(cfg.teacher_train).train(&mut teacher, None, data);
            teacher
        });

        // 2. CKA matrix from the teacher on a calibration batch.
        let batch: Vec<&Sample> = data.train.iter().take(cfg.cka_batch).collect();
        let cka = compute_cka_matrix(&teacher, &batch);

        // 3-4. Phase 1 per effort + fine-tuning with distillation and L_En
        //      (or loading the fine-tuned model).
        let mut efforts = Vec::with_capacity(cfg.efforts.len());
        let mut phase1 = Vec::with_capacity(cfg.efforts.len());
        let mut sorted_efforts = cfg.efforts.clone();
        sorted_efforts.sort_unstable();
        for &effort in &sorted_efforts {
            let result = select_optimal_path(effort, &cka, Parallelism::Auto);
            let path = &result.optimal.path;
            let (model, loaded) =
                self.load_or_train(checkpoints, &format!("effort_{effort}.bin"), || {
                    let mut student = teacher.clone();
                    student.set_active_attentions(path.active());
                    if effort < cfg.vit.depth {
                        Trainer::new(cfg.finetune).train(&mut student, Some(&teacher), data);
                    }
                    student
                });
            if let Some(file) = loaded {
                assert_eq!(
                    model.active_attentions(),
                    path.active(),
                    "cached effort {effort} does not run its Phase-1 path: stale cache at {}",
                    file.display()
                );
            }
            efforts.push(EffortModel {
                effort,
                path: path.clone(),
                score: result.optimal.score,
                model,
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

    /// Loads checkpoint `name` when `dir` holds it (returning its path
    /// too), and otherwise runs `train` and writes its model there. Without
    /// a directory it only runs `train`.
    fn load_or_train(
        &self,
        dir: Option<&Path>,
        name: &str,
        train: impl FnOnce() -> VisionTransformer,
    ) -> (VisionTransformer, Option<PathBuf>) {
        let Some(dir) = dir else {
            return (train(), None);
        };
        let file = dir.join(name);
        if file.exists() {
            let unreadable = format!("checkpoint {} is unreadable", file.display());
            let model = VisionTransformer::load(&file).expect(&unreadable);
            assert_eq!(
                model.config(),
                &self.config.vit,
                "checkpoint {} holds another VitConfig",
                file.display()
            );
            return (model, Some(file));
        }
        let model = train();
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| model.save(&file)) {
            eprintln!(
                "[pipeline] warning: could not write checkpoint {}: {e}",
                file.display()
            );
        }
        (model, None)
    }
}

/// The checkpoint subdirectory name of a run: a hash of `config`'s `Debug`
/// rendering and of every training sample's image and label, as 32 hex
/// digits.
fn checkpoint_key(config: &PipelineConfig, data: &Dataset) -> String {
    let mut h = ContentHasher::new();
    let rendered = format!("{config:?}");
    h.write_usize(rendered.len());
    for b in rendered.bytes() {
        h.write_u64(u64::from(b));
    }
    h.write_usize(data.train.len());
    for sample in &data.train {
        let image = sample.image.content_hash();
        h.write_u64(image as u64);
        h.write_u64((image >> 64) as u64);
        h.write_usize(sample.label);
    }
    format!("{:032x}", h.finish())
}

/// Computes the paper's CKA matrix (`CKA(MLP_i, A_j)`) from a model's
/// residual streams on a calibration batch.
///
/// The model is [prepared](VisionTransformer::prepare) once, and one
/// batched forward over the whole batch snapshots every encoder's streams
/// ([`pivot_vit::PreparedModel::block_streams`]), one row per sample.
///
/// # Panics
///
/// Panics if the batch is empty.
fn compute_cka_matrix(model: &VisionTransformer, batch: &[&Sample]) -> CkaMatrix {
    assert!(!batch.is_empty(), "CKA batch must be non-empty");
    let images: Vec<&Matrix> = batch.iter().map(|s| &s.image).collect();
    let (attn_reps, mlp_reps): (Vec<Matrix>, Vec<Matrix>) =
        model.prepare().block_streams(&images).into_iter().unzip();
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
    #[should_panic(expected = "need at least one effort")]
    fn no_effort_is_rejected() {
        let mut no_efforts = small_pipeline_config();
        no_efforts.efforts.clear();
        no_efforts.validate();
    }

    #[test]
    #[should_panic(expected = "effort 99 exceeds depth 4")]
    fn an_effort_beyond_the_depth_is_rejected() {
        let mut too_deep = small_pipeline_config();
        too_deep.efforts.push(99);
        too_deep.validate();
    }

    #[test]
    #[should_panic(
        expected = "PipelineConfig::vit is invalid: ConfigError(\"zero-sized image or patch\")"
    )]
    fn an_invalid_vit_is_rejected_by_name() {
        let mut bad_vit = small_pipeline_config();
        bad_vit.vit.patch_size = 0;
        bad_vit.validate();
    }

    #[test]
    #[should_panic(expected = "CKA needs at least two samples")]
    fn a_one_sample_cka_batch_is_rejected() {
        let mut bad_cka = small_pipeline_config();
        bad_cka.cka_batch = 1;
        bad_cka.validate();
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

    /// A checkpoint directory under the system temp dir, removed on drop
    /// (so also when the test panics).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("pivot_pipeline_{name}_{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("temp dir");
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// A model's configuration, mask and parameter bits.
    fn model_bits(model: &VisionTransformer) -> (VitConfig, Vec<usize>, Vec<u32>) {
        let mut model = model.clone();
        let bits = model
            .params_mut()
            .iter()
            .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
            .collect();
        (model.config().clone(), model.active_attentions(), bits)
    }

    fn assert_same_artifacts(a: &PivotArtifacts, b: &PivotArtifacts) {
        assert!(model_bits(&a.teacher) == model_bits(&b.teacher), "teacher");
        assert_eq!(a.cka, b.cka);
        assert_eq!(a.phase1, b.phase1);
        assert_eq!(a.efforts.len(), b.efforts.len());
        for (x, y) in a.efforts.iter().zip(&b.efforts) {
            assert_eq!(
                (x.effort, &x.path, x.score.to_bits()),
                (y.effort, &y.path, y.score.to_bits())
            );
            assert!(
                model_bits(&x.model) == model_bits(&y.model),
                "effort {}",
                x.effort
            );
        }
    }

    /// The key directory a run of `cfg` on `data` checkpoints into.
    fn key_dir(dir: &TempDir, cfg: &PipelineConfig, data: &Dataset) -> PathBuf {
        let key_dir = dir.0.join(checkpoint_key(cfg, data));
        std::fs::create_dir_all(&key_dir).expect("key dir");
        key_dir
    }

    #[test]
    fn cold_warm_and_partly_cached_runs_give_the_same_artifacts() {
        let data = small_data();
        let dir = TempDir::new("one_path");
        let pipeline = PivotPipeline::new(small_pipeline_config()).with_checkpoints(&dir.0);
        let cold = pipeline.run(&data);
        let key_dir = key_dir(&dir, pipeline.config(), &data);
        assert_eq!(std::fs::read_dir(&dir.0).expect("dir").count(), 1);
        let mut files: Vec<String> = std::fs::read_dir(&key_dir)
            .expect("checkpoint dir")
            .map(|f| f.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "effort_1.bin",
                "effort_2.bin",
                "effort_4.bin",
                "teacher.bin"
            ]
        );

        let warm = pipeline.run(&data);
        assert_same_artifacts(&cold, &warm);

        // Effort 2 is retrained from the loaded teacher, bit for bit.
        let file = key_dir.join("effort_2.bin");
        let written = std::fs::read(&file).expect("effort 2 written");
        std::fs::remove_file(&file).expect("remove effort 2");
        let partial = pipeline.run(&data);
        assert_same_artifacts(&cold, &partial);
        assert!(std::fs::read(&file).expect("effort 2 rewritten") == written);
    }

    #[test]
    fn checkpoints_of_another_training_config_are_never_loaded() {
        let data = small_data();
        let dir = TempDir::new("rekeyed");
        let old = small_pipeline_config();
        let cached = PivotPipeline::new(old.clone())
            .with_checkpoints(&dir.0)
            .run(&data);
        let new = PipelineConfig {
            finetune: TrainConfig {
                seed: old.finetune.seed + 1,
                ..old.finetune
            },
            ..old
        };
        let rerun = PivotPipeline::new(new.clone())
            .with_checkpoints(&dir.0)
            .run(&data);
        assert_same_artifacts(&rerun, &PivotPipeline::new(new).run(&data));
        // The new seed fine-tunes effort 1 to other bits, so loading the
        // cached model would have shown.
        assert!(model_bits(&rerun.efforts[0].model) != model_bits(&cached.efforts[0].model));
        assert_eq!(std::fs::read_dir(&dir.0).expect("dir").count(), 2);
    }

    #[test]
    #[should_panic(expected = "cached effort 1 does not run its Phase-1 path: stale cache at")]
    fn a_stale_effort_checkpoint_is_rejected_by_name() {
        let dir = TempDir::new("stale");
        let (cfg, data) = (small_pipeline_config(), small_data());
        let key_dir = key_dir(&dir, &cfg, &data);
        let mut teacher = VisionTransformer::new(&cfg.vit, &mut Rng::new(5));
        teacher
            .save(key_dir.join("teacher.bin"))
            .expect("save teacher");
        // Every Phase-1 path of effort 1 keeps one attention; none at all
        // is never one of them.
        teacher.set_active_attentions(&[]);
        teacher
            .save(key_dir.join("effort_1.bin"))
            .expect("save effort");
        PivotPipeline::new(cfg).with_checkpoints(&dir.0).run(&data);
    }

    #[test]
    #[should_panic(expected = "teacher.bin holds another VitConfig")]
    fn a_checkpoint_of_another_vit_config_is_rejected_by_file() {
        let dir = TempDir::new("other_vit");
        let (cfg, data) = (small_pipeline_config(), small_data());
        let other = VitConfig {
            num_classes: 8,
            ..cfg.vit.clone()
        };
        VisionTransformer::new(&other, &mut Rng::new(5))
            .save(key_dir(&dir, &cfg, &data).join("teacher.bin"))
            .expect("save teacher");
        PivotPipeline::new(cfg).with_checkpoints(&dir.0).run(&data);
    }

    #[test]
    #[should_panic(expected = "teacher.bin is unreadable: BadMagic")]
    fn an_unreadable_checkpoint_is_rejected_with_its_error() {
        let dir = TempDir::new("unreadable");
        let (cfg, data) = (small_pipeline_config(), small_data());
        std::fs::write(key_dir(&dir, &cfg, &data).join("teacher.bin"), b"PVIT1").expect("write");
        PivotPipeline::new(cfg).with_checkpoints(&dir.0).run(&data);
    }

    #[test]
    fn a_failed_checkpoint_write_does_not_fail_the_run() {
        let dir = TempDir::new("unwritable");
        // A file where the checkpoint directory should be: every write fails.
        let blocked = dir.0.join("blocked");
        std::fs::write(&blocked, b"").expect("write");
        let cfg = PipelineConfig {
            efforts: vec![4],
            teacher_train: TrainConfig {
                epochs: 1,
                ..small_pipeline_config().teacher_train
            },
            ..small_pipeline_config()
        };
        let artifacts = PivotPipeline::new(cfg)
            .with_checkpoints(&blocked)
            .run(&small_data());
        assert_eq!(artifacts.efforts.len(), 1);
        assert!(blocked.is_file());
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
