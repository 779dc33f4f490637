//! Shared experiment state: datasets, trained model families, simulator.

use pivot_core::{compute_cka_matrix, EffortModel, PipelineConfig, PivotArtifacts, PivotPipeline};
use pivot_data::{Dataset, DatasetConfig, Sample};
use pivot_sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot_vit::{TrainConfig, VisionTransformer, VitConfig};
use std::path::{Path, PathBuf};

/// Experiment scale, selected with `PIVOT_PROFILE=fast|full` (default
/// `fast`). `full` trains larger stand-ins for longer and prepares the
/// paper's complete effort ladders; `fast` finishes a family in about a
/// minute on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small models, short training, sparse effort ladder.
    Fast,
    /// Larger models, longer training, the paper's full effort ladder.
    Full,
}

impl Profile {
    /// Reads the profile from the `PIVOT_PROFILE` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("PIVOT_PROFILE").as_deref() {
            Ok("full") => Profile::Full,
            _ => Profile::Fast,
        }
    }

    /// Short name used for the cache directory.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Fast => "fast",
            Profile::Full => "full",
        }
    }

    fn dataset_config(self) -> DatasetConfig {
        match self {
            Profile::Fast => DatasetConfig {
                classes: 8,
                image_size: 32,
                train_per_class: 60,
                test_per_class: 25,
                difficulty: (0.0, 1.0),
            },
            Profile::Full => DatasetConfig {
                classes: 10,
                image_size: 32,
                train_per_class: 150,
                test_per_class: 40,
                difficulty: (0.0, 1.0),
            },
        }
    }

    fn vit_config(self, family: Family, classes: usize) -> VitConfig {
        let dim = match self {
            Profile::Fast => 48,
            Profile::Full => 64,
        };
        VitConfig {
            name: family.tiny_name().to_string(),
            depth: family.depth(),
            dim,
            heads: 4,
            mlp_ratio: 2.0,
            image_size: 32,
            patch_size: 8,
            num_classes: classes,
            quant: pivot_nn::QuantMode::None,
        }
    }

    fn efforts(self, family: Family) -> Vec<usize> {
        match (self, family) {
            (Profile::Fast, Family::Deit) => vec![3, 5, 7, 9, 12],
            (Profile::Fast, Family::Lvvit) => vec![4, 7, 10, 13, 16],
            // The paper's ladders (Section 4.1) plus the full effort.
            (Profile::Full, Family::Deit) => vec![3, 4, 5, 6, 7, 8, 9, 12],
            (Profile::Full, Family::Lvvit) => {
                vec![4, 5, 6, 7, 8, 9, 10, 11, 12, 16]
            }
        }
    }

    fn pipeline_config(self, family: Family, classes: usize) -> PipelineConfig {
        let (teacher_epochs, finetune_epochs, cka_batch) = match self {
            Profile::Fast => (14, 3, 96),
            Profile::Full => (20, 6, 256),
        };
        PipelineConfig {
            vit: self.vit_config(family, classes),
            efforts: self.efforts(family),
            teacher_train: TrainConfig {
                epochs: teacher_epochs,
                batch_size: 16,
                lr: 1e-3,
                distill_weight: 0.0,
                entropy_weight: 0.05,
                grad_clip: 1.0,
                warmup_fraction: 0.1,
                seed: 11,
            },
            finetune: TrainConfig {
                epochs: finetune_epochs,
                batch_size: 16,
                lr: 1e-3,
                distill_weight: 0.5,
                entropy_weight: 0.1,
                grad_clip: 1.0,
                warmup_fraction: 0.1,
                seed: 12,
            },
            cka_batch,
            seed: family.seed(),
        }
    }
}

/// The two model families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// DeiT-S (depth 12) and its tiny trainable stand-in.
    Deit,
    /// LVViT-S (depth 16) and its tiny trainable stand-in.
    Lvvit,
}

impl Family {
    fn depth(self) -> usize {
        match self {
            Family::Deit => 12,
            Family::Lvvit => 16,
        }
    }

    fn tiny_name(self) -> &'static str {
        match self {
            Family::Deit => "Tiny-DeiT",
            Family::Lvvit => "Tiny-LVViT",
        }
    }

    fn cache_tag(self) -> &'static str {
        match self {
            Family::Deit => "deit",
            Family::Lvvit => "lvvit",
        }
    }

    fn seed(self) -> u64 {
        match self {
            Family::Deit => 100,
            Family::Lvvit => 200,
        }
    }

    /// The paper-scale geometry PIVOT-Sim evaluates for this family.
    pub fn geometry(self) -> VitGeometry {
        match self {
            Family::Deit => VitGeometry::deit_s(),
            Family::Lvvit => VitGeometry::lvvit_s(),
        }
    }
}

/// One model family's trained artifacts plus its paper-scale geometry.
#[derive(Debug, Clone)]
pub struct FamilyArtifacts {
    /// Paper-scale name (`"DeiT-S"` / `"LVViT-S"`).
    pub label: String,
    /// Paper-scale geometry for the simulator.
    pub geometry: VitGeometry,
    /// Trained pipeline outputs (teacher, CKA, efforts).
    pub artifacts: PivotArtifacts,
}

impl FamilyArtifacts {
    /// The trained effort models.
    pub fn efforts(&self) -> &[EffortModel] {
        &self.artifacts.efforts
    }
}

/// All shared experiment state.
#[derive(Debug)]
pub struct Reproduction {
    /// Active profile.
    pub profile: Profile,
    /// The synthetic dataset both families train and evaluate on.
    pub dataset: Dataset,
    /// Calibration batch used by Phase 2 (drawn from the training set, as
    /// in the paper).
    pub calibration: Vec<Sample>,
    /// DeiT-S family.
    pub deit: FamilyArtifacts,
    /// LVViT-S family.
    pub lvvit: FamilyArtifacts,
    /// The ZCU102 simulator.
    pub sim: Simulator,
}

impl Reproduction {
    /// Loads (from the checkpoint cache) or trains both families.
    pub fn load() -> Self {
        let profile = Profile::from_env();
        let dataset = Dataset::generate(&profile.dataset_config(), 42);
        let calibration: Vec<Sample> = dataset
            .train
            .iter()
            .take(match profile {
                Profile::Fast => 128,
                Profile::Full => 256,
            })
            .cloned()
            .collect();
        let deit = load_or_train_family(profile, Family::Deit, &dataset);
        let lvvit = load_or_train_family(profile, Family::Lvvit, &dataset);
        Self {
            profile,
            dataset,
            calibration,
            deit,
            lvvit,
            sim: Simulator::new(AcceleratorConfig::zcu102()),
        }
    }

    /// A delay/energy-only harness (no training) for the experiments that
    /// do not need accuracies.
    pub fn simulator() -> Simulator {
        Simulator::new(AcceleratorConfig::zcu102())
    }
}

fn cache_dir(profile: Profile) -> PathBuf {
    PathBuf::from("target")
        .join("pivot-cache")
        .join(profile.name())
}

fn load_or_train_family(profile: Profile, family: Family, dataset: &Dataset) -> FamilyArtifacts {
    let dir = cache_dir(profile);
    let tag = family.cache_tag();
    let teacher_path = dir.join(format!("{tag}_teacher.bin"));
    let config = profile.pipeline_config(family, dataset.config.classes);
    let effort_paths: Vec<PathBuf> = config
        .efforts
        .iter()
        .map(|e| dir.join(format!("{tag}_effort_{e}.bin")))
        .collect();

    let cached = teacher_path.exists() && effort_paths.iter().all(|p| p.exists());
    let artifacts = if cached {
        eprintln!(
            "[harness] loading cached {tag} family from {}",
            dir.display()
        );
        rebuild_from_cache(&teacher_path, &effort_paths, &config, dataset)
    } else {
        eprintln!(
            "[harness] training {tag} family (profile {})...",
            profile.name()
        );
        let artifacts = PivotPipeline::new(config).run(dataset);
        std::fs::create_dir_all(&dir).ok();
        if artifacts.teacher.save(&teacher_path).is_err() {
            eprintln!("[harness] warning: could not cache teacher");
        }
        for (em, path) in artifacts.efforts.iter().zip(&effort_paths) {
            em.model.save(path).ok();
        }
        artifacts
    };

    FamilyArtifacts {
        label: family.geometry().name.clone(),
        geometry: family.geometry(),
        artifacts,
    }
}

/// Rebuilds pipeline artifacts from cached checkpoints: models are loaded,
/// the CKA matrix and Phase-1 rankings are recomputed (cheap) from the
/// cached teacher over the same `config.cka_batch` training images the
/// training run used, so a warm run reproduces the cold one.
fn rebuild_from_cache(
    teacher_path: &Path,
    effort_paths: &[PathBuf],
    config: &PipelineConfig,
    dataset: &Dataset,
) -> PivotArtifacts {
    let teacher = VisionTransformer::load(teacher_path).expect("cached teacher readable");
    let batch: Vec<&Sample> = dataset.train.iter().take(config.cka_batch).collect();
    let cka = compute_cka_matrix(&teacher, &batch);
    let phase1: Vec<_> = config
        .efforts
        .iter()
        .map(|&e| pivot_core::select_optimal_path(e, &cka, pivot_core::Parallelism::Auto))
        .collect();
    let effort_models: Vec<EffortModel> = effort_paths
        .iter()
        .zip(&config.efforts)
        .map(|(path, &effort)| {
            let model = VisionTransformer::load(path).expect("cached effort readable");
            let mask: Vec<bool> = (0..model.config().depth)
                .map(|i| model.active_attentions().contains(&i))
                .collect();
            let path_config = pivot_core::PathConfig::from_mask(&mask);
            let score = pivot_core::path_score(&path_config, &cka);
            EffortModel {
                effort,
                path: path_config,
                score,
                model,
            }
        })
        .collect();
    PivotArtifacts {
        teacher,
        cka,
        phase1,
        efforts: effort_models,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_and_ladders() {
        assert_eq!(Profile::Fast.name(), "fast");
        assert_eq!(Profile::Full.name(), "full");
        // Full profile carries the paper's effort ladders (Section 4.1).
        let deit_full = Profile::Full.efforts(Family::Deit);
        assert!(deit_full.starts_with(&[3, 4, 5, 6, 7, 8, 9]));
        let lv_full = Profile::Full.efforts(Family::Lvvit);
        assert!(lv_full.starts_with(&[4, 5, 6, 7, 8, 9, 10, 11, 12]));
    }

    #[test]
    fn family_geometries_match_paper_scale() {
        assert_eq!(Family::Deit.geometry().depth, 12);
        assert_eq!(Family::Lvvit.geometry().depth, 16);
        assert_eq!(Family::Deit.geometry().dim, 384);
    }

    #[test]
    fn pipeline_configs_validate() {
        for profile in [Profile::Fast, Profile::Full] {
            for family in [Family::Deit, Family::Lvvit] {
                profile.pipeline_config(family, 8).validate();
            }
        }
    }

    #[test]
    fn warm_rebuild_recomputes_cka_over_the_profiles_batch() {
        // Full's CKA batch (256) exceeds the 96 images a warm run once
        // hard-coded, so a mismatch shows up as a different matrix.
        let vit = VitConfig::test_small();
        let config = PipelineConfig {
            vit: vit.clone(),
            efforts: vec![2, 4],
            ..Profile::Full.pipeline_config(Family::Deit, vit.num_classes)
        };
        let dataset = Dataset::generate(
            &DatasetConfig {
                classes: vit.num_classes,
                image_size: vit.image_size,
                train_per_class: 70,
                test_per_class: 1,
                difficulty: (0.0, 1.0),
            },
            3,
        );
        assert!(config.cka_batch > 96 && dataset.train.len() > config.cka_batch);

        let dir = std::env::temp_dir().join(format!("pivot_harness_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let teacher = VisionTransformer::new(&vit, &mut pivot_tensor::Rng::new(5));
        let teacher_path = dir.join("teacher.bin");
        teacher.save(&teacher_path).expect("save teacher");
        let effort_paths: Vec<PathBuf> = config
            .efforts
            .iter()
            .map(|&e| {
                let mut model = teacher.clone();
                model.set_active_attentions(&(0..e).collect::<Vec<_>>());
                let path = dir.join(format!("effort_{e}.bin"));
                model.save(&path).expect("save effort");
                path
            })
            .collect();
        let rebuilt = rebuild_from_cache(&teacher_path, &effort_paths, &config, &dataset);
        std::fs::remove_dir_all(&dir).ok();

        let batch: Vec<&Sample> = dataset.train.iter().take(config.cka_batch).collect();
        assert_eq!(rebuilt.cka, compute_cka_matrix(&teacher, &batch));
    }
}
