//! Shared experiment state: datasets, trained model families, simulator.

use pivot_core::{EffortModel, PipelineConfig, PivotArtifacts, PivotPipeline};
use pivot_data::{Dataset, DatasetConfig, Sample};
use pivot_sim::{AcceleratorConfig, Simulator, VitGeometry};
use pivot_vit::{TrainConfig, VitConfig};
use std::path::PathBuf;

/// Experiment scale, selected with `PIVOT_PROFILE=fast|full` (default
/// `fast`; any other value is an error). `full` trains larger stand-ins
/// for longer and prepares the paper's complete effort ladders; `fast`
/// finishes a family in about a minute on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small models, short training, sparse effort ladder.
    Fast,
    /// Larger models, longer training, the paper's full effort ladder.
    Full,
}

impl Profile {
    /// Reads the profile from the `PIVOT_PROFILE` environment variable:
    /// unset or `fast` is [`Profile::Fast`], `full` is [`Profile::Full`],
    /// and anything else is an error naming the value.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("PIVOT_PROFILE");
        Self::parse(value.map(|v| v.to_string_lossy().into_owned()).as_deref())
    }

    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("fast") => Ok(Profile::Fast),
            Some("full") => Ok(Profile::Full),
            Some(other) => Err(format!("unknown PIVOT_PROFILE `{other}`")),
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
    /// Loads (from the checkpoint cache) or trains both families at
    /// `profile`'s scale.
    pub fn load(profile: Profile) -> Self {
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

/// Trains `family` at `profile`'s scale, or loads whatever of it is
/// checkpointed under `target/pivot-cache/<profile>/<family>/`.
fn load_or_train_family(profile: Profile, family: Family, dataset: &Dataset) -> FamilyArtifacts {
    let dir = PathBuf::from("target")
        .join("pivot-cache")
        .join(profile.name())
        .join(family.cache_tag());
    eprintln!(
        "[harness] {} family (profile {}): checkpoints in {}, missing models are trained",
        family.cache_tag(),
        profile.name(),
        dir.display()
    );
    let config = profile.pipeline_config(family, dataset.config.classes);
    FamilyArtifacts {
        label: family.geometry().name.clone(),
        geometry: family.geometry(),
        artifacts: PivotPipeline::new(config)
            .with_checkpoints(dir)
            .run(dataset),
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
    fn profile_parse_accepts_only_unset_fast_and_full() {
        assert_eq!(Profile::parse(None), Ok(Profile::Fast));
        assert_eq!(Profile::parse(Some("fast")), Ok(Profile::Fast));
        assert_eq!(Profile::parse(Some("full")), Ok(Profile::Full));
        // Regression: a typo used to run the fast profile without a word.
        let error = Profile::parse(Some("Full")).unwrap_err();
        assert!(error.contains("`Full`"), "{error}");
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
}
