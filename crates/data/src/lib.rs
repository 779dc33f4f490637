//! Synthetic difficulty-controlled image classification dataset.
//!
//! The paper evaluates on ImageNet-1K, which is unavailable in this
//! reproduction (see `DESIGN.md` §2). This crate provides the substitute: a
//! K-class dataset of parametric grayscale patterns whose **difficulty is a
//! generation-time parameter**. Easy samples are clean, high-contrast
//! instances of their class pattern; hard samples carry structured noise,
//! distractor patterns blended in from *other* classes, geometric jitter and
//! reduced contrast.
//!
//! This preserves exactly the property PIVOT's input-aware cascade needs —
//! inputs of varying feature complexity, where confident (low-entropy)
//! predictions are possible for easy inputs — while additionally giving
//! ground-truth difficulty labels that let the test suite verify
//! input-awareness directly (something ImageNet cannot do).
//!
//! # Example
//!
//! ```
//! use pivot_data::{Dataset, DatasetConfig};
//!
//! let data = Dataset::generate(&DatasetConfig::small(), 42);
//! assert_eq!(data.train.len(), DatasetConfig::small().train_per_class * DatasetConfig::small().classes);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod drift;
mod generator;
mod sampler;

pub use drift::DriftSchedule;
pub use generator::{pattern, PatternKind};
pub use sampler::BatchIter;

use pivot_tensor::{Matrix, Rng};

/// One labeled image with its ground-truth generation difficulty.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Grayscale pixels in `[0, 1]`, `image_size x image_size`.
    pub image: Matrix,
    /// Class index in `[0, classes)`.
    pub label: usize,
    /// Generation difficulty in `[0, 1]` (0 = clean, 1 = hardest).
    pub difficulty: f32,
}

/// Generation parameters for a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of classes `K` (max 10 distinct pattern families).
    pub classes: usize,
    /// Square image side in pixels.
    pub image_size: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples generated per class.
    pub test_per_class: usize,
    /// Difficulty range sampled uniformly for each image.
    pub difficulty: (f32, f32),
}

impl DatasetConfig {
    /// The default configuration used by the experiment harnesses:
    /// 10 classes of 32x32 images.
    pub fn standard() -> Self {
        Self {
            classes: 10,
            image_size: 32,
            train_per_class: 200,
            test_per_class: 50,
            difficulty: (0.0, 1.0),
        }
    }

    /// A small configuration for fast unit tests.
    pub fn small() -> Self {
        Self {
            classes: 4,
            image_size: 16,
            train_per_class: 25,
            test_per_class: 10,
            difficulty: (0.0, 1.0),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if classes is 0 or exceeds the available pattern families, if
    /// the image is smaller than 8 pixels, or the difficulty range is not in
    /// `[0, 1]` with `lo <= hi`.
    pub fn validate(&self) {
        assert!(
            (1..=PatternKind::COUNT).contains(&self.classes),
            "classes must be in 1..={}",
            PatternKind::COUNT
        );
        assert!(self.image_size >= 8, "image_size must be >= 8");
        let (lo, hi) = self.difficulty;
        assert!(
            (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi,
            "difficulty range must satisfy 0 <= lo <= hi <= 1"
        );
    }
}

/// A generated train/test split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The configuration the dataset was generated from.
    pub config: DatasetConfig,
    /// Training samples (difficulties sampled from the configured range).
    pub train: Vec<Sample>,
    /// Held-out test samples.
    pub test: Vec<Sample>,
}

impl Dataset {
    /// Generates a dataset deterministically from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DatasetConfig::validate`]).
    pub fn generate(config: &DatasetConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = Rng::new(seed);
        let mut train = Vec::with_capacity(config.classes * config.train_per_class);
        let mut test = Vec::with_capacity(config.classes * config.test_per_class);
        for label in 0..config.classes {
            for _ in 0..config.train_per_class {
                train.push(Self::sample(config, label, None, &mut rng));
            }
            for _ in 0..config.test_per_class {
                test.push(Self::sample(config, label, None, &mut rng));
            }
        }
        rng.shuffle(&mut train);
        rng.shuffle(&mut test);
        Self {
            config: *config,
            train,
            test,
        }
    }

    /// Generates an evaluation set where every sample has one of the given
    /// difficulties (cycled), e.g. `&[0.1, 0.9]` for an easy/hard stripe
    /// test. Sample count is `per_difficulty * difficulties.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `difficulties` is empty or the configuration is invalid.
    pub fn generate_difficulty_stripes(
        config: &DatasetConfig,
        difficulties: &[f32],
        per_difficulty: usize,
        seed: u64,
    ) -> Vec<Sample> {
        config.validate();
        assert!(!difficulties.is_empty(), "difficulties must be non-empty");
        let mut rng = Rng::new(seed);
        let mut samples = Vec::with_capacity(per_difficulty * difficulties.len());
        for &d in difficulties {
            for _ in 0..per_difficulty {
                let label = rng.below(config.classes);
                samples.push(Self::sample(config, label, Some(d), &mut rng));
            }
        }
        rng.shuffle(&mut samples);
        samples
    }

    fn sample(
        config: &DatasetConfig,
        label: usize,
        forced_difficulty: Option<f32>,
        rng: &mut Rng,
    ) -> Sample {
        let (lo, hi) = config.difficulty;
        let difficulty =
            forced_difficulty.unwrap_or_else(|| if lo < hi { rng.uniform(lo, hi) } else { lo });
        let image = generator::render(
            PatternKind::from_index(label),
            config.image_size,
            difficulty,
            config.classes,
            rng,
        );
        Sample {
            image,
            label,
            difficulty,
        }
    }

    /// Iterator over shuffled mini-batches of training indices.
    pub fn train_batches(&self, batch_size: usize, rng: &mut Rng) -> BatchIter {
        BatchIter::new(self.train.len(), batch_size, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DatasetConfig::small();
        let a = Dataset::generate(&cfg, 7);
        let b = Dataset::generate(&cfg, 7);
        assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.iter().zip(&b.train) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.image, y.image);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = DatasetConfig::small();
        let a = Dataset::generate(&cfg, 1);
        let b = Dataset::generate(&cfg, 2);
        assert!(a
            .train
            .iter()
            .zip(&b.train)
            .any(|(x, y)| x.image != y.image));
    }

    #[test]
    fn sizes_and_labels() {
        let cfg = DatasetConfig::small();
        let d = Dataset::generate(&cfg, 3);
        assert_eq!(d.train.len(), cfg.classes * cfg.train_per_class);
        assert_eq!(d.test.len(), cfg.classes * cfg.test_per_class);
        for s in d.train.iter().chain(&d.test) {
            assert!(s.label < cfg.classes);
            assert_eq!(s.image.shape(), (cfg.image_size, cfg.image_size));
            assert!((0.0..=1.0).contains(&s.difficulty));
        }
    }

    #[test]
    fn pixels_are_in_unit_range() {
        let d = Dataset::generate(&DatasetConfig::small(), 11);
        for s in &d.train {
            for &p in s.image.as_slice() {
                assert!((0.0..=1.0).contains(&p), "pixel {p} out of range");
            }
        }
    }

    /// Easy images must be classifiable by a trivial nearest-centroid rule;
    /// hard images must be substantially harder. This is the property the
    /// whole entropy-cascade mechanism rests on.
    #[test]
    fn difficulty_knob_controls_separability() {
        let cfg = DatasetConfig {
            classes: 4,
            image_size: 16,
            ..DatasetConfig::small()
        };
        let easy = Dataset::generate_difficulty_stripes(&cfg, &[0.05], 40, 5);
        let hard = Dataset::generate_difficulty_stripes(&cfg, &[0.95], 40, 6);

        // Centroids from an independent easy set.
        let reference = Dataset::generate_difficulty_stripes(&cfg, &[0.05], 60, 7);
        let mut centroids = vec![Matrix::zeros(16, 16); 4];
        let mut counts = vec![0usize; 4];
        for s in &reference {
            centroids[s.label].add_scaled_in_place(&s.image, 1.0);
            counts[s.label] += 1;
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            if *n > 0 {
                c.scale_in_place(1.0 / *n as f32);
            }
        }
        let classify = |s: &Sample| -> usize {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, c) in centroids.iter().enumerate() {
                let d = (&s.image - c).frobenius_norm();
                if d < best_d {
                    best_d = d;
                    best = k;
                }
            }
            best
        };
        let acc = |set: &[Sample]| {
            set.iter().filter(|s| classify(s) == s.label).count() as f32 / set.len() as f32
        };
        let easy_acc = acc(&easy);
        let hard_acc = acc(&hard);
        assert!(easy_acc > 0.9, "easy accuracy {easy_acc} too low");
        assert!(
            easy_acc - hard_acc > 0.1,
            "difficulty gap too small: {easy_acc} vs {hard_acc}"
        );
    }

    #[test]
    fn stripes_respect_forced_difficulty() {
        let cfg = DatasetConfig::small();
        let set = Dataset::generate_difficulty_stripes(&cfg, &[0.2, 0.8], 5, 9);
        assert_eq!(set.len(), 10);
        assert!(set
            .iter()
            .all(|s| s.difficulty == 0.2 || s.difficulty == 0.8));
    }

    #[test]
    #[should_panic(expected = "classes must be in")]
    fn too_many_classes_panics() {
        let cfg = DatasetConfig {
            classes: 99,
            ..DatasetConfig::small()
        };
        let _ = Dataset::generate(&cfg, 0);
    }
}
