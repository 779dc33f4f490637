//! ViT geometry configurations.

use pivot_nn::QuantMode;
use std::error::Error;
use std::fmt;

/// A ViT configuration failed validation.
///
/// Produced by [`VitConfig::try_validate`]; checkpoint loading maps this into
/// `CheckpointError::InvalidConfig` so corrupt headers surface as typed
/// errors instead of panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// The human-readable reason validation failed.
    pub fn reason(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ViT config: {}", self.0)
    }
}

impl Error for ConfigError {}

/// Geometry and numerics of a Vision Transformer.
///
/// # Example
///
/// ```
/// let cfg = pivot_vit::VitConfig::deit_s();
/// assert_eq!(cfg.depth, 12);
/// assert_eq!(cfg.tokens(), 197);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VitConfig {
    /// Human-readable name (e.g. `"DeiT-S"`).
    pub name: String,
    /// Number of encoder blocks.
    pub depth: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Attention heads per encoder.
    pub heads: usize,
    /// MLP hidden size = `dim * mlp_ratio`.
    pub mlp_ratio: f32,
    /// Square input image side in pixels.
    pub image_size: usize,
    /// Square patch side in pixels.
    pub patch_size: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Weight numerics (the paper uses 8-bit everywhere).
    pub quant: QuantMode,
}

impl VitConfig {
    /// DeiT-S at paper scale: depth 12, dim 384, 6 heads, MLP ratio 4,
    /// 224x224 images with 16x16 patches (197 tokens), ImageNet-1K classes.
    ///
    /// Used for simulator workloads only (too large to train here).
    pub fn deit_s() -> Self {
        Self {
            name: "DeiT-S".to_string(),
            depth: 12,
            dim: 384,
            heads: 6,
            mlp_ratio: 4.0,
            image_size: 224,
            patch_size: 16,
            num_classes: 1000,
            quant: QuantMode::Int8,
        }
    }

    /// LVViT-S at paper scale: depth 16, dim 384, 6 heads, MLP ratio 3.
    ///
    /// Used for simulator workloads only.
    pub fn lvvit_s() -> Self {
        Self {
            name: "LVViT-S".to_string(),
            depth: 16,
            dim: 384,
            heads: 6,
            mlp_ratio: 3.0,
            image_size: 224,
            patch_size: 16,
            num_classes: 1000,
            quant: QuantMode::Int8,
        }
    }

    /// Trainable tiny stand-in for DeiT-S: same depth (12), dim 64, 4 heads,
    /// 32x32 images with 8x8 patches (17 tokens), 10 classes.
    pub fn tiny() -> Self {
        Self {
            name: "Tiny-DeiT".to_string(),
            depth: 12,
            dim: 64,
            heads: 4,
            mlp_ratio: 2.0,
            image_size: 32,
            patch_size: 8,
            num_classes: 10,
            quant: QuantMode::None,
        }
    }

    /// Trainable tiny stand-in for LVViT-S: depth 16, otherwise like
    /// [`VitConfig::tiny`].
    pub fn tiny_deep() -> Self {
        Self {
            name: "Tiny-LVViT".to_string(),
            depth: 16,
            ..Self::tiny()
        }
    }

    /// An even smaller configuration for fast unit tests.
    pub fn test_small() -> Self {
        Self {
            name: "Test-Small".to_string(),
            depth: 4,
            dim: 32,
            heads: 2,
            mlp_ratio: 2.0,
            image_size: 16,
            patch_size: 8,
            num_classes: 4,
            quant: QuantMode::None,
        }
    }

    /// Number of patches per image.
    pub fn num_patches(&self) -> usize {
        let per_side = self.image_size / self.patch_size;
        per_side * per_side
    }

    /// Sequence length `t` = patches + class token.
    pub fn tokens(&self) -> usize {
        self.num_patches() + 1
    }

    /// Flattened pixels per patch.
    pub fn patch_dim(&self) -> usize {
        self.patch_size * self.patch_size
    }

    /// MLP hidden size.
    pub fn mlp_hidden(&self) -> usize {
        (self.dim as f32 * self.mlp_ratio).round() as usize
    }

    /// Validates extents and divisibility, returning a typed error.
    ///
    /// Never panics, even on adversarially malformed configurations (zero
    /// patch size, non-finite MLP ratio): checkpoint headers are decoded
    /// from outside bytes, so this is the one config check with a typed
    /// error.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        fn check(ok: bool, reason: &str) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError(reason.to_string()))
            }
        }
        check(
            self.depth > 0 && self.dim > 0 && self.heads > 0,
            "zero-sized config",
        )?;
        check(self.num_classes >= 2, "need at least two classes")?;
        check(
            self.image_size > 0 && self.patch_size > 0,
            "zero-sized image or patch",
        )?;
        check(
            self.image_size.is_multiple_of(self.patch_size),
            "image must divide into patches",
        )?;
        check(
            self.dim.is_multiple_of(self.heads),
            "dim must divide into heads",
        )?;
        check(
            self.mlp_ratio.is_finite() && self.mlp_ratio > 0.0,
            "mlp_ratio must be finite and positive",
        )?;
        check(self.mlp_hidden() > 0, "mlp hidden size rounds to zero")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_geometry() {
        let d = VitConfig::deit_s();
        assert_eq!(d.tokens(), 197);
        assert_eq!(d.mlp_hidden(), 1536);
        let l = VitConfig::lvvit_s();
        assert_eq!(l.depth, 16);
        assert_eq!(l.mlp_hidden(), 1152);
        assert_eq!(d.try_validate(), Ok(()));
        assert_eq!(l.try_validate(), Ok(()));
    }

    #[test]
    fn tiny_geometry() {
        let t = VitConfig::tiny();
        assert_eq!(t.tokens(), 17);
        assert_eq!(t.patch_dim(), 64);
        assert_eq!(t.try_validate(), Ok(()));
        assert_eq!(VitConfig::tiny_deep().try_validate(), Ok(()));
        assert_eq!(VitConfig::test_small().try_validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "image must divide")]
    fn invalid_patching_panics() {
        let cfg = VitConfig {
            patch_size: 7,
            ..VitConfig::tiny()
        };
        crate::VisionTransformer::new(&cfg, &mut pivot_tensor::Rng::new(0));
    }

    #[test]
    fn try_validate_returns_typed_errors_without_panicking() {
        // Malformed fields that would previously panic (or divide by zero)
        // now surface as ConfigError — the contract checkpoint loading
        // relies on.
        let zero_patch = VitConfig {
            patch_size: 0,
            ..VitConfig::tiny()
        };
        assert!(zero_patch.try_validate().is_err());

        let nan_ratio = VitConfig {
            mlp_ratio: f32::NAN,
            ..VitConfig::tiny()
        };
        let err = nan_ratio.try_validate().unwrap_err();
        assert!(err.reason().contains("mlp_ratio"));
        assert!(err.to_string().contains("invalid ViT config"));

        assert!(VitConfig::tiny().try_validate().is_ok());
    }
}
