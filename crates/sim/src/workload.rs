//! ViT inference workload: the layer graph PIVOT-Sim executes.

use crate::ps::PsOpKind;
use crate::report::ModuleClass;
use crate::systolic::MatmulDims;

/// Geometry of a ViT as PIVOT-Sim needs it (decoupled from the trainable
/// models in `pivot-vit` so the simulator can benchmark arbitrary ViTs, as
/// the paper advertises for PIVOT-Sim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VitGeometry {
    /// Model name used in reports.
    pub name: String,
    /// Encoder count.
    pub depth: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP hidden size.
    pub mlp_hidden: usize,
    /// Sequence length including the class token.
    pub tokens: usize,
    /// Flattened patch size (pixels * channels) feeding the patch embedding.
    pub patch_dim: usize,
    /// Classifier output classes.
    pub num_classes: usize,
}

impl VitGeometry {
    /// DeiT-S: 12 encoders, dim 384, 6 heads, MLP ratio 4, 197 tokens,
    /// 16x16x3 patches, ImageNet-1K head.
    pub fn deit_s() -> Self {
        Self {
            name: "DeiT-S".to_string(),
            depth: 12,
            dim: 384,
            heads: 6,
            mlp_hidden: 1536,
            tokens: 197,
            patch_dim: 768,
            num_classes: 1000,
        }
    }

    /// LVViT-S: 16 encoders, dim 384, 6 heads, MLP ratio 3.
    pub fn lvvit_s() -> Self {
        Self {
            name: "LVViT-S".to_string(),
            depth: 16,
            mlp_hidden: 1152,
            ..Self::deit_s()
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    /// Validates divisibility and non-zero extents.
    ///
    /// # Panics
    ///
    /// Panics on a zero extent or if `dim` is not divisible by `heads`.
    pub fn validate(&self) {
        assert!(
            self.depth > 0
                && self.dim > 0
                && self.heads > 0
                && self.mlp_hidden > 0
                && self.tokens > 1
                && self.patch_dim > 0
                && self.num_classes > 1,
            "invalid geometry {self:?}"
        );
        assert_eq!(self.dim % self.heads, 0, "dim must divide into heads");
    }
}

/// What a [`LayerOp`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `count` identical matrix multiplications on the PL systolic array
    /// (e.g. one per attention head).
    Mac {
        /// Dimensions of each multiplication.
        dims: MatmulDims,
        /// Number of identical multiplications.
        count: usize,
    },
    /// A non-linear operation of `elements` scalars on the PS.
    Ps {
        /// Operation kind.
        kind: PsOpKind,
        /// Element count.
        elements: u64,
    },
}

/// One scheduled operation of the inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerOp {
    /// Human-readable name, e.g. `"enc3.qkv"`.
    pub name: String,
    /// Reporting bucket (paper Figs. 1b / 6a).
    pub module: ModuleClass,
    /// The operation.
    pub kind: OpKind,
}

/// The full layer graph of one ViT inference under an attention-skip
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VitWorkload {
    /// Operations in execution order.
    pub ops: Vec<LayerOp>,
}

impl VitWorkload {
    /// Builds the workload for `geom` where `active_attention[i]` says
    /// whether encoder `i` executes its attention module.
    ///
    /// Per encoder with active attention: QKV, per-head QKᵀ, softmax (PS),
    /// per-head SM×V, projection, then LN + MLP (+ GELU on PS). Encoders
    /// with skipped attention execute only the LN + MLP path (paper
    /// Fig. 3b). Patch embedding, final norm, classifier head and the
    /// entropy check (PS) wrap the encoder stack.
    ///
    /// # Panics
    ///
    /// Panics if `active_attention.len() != geom.depth` or the geometry is
    /// invalid.
    pub fn build(geom: &VitGeometry, active_attention: &[bool]) -> Self {
        geom.validate();
        assert_eq!(
            active_attention.len(),
            geom.depth,
            "skip mask length {} != depth {}",
            active_attention.len(),
            geom.depth
        );
        let t = geom.tokens;
        let d = geom.dim;
        let dh = geom.head_dim();
        let h = geom.heads;
        let mut ops = Vec::new();

        ops.push(LayerOp {
            name: "patch_embed".to_string(),
            module: ModuleClass::Embed,
            kind: OpKind::Mac {
                dims: MatmulDims::new(t - 1, geom.patch_dim, d),
                count: 1,
            },
        });

        for (i, &active) in active_attention.iter().enumerate() {
            if active {
                ops.push(LayerOp {
                    name: format!("enc{i}.ln1"),
                    module: ModuleClass::Norm,
                    kind: OpKind::Ps {
                        kind: PsOpKind::LayerNorm,
                        elements: (t * d) as u64,
                    },
                });
                ops.push(LayerOp {
                    name: format!("enc{i}.qkv"),
                    module: ModuleClass::AttentionMac,
                    kind: OpKind::Mac {
                        dims: MatmulDims::new(t, d, 3 * d),
                        count: 1,
                    },
                });
                ops.push(LayerOp {
                    name: format!("enc{i}.qkt"),
                    module: ModuleClass::AttentionMac,
                    kind: OpKind::Mac {
                        dims: MatmulDims::new(t, dh, t),
                        count: h,
                    },
                });
                ops.push(LayerOp {
                    name: format!("enc{i}.softmax"),
                    module: ModuleClass::Softmax,
                    kind: OpKind::Ps {
                        kind: PsOpKind::Softmax,
                        elements: (h * t * t) as u64,
                    },
                });
                ops.push(LayerOp {
                    name: format!("enc{i}.smv"),
                    module: ModuleClass::AttentionMac,
                    kind: OpKind::Mac {
                        dims: MatmulDims::new(t, t, dh),
                        count: h,
                    },
                });
                ops.push(LayerOp {
                    name: format!("enc{i}.proj"),
                    module: ModuleClass::AttentionMac,
                    kind: OpKind::Mac {
                        dims: MatmulDims::new(t, d, d),
                        count: 1,
                    },
                });
            }
            ops.push(LayerOp {
                name: format!("enc{i}.ln2"),
                module: ModuleClass::Norm,
                kind: OpKind::Ps {
                    kind: PsOpKind::LayerNorm,
                    elements: (t * d) as u64,
                },
            });
            ops.push(LayerOp {
                name: format!("enc{i}.mlp_fc1"),
                module: ModuleClass::Mlp,
                kind: OpKind::Mac {
                    dims: MatmulDims::new(t, d, geom.mlp_hidden),
                    count: 1,
                },
            });
            ops.push(LayerOp {
                name: format!("enc{i}.gelu"),
                module: ModuleClass::Mlp,
                kind: OpKind::Ps {
                    kind: PsOpKind::Gelu,
                    elements: (t * geom.mlp_hidden) as u64,
                },
            });
            ops.push(LayerOp {
                name: format!("enc{i}.mlp_fc2"),
                module: ModuleClass::Mlp,
                kind: OpKind::Mac {
                    dims: MatmulDims::new(t, geom.mlp_hidden, d),
                    count: 1,
                },
            });
        }

        ops.push(LayerOp {
            name: "final_norm".to_string(),
            module: ModuleClass::Norm,
            kind: OpKind::Ps {
                kind: PsOpKind::LayerNorm,
                elements: (t * d) as u64,
            },
        });
        ops.push(LayerOp {
            name: "head".to_string(),
            module: ModuleClass::Head,
            kind: OpKind::Mac {
                dims: MatmulDims::new(1, d, geom.num_classes),
                count: 1,
            },
        });
        ops.push(LayerOp {
            name: "entropy".to_string(),
            module: ModuleClass::Entropy,
            kind: OpKind::Ps {
                kind: PsOpKind::Entropy,
                elements: geom.num_classes as u64,
            },
        });

        Self { ops }
    }

    /// Total MAC count of the workload.
    #[cfg(test)]
    fn total_macs(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op.kind {
                OpKind::Mac { dims, count } => dims.macs() * count as u64,
                OpKind::Ps { .. } => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deit_s_full_workload_structure() {
        let geom = VitGeometry::deit_s();
        let wl = VitWorkload::build(&geom, &[true; 12]);
        // 1 embed + 12 * (6 attn ops + 4 mlp/ln ops) + 3 tail ops.
        assert_eq!(wl.ops.len(), 1 + 12 * 10 + 3);
        // ~4.6 GMACs for DeiT-S at 197 tokens.
        let gmacs = wl.total_macs() as f64 / 1e9;
        assert!((4.0..5.2).contains(&gmacs), "DeiT-S GMACs {gmacs}");
    }

    #[test]
    fn skipping_attention_removes_its_ops() {
        let geom = VitGeometry::deit_s();
        let full = VitWorkload::build(&geom, &[true; 12]);
        let half: Vec<bool> = (0..12).map(|i| i < 6).collect();
        let skipped = VitWorkload::build(&geom, &half);
        assert!(skipped.ops.len() < full.ops.len());
        assert!(skipped.total_macs() < full.total_macs());
        // No softmax op from skipped encoders.
        let softmaxes = skipped
            .ops
            .iter()
            .filter(|o| o.module == ModuleClass::Softmax)
            .count();
        assert_eq!(softmaxes, 6);
    }

    #[test]
    fn zero_effort_keeps_mlp_only() {
        let geom = VitGeometry::deit_s();
        let wl = VitWorkload::build(&geom, &[false; 12]);
        assert!(wl.ops.iter().all(|o| o.module != ModuleClass::AttentionMac));
        assert!(wl.ops.iter().all(|o| o.module != ModuleClass::Softmax));
        let mlp_macs = wl
            .ops
            .iter()
            .filter(|o| o.module == ModuleClass::Mlp)
            .count();
        assert_eq!(mlp_macs, 12 * 3);
    }

    #[test]
    fn lvvit_differs_from_deit() {
        let deit = VitGeometry::deit_s();
        let lv = VitGeometry::lvvit_s();
        assert_eq!(lv.depth, 16);
        assert_eq!(lv.mlp_hidden, 1152);
        let wl_d = VitWorkload::build(&deit, &[true; 12]);
        let wl_l = VitWorkload::build(&lv, &[true; 16]);
        assert!(wl_l.total_macs() > wl_d.total_macs());
    }

    #[test]
    #[should_panic(expected = "skip mask length")]
    fn wrong_mask_length_panics() {
        let _ = VitWorkload::build(&VitGeometry::deit_s(), &[true; 5]);
    }

    #[test]
    fn head_dim_and_validation() {
        let geom = VitGeometry::deit_s();
        assert_eq!(geom.head_dim(), 64);
        geom.validate();
    }
}
