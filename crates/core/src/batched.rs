//! Chunked batched inference over sample sets.
//!
//! Every sample-sweep in `pivot-core` (cache builds, cascade evaluation,
//! ladder evaluation) needs the same primitive: per-sample logits for a
//! list of images, from one or several prepared models.
//! `batched_logits_shared` runs them through
//! [`PreparedModel::forward_batch_shared`] in fixed-size chunks distributed
//! over [`par_map`]'s scoped workers, so models that share their embedding
//! and leading blocks compute those once per chunk; [`batched_logits`] is
//! its one-model call. The prepared views materialize every layer's
//! effective (fake-quantized) weight exactly once — before the sweep
//! starts — so the chunks do zero per-call weight work, and chunk images
//! are passed by reference, so no pixel data is cloned either.
//!
//! The batched forward is bit-identical to per-sample `infer` row by row,
//! and chunk boundaries only decide which rows share a GEMM — so the
//! returned logits are bit-identical to the per-sample path for every
//! chunk size, worker count, and scheduling.

use crate::parallel::{par_map, Parallelism};
use pivot_tensor::Matrix;
use pivot_vit::PreparedModel;

/// Samples per batched forward call.
///
/// Large enough to feed the blocked matmul kernel multi-tile row counts;
/// small enough that a chunk's activations stay cache-resident and
/// [`par_map`] has chunks to balance across threads.
pub const EVAL_BATCH: usize = 32;

/// Per-sample logits (`1 x num_classes` each, in item order) for arbitrary
/// items carrying an image, computed in [`EVAL_BATCH`]-sized chunks on
/// [`par_map`]'s workers against a prepared (weights-materialized-once)
/// model view: `batched_logits_shared` over one model. Labeled samples
/// pass `|s| &s.image`.
pub fn batched_logits<T: Sync>(
    model: &PreparedModel,
    items: &[T],
    image: impl for<'a> Fn(&'a T) -> &'a Matrix + Sync,
    par: Parallelism,
) -> Vec<Matrix> {
    batched_logits_shared(&[model], items, image, par)
        .pop()
        .expect("one model in, one logits list out")
}

/// [`batched_logits`] for several models at once, one logits list per
/// model (in `models` order): each chunk runs through
/// [`PreparedModel::forward_batch_shared`], so models that share their
/// embedding and leading blocks compute them once per chunk.
/// Bit-identical to one [`batched_logits`] call per model.
pub(crate) fn batched_logits_shared<T: Sync>(
    models: &[&PreparedModel],
    items: &[T],
    image: impl for<'a> Fn(&'a T) -> &'a Matrix + Sync,
    par: Parallelism,
) -> Vec<Vec<Matrix>> {
    let ranges = chunk_ranges(items.len());
    let chunks = par_map(&ranges, par, |_, &(start, end)| {
        let images: Vec<&Matrix> = items[start..end].iter().map(&image).collect();
        PreparedModel::forward_batch_shared(models, &images)
    });
    (0..models.len())
        .map(|m| split_rows(chunks.iter().map(|per_model| &per_model[m])))
        .collect()
}

fn chunk_ranges(len: usize) -> Vec<(usize, usize)> {
    (0..len)
        .step_by(EVAL_BATCH)
        .map(|start| (start, (start + EVAL_BATCH).min(len)))
        .collect()
}

fn split_rows<'a>(chunks: impl IntoIterator<Item = &'a Matrix>) -> Vec<Matrix> {
    chunks
        .into_iter()
        .flat_map(|logits| (0..logits.rows()).map(|r| logits.slice_rows(r, r + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::{Dataset, DatasetConfig};
    use pivot_tensor::Rng;
    use pivot_vit::{VisionTransformer, VitConfig};

    #[test]
    fn batched_logits_are_bit_identical_to_per_sample_infer() {
        let prepared = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(0)).prepare();
        // More samples than one chunk, with a ragged tail.
        let samples = Dataset::generate_difficulty_stripes(
            &DatasetConfig::small(),
            &[0.2, 0.8],
            EVAL_BATCH / 2 + 3,
            1,
        );
        assert!(samples.len() > EVAL_BATCH && !samples.len().is_multiple_of(EVAL_BATCH));
        for par in [Parallelism::Off, Parallelism::Fixed(4)] {
            let logits = batched_logits(&prepared, &samples, |s| &s.image, par);
            assert_eq!(logits.len(), samples.len());
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(
                    logits[i],
                    prepared.infer(&s.image),
                    "sample {i} under {par:?}"
                );
            }
        }
    }

    #[test]
    fn empty_set_yields_no_logits() {
        let model = VisionTransformer::new(&VitConfig::test_small(), &mut Rng::new(2));
        let none: &[pivot_data::Sample] = &[];
        assert!(batched_logits(&model.prepare(), none, |s| &s.image, Parallelism::Auto).is_empty());
    }
}
