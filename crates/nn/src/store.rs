//! Content-addressed store of prepared layers, `Arc`-shared across
//! effort levels.
//!
//! Every level of a PIVOT effort ladder derives from the *same* backbone
//! — levels differ only in which attention blocks are skipped, and
//! skipped blocks keep their weights resident (simulated SRAM). Prepared
//! independently, an N-level ladder therefore materializes ~N bit-
//! identical copies of every effective weight (`PackedF32` panels on SIMD
//! hosts). [`PreparedStore`] is the transposition-table-style fix:
//! preparation is keyed by a 128-bit structural content hash of its
//! inputs ([`crate::PreparedLinear::content_key`]), and a key hit returns
//! a clone of the stored view whose weight payloads are `Arc`-shared with
//! every other consumer — the second through N-th levels cost a few
//! pointer bumps per layer instead of a weight materialization.
//!
//! Sharing safety: a prepared payload is immutable for its whole life —
//! no API in this crate hands out `&mut` access to the `Arc` contents —
//! so a shared panel cannot go stale under one ladder while another still
//! reads it. And because the key covers every bit preparation consumes,
//! a hit is bit-identical to preparing from scratch; the dedup is
//! invisible to inference (property-pinned in `pivot-core`).

use crate::PreparedLinear;
use std::collections::HashMap;
use std::sync::Mutex;

/// Hit/miss and byte accounting for a [`PreparedStore`].
///
/// `unique_bytes` is what the process actually holds resident;
/// `hit_bytes` is what independent preparation would have added on top.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that reused an already-prepared layer.
    pub hits: usize,
    /// Lookups that prepared a new layer.
    pub misses: usize,
    /// Weight bytes the hits avoided materializing (each hit counts the
    /// stored layer's full weight footprint).
    pub hit_bytes: usize,
    /// Weight bytes actually materialized (sum over misses).
    pub unique_bytes: usize,
}

impl StoreStats {
    /// Total prepared-layer lookups.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }

    /// Weight bytes independent preparation would have materialized.
    pub fn total_bytes(&self) -> usize {
        self.unique_bytes + self.hit_bytes
    }
}

/// Content-addressed map from a layer's content key (a 128-bit hash of
/// its quant mode, shape, weight and bias bits) to a prepared layer whose
/// weight payloads are shared behind `Arc`.
///
/// Interior-mutable and `Sync`: one store can be threaded through the
/// preparation of many models (an [`EffortLadder`]'s levels, a Phase-2
/// search's candidate pairs) from multiple threads. Preparation runs
/// under the lock, so concurrent requests for the same key never
/// materialize the weight twice.
///
/// # Example
///
/// ```
/// use pivot_nn::{Linear, PreparedStore, QuantMode};
/// use pivot_tensor::Rng;
///
/// let lin = Linear::new(4, 4, QuantMode::Int8, &mut Rng::new(0));
/// let store = PreparedStore::new();
/// let a = lin.prepare_in(&store);
/// let b = lin.prepare_in(&store);
/// assert_eq!(store.stats().hits, 1);
/// let mut seen = std::collections::HashSet::new();
/// // The second view shares the first's storage: no new unique bytes.
/// assert_eq!(a.unique_weight_bytes_into(&mut seen), a.weight_bytes());
/// assert_eq!(b.unique_weight_bytes_into(&mut seen), 0);
/// ```
///
/// [`EffortLadder`]: https://docs.rs/pivot-core
#[derive(Debug, Default)]
pub struct PreparedStore {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u128, PreparedLinear>,
    stats: StoreStats,
}

impl PreparedStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the layer stored under `key`, preparing and inserting it
    /// with `prepare` on first sight. The returned view's weight payloads
    /// are `Arc`-shared with the stored entry (and every other caller
    /// that hit the same key).
    ///
    /// The caller owes the key contract: `key` must be a structural hash
    /// of every input `prepare` consumes, as
    /// [`crate::PreparedLinear::content_key`] computes. Under that
    /// contract a hit is bit-identical to running `prepare`.
    pub(crate) fn get_or_prepare(
        &self,
        key: u128,
        prepare: impl FnOnce() -> PreparedLinear,
    ) -> PreparedLinear {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is never left in a partial state (single-call
        // inserts), so recover rather than propagate the panic.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(found) = inner.map.get(&key) {
            let found = found.clone();
            inner.stats.hits += 1;
            inner.stats.hit_bytes += found.weight_bytes();
            return found;
        }
        let prepared = prepare();
        inner.stats.misses += 1;
        inner.stats.unique_bytes += prepared.weight_bytes();
        inner.map.insert(key, prepared.clone());
        prepared
    }

    /// A snapshot of the hit/miss and byte accounting.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Number of distinct prepared layers held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// Whether the store holds no layers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, QuantMode};
    use pivot_tensor::{Matrix, Rng};
    use std::collections::HashSet;

    #[test]
    fn identical_layers_share_storage_and_distinct_ones_do_not() {
        let mut rng = Rng::new(40);
        let a = Linear::new(6, 6, QuantMode::Int8, &mut rng);
        let b = a.clone();
        let c = Linear::new(6, 6, QuantMode::Int8, &mut rng);
        let store = PreparedStore::new();
        let pa = a.prepare_in(&store);
        let pb = b.prepare_in(&store);
        let pc = c.prepare_in(&store);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(store.len(), 2);
        let mut seen = HashSet::new();
        assert_eq!(pa.unique_weight_bytes_into(&mut seen), pa.weight_bytes());
        assert_eq!(pb.unique_weight_bytes_into(&mut seen), 0);
        assert_eq!(pc.unique_weight_bytes_into(&mut seen), pc.weight_bytes());
        assert_eq!(stats.unique_bytes, pa.weight_bytes() + pc.weight_bytes());
        assert_eq!(stats.hit_bytes, pb.weight_bytes());
        assert_eq!(stats.total_bytes(), stats.unique_bytes + stats.hit_bytes);
        assert_eq!(stats.lookups(), 3);
    }

    #[test]
    fn store_hits_are_bit_identical_to_fresh_preparation() {
        let mut rng = Rng::new(41);
        let lin = Linear::new(8, 5, QuantMode::Int8, &mut rng);
        let store = PreparedStore::new();
        let _warm = lin.prepare_in(&store);
        let hit = lin.prepare_in(&store);
        let fresh = lin.prepare();
        let x = Matrix::randn(3, 8, 1.0, &mut rng);
        assert_eq!(hit.infer(&x), fresh.infer(&x));
    }

    #[test]
    fn quant_modes_over_the_same_latent_weights_do_not_share_an_entry() {
        let mut rng = Rng::new(43);
        let a = Linear::new(4, 4, QuantMode::None, &mut rng);
        let mut b = a.clone();
        b.set_quant_mode(QuantMode::Int8);
        let store = PreparedStore::new();
        let fa = a.prepare_in(&store);
        let fb = b.prepare_in(&store);
        assert_ne!(
            fa.panels.content_hash(),
            fb.panels.content_hash(),
            "modes must prepare differently"
        );
        assert_eq!(store.stats().hits, 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedStore>();
        assert_send_sync::<StoreStats>();
    }
}
