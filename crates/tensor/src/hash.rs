//! 128-bit structural content hashing for weight deduplication.
//!
//! The effort ladder derives every level from one backbone, so most
//! prepared layers across levels are bit-for-bit identical. The
//! content-addressed store in `pivot-nn` keys shared panels by a hash of
//! their defining bits; this module provides that hash.
//!
//! The function is FNV-1a widened to 128 bits and fed 64-bit words
//! instead of bytes: `state = (state ^ word) * PRIME` per word, which
//! keeps the hot loop at one multiply per 8 bytes while retaining FNV's
//! per-word avalanche-through-multiplication. At 128 bits, accidental
//! collision between distinct weight tensors is negligible (birthday
//! bound ~2^64 tensors), so store lookups trust the hash without a
//! verify-on-hit pass — the same reasoning as content-addressed object
//! stores. The hash is **structural**: callers absorb shape and
//! quantizer fields alongside raw bits, so tensors with identical bytes
//! but different shapes (or quant grids) never alias.
//!
//! Determinism: `f32` values are absorbed via [`f32::to_bits`], so the
//! hash distinguishes `-0.0` from `0.0` and every NaN payload — exactly
//! the bit-identity granularity the dedup contract needs (two layers
//! share storage only if inference through them is bit-identical).

/// Incremental 128-bit FNV-1a-style hasher over 64-bit words.
///
/// # Example
///
/// ```
/// use pivot_tensor::ContentHasher;
///
/// let mut a = ContentHasher::new();
/// a.write_f32_slice(&[1.0, 2.0]);
/// let mut b = ContentHasher::new();
/// b.write_f32_slice(&[1.0, 2.0]);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl ContentHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs one 64-bit word.
    pub fn write_u64(&mut self, word: u64) {
        self.state = (self.state ^ u128::from(word)).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a `u32` (widened; domain-separated by the caller's field
    /// order, which is fixed per type).
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Absorbs a `usize` (shape fields).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `i32` via its two's-complement bits.
    pub fn write_i32(&mut self, v: i32) {
        self.write_u64(u64::from(v as u32));
    }

    /// Absorbs one `f32` by bit pattern.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u64(u64::from(v.to_bits()));
    }

    /// Absorbs a slice of `f32` by bit pattern, two lanes per word.
    ///
    /// The slice length is absorbed first so `[x]` followed by `[y]`
    /// never collides with `[x, y]` across separate calls.
    pub fn write_f32_slice(&mut self, values: &[f32]) {
        self.write_usize(values.len());
        let mut chunks = values.chunks_exact(2);
        for pair in &mut chunks {
            let word = u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
            self.write_u64(word);
        }
        if let [tail] = chunks.remainder() {
            self.write_u64(u64::from(tail.to_bits()));
        }
    }

    /// Absorbs a slice of `i8`, eight lanes per word.
    pub fn write_i8_slice(&mut self, values: &[i8]) {
        self.write_usize(values.len());
        let mut chunks = values.chunks_exact(8);
        for octet in &mut chunks {
            let mut bytes = [0u8; 8];
            for (b, &v) in bytes.iter_mut().zip(octet) {
                *b = v as u8;
            }
            self.write_u64(u64::from_le_bytes(bytes));
        }
        let remainder = chunks.remainder();
        if !remainder.is_empty() {
            let mut bytes = [0u8; 8];
            for (b, &v) in bytes.iter_mut().zip(remainder) {
                *b = v as u8;
            }
            self.write_u64(u64::from_le_bytes(bytes));
        }
    }

    /// Absorbs a slice of `usize` (index lists, e.g. poisoned columns).
    pub(crate) fn write_usize_slice(&mut self, values: &[usize]) {
        self.write_usize(values.len());
        for &v in values {
            self.write_usize(v);
        }
    }

    /// The accumulated 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_hash_identically() {
        let mut a = ContentHasher::new();
        let mut b = ContentHasher::new();
        for h in [&mut a, &mut b] {
            h.write_usize(3);
            h.write_f32_slice(&[1.0, -2.5, 0.125]);
            h.write_i8_slice(&[1, -1, 127, -128, 0]);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base = {
            let mut h = ContentHasher::new();
            h.write_f32_slice(&[1.0, 2.0, 3.0]);
            h.finish()
        };
        let flipped = {
            let mut h = ContentHasher::new();
            h.write_f32_slice(&[1.0, 2.0, f32::from_bits(3.0f32.to_bits() ^ 1)]);
            h.finish()
        };
        assert_ne!(base, flipped);
    }

    #[test]
    fn negative_zero_and_nan_payloads_are_distinguished() {
        let h = |v: f32| {
            let mut h = ContentHasher::new();
            h.write_f32(v);
            h.finish()
        };
        assert_ne!(h(0.0), h(-0.0));
        assert_ne!(
            h(f32::from_bits(0x7fc0_0000)),
            h(f32::from_bits(0x7fc0_0001))
        );
    }

    #[test]
    fn length_prefix_prevents_concatenation_aliasing() {
        let split = {
            let mut h = ContentHasher::new();
            h.write_f32_slice(&[1.0]);
            h.write_f32_slice(&[2.0]);
            h.finish()
        };
        let joined = {
            let mut h = ContentHasher::new();
            h.write_f32_slice(&[1.0, 2.0]);
            h.finish()
        };
        assert_ne!(split, joined);
    }

    #[test]
    fn i8_tail_is_absorbed() {
        let a = {
            let mut h = ContentHasher::new();
            h.write_i8_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
            h.finish()
        };
        let b = {
            let mut h = ContentHasher::new();
            h.write_i8_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
            h.finish()
        };
        assert_ne!(a, b);
    }
}
