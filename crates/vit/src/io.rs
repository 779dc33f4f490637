//! Model checkpointing: a small self-contained binary format.
//!
//! Layout of the `PVIT2` format, the only one read or written (little
//! endian):
//!
//! ```text
//! magic  "PVIT2"
//! config name_len:u32 name:utf8 depth:u32 dim:u32 heads:u32 mlp_ratio:f32
//!        image_size:u32 patch_size:u32 num_classes:u32 quant:u8
//! mask   depth x u8            (active attentions, strictly 0 or 1)
//! params n_params:u32, then per param: rows:u32 cols:u32 data:f32*
//! crc    crc32:u32             (IEEE CRC-32 over all preceding bytes)
//! ```
//!
//! Integrity and robustness guarantees:
//!
//! * All length/shape fields are validated against hard caps *before* any
//!   allocation, so a corrupt or adversarial header cannot drive unbounded
//!   `Vec` growth.
//! * The trailing CRC-32 (pure-Rust table implementation, no dependencies)
//!   covers every byte from the magic through the last parameter, so any
//!   single-byte corruption is detected.
//! * [`VisionTransformer::load`] returns a typed [`CheckpointError`] and
//!   never panics on malformed input. Any other magic — including the
//!   retired CRC-less `PVIT1` — is [`CheckpointError::BadMagic`], so no
//!   file loads unverified.
//!
//! For inference-only consumers, [`VisionTransformer::load_prepared`] runs
//! the same validation once and assembles the immutable prepared view
//! directly from the parsed tensors, skipping the mutable model and its
//! random initialization (the fast cold-start path).

use crate::config::ConfigError;
use crate::{VisionTransformer, VitConfig};
use pivot_nn::{
    LayerNorm, PreparedAttention, PreparedEncoderBlock, PreparedLinear, PreparedMlp, QuantMode,
};
use pivot_tensor::{Matrix, Rng};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC_V2: &[u8; 5] = b"PVIT2";

/// Hard caps on header fields, checked before any allocation. They are far
/// above every configuration this workspace ships (DeiT-S: depth 12, dim
/// 384) but low enough that a corrupt u32 cannot request a gigantic buffer.
const MAX_NAME_LEN: u64 = 4096;
const MAX_DEPTH: u64 = 512;
const MAX_DIM: u64 = 16_384;
const MAX_HEADS: u64 = 256;
const MAX_IMAGE_SIZE: u64 = 4096;
const MAX_NUM_CLASSES: u64 = 1 << 20;
const MAX_MLP_RATIO: f32 = 64.0;
const MAX_N_PARAMS: u64 = 1 << 20;
const MAX_PARAM_SIDE: u64 = 1 << 24;

/// A checkpoint could not be loaded (or, for [`CheckpointError::Io`],
/// written).
///
/// Every malformed-input path in [`VisionTransformer::load`] maps to one of
/// these variants; none of them panics.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure, including unexpected end of file.
    Io(io::Error),
    /// The file does not start with the `PVIT2` magic.
    BadMagic,
    /// A structural field is malformed or inconsistent with the model.
    Corrupt(String),
    /// A length or shape field exceeds the format's hard caps.
    LimitExceeded {
        /// Name of the offending header field.
        field: &'static str,
        /// The value found in the file.
        value: u64,
        /// The maximum the format accepts.
        max: u64,
    },
    /// The trailing CRC-32 does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes actually read.
        computed: u32,
    },
    /// The stored configuration fails [`VitConfig::try_validate`].
    InvalidConfig(ConfigError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::BadMagic => write!(f, "not a PVIT checkpoint"),
            Self::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            Self::LimitExceeded { field, value, max } => {
                write!(f, "checkpoint field {field} = {value} exceeds cap {max}")
            }
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC-32 mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::InvalidConfig(e) => write!(f, "checkpoint holds an {e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ConfigError> for CheckpointError {
    fn from(e: ConfigError) -> Self {
        Self::InvalidConfig(e)
    }
}

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = crc;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 of `bytes` (the common zlib/PNG/Ethernet polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Writer adapter that folds every written byte into a running CRC-32.
struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        Self { inner, crc: !0 }
    }

    fn crc(&self) -> u32 {
        !self.crc
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter that folds every consumed byte into a running CRC-32.
struct CrcReader<R: Read> {
    inner: R,
    crc: u32,
}

impl<R: Read> CrcReader<R> {
    fn new(inner: R) -> Self {
        Self { inner, crc: !0 }
    }

    fn crc(&self) -> u32 {
        !self.crc
    }

    /// Reads bytes *without* folding them into the CRC (used for the stored
    /// checksum itself).
    fn read_exact_raw(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)
    }
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

fn corrupt(msg: &str) -> CheckpointError {
    CheckpointError::Corrupt(msg.to_string())
}

fn capped(field: &'static str, value: u64, max: u64) -> Result<usize, CheckpointError> {
    if value > max {
        Err(CheckpointError::LimitExceeded { field, value, max })
    } else {
        Ok(value as usize)
    }
}

impl VisionTransformer {
    /// Saves the model (configuration, attention-skip mask and all
    /// parameters) in the `PVIT2` format with a trailing CRC-32.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = CrcWriter::new(BufWriter::new(File::create(path)?));
        w.write_all(MAGIC_V2)?;
        self.write_body(&mut w)?;
        let crc = w.crc();
        w.inner.write_all(&crc.to_le_bytes())?;
        w.inner.flush()
    }

    /// Writes everything after the magic: config, mask and parameters.
    fn write_body(&self, w: &mut impl Write) -> io::Result<()> {
        let cfg = self.config().clone();
        let name = cfg.name.as_bytes();
        write_u32(w, name.len() as u32)?;
        w.write_all(name)?;
        write_u32(w, cfg.depth as u32)?;
        write_u32(w, cfg.dim as u32)?;
        write_u32(w, cfg.heads as u32)?;
        write_f32(w, cfg.mlp_ratio)?;
        write_u32(w, cfg.image_size as u32)?;
        write_u32(w, cfg.patch_size as u32)?;
        write_u32(w, cfg.num_classes as u32)?;
        w.write_all(&[match cfg.quant {
            QuantMode::None => 0u8,
            QuantMode::Int8 => 1u8,
        }])?;
        let mask = self.active_attentions();
        for i in 0..cfg.depth {
            w.write_all(&[mask.contains(&i) as u8])?;
        }
        // Parameters, via a clone so the public API stays `&self`.
        let mut clone = self.clone();
        let params = clone.params_mut();
        write_u32(w, params.len() as u32)?;
        for p in params {
            write_u32(w, p.value.rows() as u32)?;
            write_u32(w, p.value.cols() as u32)?;
            for &v in p.value.as_slice() {
                write_f32(w, v)?;
            }
        }
        Ok(())
    }

    /// Loads a model saved with [`VisionTransformer::save`].
    ///
    /// Accepts the `PVIT2` format only, always CRC-verified. Never panics
    /// on malformed input: every header field is capped before allocation
    /// and the decoded configuration is validated with
    /// [`VitConfig::try_validate`] before the model is built.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the file cannot be read, has a bad
    /// magic number, fails a cap or the CRC check, or its parameter shapes
    /// do not match the stored configuration.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let RawCheckpoint {
            config,
            active,
            params,
        } = read_checkpoint(path)?;
        let mut model = VisionTransformer::new(&config, &mut Rng::new(0));
        model.set_active_attentions(&active);
        let mut slots = model.params_mut();
        debug_assert_eq!(slots.len(), params.len());
        for (slot, value) in slots.iter_mut().zip(params) {
            slot.value = value;
        }
        drop(slots);
        Ok(model)
    }

    /// Loads a checkpoint directly into an immutable [`crate::PreparedModel`],
    /// skipping the intermediate mutable model entirely.
    ///
    /// This is the fast cold-start path. [`VisionTransformer::load`] first
    /// builds a freshly initialized model (truncated-normal rejection
    /// sampling over every weight tensor) only to immediately overwrite it,
    /// and the caller then pays for [`VisionTransformer::prepare`] on top.
    /// `load_prepared` performs the exact same validation (caps, CRC, shape
    /// checks) once, then feeds the parsed tensors straight into the
    /// prepared representation. The result is bit-identical to
    /// `VisionTransformer::load(path)?.prepare()`.
    ///
    /// # Errors
    ///
    /// Same as [`VisionTransformer::load`].
    pub fn load_prepared(path: impl AsRef<Path>) -> Result<crate::PreparedModel, CheckpointError> {
        Ok(build_prepared(read_checkpoint(path)?))
    }
}

/// Everything a checkpoint stores, parsed and validated: the configuration,
/// the active-attention indices, and the parameter tensors in
/// [`param_shapes`] order.
struct RawCheckpoint {
    config: VitConfig,
    active: Vec<usize>,
    params: Vec<Matrix>,
}

/// Parameter shapes of a model built from `config`, in the exact order
/// `VisionTransformer::params_mut` yields them. Pinned against the model by
/// a test, so checkpoint parsing can validate every stored shape *without*
/// constructing (and randomly initializing) a model first.
fn param_shapes(config: &VitConfig) -> Vec<(usize, usize)> {
    let d = config.dim;
    let hidden = config.mlp_hidden();
    let mut shapes = vec![
        (config.patch_dim(), d), // patch_embed weight
        (1, d),                  // patch_embed bias
        (1, d),                  // cls token
        (config.tokens(), d),    // positional embedding
    ];
    for _ in 0..config.depth {
        shapes.extend([(1, d), (1, d)]); // ln1 gamma/beta
        for _ in 0..4 {
            shapes.extend([(d, d), (1, d)]); // wq, wk, wv, proj
        }
        shapes.extend([(1, d), (1, d)]); // ln2 gamma/beta
        shapes.extend([(d, hidden), (1, hidden)]); // fc1
        shapes.extend([(hidden, d), (1, d)]); // fc2
    }
    shapes.extend([(1, d), (1, d)]); // final norm gamma/beta
    shapes.extend([(d, config.num_classes), (1, config.num_classes)]); // head
    shapes
}

/// Reads `len` little-endian f32 values in one bulk read.
fn read_f32_vec(r: &mut impl Read, len: usize) -> io::Result<Vec<f32>> {
    let mut bytes = vec![0u8; len * 4];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Parses and fully validates a checkpoint file: magic, capped header
/// fields, config validation, attention mask, parameter shapes (against
/// [`param_shapes`], before each data allocation), CRC and the
/// trailing-byte check. Shared by [`VisionTransformer::load`] and the
/// `load_prepared*` cold-start paths.
fn read_checkpoint(path: impl AsRef<Path>) -> Result<RawCheckpoint, CheckpointError> {
    let mut r = CrcReader::new(BufReader::new(File::open(path)?));
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC_V2 {
        return Err(CheckpointError::BadMagic);
    }

    let name_len = capped("name_len", read_u32(&mut r)? as u64, MAX_NAME_LEN)?;
    let mut name_bytes = vec![0u8; name_len];
    r.read_exact(&mut name_bytes)?;
    let name = String::from_utf8(name_bytes).map_err(|_| corrupt("name is not UTF-8"))?;
    let depth = capped("depth", read_u32(&mut r)? as u64, MAX_DEPTH)?;
    let dim = capped("dim", read_u32(&mut r)? as u64, MAX_DIM)?;
    let heads = capped("heads", read_u32(&mut r)? as u64, MAX_HEADS)?;
    let mlp_ratio = read_f32(&mut r)?;
    if !(mlp_ratio.is_finite() && mlp_ratio > 0.0 && mlp_ratio <= MAX_MLP_RATIO) {
        return Err(corrupt("mlp_ratio out of range"));
    }
    let image_size = capped("image_size", read_u32(&mut r)? as u64, MAX_IMAGE_SIZE)?;
    let patch_size = capped("patch_size", read_u32(&mut r)? as u64, MAX_IMAGE_SIZE)?;
    let num_classes = capped("num_classes", read_u32(&mut r)? as u64, MAX_NUM_CLASSES)?;
    let mut quant_byte = [0u8; 1];
    r.read_exact(&mut quant_byte)?;
    let quant = match quant_byte[0] {
        0 => QuantMode::None,
        1 => QuantMode::Int8,
        _ => return Err(corrupt("unknown quant mode")),
    };
    let config = VitConfig {
        name,
        depth,
        dim,
        heads,
        mlp_ratio,
        image_size,
        patch_size,
        num_classes,
        quant,
    };
    // Reject inconsistent geometry *before* deriving shapes or building a
    // model: `VisionTransformer::new` asserts on these and must never be
    // reachable with unvalidated bytes.
    config.try_validate()?;

    let mut active = Vec::new();
    for i in 0..depth {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        match b[0] {
            0 => {}
            1 => active.push(i),
            _ => return Err(corrupt("attention mask byte is not 0/1")),
        }
    }

    let shapes = param_shapes(&config);
    let n_params = capped("n_params", read_u32(&mut r)? as u64, MAX_N_PARAMS)?;
    if n_params != shapes.len() {
        return Err(corrupt("parameter count mismatch"));
    }
    let mut params = Vec::with_capacity(shapes.len());
    for &(exp_rows, exp_cols) in &shapes {
        let rows = capped("param rows", read_u32(&mut r)? as u64, MAX_PARAM_SIDE)?;
        let cols = capped("param cols", read_u32(&mut r)? as u64, MAX_PARAM_SIDE)?;
        if (rows, cols) != (exp_rows, exp_cols) {
            return Err(corrupt("parameter shape mismatch"));
        }
        let data = read_f32_vec(&mut r, rows * cols)?;
        params.push(Matrix::from_vec(rows, cols, data));
    }

    let computed = r.crc();
    let mut stored_bytes = [0u8; 4];
    r.read_exact_raw(&mut stored_bytes)?;
    let stored = u32::from_le_bytes(stored_bytes);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    // The file must end exactly here; trailing bytes mean it is not what
    // it claims to be.
    let mut extra = [0u8; 1];
    match r.read_exact_raw(&mut extra) {
        Ok(()) => Err(corrupt("trailing bytes after checkpoint")),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(RawCheckpoint {
            config,
            active,
            params,
        }),
        Err(e) => Err(e.into()),
    }
}

/// Pops the next tensor off a shape-validated parameter stream.
fn take(params: &mut std::vec::IntoIter<Matrix>) -> Matrix {
    params.next().expect("shape-validated parameter stream")
}

/// Pops a (weight, bias) pair and prepares it.
fn take_linear(params: &mut std::vec::IntoIter<Matrix>, quant: QuantMode) -> PreparedLinear {
    let w = take(params);
    let b = take(params);
    PreparedLinear::from_weights(&w, &b, quant)
}

/// Pops a (gamma, beta) pair into a [`LayerNorm`].
fn take_norm(params: &mut std::vec::IntoIter<Matrix>) -> LayerNorm {
    let gamma = take(params);
    let beta = take(params);
    LayerNorm::from_parts(gamma, beta)
}

/// Assembles a [`crate::PreparedModel`] straight from parsed checkpoint
/// tensors, consuming them in [`param_shapes`] order. `read_checkpoint`
/// already validated every shape, so the constructors' assertions are
/// unreachable here.
fn build_prepared(raw: RawCheckpoint) -> crate::PreparedModel {
    let RawCheckpoint {
        config,
        active,
        params,
    } = raw;
    let mut it = params.into_iter();
    let patch_embed = take_linear(&mut it, config.quant);
    let cls_token = take(&mut it);
    let pos_embed = take(&mut it);
    let blocks = (0..config.depth)
        .map(|i| {
            let ln1 = take_norm(&mut it);
            let wq = take_linear(&mut it, config.quant);
            let wk = take_linear(&mut it, config.quant);
            let wv = take_linear(&mut it, config.quant);
            let proj = take_linear(&mut it, config.quant);
            let ln2 = take_norm(&mut it);
            let fc1 = take_linear(&mut it, config.quant);
            let fc2 = take_linear(&mut it, config.quant);
            PreparedEncoderBlock::from_parts(
                ln1,
                PreparedAttention::from_parts(wq, wk, wv, proj, config.heads),
                ln2,
                PreparedMlp::from_parts(fc1, fc2),
                active.contains(&i),
            )
        })
        .collect();
    let norm = take_norm(&mut it);
    let head = take_linear(&mut it, config.quant);
    debug_assert!(it.next().is_none(), "parameter stream not fully consumed");
    crate::PreparedModel {
        config,
        patch_embed,
        cls_token,
        pos_embed,
        blocks,
        norm,
        head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::Matrix;
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pivot_io_test_{name}_{}.bin", std::process::id()))
    }

    #[test]
    fn crc32_reference_vector() {
        // The standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_load_round_trip() {
        let cfg = VitConfig::test_small();
        let mut model = VisionTransformer::new(&cfg, &mut Rng::new(7));
        model.set_active_attentions(&[0, 2]);
        let path = tmp("round_trip");
        model.save(&path).expect("save");
        let loaded = VisionTransformer::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.config(), model.config());
        assert_eq!(loaded.active_attentions(), vec![0, 2]);
        let img = Matrix::from_fn(16, 16, |r, c| ((r * 16 + c) as f32) / 256.0);
        assert!(loaded.infer(&img).approx_eq(&model.infer(&img), 1e-6));
    }

    #[test]
    fn saved_files_use_pvit2_magic() {
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(3));
        let path = tmp("magic_v2");
        model.save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(&bytes[..5], MAGIC_V2);
        // Trailing four bytes are the CRC over everything before them.
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(stored, crc32(&bytes[..bytes.len() - 4]));
    }

    #[test]
    fn crc_less_pvit1_layout_is_rejected_by_both_loaders() {
        // The retired PVIT1 format was this exact layout without the CRC:
        // a file claiming it must not load unverified on either path.
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(5));
        let path = tmp("pvit1");
        model.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[..5].copy_from_slice(b"PVIT1");
        bytes.truncate(bytes.len() - 4);
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = VisionTransformer::load(&path).expect_err("load must fail");
        let prepared_err = VisionTransformer::load_prepared(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
        assert!(
            matches!(prepared_err, CheckpointError::BadMagic),
            "{prepared_err}"
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("bad_magic");
        std::fs::write(&path, b"NOTAPIVOTMODEL").expect("write");
        let err = VisionTransformer::load(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(1));
        let path = tmp("truncated");
        model.save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("rewrite");
        assert!(VisionTransformer::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(VisionTransformer::load("/nonexistent/dir/model.bin").is_err());
    }

    #[test]
    fn flipped_param_byte_fails_the_crc() {
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(2));
        let path = tmp("crc_flip");
        model.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a byte deep inside the parameter block: structurally valid,
        // only the checksum can catch it.
        let mid = bytes.len() - 64;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = VisionTransformer::load(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn absurd_length_fields_are_capped_before_allocating() {
        // magic + name_len = u32::MAX: must be rejected without trying to
        // allocate 4 GiB.
        let path = tmp("cap_name");
        let mut bytes = MAGIC_V2.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let err = VisionTransformer::load(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        match err {
            CheckpointError::LimitExceeded { field, value, .. } => {
                assert_eq!(field, "name_len");
                assert_eq!(value, u32::MAX as u64);
            }
            other => panic!("expected LimitExceeded, got {other}"),
        }
    }

    #[test]
    fn param_shapes_pin_against_model() {
        let configs = [
            VitConfig::test_small(),
            VitConfig {
                name: "pin".to_string(),
                depth: 3,
                dim: 48,
                heads: 4,
                mlp_ratio: 3.0,
                image_size: 20,
                patch_size: 4,
                num_classes: 7,
                quant: QuantMode::Int8,
            },
        ];
        for cfg in configs {
            cfg.try_validate().expect("valid config");
            let mut model = VisionTransformer::new(&cfg, &mut Rng::new(0));
            let actual: Vec<(usize, usize)> =
                model.params_mut().iter().map(|p| p.value.shape()).collect();
            assert_eq!(param_shapes(&cfg), actual, "config {}", cfg.name);
        }
    }

    #[test]
    fn load_prepared_is_bit_identical_to_load_then_prepare() {
        let cfg = VitConfig::test_small();
        let mut model = VisionTransformer::new(&cfg, &mut Rng::new(11));
        model.set_active_attentions(&[0, 2]);
        let path = tmp("load_prepared");
        model.save(&path).expect("save");

        let via_load = VisionTransformer::load(&path).expect("load");
        let slow = via_load.prepare();
        let fast = VisionTransformer::load_prepared(&path).expect("load_prepared");
        std::fs::remove_file(&path).ok();

        assert_eq!(fast.config(), slow.config());
        assert_eq!(fast.weight_bytes(), slow.weight_bytes());
        let img = Matrix::from_fn(16, 16, |r, c| ((r * 7 + c) as f32) / 97.0 - 0.4);
        let a = fast.infer(&img);
        let b = slow.infer(&img);
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "logits must be bit-identical");
        }
    }

    #[test]
    fn load_prepared_rejects_corruption_like_load() {
        let cfg = VitConfig::test_small();
        let model = VisionTransformer::new(&cfg, &mut Rng::new(4));
        let path = tmp("prepared_crc_flip");
        model.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() - 64;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = VisionTransformer::load_prepared(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(VisionTransformer::load_prepared("/nonexistent/model.bin").is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Single-byte corruption anywhere in a PVIT2 checkpoint must yield
        /// `Err` — never a panic, never a silently loaded model. The CRC-32
        /// detects all single-byte errors, so this holds for every position
        /// and every non-zero xor mask.
        #[test]
        fn corrupted_checkpoint_never_loads(pos_frac in 0.0f64..1.0, xor in 1u32..256) {
            let cfg = VitConfig::test_small();
            let model = VisionTransformer::new(&cfg, &mut Rng::new(9));
            let path = tmp("prop_corrupt");
            model.save(&path).expect("save");
            let mut bytes = std::fs::read(&path).expect("read");
            let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[pos] ^= xor as u8;
            std::fs::write(&path, &bytes).expect("rewrite");
            let outcome = std::panic::catch_unwind(|| VisionTransformer::load(&path));
            std::fs::remove_file(&path).ok();
            match outcome {
                Ok(result) => prop_assert!(
                    result.is_err(),
                    "corrupted byte {pos} (xor {xor:#x}) loaded silently"
                ),
                Err(_) => prop_assert!(false, "corrupted byte {pos} (xor {xor:#x}) panicked"),
            }
        }
    }
}
