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
//!   allocation, each stored shape must be the one the model expects at
//!   that point, and no buffer is allocated larger than the bytes left in
//!   the file, so a corrupt or adversarial header cannot make the loader
//!   ask for memory the file does not back.
//! * The trailing CRC-32 (pure-Rust table implementation, no dependencies)
//!   covers every byte from the magic through the last parameter, so any
//!   single-byte corruption is detected.
//! * [`VisionTransformer::load`] returns a typed [`CheckpointError`] and
//!   never panics on malformed input. Any other magic — including the
//!   retired CRC-less `PVIT1` — is [`CheckpointError::BadMagic`], so no
//!   file loads unverified.

use crate::config::ConfigError;
use crate::{VisionTransformer, VitConfig};
use pivot_nn::{EncoderBlock, LayerNorm, Linear, Mlp, MultiHeadAttention, QuantMode};
use pivot_tensor::Matrix;
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

/// The checkpoint reader: reads the file's fields and tensors, folds every
/// byte it consumes into a running CRC-32 and counts the bytes left.
struct CheckpointReader {
    inner: BufReader<File>,
    crc: u32,
    left: u64,
}

impl CheckpointReader {
    fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let left = file.metadata()?.len();
        Ok(Self {
            inner: BufReader::new(file),
            crc: !0,
            left,
        })
    }

    fn crc(&self) -> u32 {
        !self.crc
    }

    fn read_u32(&mut self) -> io::Result<u32> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn read_u8(&mut self) -> io::Result<u8> {
        let mut buf = [0u8; 1];
        self.read_exact(&mut buf)?;
        Ok(buf[0])
    }

    /// A `u32` field, rejected as [`CheckpointError::LimitExceeded`] above
    /// `max`.
    fn capped(&mut self, field: &'static str, max: u64) -> Result<usize, CheckpointError> {
        let value = u64::from(self.read_u32()?);
        if value > max {
            return Err(CheckpointError::LimitExceeded { field, value, max });
        }
        Ok(value as usize)
    }

    /// Reads `n` bytes into a fresh buffer. Fails *before* allocating when
    /// fewer than `n` bytes are left, so no length or shape field can ask
    /// for memory the file does not back.
    fn read_bytes(&mut self, n: usize) -> io::Result<Vec<u8>> {
        if n as u64 > self.left {
            // The error `read_exact` gives at the end of the file.
            return Err(io::empty()
                .read_exact(&mut [0])
                .expect_err("an empty reader has no bytes"));
        }
        let mut buf = vec![0u8; n];
        self.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Reads one tensor: its stored shape, checked against the caps and
    /// then against the `(rows, cols)` the model expects at this point,
    /// then its little-endian f32 values in one bulk read.
    fn tensor(&mut self, rows: usize, cols: usize) -> Result<Matrix, CheckpointError> {
        let stored_rows = self.capped("param rows", MAX_PARAM_SIDE)?;
        let stored_cols = self.capped("param cols", MAX_PARAM_SIDE)?;
        if (stored_rows, stored_cols) != (rows, cols) {
            return Err(corrupt("parameter shape mismatch"));
        }
        let data = self
            .read_bytes(rows * cols * 4)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// An `in_dim x out_dim` weight and its bias row, as a [`Linear`].
    fn linear(
        &mut self,
        in_dim: usize,
        out_dim: usize,
        quant: QuantMode,
    ) -> Result<Linear, CheckpointError> {
        let weight = self.tensor(in_dim, out_dim)?;
        let bias = self.tensor(1, out_dim)?;
        Ok(Linear::from_weights(weight, bias, quant))
    }

    /// A (gamma, beta) pair, as a [`LayerNorm`].
    fn norm(&mut self, dim: usize) -> Result<LayerNorm, CheckpointError> {
        let gamma = self.tensor(1, dim)?;
        let beta = self.tensor(1, dim)?;
        Ok(LayerNorm::from_parts(gamma, beta))
    }

    /// One encoder block, in [`EncoderBlock`]'s parameter order.
    fn block(&mut self, config: &VitConfig, active: bool) -> Result<EncoderBlock, CheckpointError> {
        let (d, hidden, quant) = (config.dim, config.mlp_hidden(), config.quant);
        let ln1 = self.norm(d)?;
        let attn = MultiHeadAttention::from_parts(
            self.linear(d, d, quant)?,
            self.linear(d, d, quant)?,
            self.linear(d, d, quant)?,
            self.linear(d, d, quant)?,
            config.heads,
        );
        let ln2 = self.norm(d)?;
        let mlp = Mlp::from_parts(
            self.linear(d, hidden, quant)?,
            self.linear(hidden, d, quant)?,
        );
        Ok(EncoderBlock::from_parts(ln1, attn, ln2, mlp, active))
    }
}

impl Read for CheckpointReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        self.left = self.left.saturating_sub(n as u64);
        Ok(n)
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn corrupt(msg: &str) -> CheckpointError {
    CheckpointError::Corrupt(msg.to_string())
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
    /// on malformed input: every header field is capped before allocation,
    /// the decoded configuration is validated with
    /// [`VitConfig::try_validate`], and each tensor's stored shape is
    /// checked against the shape the model expects at that point before
    /// the tensor is allocated. The model is assembled from the tensors as
    /// they are read.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the file cannot be read, has a bad
    /// magic number, fails a cap or the CRC check, or its parameter shapes
    /// do not match the stored configuration.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let mut r = CheckpointReader::open(path)?;
        let mut magic = [0u8; 5];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC_V2 {
            return Err(CheckpointError::BadMagic);
        }

        let name_len = r.capped("name_len", MAX_NAME_LEN)?;
        let name =
            String::from_utf8(r.read_bytes(name_len)?).map_err(|_| corrupt("name is not UTF-8"))?;
        let depth = r.capped("depth", MAX_DEPTH)?;
        let dim = r.capped("dim", MAX_DIM)?;
        let heads = r.capped("heads", MAX_HEADS)?;
        let mlp_ratio = f32::from_bits(r.read_u32()?);
        if !(mlp_ratio.is_finite() && mlp_ratio > 0.0 && mlp_ratio <= MAX_MLP_RATIO) {
            return Err(corrupt("mlp_ratio out of range"));
        }
        let image_size = r.capped("image_size", MAX_IMAGE_SIZE)?;
        let patch_size = r.capped("patch_size", MAX_IMAGE_SIZE)?;
        let num_classes = r.capped("num_classes", MAX_NUM_CLASSES)?;
        let quant = match r.read_u8()? {
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
        // Reject inconsistent geometry *before* deriving shapes or building
        // a layer: the constructors assert on these and must never be
        // reachable with unvalidated bytes.
        config.try_validate()?;

        let mut mask = Vec::with_capacity(depth);
        for _ in 0..depth {
            match r.read_u8()? {
                b @ (0 | 1) => mask.push(b == 1),
                _ => return Err(corrupt("attention mask byte is not 0/1")),
            }
        }

        // Patch embedding (2), class token, positional embedding, final
        // norm (2) and head (2); per block two norms (4) and six linears
        // (12). The save -> load round trip pins this count.
        if r.capped("n_params", MAX_N_PARAMS)? != 8 + 16 * depth {
            return Err(corrupt("parameter count mismatch"));
        }
        let d = config.dim;
        let patch_embed = r.linear(config.patch_dim(), d, quant)?;
        let cls_token = r.tensor(1, d)?;
        let pos_embed = r.tensor(config.tokens(), d)?;
        let blocks = mask
            .into_iter()
            .map(|active| r.block(&config, active))
            .collect::<Result<_, _>>()?;
        let norm = r.norm(d)?;
        let head = r.linear(d, config.num_classes, quant)?;
        let model = Self::from_parts(
            config,
            patch_embed,
            cls_token,
            pos_embed,
            blocks,
            norm,
            head,
        );

        // The stored checksum itself is read past the CRC.
        let computed = r.crc();
        let mut stored = [0u8; 4];
        r.inner.read_exact(&mut stored)?;
        let stored = u32::from_le_bytes(stored);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        // The file must end exactly here; trailing bytes mean it is not what
        // it claims to be.
        match r.inner.read_exact(&mut [0u8]) {
            Ok(()) => Err(corrupt("trailing bytes after checkpoint")),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(model),
            Err(e) => Err(e.into()),
        }
    }

    /// Loads a checkpoint into an immutable [`crate::PreparedModel`]:
    /// [`VisionTransformer::load`], then [`VisionTransformer::prepare`].
    ///
    /// # Errors
    ///
    /// Same as [`VisionTransformer::load`].
    pub fn load_prepared(path: impl AsRef<Path>) -> Result<crate::PreparedModel, CheckpointError> {
        Self::load(path).map(|model| model.prepare())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_tensor::{Matrix, Rng};
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

    /// A model's configuration, mask and parameter bits, in parameter
    /// order.
    fn model_bits(model: &VisionTransformer) -> (VitConfig, Vec<usize>, Vec<Vec<u32>>) {
        let mut model = model.clone();
        let bits = model
            .params_mut()
            .iter()
            .map(|p| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        (model.config().clone(), model.active_attentions(), bits)
    }

    #[test]
    fn every_parameter_the_mask_and_the_config_round_trip_bit_for_bit() {
        let configs = [
            (VitConfig::test_small(), vec![0, 2]),
            (
                VitConfig {
                    name: "non-square".to_string(),
                    depth: 3,
                    dim: 48,
                    heads: 4,
                    mlp_ratio: 3.0,
                    image_size: 20,
                    patch_size: 4,
                    num_classes: 7,
                    quant: QuantMode::Int8,
                },
                vec![1],
            ),
        ];
        let mut rng = Rng::new(12);
        for (cfg, active) in configs {
            let mut model = VisionTransformer::new(&cfg, &mut rng);
            model.set_active_attentions(&active);
            // Distinct values in every tensor (biases and norms start as
            // constants), so a swapped pair of same-shape tensors shows.
            for p in model.params_mut() {
                let (rows, cols) = p.value.shape();
                p.value = Matrix::randn(rows, cols, 1.0, &mut rng);
            }
            let path = tmp("round_trip_bits");
            model.save(&path).expect("save");
            let loaded = VisionTransformer::load(&path).expect("load");
            std::fs::remove_file(&path).ok();
            assert!(model_bits(&loaded) == model_bits(&model), "{}", cfg.name);
            assert_eq!(loaded.config().quant, cfg.quant);
        }
    }

    #[test]
    fn load_prepared_logits_are_bit_equal_to_the_saved_models_view() {
        let cfg = VitConfig::test_small();
        let mut model = VisionTransformer::new(&cfg, &mut Rng::new(11));
        model.set_active_attentions(&[0, 2]);
        let path = tmp("load_prepared");
        model.save(&path).expect("save");
        let loaded = VisionTransformer::load_prepared(&path).expect("load_prepared");
        std::fs::remove_file(&path).ok();

        let saved = model.prepare();
        assert_eq!(loaded.config(), saved.config());
        assert_eq!(loaded.weight_bytes(), saved.weight_bytes());
        let img = Matrix::from_fn(16, 16, |r, c| ((r * 7 + c) as f32) / 97.0 - 0.4);
        let (a, b) = (loaded.infer(&img), saved.infer(&img));
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "logits must be bit-identical");
        }
    }

    #[test]
    fn a_header_that_passes_every_cap_cannot_allocate_past_the_file() {
        // Every field within its cap and a valid config, whose first
        // tensor is (2^24, 16384) f32s: 1 TiB, in a 116-byte file.
        let u32s = |bytes: &mut Vec<u8>, values: &[u32]| {
            for v in values {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        };
        let mut bytes = MAGIC_V2.to_vec();
        u32s(&mut bytes, &[1]); // name_len
        bytes.push(b'x');
        u32s(&mut bytes, &[1, 16_384, 256]); // depth, dim, heads
        bytes.extend_from_slice(&1.0f32.to_le_bytes()); // mlp_ratio
        u32s(&mut bytes, &[4096, 4096, 2]); // image and patch size, classes
        bytes.extend_from_slice(&[0, 1]); // quant None, one active attention
        u32s(&mut bytes, &[24, 1 << 24, 16_384]); // n_params, first shape
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(bytes.len(), 116);
        let path = tmp("over_allocating_header");
        std::fs::write(&path, &bytes).expect("write");
        let err = VisionTransformer::load(&path).expect_err("load must fail");
        let prepared_err = VisionTransformer::load_prepared(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        for e in [err, prepared_err] {
            assert!(
                matches!(&e, CheckpointError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof),
                "{e}"
            );
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
