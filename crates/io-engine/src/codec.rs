//! In-situ compression codecs: the data-reduction axis of the engine.
//!
//! AMRIC (Wang et al.) shows in-situ compression of AMR field data is the
//! highest-leverage way to shrink plotfile I/O volume without changing the
//! write topology, and Hercule treats compression as a first-class axis of
//! the I/O stack. A [`Codec`] transforms the *logical* bytes a workload
//! produces into the *physical* bytes a backend ships to storage:
//!
//! * [`Identity`] — pass-through; physical == logical.
//! * [`Rle`] — lossless PackBits-style run-length coding of the raw byte
//!   stream. Real payloads are actually encoded (with a raw fallback when
//!   the data does not compress); account-only payloads use a modeled
//!   ratio, since run lengths cannot be known from a size alone.
//! * [`LossyQuant`] — block-wise lossy quantization of `f64` fields: each
//!   block of values is reduced to a `(min, scale)` header plus `bits`
//!   packed bits per value (the AMRIC-style error-bounded reduction).
//!   The encoded size is a pure function of the logical size, so the
//!   account-only oracle path and the materialized path agree exactly.
//!
//! Codecs also carry a modeled CPU cost ([`Codec::cpu_ns_per_byte`], per
//! *logical* byte) which the burst scheduler charges as application
//! compute time before each dump drains — compression trades CPU for wire
//! bytes, and both sides of that trade are simulated.

use crate::backend::Payload;
use iosim::IoKind;
use serde::{Deserialize, Serialize};

/// Everything a codec may condition on when encoding one put.
#[derive(Clone, Copy, Debug)]
pub struct CodecContext<'a> {
    /// AMR refinement level of the put (`0` for MACSio).
    pub level: u32,
    /// Data or metadata classification.
    pub kind: IoKind,
    /// Logical file path of the put.
    pub path: &'a str,
}

/// A compression codec: maps logical payloads to physical payloads.
///
/// Contract shared by all implementations:
///
/// * `encode` never returns more bytes than it was given (implementations
///   with an expanding worst case must fall back to the raw input);
/// * `encoded_size` is the exact size `encode` would produce whenever that
///   size is a pure function of the input length, and a *modeled* size
///   otherwise — in both cases `encoded_size(n) <= n`;
/// * `decode` inverts `encode` given the original logical length and the
///   same context: byte-exact for lossless codecs, a
///   `logical_len`-byte reconstruction within the error bound for lossy
///   ones — and `encode(decode(y)) == y` either way (decode/re-encode is
///   a fixed point);
/// * `cpu_ns_per_byte` is charged per **logical** byte, on both the
///   encode (write) and decode (restart read) sides.
///
/// Implementations must be `Sync`: the compression stage's parallel
/// encode mode shares one codec across scoped worker threads (per-chunk
/// encode is a pure function of the chunk and its context).
pub trait Codec: Send + Sync {
    /// Short human-readable codec name (e.g. `"rle:2"`, `"quant:8"`).
    fn name(&self) -> String;

    /// True for the pass-through codec (lets callers skip staging).
    fn is_identity(&self) -> bool {
        false
    }

    /// True when `decode(encode(x)) == x` byte-for-byte.
    fn is_lossless(&self) -> bool {
        true
    }

    /// Encodes materialized bytes. Must not expand.
    fn encode(&self, data: &[u8], ctx: &CodecContext<'_>) -> Vec<u8>;

    /// Decodes an encoded stream back to `logical_len` logical bytes
    /// (the length is the reader's record from the sidecar/index — lossy
    /// block formats are not self-delimiting).
    fn decode(&self, data: &[u8], logical_len: u64, ctx: &CodecContext<'_>) -> Vec<u8>;

    /// Physical size for a logical size (exact where derivable, modeled
    /// otherwise). Must satisfy `encoded_size(n, ctx) <= n`.
    fn encoded_size(&self, logical: u64, ctx: &CodecContext<'_>) -> u64;

    /// Modeled CPU cost per logical byte, in nanoseconds.
    fn cpu_ns_per_byte(&self) -> f64;
}

// --------------------------------------------------------------------------
// Identity

/// The pass-through codec.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Identity;

impl Codec for Identity {
    fn name(&self) -> String {
        "identity".to_string()
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn encode(&self, data: &[u8], _ctx: &CodecContext<'_>) -> Vec<u8> {
        data.to_vec()
    }

    fn decode(&self, data: &[u8], _logical_len: u64, _ctx: &CodecContext<'_>) -> Vec<u8> {
        data.to_vec()
    }

    fn encoded_size(&self, logical: u64, _ctx: &CodecContext<'_>) -> u64 {
        logical
    }

    fn cpu_ns_per_byte(&self) -> f64 {
        0.0
    }
}

// --------------------------------------------------------------------------
// Rle

/// Lossless PackBits-style run-length coding.
///
/// Control byte `n`: `0..=127` means `n + 1` literal bytes follow;
/// `129..=255` means the next byte repeats `257 - n` times; `128` is
/// unused. Worst case expands by 1/128 — the compression stage falls back
/// to the raw payload in that case, so physical bytes never exceed
/// logical bytes.
#[derive(Clone, Copy, Debug)]
pub struct Rle {
    /// Modeled compression ratio for account-only payloads (> 1).
    pub modeled_ratio: f64,
    /// Modeled CPU cost per logical byte (ns).
    pub cpu_ns: f64,
}

impl Default for Rle {
    fn default() -> Self {
        Self {
            modeled_ratio: DEFAULT_RLE_RATIO,
            cpu_ns: 0.8,
        }
    }
}

impl Rle {
    /// An RLE codec with the given modeled ratio for size-only payloads.
    pub(crate) fn new(modeled_ratio: f64) -> Self {
        assert!(modeled_ratio >= 1.0, "Rle: modeled ratio must be >= 1");
        Self {
            modeled_ratio,
            ..Self::default()
        }
    }

    /// Decodes a PackBits stream (tests and readers).
    pub fn decode(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() * 2);
        let mut i = 0;
        while i < data.len() {
            let ctl = data[i];
            i += 1;
            if ctl <= 127 {
                let n = ctl as usize + 1;
                out.extend_from_slice(&data[i..i + n]);
                i += n;
            } else if ctl >= 129 {
                let n = 257 - ctl as usize;
                out.extend(std::iter::repeat_n(data[i], n));
                i += 1;
            }
        }
        out
    }
}

impl Codec for Rle {
    fn name(&self) -> String {
        format!("rle:{}", self.modeled_ratio)
    }

    fn encode(&self, data: &[u8], _ctx: &CodecContext<'_>) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 2);
        let mut i = 0;
        while i < data.len() {
            // Measure the run starting at i (capped at 128).
            let b = data[i];
            let mut run = 1usize;
            while run < 128 && i + run < data.len() && data[i + run] == b {
                run += 1;
            }
            if run >= 3 {
                out.push((257 - run) as u8);
                out.push(b);
                i += run;
            } else {
                // Literal stretch: until the next run of >= 3 (max 128).
                // The first position can never start such a run (the outer
                // measurement just found run < 3 here), so the loop always
                // emits at least one literal byte.
                let start = i;
                let mut len = 0usize;
                while len < 128 && i < data.len() {
                    let c = data[i];
                    let mut r = 1usize;
                    while r < 3 && i + r < data.len() && data[i + r] == c {
                        r += 1;
                    }
                    if r >= 3 {
                        break;
                    }
                    i += 1;
                    len += 1;
                }
                out.push((len - 1) as u8);
                out.extend_from_slice(&data[start..start + len]);
            }
        }
        out
    }

    fn decode(&self, data: &[u8], logical_len: u64, _ctx: &CodecContext<'_>) -> Vec<u8> {
        let out = Rle::decode(data);
        debug_assert_eq!(out.len() as u64, logical_len, "Rle: length mismatch");
        out
    }

    fn encoded_size(&self, logical: u64, _ctx: &CodecContext<'_>) -> u64 {
        // Modeled: run-lengths are unknowable from a size alone.
        ((logical as f64 / self.modeled_ratio).round() as u64).min(logical)
    }

    fn cpu_ns_per_byte(&self) -> f64 {
        self.cpu_ns
    }
}

// --------------------------------------------------------------------------
// LossyQuant

/// Values per quantization block.
pub(crate) const QUANT_BLOCK_VALUES: u64 = 256;
/// Per-block header: `min: f64` + `scale: f64`, little-endian.
pub(crate) const QUANT_BLOCK_HEADER: u64 = 16;

/// Block-wise lossy quantization of `f64` fields (see module docs).
#[derive(Clone, Debug)]
pub(crate) struct LossyQuant {
    /// Packed bits per value (1..=16).
    pub bits: u8,
    /// Modeled CPU cost per logical byte (ns).
    pub cpu_ns: f64,
}

impl LossyQuant {
    /// A quantizer packing `bits` bits per value everywhere.
    pub(crate) fn new(bits: u8) -> Self {
        assert!((1..=16).contains(&bits), "LossyQuant: bits must be 1..=16");
        Self { bits, cpu_ns: 1.5 }
    }

    /// Exact encoded size of `nvals` values plus `tail` raw bytes.
    fn size_for(bits: u8, nvals: u64, tail: u64) -> u64 {
        let full = nvals / QUANT_BLOCK_VALUES;
        let rem = nvals % QUANT_BLOCK_VALUES;
        let mut size = full * (QUANT_BLOCK_HEADER + (QUANT_BLOCK_VALUES * bits as u64).div_ceil(8));
        if rem > 0 {
            size += QUANT_BLOCK_HEADER + (rem * bits as u64).div_ceil(8);
        }
        size + tail
    }
}

impl Codec for LossyQuant {
    fn name(&self) -> String {
        format!("quant:{}", self.bits)
    }

    fn is_lossless(&self) -> bool {
        false
    }

    fn encode(&self, data: &[u8], _ctx: &CodecContext<'_>) -> Vec<u8> {
        let bits = self.bits as u32;
        let nvals = (data.len() / 8) as u64;
        let tail = data.len() - nvals as usize * 8;
        let mut out = Vec::with_capacity(Self::size_for(bits as u8, nvals, tail as u64) as usize);
        for block in data[..nvals as usize * 8].chunks(QUANT_BLOCK_VALUES as usize * 8) {
            let vals: Vec<f64> = block
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let levels = ((1u64 << bits) - 1) as f64;
            // Degenerate blocks get an explicit zero scale: constant
            // blocks (max == min, where (v - min) / scale would be 0/0 =
            // NaN and silently cast to index 0), ranges so extreme that
            // max - min overflows to infinity, and subnormal ranges whose
            // scale underflows. A zero scale means "every value decodes
            // to min" — exact for constant blocks, clamped otherwise.
            let range = max - min;
            let scale = if range > 0.0 && range.is_finite() {
                range / levels
            } else {
                0.0
            };
            out.extend_from_slice(&min.to_le_bytes());
            out.extend_from_slice(&scale.to_le_bytes());
            // Pack quantized values little-endian, LSB first.
            let mut acc: u64 = 0;
            let mut nbits: u32 = 0;
            for v in &vals {
                let q = if scale > 0.0 {
                    let t = (v - min) / scale;
                    // Non-finite values (NaN/inf inputs) clamp to index 0
                    // explicitly instead of through a silent NaN cast.
                    if t.is_finite() {
                        (t.round() as u64).min(levels as u64)
                    } else {
                        0
                    }
                } else {
                    0
                };
                acc |= q << nbits;
                nbits += bits;
                while nbits >= 8 {
                    out.push((acc & 0xFF) as u8);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                out.push((acc & 0xFF) as u8);
            }
        }
        out.extend_from_slice(&data[nvals as usize * 8..]);
        out
    }

    fn decode(&self, data: &[u8], logical_len: u64, _ctx: &CodecContext<'_>) -> Vec<u8> {
        let bits = self.bits as u32;
        let nvals = (logical_len / 8) as usize;
        let tail = (logical_len % 8) as usize;
        let mut out = Vec::with_capacity(logical_len as usize);
        let mut pos = 0usize;
        let mut remaining = nvals;
        while remaining > 0 {
            let block_vals = remaining.min(QUANT_BLOCK_VALUES as usize);
            let min = f64::from_le_bytes(data[pos..pos + 8].try_into().expect("block header"));
            let scale =
                f64::from_le_bytes(data[pos + 8..pos + 16].try_into().expect("block header"));
            pos += 16;
            // Unpack little-endian, LSB first — the mirror of encode.
            let mut acc: u64 = 0;
            let mut nbits: u32 = 0;
            let mask: u64 = (1u64 << bits) - 1;
            for _ in 0..block_vals {
                while nbits < bits {
                    acc |= (data[pos] as u64) << nbits;
                    pos += 1;
                    nbits += 8;
                }
                let q = acc & mask;
                acc >>= bits;
                nbits -= bits;
                let v = min + q as f64 * scale;
                out.extend_from_slice(&v.to_le_bytes());
            }
            remaining -= block_vals;
        }
        out.extend_from_slice(&data[pos..pos + tail]);
        debug_assert_eq!(out.len() as u64, logical_len);
        out
    }

    fn encoded_size(&self, logical: u64, _ctx: &CodecContext<'_>) -> u64 {
        let bits = self.bits;
        let nvals = logical / 8;
        let tail = logical % 8;
        Self::size_for(bits, nvals, tail).min(logical)
    }

    fn cpu_ns_per_byte(&self) -> f64 {
        self.cpu_ns
    }
}

// --------------------------------------------------------------------------
// CodecSpec

/// Default modeled ratio for [`Rle`] account-only payloads: AMR field
/// dumps are dominated by near-constant regions (the unshocked ambient
/// state), which byte-level RLE collapses well.
pub(crate) const DEFAULT_RLE_RATIO: f64 = 2.0;

/// Default quantization precision (bits per `f64` value).
pub(crate) const DEFAULT_QUANT_BITS: u8 = 8;

/// Which compression codec a run writes through — the serializable spec
/// CLIs and campaign configs carry (mirrors [`crate::BackendSpec`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum CodecSpec {
    /// Pass-through (physical == logical).
    #[default]
    Identity,
    /// Lossless RLE with the given modeled ratio for size-only payloads.
    Rle(f64),
    /// Block-wise lossy quantization at the given bits per value.
    LossyQuant(u8),
}

impl CodecSpec {
    /// Parses a CLI spelling:
    /// `none` | `identity` | `rle[:<ratio>]` | `quant[:<bits>]`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match head {
            "none" | "identity" => match arg {
                None => Ok(CodecSpec::Identity),
                Some(a) => Err(format!("codec 'identity' takes no argument, got '{a}'")),
            },
            "rle" => {
                let ratio = match arg {
                    None => DEFAULT_RLE_RATIO,
                    Some(a) => a
                        .parse::<f64>()
                        .map_err(|_| format!("bad rle ratio '{a}'"))?,
                };
                if !ratio.is_finite() || ratio < 1.0 {
                    return Err("rle ratio must be >= 1".to_string());
                }
                Ok(CodecSpec::Rle(ratio))
            }
            "quant" | "lossy" => {
                let bits = match arg {
                    None => DEFAULT_QUANT_BITS,
                    Some(a) => a
                        .parse::<u8>()
                        .map_err(|_| format!("bad quant bits '{a}'"))?,
                };
                if !(1..=16).contains(&bits) {
                    return Err("quant bits must be 1..=16".to_string());
                }
                Ok(CodecSpec::LossyQuant(bits))
            }
            other => Err(format!(
                "unknown codec '{other}' (expected identity, rle[:<ratio>], or quant[:<bits>])"
            )),
        }
    }

    /// The canonical CLI spelling.
    pub fn name(&self) -> String {
        match self {
            CodecSpec::Identity => "identity".to_string(),
            CodecSpec::Rle(r) => format!("rle:{r}"),
            CodecSpec::LossyQuant(b) => format!("quant:{b}"),
        }
    }

    /// True for the pass-through spec.
    pub(crate) fn is_identity(&self) -> bool {
        matches!(self, CodecSpec::Identity)
    }

    /// Builds the live codec.
    pub fn build(&self) -> Box<dyn Codec> {
        match *self {
            CodecSpec::Identity => Box::new(Identity),
            CodecSpec::Rle(ratio) => Box::new(Rle::new(ratio)),
            CodecSpec::LossyQuant(bits) => Box::new(LossyQuant::new(bits)),
        }
    }
}

/// Applies a codec to one logical payload, never expanding: materialized
/// bytes that fail to compress stay raw (the sidecar records the method),
/// size-only payloads use the codec's modeled/exact size. Returns the
/// physical payload and whether encoding was applied.
pub(crate) fn encode_payload(
    codec: &dyn Codec,
    payload: Payload,
    ctx: &CodecContext<'_>,
) -> (Payload, bool) {
    match payload {
        Payload::Bytes(b) => {
            let logical = b.len() as u64;
            let encoded = codec.encode(&b, ctx);
            if (encoded.len() as u64) < logical {
                (
                    Payload::Encoded {
                        data: encoded.into(),
                        logical,
                    },
                    true,
                )
            } else {
                // Raw fallback: the original shared buffer flows on
                // untouched (never-expand keeps it zero-copy too).
                (Payload::Bytes(b), false)
            }
        }
        Payload::Size(n) => {
            let physical = codec.encoded_size(n, ctx).min(n);
            if physical < n {
                (
                    Payload::EncodedSize {
                        physical,
                        logical: n,
                    },
                    true,
                )
            } else {
                (Payload::Size(n), false)
            }
        }
        already @ (Payload::Encoded { .. } | Payload::EncodedSize { .. }) => (already, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(level: u32, path: &'static str) -> CodecContext<'static> {
        CodecContext {
            level,
            kind: IoKind::Data,
            path,
        }
    }

    #[test]
    fn identity_is_exact() {
        let c = Identity;
        assert!(c.is_identity());
        assert_eq!(c.encode(b"abc", &ctx(0, "/f")), b"abc");
        assert_eq!(c.encoded_size(1234, &ctx(0, "/f")), 1234);
        assert_eq!(c.cpu_ns_per_byte(), 0.0);
    }

    #[test]
    fn rle_round_trips() {
        let c = Rle::default();
        for data in [
            b"aaaaaaaaaabbbbbbbbbb".to_vec(),
            b"abcdefgh".to_vec(),
            vec![0u8; 1000],
            (0..=255u8).collect::<Vec<u8>>(),
            b"aaabccc".to_vec(),
            Vec::new(),
            vec![7u8; 129], // run longer than the 128 cap
        ] {
            let enc = c.encode(&data, &ctx(0, "/f"));
            assert_eq!(Rle::decode(&enc), data, "round trip for {data:?}");
        }
    }

    #[test]
    fn rle_compresses_runs_and_models_sizes() {
        let c = Rle::new(4.0);
        let runs = vec![0u8; 4096];
        let enc = c.encode(&runs, &ctx(0, "/f"));
        // Runs cap at 128 bytes per control pair: 4096 / 128 * 2 = 64.
        assert_eq!(enc.len(), 64, "runs collapse");
        // Modeled size-only path.
        assert_eq!(c.encoded_size(4000, &ctx(0, "/f")), 1000);
        assert!(c.encoded_size(10, &ctx(0, "/f")) <= 10);
    }

    #[test]
    fn quant_size_matches_encode_exactly() {
        let c = LossyQuant::new(8);
        for nvals in [0usize, 1, 255, 256, 257, 1000] {
            for tail in [0usize, 3] {
                let mut data = Vec::new();
                for i in 0..nvals {
                    data.extend_from_slice(&(i as f64).sin().to_le_bytes());
                }
                data.extend(std::iter::repeat_n(9u8, tail));
                // encode() realizes exactly the size the formula predicts
                // (the raw fallback for tiny expanding inputs lives in
                // `encode_payload`, not in the codec itself) ...
                let enc = c.encode(&data, &ctx(0, "/f"));
                assert_eq!(
                    enc.len() as u64,
                    LossyQuant::size_for(8, nvals as u64, tail as u64),
                    "nvals {nvals} tail {tail}"
                );
                // ... while encoded_size never exceeds the logical size.
                let modeled = c.encoded_size(data.len() as u64, &ctx(0, "/f"));
                assert!(modeled <= data.len() as u64);
                assert_eq!(modeled, (enc.len() as u64).min(data.len() as u64));
            }
        }
    }

    #[test]
    fn quant_ratio_tracks_bits() {
        let big = 256_000u64; // 32k values
        let r8 = big as f64 / LossyQuant::new(8).encoded_size(big, &ctx(0, "/f")) as f64;
        let r4 = big as f64 / LossyQuant::new(4).encoded_size(big, &ctx(0, "/f")) as f64;
        assert!(r8 > 6.0 && r8 < 8.0, "8-bit ratio {r8}");
        assert!(r4 > 11.0 && r4 < 16.0, "4-bit ratio {r4}");
    }

    #[test]
    fn quant_error_is_bounded_by_scale() {
        let c = LossyQuant::new(8);
        let vals: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let enc = c.encode(&data, &ctx(0, "/f"));
        let min = f64::from_le_bytes(enc[0..8].try_into().unwrap());
        let scale = f64::from_le_bytes(enc[8..16].try_into().unwrap());
        // Decode value 0 from the packed stream (8 bits -> one byte each).
        let q0 = enc[16] as f64;
        let v0 = min + q0 * scale;
        assert!((v0 - vals[0]).abs() <= scale / 2.0 + 1e-12);
    }

    #[test]
    fn quant_decode_reconstructs_within_scale() {
        let c = LossyQuant::new(8);
        for nvals in [1usize, 255, 256, 300, 1000] {
            for tail in [0usize, 5] {
                let mut data = Vec::new();
                for i in 0..nvals {
                    data.extend_from_slice(&((i as f64 * 0.37).sin() * 3.0).to_le_bytes());
                }
                data.extend((0..tail).map(|i| i as u8));
                let enc = c.encode(&data, &ctx(0, "/f"));
                let dec = c.decode(&enc, data.len() as u64, &ctx(0, "/f"));
                assert_eq!(dec.len(), data.len(), "nvals {nvals} tail {tail}");
                // Tail bytes pass through raw.
                assert_eq!(&dec[nvals * 8..], &data[nvals * 8..]);
                // Values reconstruct within half a quantization step.
                for (d, o) in dec[..nvals * 8].chunks_exact(8).zip(data.chunks_exact(8)) {
                    let dv = f64::from_le_bytes(d.try_into().unwrap());
                    let ov = f64::from_le_bytes(o.try_into().unwrap());
                    assert!((dv - ov).abs() <= 6.0 / 255.0 / 2.0 + 1e-12, "{dv} vs {ov}");
                }
                // Decode/re-encode is a fixed point of the format.
                assert_eq!(c.encode(&dec, &ctx(0, "/f")), enc);
            }
        }
    }

    #[test]
    fn quant_constant_block_round_trips_exactly() {
        // Regression: a constant-valued block has max == min; the scale
        // must be an explicit 0 (not a 0/0 NaN silently cast to index 0),
        // and the decode must reproduce the constant bit-exactly.
        let c = LossyQuant::new(8);
        for value in [0.0f64, -3.25, 1e300, f64::MIN_POSITIVE] {
            let data: Vec<u8> = std::iter::repeat_n(value, 500)
                .flat_map(f64::to_le_bytes)
                .collect();
            let enc = c.encode(&data, &ctx(0, "/f"));
            let scale = f64::from_le_bytes(enc[8..16].try_into().unwrap());
            assert_eq!(scale, 0.0, "constant block stores zero scale");
            let dec = c.decode(&enc, data.len() as u64, &ctx(0, "/f"));
            assert_eq!(dec, data, "constant field must restart bit-exactly");
        }
    }

    #[test]
    fn quant_degenerate_blocks_never_emit_nan() {
        let c = LossyQuant::new(8);
        // Range overflowing to infinity, and non-finite inputs.
        for vals in [
            vec![f64::MAX, -f64::MAX, 0.0, 1.0],
            vec![f64::NAN, 1.0, 2.0, 3.0],
            vec![f64::INFINITY, 0.5, -0.5, 0.0],
        ] {
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let enc = c.encode(&data, &ctx(0, "/f"));
            let scale = f64::from_le_bytes(enc[8..16].try_into().unwrap());
            assert!(scale.is_finite(), "scale stays finite: {scale}");
            let dec = c.decode(&enc, data.len() as u64, &ctx(0, "/f"));
            // min + q * scale with finite scale: finite whenever the
            // block min is finite.
            if vals.iter().all(|v| v.is_finite()) {
                for chunk in dec.chunks_exact(8) {
                    let v = f64::from_le_bytes(chunk.try_into().unwrap());
                    assert!(v.is_finite(), "decoded NaN/inf from finite input");
                }
            }
        }
    }

    #[test]
    fn quant_lattice_fields_round_trip_bit_exactly() {
        // Integer-valued fields anchored at 0 and 255 quantize with
        // scale 1.0 at 8 bits: q == v exactly, so even the lossy codec
        // restarts bit-exactly on lattice data.
        let c = LossyQuant::new(8);
        let vals: Vec<f64> = (0..512).map(|i| (i * 7 % 256) as f64).collect();
        let mut vals = vals;
        for block in vals.chunks_mut(256) {
            block[0] = 0.0;
            let last = block.len() - 1;
            block[last] = 255.0;
        }
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let enc = c.encode(&data, &ctx(0, "/f"));
        assert!(enc.len() < data.len());
        assert_eq!(c.decode(&enc, data.len() as u64, &ctx(0, "/f")), data);
    }

    #[test]
    fn lossless_flags() {
        assert!(Identity.is_lossless());
        assert!(Rle::default().is_lossless());
        assert!(!LossyQuant::new(8).is_lossless());
    }

    #[test]
    fn rle_codec_decode_matches_static_decode() {
        let c = Rle::default();
        let data = b"aaaaaabcdefggggggg".to_vec();
        let enc = c.encode(&data, &ctx(0, "/f"));
        assert_eq!(
            Codec::decode(&c, &enc, data.len() as u64, &ctx(0, "/f")),
            data
        );
    }

    #[test]
    fn encode_payload_never_expands() {
        let c = Rle::default();
        // Incompressible bytes stay raw.
        let noise: Vec<u8> = (0..997u32).map(|i| (i * 131 % 251) as u8).collect();
        let (p, encoded) = encode_payload(&c, Payload::Bytes(noise.clone().into()), &ctx(0, "/f"));
        assert!(!encoded);
        assert_eq!(p.len(), noise.len() as u64);
        assert_eq!(p.logical_len(), noise.len() as u64);
        // Compressible bytes shrink, logical length preserved.
        let (p, encoded) = encode_payload(&c, Payload::Bytes(vec![0; 1000].into()), &ctx(0, "/f"));
        assert!(encoded);
        assert!(p.len() < 1000);
        assert_eq!(p.logical_len(), 1000);
        // Size-only payloads use the model.
        let (p, encoded) = encode_payload(&c, Payload::Size(1000), &ctx(0, "/f"));
        assert!(encoded);
        assert_eq!(p.len(), 500);
        assert_eq!(p.logical_len(), 1000);
    }

    #[test]
    fn spec_parse_spellings() {
        assert_eq!(CodecSpec::parse("identity").unwrap(), CodecSpec::Identity);
        assert_eq!(CodecSpec::parse("none").unwrap(), CodecSpec::Identity);
        assert_eq!(CodecSpec::parse("rle").unwrap(), CodecSpec::Rle(2.0));
        assert_eq!(CodecSpec::parse("rle:3.5").unwrap(), CodecSpec::Rle(3.5));
        assert_eq!(CodecSpec::parse("quant").unwrap(), CodecSpec::LossyQuant(8));
        assert_eq!(
            CodecSpec::parse("quant:4").unwrap(),
            CodecSpec::LossyQuant(4)
        );
        assert!(CodecSpec::parse("quant:0").is_err());
        assert!(CodecSpec::parse("quant:17").is_err());
        assert!(CodecSpec::parse("rle:0.5").is_err());
        assert!(CodecSpec::parse("zstd").is_err());
    }

    #[test]
    fn spec_name_round_trips() {
        for spec in [
            CodecSpec::Identity,
            CodecSpec::Rle(2.5),
            CodecSpec::LossyQuant(12),
        ] {
            assert_eq!(CodecSpec::parse(&spec.name()).unwrap(), spec);
        }
    }

    #[test]
    fn spec_serde_round_trip() {
        use serde::{Deserialize as _, Serialize as _};
        for spec in [
            CodecSpec::Identity,
            CodecSpec::Rle(2.0),
            CodecSpec::LossyQuant(8),
        ] {
            let v = spec.to_value();
            assert_eq!(CodecSpec::from_value(&v).unwrap(), spec);
        }
    }
}
