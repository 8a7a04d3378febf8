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
/// * `encode` returns the codec's own stream even where it is longer than
///   the input (PackBits grows incompressible bytes by 1/128); the
///   compression stage's `encode_payload` is what keeps the raw payload
///   when the stream does not shrink, so physical bytes never exceed
///   logical bytes;
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

    /// Encodes materialized bytes; the result may be longer than `data`.
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
        unpack(data, data.len() * 2)
    }
}

/// Decodes a PackBits stream into a buffer reserved for `capacity` bytes.
fn unpack(data: &[u8], capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
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
            out.resize(out.len() + n, data[i]);
            i += 1;
        }
    }
    out
}

/// The first `p >= from` that starts three equal bytes
/// (`data[p] == data[p + 1] == data[p + 2]`), or `data.len()` when none
/// does.
///
/// Scans eight candidate positions per step: byte `k` of
/// `(w0 ^ w1) | (w0 ^ w2)`, with `w0`, `w1`, `w2` the little-endian
/// words loaded at `p`, `p + 1` and `p + 2`, is zero exactly when a
/// triple starts at `p + k`, and `(v - 0x01..) & !v & 0x80..` flags the
/// lowest zero byte exactly (only bytes above it can be flagged
/// spuriously, through the borrow). The last fewer-than-ten bytes are
/// one zero-padded word whose lanes past the last triple start are
/// masked off.
fn next_triple(data: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let zero_lanes = |w: &[u8; 10]| {
        let word = |at: usize| u64::from_le_bytes(w[at..at + 8].try_into().expect("8 bytes"));
        let v = (word(0) ^ word(1)) | (word(0) ^ word(2));
        v.wrapping_sub(ONES) & !v & HIGHS
    };
    let n = data.len();
    let mut p = from;
    while p + 10 <= n {
        let hits = zero_lanes(data[p..p + 10].try_into().expect("10 bytes"));
        if hits != 0 {
            return p + hits.trailing_zeros() as usize / 8;
        }
        p += 8;
    }
    let lanes = n.saturating_sub(2).saturating_sub(p);
    if lanes == 0 {
        return n;
    }
    let mut tail = [0u8; 10];
    tail[..n - p].copy_from_slice(&data[p..]);
    let hits = zero_lanes(&tail) & ((1u64 << (8 * lanes)) - 1);
    if hits != 0 {
        p + hits.trailing_zeros() as usize / 8
    } else {
        n
    }
}

impl Codec for Rle {
    fn name(&self) -> String {
        format!("rle:{}", self.modeled_ratio)
    }

    fn encode(&self, data: &[u8], _ctx: &CodecContext<'_>) -> Vec<u8> {
        let n = data.len();
        // Worst case: one control byte per 128 literal bytes.
        let mut out = Vec::with_capacity(n + n.div_ceil(128));
        let mut i = 0;
        while i < n {
            // Measure the run starting at i (capped at 128).
            let b = data[i];
            let run = data[i..n.min(i + 128)]
                .iter()
                .take_while(|&&c| c == b)
                .count();
            if run >= 3 {
                out.push((257 - run) as u8);
                out.push(b);
                i += run;
            } else {
                // Literal bytes up to the next run of >= 3, in stretches
                // of at most 128. No such run starts at i (the measurement
                // just found run < 3 here), nor anywhere before `end`, so
                // every stretch but the last is a full 128 bytes.
                let end = next_triple(data, i + 1);
                for stretch in data[i..end].chunks(128) {
                    out.push((stretch.len() - 1) as u8);
                    out.extend_from_slice(stretch);
                }
                i = end;
            }
        }
        // A stream that shrinks is kept as the physical payload, so it
        // must not hold on to the worst-case reservation.
        if out.len() < n {
            out.shrink_to_fit();
        }
        out
    }

    fn decode(&self, data: &[u8], logical_len: u64, _ctx: &CodecContext<'_>) -> Vec<u8> {
        let out = unpack(data, logical_len as usize);
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

/// The `(min, max)` of one block of little-endian `f64`s, bit for bit
/// what `fold(INFINITY, f64::min)` and `fold(NEG_INFINITY, f64::max)`
/// over the block's values as a `&[f64]` give.
///
/// Four independent lanes break the fold's dependency chain. `f64::min`
/// and `f64::max` skip NaN and pick the lesser or greater value, so the
/// order of the operands can change the result only where two of them
/// compare equal with different bits: `-0.0` and `+0.0`. Which zero the
/// slice fold returns then depends on how the compiler vectorizes it, so
/// a block whose lane result is a zero is folded again with that exact
/// expression. Running that fold on every block instead would be simpler,
/// but it is measurably slower.
fn block_min_max(block: &[u8]) -> (f64, f64) {
    let value = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let mut quads = block.chunks_exact(32);
    for quad in &mut quads {
        for (lane, c) in quad.chunks_exact(8).enumerate() {
            lo[lane] = lo[lane].min(value(c));
            hi[lane] = hi[lane].max(value(c));
        }
    }
    for (lane, c) in quads.remainder().chunks_exact(8).enumerate() {
        lo[lane] = lo[lane].min(value(c));
        hi[lane] = hi[lane].max(value(c));
    }
    let min = lo[0].min(lo[1]).min(lo[2].min(lo[3]));
    let max = hi[0].max(hi[1]).max(hi[2].max(hi[3]));
    if min == 0.0 || max == 0.0 {
        let mut buf = [0.0f64; QUANT_BLOCK_VALUES as usize];
        let vals = &mut buf[..block.len() / 8];
        for (v, c) in vals.iter_mut().zip(block.chunks_exact(8)) {
            *v = value(c);
        }
        (
            vals.iter().copied().fold(f64::INFINITY, f64::min),
            vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    } else {
        (min, max)
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
        let nvals = data.len() / 8;
        let tail = data.len() - nvals * 8;
        let mut out =
            Vec::with_capacity(Self::size_for(self.bits, nvals as u64, tail as u64) as usize);
        let levels = ((1u32 << bits) - 1) as f64;
        let mut q = [0u16; QUANT_BLOCK_VALUES as usize];
        for block in data[..nvals * 8].chunks(QUANT_BLOCK_VALUES as usize * 8) {
            let (min, max) = block_min_max(block);
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
            let q = &mut q[..block.len() / 8];
            if scale > 0.0 {
                // A positive scale means min and max are finite, so `t` is
                // either NaN (a NaN input, index 0) or in `0..`, where
                // floor plus an exact half test is `f64::round`. The clamp
                // keeps NaN (`NaN > levels` is false) and `t as i32` maps it
                // to 0.
                for (q, v) in q.iter_mut().zip(block.chunks_exact(8)) {
                    let v = f64::from_le_bytes(v.try_into().expect("8-byte chunk"));
                    let t = (v - min) / scale;
                    let t = if t > levels { levels } else { t };
                    let i = t as i32;
                    *q = (i + (t - i as f64 >= 0.5) as i32) as u16;
                }
            } else {
                q.fill(0);
            }
            // Pack quantized values little-endian, LSB first, 32 bits at a
            // time; the block ends on a byte boundary.
            let mut acc: u64 = 0;
            let mut nbits: u32 = 0;
            for &v in q.iter() {
                acc |= (v as u64) << nbits;
                nbits += bits;
                if nbits >= 32 {
                    out.extend_from_slice(&(acc as u32).to_le_bytes());
                    acc >>= 32;
                    nbits -= 32;
                }
            }
            out.extend_from_slice(&acc.to_le_bytes()[..nbits.div_ceil(8) as usize]);
        }
        out.extend_from_slice(&data[nvals * 8..]);
        out
    }

    fn decode(&self, data: &[u8], logical_len: u64, _ctx: &CodecContext<'_>) -> Vec<u8> {
        let bits = self.bits as u32;
        let nvals = (logical_len / 8) as usize;
        let mask: u64 = (1u64 << bits) - 1;
        let mut out = vec![0u8; logical_len as usize];
        let mut pos = 0usize;
        for block in out[..nvals * 8].chunks_mut(QUANT_BLOCK_VALUES as usize * 8) {
            let min = f64::from_le_bytes(data[pos..pos + 8].try_into().expect("block header"));
            let scale =
                f64::from_le_bytes(data[pos + 8..pos + 16].try_into().expect("block header"));
            pos += 16;
            // Unpack little-endian, LSB first — the mirror of encode.
            let mut acc: u64 = 0;
            let mut nbits: u32 = 0;
            for v in block.chunks_exact_mut(8) {
                while nbits < bits {
                    acc |= (data[pos] as u64) << nbits;
                    pos += 1;
                    nbits += 8;
                }
                let q = acc & mask;
                acc >>= bits;
                nbits -= bits;
                v.copy_from_slice(&(min + q as f64 * scale).to_le_bytes());
            }
        }
        let tail = out.len() - nvals * 8;
        out[nvals * 8..].copy_from_slice(&data[pos..pos + tail]);
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
///
/// The ratio prices `Payload::Size` only; materialized bytes are encoded
/// for real, and whether they shrink depends on the data (README's
/// compression paragraph measures both MACSio and plotfile fields).
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

/// Reference kernels: the RLE encoder and the quantiser's encoder and
/// decoder as plain byte-at-a-time and value-at-a-time loops, which the
/// live kernels must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::QUANT_BLOCK_VALUES;

    pub(super) fn rle_encode(data: &[u8]) -> Vec<u8> {
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

    pub(super) fn quant_encode(bits: u8, data: &[u8]) -> Vec<u8> {
        let bits = bits as u32;
        let nvals = data.len() / 8;
        let mut out = Vec::new();
        for block in data[..nvals * 8].chunks(QUANT_BLOCK_VALUES as usize * 8) {
            let vals: Vec<f64> = block
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let levels = ((1u64 << bits) - 1) as f64;
            let range = max - min;
            let scale = if range > 0.0 && range.is_finite() {
                range / levels
            } else {
                0.0
            };
            out.extend_from_slice(&min.to_le_bytes());
            out.extend_from_slice(&scale.to_le_bytes());
            let mut acc: u64 = 0;
            let mut nbits: u32 = 0;
            for v in &vals {
                let q = if scale > 0.0 {
                    let t = (v - min) / scale;
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
        out.extend_from_slice(&data[nvals * 8..]);
        out
    }

    pub(super) fn quant_decode(bits: u8, data: &[u8], logical_len: u64) -> Vec<u8> {
        let bits = bits as u32;
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
        out
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

    /// Values that exercise every branch of the quantiser: raw bit
    /// patterns (NaN payloads, infinities, subnormals, overflowing
    /// ranges), blocks whose minimum or maximum is a mix of `-0.0` and
    /// `+0.0` (modes 2, 3 and, cut to a short block, 5, 6), and lattices
    /// with `scale == 1` whose `t` lands on and just below half-integers.
    fn value(mode: u8, bits: u64, index: usize, levels: f64) -> f64 {
        const SPECIALS: [f64; 10] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0,
        ];
        let small = (bits >> 8 & 0xffff) as f64 / 64.0;
        match mode {
            0 => f64::from_bits(bits),
            1 => SPECIALS[(bits % 10) as usize],
            2 | 3 | 5 | 6 => {
                let v = match bits % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => small,
                };
                if mode % 3 == 2 {
                    v
                } else {
                    -v
                }
            }
            _ => match index % 256 {
                0 => 0.0,
                1 => levels,
                _ => {
                    let below_half = f64::from_bits(0.5f64.to_bits() - 1);
                    let k = (bits >> 8) % (levels as u64 + 1);
                    k as f64 + [0.0, 0.5, below_half, 0.25][(bits % 4) as usize]
                }
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn rle_matches_the_oracle_bit_for_bit(
            noise in proptest::collection::vec(0u8..=255, 0..1200),
            alphabet in 1u8..5,
            runs in proptest::collection::vec(0u64..=u64::MAX, 0..1200),
        ) {
            let c = Rle::default();
            let small: Vec<u8> = runs.iter().map(|r| (r % alphabet as u64) as u8).collect();
            for data in [noise, small] {
                let enc = c.encode(&data, &ctx(0, "/f"));
                proptest::prop_assert_eq!(&enc, &oracle::rle_encode(&data));
                let dec = Codec::decode(&c, &enc, data.len() as u64, &ctx(0, "/f"));
                proptest::prop_assert_eq!(dec, data);
            }
        }

        #[test]
        fn quant_matches_the_oracle_bit_for_bit(
            mode in 0u8..7,
            raw in proptest::collection::vec(0u64..=u64::MAX, 0..700),
            short in 1usize..40,
            tail in proptest::collection::vec(0u8..=255, 0..8),
            noise in proptest::collection::vec(0u64..=u64::MAX, 0..400),
        ) {
            // Short blocks mixing -0.0 and +0.0 are where the lane min/max
            // and the old fold pick different zeros: only the re-fold keeps
            // their headers.
            let raw = if mode >= 5 { &raw[..raw.len().min(short)] } else { &raw[..] };
            for bits in 1..=16u8 {
                let c = LossyQuant::new(bits);
                let levels = ((1u32 << bits) - 1) as f64;
                let mut data: Vec<u8> = raw
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &b)| value(mode, b, i, levels).to_le_bytes())
                    .collect();
                data.extend_from_slice(&tail);
                let enc = c.encode(&data, &ctx(0, "/f"));
                let want = oracle::quant_encode(bits, &data);
                proptest::prop_assert_eq!(&enc, &want, "bits {}", bits);
                let logical = data.len() as u64;
                proptest::prop_assert_eq!(
                    c.decode(&enc, logical, &ctx(0, "/f")),
                    oracle::quant_decode(bits, &enc, logical),
                    "bits {}", bits
                );
                // Any stream of the right length decodes the same way,
                // NaN and infinite headers included.
                let logical = noise.len() as u64;
                let size = LossyQuant::size_for(bits, logical / 8, logical % 8) as usize;
                let stream: Vec<u8> =
                    noise.iter().flat_map(|b| b.to_le_bytes()).take(size).collect();
                if stream.len() == size {
                    proptest::prop_assert_eq!(
                        c.decode(&stream, logical, &ctx(0, "/f")),
                        oracle::quant_decode(bits, &stream, logical),
                        "bits {}", bits
                    );
                }
            }
        }
    }

    #[test]
    fn quant_rounds_exactly_below_a_half_integer() {
        // min 0 and max 255 give scale 1 at 8 bits, so t is the value.
        // The largest double below 0.5 rounds to 0; `(t + 0.5) as u64`
        // would give 1, since t + 0.5 rounds up to 1.0.
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        let data: Vec<u8> = [0.0, below_half, 0.5, 1.5, 255.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let enc = LossyQuant::new(8).encode(&data, &ctx(0, "/f"));
        assert_eq!(f64::from_le_bytes(enc[8..16].try_into().unwrap()), 1.0);
        assert_eq!(&enc[16..], &[0, 0, 1, 2, 255]);
        assert_eq!(enc, oracle::quant_encode(8, &data));
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
    fn rle_stream_that_shrinks_keeps_no_spare_capacity() {
        // The stage keeps a shrunk stream as the physical payload, so its
        // worst-case reservation (n + n/128) must not travel with it.
        let enc = Rle::default().encode(&vec![0u8; 1 << 20], &ctx(0, "/f"));
        assert_eq!(enc.len(), (1 << 20) / 128 * 2);
        assert!(
            enc.capacity() < 2 * enc.len(),
            "capacity {}",
            enc.capacity()
        );
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
