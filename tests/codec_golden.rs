//! Byte-exact fixture for the materialized codecs: the length and an
//! FNV-1a 64 hash of `encode(x)` and of `decode(encode(x))`, for `rle`
//! and `quant:{1,3,8,12,16}`, over three families of input:
//!
//! * MACSio `miftmpl` parts (`macsio::marshal_part`) at several sizes,
//!   dumps and variable counts, so the JSON header's tail meets the
//!   field's first values at different offsets;
//! * the `Cell_D` data files of a small materialized Sedov plotfile,
//!   whose FAB headers and constant ambient regions give RLE both
//!   literal stretches and runs;
//! * adversarial `f64` blocks (NaN, ±∞, mixed ±0, subnormals, constant
//!   blocks, overflowing ranges, half-integer quantiser inputs) and
//!   small-alphabet byte streams that hit RLE's 128-byte caps, at value
//!   counts that are not a multiple of 256 and byte lengths that are not
//!   a multiple of 8.
//!
//! Sizes alone are a pure function of length for the quantiser, so this
//! is the test that pins its bytes. After a change meant to move them,
//! regenerate with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test codec_golden
//! ```

use amr_proxy_io::amrproxy::{run_simulation, CastroSedovConfig, Engine};
use amr_proxy_io::io_engine::{CodecContext, CodecSpec};
use amr_proxy_io::iosim::{IoKind, MemFs, Vfs};
use amr_proxy_io::macsio::{marshal_part, Interface, MeshPart};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A splitmix64 stream: every synthetic input is a pure function of its seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn f64_bytes(vals: impl IntoIterator<Item = f64>) -> Vec<u8> {
    vals.into_iter().flat_map(f64::to_le_bytes).collect()
}

fn with_tail(mut bytes: Vec<u8>, tail: &[u8]) -> Vec<u8> {
    bytes.extend_from_slice(tail);
    bytes
}

fn macsio_inputs(out: &mut Vec<(String, Vec<u8>)>) {
    for (id, nominal, dump, vars) in [
        (0usize, 1_000u64, 0u32, 1usize),
        (3, 4_099, 1, 2),
        (7, 65_536, 0, 1),
        (12, 200_000, 3, 3),
        (41, 1_048_576, 2, 1),
    ] {
        let part = MeshPart::from_nominal_size(id, nominal, vars);
        out.push((
            format!("macsio/id{id}/n{nominal}/d{dump}/v{vars}"),
            marshal_part(&part, dump, Interface::Miftmpl),
        ));
    }
}

fn sedov_inputs(out: &mut Vec<(String, Vec<u8>)>) {
    let cfg = CastroSedovConfig {
        engine: Engine::Hydro,
        n_cell: 32,
        max_level: 1,
        max_step: 4,
        plot_int: 4,
        nprocs: 2,
        ..Default::default()
    };
    let fs = MemFs::new();
    run_simulation(&cfg, Some(&fs as &dyn Vfs), None);
    let data: Vec<String> = fs
        .list("/")
        .into_iter()
        .filter(|p| p.contains("Cell_D_"))
        .collect();
    assert!(data.len() >= 4, "expected several Cell_D files: {data:?}");
    for path in data {
        let bytes = fs.read_file(&path).expect("retained data file");
        out.push((format!("sedov{path}"), bytes));
    }
}

fn adversarial_inputs(out: &mut Vec<(String, Vec<u8>)>) {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        -f64::MAX,
        1.0,
        -1.0,
        f64::from_bits(0x7ff8_dead_beef_0001),
    ];
    let cycle = |n: usize| (0..n).map(move |i| specials[i % specials.len()]);
    out.push((
        "f64/specials300+3".into(),
        with_tail(f64_bytes(cycle(300)), &[1, 2, 3]),
    ));
    out.push((
        "f64/signed-zeros256".into(),
        f64_bytes((0..256).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })),
    ));
    // ±0 at the bottom (min) and at the top (max) of a ranged block.
    out.push((
        "f64/zero-min300".into(),
        f64_bytes((0..300).map(|i| match i % 5 {
            0 => -0.0,
            1 => 0.0,
            _ => i as f64 * 0.25,
        })),
    ));
    out.push((
        "f64/zero-max300".into(),
        f64_bytes((0..300).map(|i| match i % 7 {
            0 => 0.0,
            3 => -0.0,
            _ => -(i as f64) * 1.5,
        })),
    ));
    out.push(("f64/constant513".into(), f64_bytes((0..513).map(|_| 3.25))));
    out.push((
        "f64/constant-negzero100+7".into(),
        with_tail(f64_bytes((0..100).map(|_| -0.0)), &[0; 7]),
    ));
    out.push((
        "f64/overflow-range260".into(),
        f64_bytes((0..260).map(|i| match i % 4 {
            0 => f64::MAX,
            1 => -f64::MAX,
            2 => 0.0,
            _ => i as f64,
        })),
    ));
    out.push((
        "f64/subnormal-range600".into(),
        f64_bytes((0..600).map(|i| f64::from_bits(1 + (i as u64 * 7919) % 4096))),
    ));
    out.push((
        "f64/all-nan256".into(),
        f64_bytes((0..256).map(|_| f64::NAN)),
    ));
    out.push((
        "f64/infinities-only64".into(),
        f64_bytes((0..64).map(|i| {
            if i % 2 == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        })),
    ));
    // At 8 bits, min 0 and max 255 give scale 1: every t is the value
    // itself, so these land exactly on and just below half-integers.
    let below_half = f64::from_bits(0.5f64.to_bits() - 1);
    out.push((
        "f64/half-integers256".into(),
        f64_bytes((0..256).map(|i| match i {
            0 => 0.0,
            255 => 255.0,
            _ if i % 2 == 0 => (i / 2) as f64 + 0.5,
            _ => (i / 2) as f64 + below_half,
        })),
    ));
    let mut rng = SplitMix(0x5eed_c0de);
    out.push((
        "f64/random-bits777+5".into(),
        with_tail(
            f64_bytes((0..777).map(|_| f64::from_bits(rng.next()))),
            &[9, 8, 7, 6, 5],
        ),
    ));
    out.push((
        "f64/smooth1000+1".into(),
        with_tail(
            f64_bytes((0..1000).map(|i| (i as f64 * 0.013).sin() * 7.0 + 2.0)),
            &[42],
        ),
    ));
    for len in [0usize, 1, 7, 8, 15] {
        out.push((format!("bytes/short{len}"), (0..len as u8).collect()));
    }
    for (alphabet, len) in [(2u64, 4099usize), (3, 2053), (256, 1031)] {
        let bytes = (0..len).map(|_| (rng.next() % alphabet) as u8).collect();
        out.push((format!("bytes/alphabet{alphabet}x{len}"), bytes));
    }
    let mut caps = Vec::new();
    for run in [2usize, 3, 127, 128, 129, 130, 256, 259, 1] {
        caps.extend(std::iter::repeat_n(run as u8, run));
        caps.extend((0..run % 131).map(|i| (i * 37 % 251) as u8));
    }
    out.push((format!("bytes/caps{}", caps.len()), caps));
}

#[test]
fn codec_bytes_reproduce_the_pinned_digests() {
    let mut inputs = Vec::new();
    macsio_inputs(&mut inputs);
    sedov_inputs(&mut inputs);
    adversarial_inputs(&mut inputs);
    let ctx = CodecContext {
        level: 0,
        kind: IoKind::Data,
        path: "/f",
    };
    let codecs = [
        CodecSpec::Rle(2.0),
        CodecSpec::LossyQuant(1),
        CodecSpec::LossyQuant(3),
        CodecSpec::LossyQuant(8),
        CodecSpec::LossyQuant(12),
        CodecSpec::LossyQuant(16),
    ];
    let mut text = String::new();
    for (label, x) in &inputs {
        for spec in codecs {
            let codec = spec.build();
            let enc = codec.encode(x, &ctx);
            let dec = codec.decode(&enc, x.len() as u64, &ctx);
            assert_eq!(dec.len(), x.len(), "{label} {}", spec.name());
            let _ = writeln!(
                text,
                "{label} {} in={} enc={} {:016x} dec={} {:016x}",
                spec.name(),
                x.len(),
                enc.len(),
                fnv1a(&enc),
                dec.len(),
                fnv1a(&dec),
            );
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec_digests.txt");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); regenerate with BLESS_GOLDEN=1")
    });
    if let Some((n, (got, want))) = text
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!("codec_digests.txt line {}: got\n{got}\nwant\n{want}", n + 1);
    }
    assert_eq!(
        text.lines().count(),
        expected.lines().count(),
        "codec_digests.txt line count"
    );
}
