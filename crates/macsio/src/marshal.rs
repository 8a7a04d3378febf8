//! Part marshalling: turning mesh parts into file bytes.
//!
//! Two interfaces (see [`crate::config::Interface`]):
//!
//! * `miftmpl` — a JSON header describing the part followed by the bulk
//!   variable data as raw little-endian doubles. On-disk bytes track the
//!   nominal part size (8 bytes per value plus a small header), which is
//!   the size behaviour the paper's Eq. (3) calibration relies on.
//! * `json` — everything as JSON text, inflating every value to its
//!   decimal representation. Exists to quantify how output-format
//!   expansion shifts the Eq. (3) correction factor (`ablations` bench).
//!
//! Marshalling is append-style: [`marshal_part_into`] writes header and
//! values straight into the caller's buffer (a rank's final blob), so each
//! value is stored once; [`marshal_part`] is its allocating wrapper.
//!
//! Part headers are written from a fixed text template around their
//! decimal fields, so their length is arithmetic: [`marshal_header_len`]
//! counts the template and the digits without formatting anything, and
//! [`marshal_root_len`] does the same for the root file. The `json!`
//! header builder the template replaced is its oracle, asserted in debug
//! builds on every part; the root file, once per dump, is still built by
//! `json!`, and debug builds assert its twin where it is written.

use crate::config::Interface;
use crate::mesh::MeshPart;
use serde_json::json;
use std::io::Write as _;

/// Mean on-disk bytes per value of the text `json` interface's `{:.8e}`
/// formatting, including the separating comma (e.g. `2.98765432e0,`).
/// Measured by `json_bytes_per_value_constant_is_accurate`.
pub(crate) const JSON_BYTES_PER_VALUE: f64 = 13.0;

/// A part header's text around its six fields (interface name, dump, id,
/// nx, ny, vars): the compact JSON `header_oracle` prints.
const HEADER: [&str; 7] = [
    "{\"macsio\":{\"interface\":\"",
    "\",\"dump\":",
    ",\"part\":{\"id\":",
    ",\"topology\":\"rectilinear2d\",\"dims\":[",
    ",",
    "],\"vars\":",
    "}}}",
];

/// The text [`marshal_root`]'s `json!` builder prints around a root
/// file's fields (dump, nprocs, the comma-joined parts per rank), before
/// the `meta_size` filler.
const ROOT: [&str; 4] = [
    "{\"macsio_root\":{\"dump\":",
    ",\"nprocs\":",
    ",\"parts_per_rank\":[",
    "]}}",
];

/// Text `json` parts splice the data field in place of the header's last
/// `}` and close it after the values.
const JSON_DATA_OPEN: &[u8] = b",\"data\":[";
const JSON_DATA_CLOSE: &[u8] = b"]}";

fn template_len(pieces: &[&str]) -> usize {
    pieces.iter().map(|p| p.len()).sum()
}

/// Decimal digits of `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Byte length of the part header alone (everything before the bulk data,
/// plus the text interface's closing `]}`): the template and the digits
/// of its fields, counted without formatting — used by the size predictor.
pub(crate) fn marshal_header_len(part: &MeshPart, dump: u32, interface: Interface) -> usize {
    let text = template_len(&HEADER)
        + interface.name().len()
        + decimal_len(dump.into())
        + [part.id, part.nx, part.ny, part.vars]
            .iter()
            .map(|&n| decimal_len(n as u64))
            .sum::<usize>();
    match interface {
        Interface::Miftmpl => text + 1, // newline before payload
        Interface::Json => text - 1 + JSON_DATA_OPEN.len() + JSON_DATA_CLOSE.len(),
    }
}

/// Serialized form of one part, in a buffer of its own.
pub fn marshal_part(part: &MeshPart, dump: u32, interface: Interface) -> Vec<u8> {
    let mut out = Vec::new();
    marshal_part_into(part, dump, interface, &mut out);
    out
}

/// Appends the serialized form of one part to `out`, which for `miftmpl`
/// grows at most once, to the exact size — never when the caller pre-sized it.
pub(crate) fn marshal_part_into(
    part: &MeshPart,
    dump: u32,
    interface: Interface,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    if interface == Interface::Miftmpl {
        out.reserve_exact(
            marshal_header_len(part, dump, interface) + part.payload_bytes() as usize,
        );
    }
    write_header(part, dump, interface, out);
    debug_assert_eq!(
        &out[start..],
        header_oracle(part, dump, interface).as_bytes(),
        "part header template"
    );
    match interface {
        Interface::Miftmpl => {
            out.push(b'\n');
            debug_assert_eq!(out.len() - start, marshal_header_len(part, dump, interface));
            for var in 0..part.vars {
                part.for_each_row(var, dump, |row| {
                    out.extend(row.iter().flat_map(|v| v.to_le_bytes()))
                });
            }
        }
        Interface::Json => {
            // Values and variables each write a trailing comma; the last
            // one is dropped.
            out.pop();
            out.extend_from_slice(JSON_DATA_OPEN);
            for var in 0..part.vars {
                out.push(b'[');
                part.for_each_row(var, dump, |row| {
                    for v in row {
                        let _ = write!(out, "{v:.8e},");
                    }
                });
                out.pop_if(|b| *b == b',');
                out.extend_from_slice(b"],");
            }
            out.pop_if(|b| *b == b',');
            out.extend_from_slice(JSON_DATA_CLOSE);
        }
    }
}

/// Appends the part header: [`HEADER`] around its fields, in one `write!`.
fn write_header(part: &MeshPart, dump: u32, interface: Interface, out: &mut Vec<u8>) {
    let [a, b, c, d, e, f, g] = HEADER;
    let (name, id, nx, ny, vars) = (interface.name(), part.id, part.nx, part.ny, part.vars);
    let _ = write!(out, "{a}{name}{b}{dump}{c}{id}{d}{nx}{e}{ny}{f}{vars}{g}");
}

/// The part header as the `json!` builder prints it: the oracle of
/// [`HEADER`] and [`marshal_header_len`].
fn header_oracle(part: &MeshPart, dump: u32, interface: Interface) -> String {
    let header = json!({
        "macsio": {
            "interface": interface.name(),
            "dump": dump,
            "part": {
                "id": part.id,
                "topology": "rectilinear2d",
                "dims": [part.nx, part.ny],
                "vars": part.vars,
            },
        }
    });
    serde_json::to_string(&header).expect("header serializes")
}

/// `marshal_root(dump, nprocs, parts_per_rank, meta_size).len()`, counted
/// without building the file (whose filler alone is `meta_size * nprocs`).
pub(crate) fn marshal_root_len(
    dump: u32,
    nprocs: usize,
    parts_per_rank: &[usize],
    meta_size: u64,
) -> u64 {
    let parts: usize = parts_per_rank.iter().map(|&p| decimal_len(p as u64)).sum();
    let commas = parts_per_rank.len().saturating_sub(1);
    let head = template_len(&ROOT)
        + decimal_len(dump.into())
        + decimal_len(nprocs as u64)
        + parts
        + commas;
    head as u64 + meta_size * nprocs as u64
}

/// Root (per-dump) metadata file content: run description, part table,
/// and `meta_size` bytes of filler per task.
pub fn marshal_root(dump: u32, nprocs: usize, parts_per_rank: &[usize], meta_size: u64) -> Vec<u8> {
    let root = json!({
        "macsio_root": {
            "dump": dump,
            "nprocs": nprocs,
            "parts_per_rank": parts_per_rank,
        }
    });
    let mut out = serde_json::to_vec(&root).expect("root serializes");
    // meta_size models application metadata the paper's Table II exposes;
    // filler keeps it honest in the byte accounting.
    out.extend(std::iter::repeat_n(b' ', (meta_size as usize) * nprocs));
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mesh::tests::var_data_oracle;
    use proptest::prelude::*;

    fn part() -> MeshPart {
        MeshPart::from_nominal_size(3, 8 * 1000, 2)
    }

    /// `marshal_part` as it was before the append-style marshal, verbatim
    /// over the per-cell field oracle: the byte-equality reference.
    pub(crate) fn marshal_part_oracle(part: &MeshPart, dump: u32, interface: Interface) -> Vec<u8> {
        use std::fmt::Write as _;
        let encoding = match interface {
            Interface::Miftmpl => "miftmpl",
            Interface::Json => "json",
        };
        let header = json!({
            "macsio": {
                "interface": encoding,
                "dump": dump,
                "part": {
                    "id": part.id,
                    "topology": "rectilinear2d",
                    "dims": [part.nx, part.ny],
                    "vars": part.vars,
                },
            }
        });
        let header_text = serde_json::to_string(&header).expect("header serializes");
        match interface {
            Interface::Miftmpl => {
                let mut out =
                    Vec::with_capacity(header_text.len() + 1 + part.payload_bytes() as usize);
                out.extend_from_slice(header_text.as_bytes());
                out.push(b'\n');
                for var in 0..part.vars {
                    for v in var_data_oracle(part, var, dump) {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                out
            }
            Interface::Json => {
                let mut text = header_text;
                text.pop(); // strip the closing '}' to splice in the data field
                text.push_str(",\"data\":[");
                for var in 0..part.vars {
                    if var > 0 {
                        text.push(',');
                    }
                    text.push('[');
                    for (i, v) in var_data_oracle(part, var, dump).into_iter().enumerate() {
                        if i > 0 {
                            text.push(',');
                        }
                        let _ = write!(text, "{v:.8e}");
                    }
                    text.push(']');
                }
                text.push_str("]}");
                text.into_bytes()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn marshal_part_matches_the_oracle_bytes(
            id in 0usize..5000,
            nx in 1usize..90,
            ny in 1usize..70,
            vars in 1usize..5,
            dump in 0u32..301,
        ) {
            let part = MeshPart { id, nx, ny, vars };
            for interface in [Interface::Miftmpl, Interface::Json] {
                let want = marshal_part_oracle(&part, dump, interface);
                prop_assert_eq!(&marshal_part(&part, dump, interface), &want);
                // Appending leaves what the buffer already held alone.
                let mut out = b"prefix".to_vec();
                marshal_part_into(&part, dump, interface, &mut out);
                prop_assert_eq!(&out[..6], b"prefix");
                prop_assert_eq!(&out[6..], &want[..]);
            }
        }
    }

    /// Numbers at and beside every power of ten up to `10^max_exp` (where
    /// the digit count steps), or anywhere below it.
    fn digit_steps(max_exp: u32) -> impl Strategy<Value = usize> {
        prop_oneof![
            (0..=max_exp, 0usize..3).prop_map(|(e, d)| (10usize.pow(e) + d).saturating_sub(1)),
            0..10usize.pow(max_exp) + 2,
        ]
    }

    fn any_dump() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(0u32),
            Just(u32::MAX),
            (0..10u32, 0..2u32).prop_map(|(e, d)| 10u32.pow(e) - d),
            0..u32::MAX
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn header_len_matches_the_json_oracle(
            id in digit_steps(12),
            nx in digit_steps(7),
            ny in digit_steps(7),
            vars in digit_steps(4),
            dump in any_dump(),
        ) {
            let part = MeshPart { id, nx, ny, vars };
            for interface in [Interface::Miftmpl, Interface::Json] {
                // The length rule the json!-measured predictor used.
                let text = header_oracle(&part, dump, interface);
                let want = match interface {
                    Interface::Miftmpl => text.len() + 1,
                    Interface::Json => text.len() + ",\"data\":[]}".len() - 1,
                };
                prop_assert_eq!(marshal_header_len(&part, dump, interface), want);
                let mut out = Vec::new();
                write_header(&part, dump, interface, &mut out);
                prop_assert_eq!(out, text.into_bytes());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn root_len_matches_the_marshalled_root(
            dump in any_dump(),
            nprocs in prop_oneof![digit_steps(3), 1000usize..2001],
            parts_per_rank in prop::collection::vec(digit_steps(5), 0..2001),
            meta_size in 0u64..40,
        ) {
            let root = marshal_root(dump, nprocs, &parts_per_rank, meta_size);
            prop_assert_eq!(
                marshal_root_len(dump, nprocs, &parts_per_rank, meta_size),
                root.len() as u64
            );
        }
    }

    #[test]
    fn miftmpl_wrapper_allocates_exactly_once() {
        let p = part();
        let bytes = marshal_part(&p, 4, Interface::Miftmpl);
        assert_eq!(bytes.capacity(), bytes.len());
        assert_eq!(
            bytes.len(),
            marshal_header_len(&p, 4, Interface::Miftmpl) + p.payload_bytes() as usize
        );
    }

    #[test]
    fn miftmpl_size_tracks_nominal_payload() {
        let p = part();
        let bytes = marshal_part(&p, 0, Interface::Miftmpl);
        let payload = p.payload_bytes() as usize;
        assert!(bytes.len() > payload);
        // Header overhead is small and bounded.
        assert!(bytes.len() < payload + 512, "len {}", bytes.len());
    }

    #[test]
    fn miftmpl_header_is_json_line() {
        let p = part();
        let bytes = marshal_part(&p, 7, Interface::Miftmpl);
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header: serde_json::Value = serde_json::from_slice(&bytes[..nl]).unwrap();
        assert_eq!(header["macsio"]["dump"], 7);
        assert_eq!(header["macsio"]["part"]["id"], 3);
        assert_eq!(
            bytes.len() - nl - 1,
            p.payload_bytes() as usize,
            "binary payload exactly 8 bytes/value"
        );
    }

    #[test]
    fn miftmpl_payload_round_trips() {
        let p = MeshPart::from_nominal_size(0, 8 * 16, 1);
        let bytes = marshal_part(&p, 2, Interface::Miftmpl);
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let payload = &bytes[nl + 1..];
        let first = f64::from_le_bytes(payload[0..8].try_into().unwrap());
        let mut field = Vec::new();
        p.for_each_row(0, 2, |row| field.extend_from_slice(row));
        assert_eq!(first, field[0]);
    }

    #[test]
    fn json_is_valid_and_inflated() {
        let p = part();
        let j = marshal_part(&p, 0, Interface::Json);
        let parsed: serde_json::Value = serde_json::from_slice(&j).unwrap();
        assert_eq!(parsed["macsio"]["part"]["vars"], 2);
        assert_eq!(parsed["data"][0].as_array().unwrap().len(), p.cells());
        // Text encoding costs more than 8 bytes/value.
        let bin = marshal_part(&p, 0, Interface::Miftmpl);
        assert!(j.len() > bin.len());
    }

    #[test]
    fn marshalling_is_deterministic() {
        let p = part();
        assert_eq!(
            marshal_part(&p, 1, Interface::Miftmpl),
            marshal_part(&p, 1, Interface::Miftmpl)
        );
    }

    #[test]
    fn json_bytes_per_value_constant_is_accurate() {
        // The predictor's mean-width constant must track the real
        // formatting cost of the synthetic field's value range.
        let p = MeshPart::from_nominal_size(0, 8 * 4096, 1);
        let total = marshal_part(&p, 0, Interface::Json).len();
        let header = marshal_header_len(&p, 0, Interface::Json);
        let per_value = (total - header) as f64 / p.cells() as f64;
        assert!(
            (per_value - JSON_BYTES_PER_VALUE).abs() < 0.75,
            "measured {per_value} vs constant {JSON_BYTES_PER_VALUE}"
        );
    }

    #[test]
    fn root_file_carries_meta_size() {
        let a = marshal_root(0, 4, &[1, 1, 1, 1], 0);
        let b = marshal_root(0, 4, &[1, 1, 1, 1], 100);
        assert_eq!(b.len(), a.len() + 400);
        let parsed: serde_json::Value = serde_json::from_slice(&a).unwrap();
        assert_eq!(parsed["macsio_root"]["nprocs"], 4);
    }
}
