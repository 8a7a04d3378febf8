//! Textual pieces of the AMReX native plotfile format.
//!
//! These builders reproduce the on-disk grammar of AMReX's
//! `WriteMultiLevelPlotfile`: the `HyperCLaw-V1.1` Header, the per-level
//! `Cell_H` metadata, and the `FAB` record headers inside `Cell_D` files.
//! Faithful formatting matters because the paper's dependent variable is
//! *bytes produced*, and header/metadata bytes are part of the workload.
//!
//! **The `x_len` rule.** Account-only dumps need these strings' lengths,
//! never the strings, so each formatter `x` of an accounted file (the
//! per-box pieces, `Cell_H`, the `Header` and `job_info`) has an
//! arithmetic twin `x_len` below it that returns `x(..).len()` without
//! allocating. A proptest in this file pins every pair; change a
//! formatter and its twin together.

use amr_mesh::{Coord, Geometry, IndexBox};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;

thread_local! {
    static E17_CACHE: RefCell<HashMap<u64, String>> = RefCell::new(HashMap::new());
}

/// Appends `v` formatted exactly as `{v:.17e}` would, memoized per bit
/// pattern. Header synthesis formats the same values over and over —
/// grid-aligned box extents, placeholder min/max entries, per-level cell
/// sizes — and `f64` scientific formatting dominates account-only dump
/// cost, so repeat values come from the cache instead.
fn push_e17(out: &mut String, v: f64) {
    E17_CACHE.with(|c| {
        let mut map = c.borrow_mut();
        if map.len() > 8192 {
            map.clear();
        }
        let s = map
            .entry(v.to_bits())
            .or_insert_with(|| format!("{v:.17e}"));
        out.push_str(s);
    });
}

/// Smallest magnitudes `{:.17e}` prints with exponent -99, -9, 0, 10 and
/// 100, where the exponent changes width: each prints as `1.000…e<k>`
/// and the double below it as `9.999…e<k-1>`.
const E17_STEPS: [f64; 5] = [1e-99, 1e-9, 1.0, 1e10, 1e100];

/// The same for `{:.12e}`: rounding to 13 digits carries everything from
/// `9.9999999999995e<k-1>` up to `1.000000000000e<k>`.
const E12_STEPS: [f64; 5] = [
    9.9999999999995e-100,
    9.9999999999995e-10,
    9.9999999999995e-1,
    9.9999999999995e9,
    9.9999999999995e99,
];

/// `format!("{v:.prec$e}").len()` for a `prec > 0` whose exponent width
/// steps are `steps` ([`E17_STEPS`], [`E12_STEPS`]): a sign, `d.`, the
/// digits, `e` and the exponent.
fn sci_len(v: f64, prec: u64, steps: &[f64; 5]) -> u64 {
    if v.is_nan() {
        return "NaN".len() as u64;
    }
    let (sign, a) = (u64::from(v.is_sign_negative()), v.abs());
    if a.is_infinite() {
        return sign + "inf".len() as u64;
    }
    // Exponent widths below, between and above the steps: `-100`.., `-99`
    // to `-10`, `-9` to `-1`, `0` to `9`, `10` to `99`, `100`...
    const WIDTHS: [u64; 6] = [4, 3, 2, 1, 2, 3];
    let exp = match a == 0.0 {
        true => 1,
        false => WIDTHS[steps.iter().filter(|&&step| a >= step).count()],
    };
    sign + 2 + prec + 1 + exp
}

/// `format!("{v:.17e}").len()`.
fn e17_len(v: f64) -> u64 {
    sci_len(v, 17, &E17_STEPS)
}

/// `n.to_string().len()`.
fn dec_len(n: u64) -> u64 {
    u64::from(n.checked_ilog10().map_or(1, |d| d + 1))
}

/// `c.to_string().len()`, minus sign included.
fn coord_len(c: Coord) -> u64 {
    dec_len(c.unsigned_abs()) + u64::from(c < 0)
}

/// Formats a box the way AMReX prints 2-D boxes in headers:
/// `((lo_x,lo_y) (hi_x,hi_y) (0,0))`.
pub(crate) fn format_box(b: &IndexBox) -> String {
    format!(
        "(({},{}) ({},{}) (0,0))",
        b.lo().x,
        b.lo().y,
        b.hi().x,
        b.hi().y
    )
}

/// `format_box(b).len()`.
fn format_box_len(b: &IndexBox) -> u64 {
    "((,) (,) (0,0))".len() as u64
        + coord_len(b.lo().x)
        + coord_len(b.lo().y)
        + coord_len(b.hi().x)
        + coord_len(b.hi().y)
}

/// AMReX's native IEEE 754 little-endian f64 descriptor, opening every
/// `FAB` record header.
const FAB_DESCRIPTOR: &str = "FAB ((8, (64 11 52 0 1 12 0 1023)),(8, (8 7 6 5 4 3 2 1)))";

/// The `FAB` record header preceding each fab's binary payload in a
/// `Cell_D` file.
pub(crate) fn fab_header(valid: &IndexBox, ncomp: usize) -> String {
    format!("{FAB_DESCRIPTOR}{} {}\n", format_box(valid), ncomp)
}

/// `fab_header(valid, ncomp).len()`.
pub(crate) fn fab_header_len(valid: &IndexBox, ncomp: usize) -> u64 {
    FAB_DESCRIPTOR.len() as u64 + format_box_len(valid) + 1 + dec_len(ncomp as u64) + 1
}

/// Name of the `Cell_D` file `rank` writes in a level directory.
pub(crate) fn cell_d_name(rank: usize) -> String {
    format!("Cell_D_{rank:05}")
}

/// `cell_d_name(rank).len()`.
pub(crate) fn cell_d_name_len(rank: usize) -> u64 {
    "Cell_D_".len() as u64 + dec_len(rank as u64).max(5)
}

/// `format!("{lev_dir}/{}", cell_d_name(rank))` in one allocation.
pub(crate) fn cell_d_path(lev_dir: &str, rank: usize) -> String {
    let mut path = String::with_capacity(lev_dir.len() + 1 + cell_d_name_len(rank) as usize);
    let _ = write!(path, "{lev_dir}/Cell_D_{rank:05}");
    path
}

/// Input description for one level of the plotfile Header.
pub(crate) struct HeaderLevel<'a> {
    /// Level geometry (domain + physical extent).
    pub geom: Geometry,
    /// Grid boxes at this level.
    pub boxes: &'a [IndexBox],
    /// Number of time steps taken at this level.
    pub level_steps: u64,
}

/// Builds the top-level `Header` file content.
///
/// Layout follows `amrex::WriteGenericPlotfileHeader`: version line,
/// variable count and names, dimensionality, time, finest level, physical
/// domain, refinement ratios, index domains, step counts, cell sizes,
/// coordinate system, and per-level grid tables with the relative
/// `Level_i/Cell` path lines.
pub(crate) fn plotfile_header(
    var_names: &[String],
    time: f64,
    levels: &[HeaderLevel<'_>],
    ref_ratio: i64,
) -> String {
    assert!(!levels.is_empty(), "plotfile_header: no levels");
    let finest = levels.len() - 1;
    let g0 = &levels[0].geom;
    let mut s = String::with_capacity(4096);
    s.push_str("HyperCLaw-V1.1\n");
    let _ = writeln!(s, "{}", var_names.len());
    for v in var_names {
        s.push_str(v);
        s.push('\n');
    }
    s.push_str("2\n"); // spacedim
    push_e17(&mut s, time);
    s.push('\n');
    let _ = writeln!(s, "{finest}");
    push_e17(&mut s, g0.prob_lo[0]);
    s.push(' ');
    push_e17(&mut s, g0.prob_lo[1]);
    s.push('\n');
    push_e17(&mut s, g0.prob_hi[0]);
    s.push(' ');
    push_e17(&mut s, g0.prob_hi[1]);
    s.push('\n');
    // Refinement ratios between consecutive levels.
    for _ in 0..finest {
        let _ = write!(s, "{ref_ratio} ");
    }
    s.push('\n');
    // Index domains per level.
    for l in levels {
        let _ = write!(s, "{} ", format_box(&l.geom.domain));
    }
    s.push('\n');
    // Steps per level.
    for l in levels {
        let _ = write!(s, "{} ", l.level_steps);
    }
    s.push('\n');
    // Cell sizes per level.
    for l in levels {
        let dx = l.geom.dx();
        push_e17(&mut s, dx[0]);
        s.push(' ');
        push_e17(&mut s, dx[1]);
        s.push('\n');
    }
    s.push_str("0\n"); // coord sys (0 = Cartesian)
    s.push_str("0\n"); // boundary width
    for (i, l) in levels.iter().enumerate() {
        let _ = write!(s, "{} {} ", i, l.boxes.len());
        push_e17(&mut s, time);
        s.push('\n');
        let _ = writeln!(s, "{}", l.level_steps);
        let dx = l.geom.dx();
        for b in l.boxes {
            for [lo, hi] in grid_extent(&l.geom, dx, b) {
                push_e17(&mut s, lo);
                s.push(' ');
                push_e17(&mut s, hi);
                s.push('\n');
            }
        }
        let _ = writeln!(s, "Level_{i}/Cell");
    }
    s
}

/// Physical extent `[lo, hi]` of grid `b`, per dimension, on a level of
/// geometry `geom` and cell size `dx`.
fn grid_extent(geom: &Geometry, dx: [f64; 2], b: &IndexBox) -> [[f64; 2]; 2] {
    let extent = |dir: usize| {
        let lo = geom.prob_lo[dir] + (b.lo().get(dir) - geom.domain.lo().get(dir)) as f64 * dx[dir];
        let hi =
            geom.prob_lo[dir] + (b.hi().get(dir) - geom.domain.lo().get(dir) + 1) as f64 * dx[dir];
        [lo, hi]
    };
    [extent(0), extent(1)]
}

/// `plotfile_header(var_names, time, levels, ref_ratio).len()`.
pub(crate) fn plotfile_header_len(
    var_names: &[String],
    time: f64,
    levels: &[HeaderLevel<'_>],
    ref_ratio: i64,
) -> u64 {
    assert!(!levels.is_empty(), "plotfile_header: no levels");
    let len = |s: &str| s.len() as u64;
    let finest = levels.len() as u64 - 1;
    let g0 = &levels[0].geom;
    let time_len = e17_len(time);
    let mut n = len("HyperCLaw-V1.1\n") + dec_len(var_names.len() as u64) + 1;
    n += var_names.iter().map(|v| len(v) + 1).sum::<u64>();
    n += len("2\n") + time_len + 1 + dec_len(finest) + 1;
    n += e17_len(g0.prob_lo[0]) + 1 + e17_len(g0.prob_lo[1]) + 1;
    n += e17_len(g0.prob_hi[0]) + 1 + e17_len(g0.prob_hi[1]) + 1;
    n += finest * (coord_len(ref_ratio) + 1) + 1;
    for l in levels {
        let dx = l.geom.dx();
        n += format_box_len(&l.geom.domain) + 1;
        n += dec_len(l.level_steps) + 1;
        n += e17_len(dx[0]) + 1 + e17_len(dx[1]) + 1;
    }
    // The domain and step lines' newlines, coord sys, boundary width.
    n += 2 + len("0\n0\n");
    for (i, l) in levels.iter().enumerate() {
        let i = i as u64;
        n += dec_len(i) + 1 + dec_len(l.boxes.len() as u64) + 1 + time_len + 1;
        n += dec_len(l.level_steps) + 1;
        let dx = l.geom.dx();
        for b in l.boxes {
            for [lo, hi] in grid_extent(&l.geom, dx, b) {
                n += e17_len(lo) + 1 + e17_len(hi) + 1;
            }
        }
        n += len("Level_/Cell\n") + dec_len(i);
    }
    n
}

/// One grid's entry in a `Cell_H` file: which `Cell_D` file holds it and at
/// what byte offset.
pub(crate) struct FabOnDisk {
    /// File name relative to the level directory, e.g. `Cell_D_00003`.
    pub file: String,
    /// Byte offset of the FAB record inside that file.
    pub offset: u64,
}

/// Builds a per-level `Cell_H` metadata file.
///
/// Layout follows AMReX's `VisMF::Header` stream format: version, how,
/// component count, ghost cells, the box array, the FabOnDisk table, and
/// per-grid min/max tables.
pub(crate) fn cell_h(
    ncomp: usize,
    boxes: &[IndexBox],
    fabs_on_disk: &[FabOnDisk],
    mins: &[Vec<f64>],
    maxs: &[Vec<f64>],
) -> String {
    assert_eq!(boxes.len(), fabs_on_disk.len());
    assert_eq!(boxes.len(), mins.len());
    assert_eq!(boxes.len(), maxs.len());
    let mut s = String::with_capacity(1024);
    s.push_str("1\n"); // VisMF version
    s.push_str("1\n"); // how (one fab per...)
    let mut line = String::new();
    let _ = writeln!(line, "{ncomp}");
    s.push_str(&line);
    s.push_str("0\n"); // ngrow
    let _ = writeln!(s, "({} 0", boxes.len());
    for b in boxes {
        let _ = writeln!(s, "{}", format_box(b));
    }
    s.push_str(")\n");
    let _ = writeln!(s, "{}", boxes.len());
    for f in fabs_on_disk {
        let _ = writeln!(s, "FabOnDisk: {} {}", f.file, f.offset);
    }
    let _ = writeln!(s, "{},{}", boxes.len(), ncomp);
    for row in mins {
        for &v in row {
            push_e17(&mut s, v);
            s.push(',');
        }
        s.push('\n');
    }
    let _ = writeln!(s, "{},{}", boxes.len(), ncomp);
    for row in maxs {
        for &v in row {
            push_e17(&mut s, v);
            s.push(',');
        }
        s.push('\n');
    }
    s
}

/// `cell_h(ncomp, boxes, fods, zeros, zeros).len()` — the accounting
/// paths' `Cell_H`, whose min/max tables are all-zero placeholders.
/// `grids` yields, per grid and in any order (the length is a sum), its
/// box, the length of its `FabOnDisk` file name and its byte offset.
pub(crate) fn cell_h_len<'a>(
    ncomp: usize,
    grids: impl Iterator<Item = (&'a IndexBox, u64, u64)>,
) -> u64 {
    let len = |s: &str| s.len() as u64;
    let (mut n, mut box_lines, mut fab_lines) = (0u64, 0u64, 0u64);
    for (b, file_len, offset) in grids {
        n += 1;
        box_lines += format_box_len(b) + 1;
        fab_lines += len("FabOnDisk:  \n") + file_len + dec_len(offset);
    }
    let (n_len, ncomp_len) = (dec_len(n), dec_len(ncomp as u64));
    // One `{:.17e}` zero and its comma per component, a newline per grid.
    let minmax_rows = n * (ncomp as u64 * len("0.00000000000000000e0,") + 1);
    len("1\n1\n")
        + (ncomp_len + 1)
        + len("0\n")
        + (len("( 0\n") + n_len)
        + box_lines
        + len(")\n")
        + (n_len + 1)
        + fab_lines
        + 2 * (len(",\n") + n_len + ncomp_len + minmax_rows)
}

/// The rule line framing `job_info`'s sections.
const JOB_INFO_RULE: &str =
    "==============================================================================\n";

/// The title line of `job_info`.
const JOB_INFO_TITLE: &str = " Castro Job Information (amr-proxy-io reproduction)\n";

/// Builds the `job_info` file AMReX applications drop at the plotfile
/// root: build/runtime provenance. Content is synthetic but representative
/// in size and structure.
pub(crate) fn job_info(nprocs: usize, step: u64, time: f64, inputs: &[(String, String)]) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str(JOB_INFO_RULE);
    s.push_str(JOB_INFO_TITLE);
    s.push_str(JOB_INFO_RULE);
    let _ = writeln!(s, "number of MPI processes: {nprocs}");
    let _ = writeln!(s, "output step: {step}");
    let _ = writeln!(s, "simulation time: {time:.12e}");
    s.push('\n');
    s.push_str(" Inputs File Parameters\n");
    s.push_str(JOB_INFO_RULE);
    for (k, v) in inputs {
        let _ = writeln!(s, "{k} = {v}");
    }
    s
}

/// `job_info(nprocs, step, time, inputs).len()`.
pub(crate) fn job_info_len(
    nprocs: usize,
    step: u64,
    time: f64,
    inputs: &[(String, String)],
) -> u64 {
    let len = |s: &str| s.len() as u64;
    3 * len(JOB_INFO_RULE)
        + len(JOB_INFO_TITLE)
        + (len("number of MPI processes: \n") + dec_len(nprocs as u64))
        + (len("output step: \n") + dec_len(step))
        + (len("simulation time: \n") + sci_len(time, 12, &E12_STEPS))
        + len("\n Inputs File Parameters\n")
        + (inputs.iter())
            .map(|(k, v)| len(k) + len(" = \n") + len(v))
            .sum::<u64>()
}

/// The Castro Sedov plot variable set written with
/// `amr.derive_plot_vars=ALL` (conserved state + derived fields), which
/// fixes the "bytes per cell" of the workload at 8 bytes per variable.
pub fn castro_sedov_plot_vars() -> Vec<String> {
    [
        "density",
        "xmom",
        "ymom",
        "rho_E",
        "rho_e",
        "Temp",
        "pressure",
        "kineng",
        "soundspeed",
        "MachNumber",
        "entropy",
        "divu",
        "eint_E",
        "eint_e",
        "logden",
        "magmom",
        "magvel",
        "maggrav",
        "radvel",
        "x_velocity",
        "y_velocity",
        "t_sound_t_enuc",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::IntVect;
    use proptest::prelude::*;

    #[test]
    fn decimal_lengths_at_digit_boundaries() {
        for n in [0, 9, 10, 99, 100, 99_999, 100_000, u64::MAX] {
            assert_eq!(dec_len(n), n.to_string().len() as u64, "{n}");
        }
        for c in [0, -1, -9, -10, 9, 10, Coord::MIN, Coord::MAX] {
            assert_eq!(coord_len(c), c.to_string().len() as u64, "{c}");
        }
    }

    /// A value whose decimal width is uniform over `1..=digits`, so digit
    /// boundaries (9|10, 99_999|100_000, ...) are hit as often as not.
    fn any_width(digits: u32) -> impl Strategy<Value = u64> {
        (1..=digits, 0.0..1.0f64).prop_map(|(d, u)| {
            let lo = if d == 1 { 0 } else { 10u64.pow(d - 1) };
            lo + ((10u64.pow(d) - lo) as f64 * u) as u64
        })
    }

    fn any_coord() -> impl Strategy<Value = Coord> {
        (any_width(7), 0..2i64).prop_map(|(v, neg)| v as Coord * (1 - 2 * neg))
    }

    fn any_box() -> impl Strategy<Value = IndexBox> {
        (any_coord(), any_coord(), 1..5000i64, 1..5000i64)
            .prop_map(|(x, y, w, h)| IndexBox::from_lo_size(IntVect::new(x, y), IntVect::new(w, h)))
    }

    /// `v` moved `ulps` doubles up (negative: down).
    fn nudge(mut v: f64, ulps: i32) -> f64 {
        for _ in 0..ulps.unsigned_abs() {
            v = if ulps > 0 { v.next_up() } else { v.next_down() };
        }
        v
    }

    /// The doubles next to every place a scientific format changes width:
    /// powers of ten and the 13-digit rounding steps, each a few ulps
    /// either side, for every decimal exponent.
    fn width_steps() -> impl Iterator<Item = f64> {
        (-324..=308).flat_map(|k| {
            let pow: f64 = format!("1e{k}").parse().unwrap();
            let step: f64 = format!("9.9999999999995e{}", k - 1).parse().unwrap();
            (-2..=2).flat_map(move |ulps| [nudge(pow, ulps), nudge(step, ulps)])
        })
    }

    /// `f64` inputs for the scientific twins: powers of ten and rounding
    /// steps a few ulps either side, signed zeros, subnormals, specials,
    /// and plain values of any sign and size.
    fn any_f64() -> impl Strategy<Value = f64> {
        let sign = |v: f64, neg: u32| if neg == 1 { -v } else { v };
        prop_oneof![
            (-324..309i32, -2..3i32, 0..2u32, 0..2u32).prop_map(move |(k, ulps, step, neg)| {
                let v: f64 = match step {
                    0 => format!("1e{k}").parse().unwrap(),
                    _ => format!("9.9999999999995e{}", k - 1).parse().unwrap(),
                };
                sign(nudge(v, ulps), neg)
            }),
            (1..1u64 << 52, 0..2u32).prop_map(move |(bits, neg)| sign(f64::from_bits(bits), neg)),
            (0..6usize).prop_map(|i| {
                [
                    0.0,
                    -0.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::MAX,
                ][i]
            }),
            (0.0..1.0f64, -30..30i32, 0..2u32)
                .prop_map(move |(u, e, neg)| { sign(u * 10f64.powi(e), neg) }),
        ]
    }

    /// A geometry of any (even inverted or degenerate) physical extent.
    fn any_geometry() -> impl Strategy<Value = Geometry> {
        (any_box(), any_f64(), any_f64(), any_f64(), any_f64()).prop_map(
            |(domain, lo0, lo1, hi0, hi1)| Geometry {
                domain,
                prob_lo: [lo0, lo1],
                prob_hi: [hi0, hi1],
            },
        )
    }

    /// Up to a dozen levels (finest levels past 9), a quarter of them with
    /// about a thousand grids (box counts past 999).
    fn any_header_levels() -> impl Strategy<Value = Vec<(Geometry, Vec<IndexBox>, u64)>> {
        let boxes = prop_oneof![
            proptest::collection::vec(any_box(), 0..8),
            proptest::collection::vec(any_box(), 0..8),
            proptest::collection::vec(any_box(), 0..8),
            proptest::collection::vec(any_box(), 995..1002),
        ];
        proptest::collection::vec((any_geometry(), boxes, any_width(15)), 1..13)
    }

    /// Short names of any length, up to a dozen of them.
    fn any_names() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec((0..30usize).prop_map(|n| "x".repeat(n)), 0..13)
    }

    #[test]
    fn scientific_lengths_at_every_width_step() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            f64::MAX,
        ];
        for v in width_steps().chain(specials).flat_map(|v| [v, -v]) {
            assert_eq!(e17_len(v), format!("{v:.17e}").len() as u64, "{v:e}");
            assert_eq!(
                sci_len(v, 12, &E12_STEPS),
                format!("{v:.12e}").len() as u64,
                "{v:e}"
            );
        }
    }

    #[test]
    fn cell_d_path_joins_the_level_dir_and_the_name() {
        for rank in [0, 7, 99_999, 100_000, 12_345_678] {
            let want = format!("/plt/Level_3/{}", cell_d_name(rank));
            let got = cell_d_path("/plt/Level_3", rank);
            assert_eq!(got, want);
            assert_eq!(got.capacity(), got.len(), "one exact allocation");
        }
    }

    proptest! {
        /// The `x_len` rule: every arithmetic twin equals the length of
        /// the string its formatter builds.
        #[test]
        fn len_twins_match_their_formatters(
            grids in proptest::collection::vec((any_box(), any_width(7), any_width(15)), 0..40),
            ncomp in any_width(3),
            levels in any_header_levels(),
            names in any_names(),
            time in any_f64(),
            ref_ratio in any_coord(),
            nprocs in any_width(7),
        ) {
            check_header_twins(&levels, &names, time, ref_ratio, nprocs as usize);
            let ncomp = ncomp as usize;
            for (b, rank, _) in &grids {
                prop_assert_eq!(format_box_len(b), format_box(b).len() as u64);
                prop_assert_eq!(fab_header_len(b, ncomp), fab_header(b, ncomp).len() as u64);
                let rank = *rank as usize;
                prop_assert_eq!(cell_d_name_len(rank), cell_d_name(rank).len() as u64);
            }
            let boxes: Vec<IndexBox> = grids.iter().map(|g| g.0).collect();
            let fods: Vec<FabOnDisk> = grids
                .iter()
                .map(|&(_, rank, offset)| FabOnDisk { file: cell_d_name(rank as usize), offset })
                .collect();
            let zeros = vec![vec![0.0; ncomp]; boxes.len()];
            let by_len = cell_h_len(
                ncomp,
                boxes.iter().zip(&fods).map(|(b, f)| (b, f.file.len() as u64, f.offset)),
            );
            prop_assert_eq!(by_len, cell_h(ncomp, &boxes, &fods, &zeros, &zeros).len() as u64);
        }
    }

    /// The per-dump twins: `plotfile_header_len` and `job_info_len`
    /// against their formatters (names double as input keys and values).
    fn check_header_twins(
        levels: &[(Geometry, Vec<IndexBox>, u64)],
        names: &[String],
        time: f64,
        ref_ratio: Coord,
        nprocs: usize,
    ) {
        let header_levels: Vec<HeaderLevel> = (levels.iter())
            .map(|(geom, boxes, level_steps)| HeaderLevel {
                geom: *geom,
                boxes,
                level_steps: *level_steps,
            })
            .collect();
        assert_eq!(
            plotfile_header_len(names, time, &header_levels, ref_ratio),
            plotfile_header(names, time, &header_levels, ref_ratio).len() as u64
        );
        let inputs: Vec<(String, String)> = (names.iter())
            .zip(names.iter().rev())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let step = levels[0].2;
        assert_eq!(
            job_info_len(nprocs, step, time, &inputs),
            job_info(nprocs, step, time, &inputs).len() as u64
        );
    }

    #[test]
    fn box_formatting_matches_amrex() {
        let b = IndexBox::new(IntVect::new(0, 0), IntVect::new(511, 511));
        assert_eq!(format_box(&b), "((0,0) (511,511) (0,0))");
    }

    #[test]
    fn fab_header_contains_descriptor_and_box() {
        let b = IndexBox::at_origin(IntVect::splat(8));
        let h = fab_header(&b, 3);
        assert!(h.starts_with("FAB ((8, (64 11 52 0 1 12 0 1023))"));
        assert!(h.contains("((0,0) (7,7) (0,0))"));
        assert!(h.trim_end().ends_with('3'));
    }

    #[test]
    fn header_structure() {
        let g0 = Geometry::unit_square(IntVect::splat(32));
        let (coarse, fine) = ([g0.domain], [IndexBox::at_origin(IntVect::splat(16))]);
        let levels = vec![
            HeaderLevel {
                geom: g0,
                boxes: &coarse,
                level_steps: 10,
            },
            HeaderLevel {
                geom: g0.refine(IntVect::splat(2)),
                boxes: &fine,
                level_steps: 10,
            },
        ];
        let vars = vec!["density".to_string(), "pressure".to_string()];
        let h = plotfile_header(&vars, 0.125, &levels, 2);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines[0], "HyperCLaw-V1.1");
        assert_eq!(lines[1], "2");
        assert_eq!(lines[2], "density");
        assert_eq!(lines[3], "pressure");
        assert_eq!(lines[4], "2"); // spacedim
        assert!(lines[6].starts_with('1')); // finest level
        assert!(h.contains("Level_0/Cell"));
        assert!(h.contains("Level_1/Cell"));
        assert!(h.contains("((0,0) (31,31) (0,0))"));
        assert!(h.contains("((0,0) (63,63) (0,0))"));
    }

    #[test]
    fn cell_h_structure() {
        let boxes = vec![
            IndexBox::at_origin(IntVect::splat(8)),
            IndexBox::from_lo_size(IntVect::new(8, 0), IntVect::splat(8)),
        ];
        let fods = vec![
            FabOnDisk {
                file: "Cell_D_00000".into(),
                offset: 0,
            },
            FabOnDisk {
                file: "Cell_D_00001".into(),
                offset: 0,
            },
        ];
        let mins = vec![vec![0.0], vec![1.0]];
        let maxs = vec![vec![2.0], vec![3.0]];
        let s = cell_h(1, &boxes, &fods, &mins, &maxs);
        assert!(s.contains("(2 0"));
        assert!(s.contains("FabOnDisk: Cell_D_00000 0"));
        assert!(s.contains("FabOnDisk: Cell_D_00001 0"));
        assert!(s.contains("2,1"));
    }

    #[test]
    #[should_panic]
    fn cell_h_mismatched_tables_panic() {
        cell_h(1, &[IndexBox::at_origin(IntVect::splat(2))], &[], &[], &[]);
    }

    #[test]
    fn job_info_carries_inputs() {
        let s = job_info(
            64,
            20,
            0.05,
            &[("amr.n_cell".to_string(), "512 512".to_string())],
        );
        assert!(s.contains("number of MPI processes: 64"));
        assert!(s.contains("amr.n_cell = 512 512"));
    }

    #[test]
    fn castro_var_set_size() {
        // The correction factor f in Eq. (3) is ~23-25; with ~22 variables
        // of 8 bytes plus headers, the per-cell cost lands in that range.
        assert_eq!(castro_sedov_plot_vars().len(), 22);
    }
}
