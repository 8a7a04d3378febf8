//! Gradient-based refinement tagging.
//!
//! Mirrors Castro's Sedov tagging: cells with steep relative density or
//! pressure gradients are flagged. The tagged annulus follows the shock,
//! which is what makes the refined-level I/O volume time-dependent — the
//! central non-linearity the paper models.

use crate::eos::GammaLaw;
use crate::state::{Conserved, UEDEN, UMX, UMY, URHO};
use amr_mesh::{IntVect, MultiFab, TagMap};
use serde::{Deserialize, Serialize};

/// Gradient thresholds (relative jumps) that trigger tagging.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TagCriteria {
    /// Tag when `|rho_nb - rho| / rho` exceeds this.
    pub dengrad_rel: f64,
    /// Tag when `|p_nb - p| / p` exceeds this.
    pub presgrad_rel: f64,
}

impl Default for TagCriteria {
    fn default() -> Self {
        Self {
            dengrad_rel: 0.25,
            presgrad_rel: 0.33,
        }
    }
}

/// Tags cells of a level whose density or pressure gradient exceeds the
/// criteria. Ghost cells must be filled (1 layer used). Each cell the test
/// reads is converted to primitives once per fab, not once per neighbour.
pub(crate) fn tag_gradients(mf: &MultiFab, eos: &GammaLaw, crit: &TagCriteria) -> TagMap {
    let mut tags = TagMap::new(mf.box_array().minimal_box());
    // Density and pressure per fab cell, indexed like the fab's slices.
    let mut w: Vec<(f64, f64)> = Vec::new();
    for (valid, fab) in mf.iter() {
        let dom = fab.domain();
        let (lo, hi) = (dom.lo(), dom.hi());
        let width = dom.length(0) as usize;
        let [rho, mx, my, e] = [URHO, UMX, UMY, UEDEN].map(|c| fab.comp(c));
        w.resize(dom.num_pts() as usize, (0.0, 0.0));
        let read = valid
            .grow(1)
            .intersection(&dom)
            .expect("a fab holds its valid box");
        for k in fab.rows(&read).flatten() {
            let prim = Conserved::new(rho[k], mx[k], my[k], e[k]).to_primitive(eos);
            w[k] = (prim.rho, prim.p);
        }
        for (row, y) in fab.rows(&valid).zip(valid.lo().y..) {
            for (k, x) in row.zip(valid.lo().x..) {
                let (r0, p0) = w[k];
                let steep = |q: usize| {
                    let (r, p) = w[q];
                    (r - r0).abs() / r0.max(1e-300) > crit.dengrad_rel
                        || (p - p0).abs() / p0.max(1e-300) > crit.presgrad_rel
                };
                // Neighbours +x, -x, +y, -y, where the fab holds them.
                if (x < hi.x && steep(k + 1))
                    || (x > lo.x && steep(k - 1))
                    || (y < hi.y && steep(k + width))
                    || (y > lo.y && steep(k - width))
                {
                    tags.set(IntVect::new(x, y), true);
                }
            }
        }
    }
    tags
}

/// Test oracle for [`tag_gradients`]: the same test with `get` addressing.
#[cfg(test)]
fn tag_gradients_reference(mf: &MultiFab, eos: &GammaLaw, crit: &TagCriteria) -> TagMap {
    let mut tags = TagMap::new(mf.box_array().minimal_box());
    let offsets = [
        IntVect::new(1, 0),
        IntVect::new(-1, 0),
        IntVect::new(0, 1),
        IntVect::new(0, -1),
    ];
    for (valid, fab) in mf.iter() {
        for p in valid.cells() {
            let w = Conserved::new(
                fab.get(p, URHO),
                fab.get(p, UMX),
                fab.get(p, UMY),
                fab.get(p, UEDEN),
            )
            .to_primitive(eos);
            let mut tag = false;
            for off in offsets {
                let q = p + off;
                if !fab.domain().contains(q) {
                    continue;
                }
                let wn = Conserved::new(
                    fab.get(q, URHO),
                    fab.get(q, UMX),
                    fab.get(q, UMY),
                    fab.get(q, UEDEN),
                )
                .to_primitive(eos);
                if (wn.rho - w.rho).abs() / w.rho.max(1e-300) > crit.dengrad_rel
                    || (wn.p - w.p).abs() / w.p.max(1e-300) > crit.presgrad_rel
                {
                    tag = true;
                    break;
                }
            }
            if tag {
                tags.set(p, true);
            }
        }
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::NGROW;
    use crate::state::{Primitive, NCOMP};
    use crate::test_support::{boxed, random_level, KINDS};
    use amr_mesh::prelude::*;
    use proptest::prelude::*;

    proptest! {
        /// The flat test tags exactly the reference's cells, including
        /// fabs without ghosts, where edge cells lack neighbours.
        #[test]
        fn tags_match_reference(
            lo in (-6i64..6, -6i64..6),
            size in (1i64..20, 1i64..20),
            max in 1i64..12,
            ngrow in 0i64..3,
            seed in 0u64..u64::MAX,
            kind in 0u8..KINDS,
        ) {
            let mf = random_level(boxed(lo.0, lo.1, size.0, size.1), max, ngrow, seed, kind);
            let (eos, crit) = (GammaLaw::default(), TagCriteria::default());
            prop_assert!(tag_gradients(&mf, &eos, &crit) == tag_gradients_reference(&mf, &eos, &crit));
        }
    }

    fn uniform(n: i64) -> MultiFab {
        let geom = Geometry::unit_square(IntVect::splat(n));
        let ba = BoxArray::single(geom.domain).max_size(n / 2);
        let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
        let mut mf = MultiFab::new(ba, dm, NCOMP, NGROW);
        let eos = GammaLaw::default();
        let u = Primitive::new(1.0, 0.0, 0.0, 1.0).to_conserved(&eos);
        mf.set_val(URHO, u.rho);
        mf.set_val(UEDEN, u.e);
        mf
    }

    #[test]
    fn uniform_field_tags_nothing() {
        let mf = uniform(16);
        let tags = tag_gradients(&mf, &GammaLaw::default(), &TagCriteria::default());
        assert!(tags.is_empty());
    }

    #[test]
    fn density_jump_is_tagged_on_both_sides() {
        let mut mf = uniform(16);
        // Double the density in the right half.
        for i in 0..mf.nfabs() {
            let fab = mf.fab_mut(i);
            let dom = fab.domain();
            for p in dom.cells() {
                if p.x >= 8 {
                    fab.set(p, URHO, 2.0);
                }
            }
        }
        mf.fill_boundary();
        let tags = tag_gradients(&mf, &GammaLaw::default(), &TagCriteria::default());
        assert!(!tags.is_empty());
        // Tags hug the x=8 interface.
        for p in tags.domain().cells() {
            if tags.get(p) {
                assert!(p.x == 7 || p.x == 8, "unexpected tag at {p}");
            }
        }
        assert!(tags.get(IntVect::new(7, 4)));
        assert!(tags.get(IntVect::new(8, 4)));
    }

    #[test]
    fn pressure_jump_alone_is_tagged() {
        let mut mf = uniform(16);
        let eos = GammaLaw::default();
        let hot = Primitive::new(1.0, 0.0, 0.0, 10.0).to_conserved(&eos);
        for i in 0..mf.nfabs() {
            let fab = mf.fab_mut(i);
            let dom = fab.domain();
            for p in dom.cells() {
                if p.y < 4 {
                    fab.set(p, UEDEN, hot.e);
                }
            }
        }
        mf.fill_boundary();
        let tags = tag_gradients(&mf, &eos, &TagCriteria::default());
        assert!(!tags.is_empty());
        for p in tags.domain().cells() {
            if tags.get(p) {
                assert!(p.y == 3 || p.y == 4);
            }
        }
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let mut mf = uniform(16);
        for i in 0..mf.nfabs() {
            let fab = mf.fab_mut(i);
            let dom = fab.domain();
            for p in dom.cells() {
                if p.x >= 8 {
                    fab.set(p, URHO, 1.2); // 20% jump
                }
            }
        }
        mf.fill_boundary();
        let strict = TagCriteria {
            dengrad_rel: 0.25,
            presgrad_rel: 10.0,
        };
        let loose = TagCriteria {
            dengrad_rel: 0.1,
            presgrad_rel: 10.0,
        };
        assert!(tag_gradients(&mf, &GammaLaw::default(), &strict).is_empty());
        assert!(!tag_gradients(&mf, &GammaLaw::default(), &loose).is_empty());
    }
}
