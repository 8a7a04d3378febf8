//! Assignment of grid patches to MPI ranks.
//!
//! `DistributionMapping` mirrors AMReX's type of the same name. The paper's
//! per-task I/O imbalance (Fig. 8) is a direct consequence of this mapping,
//! so all three of AMReX's classic strategies are implemented and compared
//! in the `ablations` bench.

use crate::box_array::BoxArray;
use crate::intvect::Coord;
use crate::morton::{box_center, morton_key_in};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Strategy used to assign boxes to ranks.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistributionStrategy {
    /// Box `i` goes to rank `i % nranks` (AMReX `ROUNDROBIN`).
    RoundRobin,
    /// Greedy longest-processing-time bin packing on cell counts
    /// (AMReX `KNAPSACK`).
    Knapsack,
    /// Boxes sorted along the Morton space-filling curve, then split into
    /// contiguous chunks of near-equal weight (AMReX `SFC`, the default).
    Sfc,
}

/// Maps each box of a [`BoxArray`] to an owning rank.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributionMapping {
    owners: Vec<usize>,
    nranks: usize,
}

impl DistributionMapping {
    /// Builds a mapping for `ba` over `nranks` ranks with the given strategy.
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn new(ba: &BoxArray, nranks: usize, strategy: DistributionStrategy) -> Self {
        assert!(nranks > 0, "DistributionMapping: zero ranks");
        let owners = match strategy {
            DistributionStrategy::RoundRobin => round_robin(ba.len(), nranks),
            DistributionStrategy::Knapsack => {
                let weights: Vec<Coord> = ba.iter().map(|b| b.num_pts()).collect();
                knapsack(&weights, nranks)
            }
            DistributionStrategy::Sfc => sfc(ba, nranks),
        };
        Self { owners, nranks }
    }

    /// A mapping from explicit owner indices (for tests / replay).
    ///
    /// # Panics
    /// Panics if any owner is `>= nranks` or `nranks == 0`.
    pub fn from_owners(owners: Vec<usize>, nranks: usize) -> Self {
        assert!(nranks > 0, "DistributionMapping: zero ranks");
        assert!(
            owners.iter().all(|&r| r < nranks),
            "DistributionMapping: owner out of range"
        );
        Self { owners, nranks }
    }

    /// Owning rank of box `i`.
    #[inline]
    pub fn owner(&self, i: usize) -> usize {
        self.owners[i]
    }

    /// Number of ranks in the mapping.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Number of boxes mapped.
    #[inline]
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True when no boxes are mapped.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Slice of owners, indexed by box.
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }

    /// Box indices owned by `rank`, ascending. O(boxes) per call: meant for
    /// single-rank queries — a loop over every rank is quadratic, use
    /// [`DistributionMapping::boxes_by_rank`] there.
    pub fn boxes_of(&self, rank: usize) -> Vec<usize> {
        self.owners
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| (r == rank).then_some(i))
            .collect()
    }

    /// Every rank's box indices in one O(boxes + ranks) pass: entry `r`
    /// equals `boxes_of(r)` (ascending box index; empty for an idle rank).
    pub fn boxes_by_rank(&self) -> Vec<Vec<usize>> {
        let mut by_rank = vec![Vec::new(); self.nranks];
        for (i, &r) in self.owners.iter().enumerate() {
            by_rank[r].push(i);
        }
        by_rank
    }

    /// Per-rank total weight given per-box weights (e.g. cell counts).
    pub fn rank_loads(&self, weights: &[Coord]) -> Vec<Coord> {
        let mut loads = vec![0; self.nranks];
        for (i, &r) in self.owners.iter().enumerate() {
            loads[r] += weights[i];
        }
        loads
    }

    /// Load-imbalance ratio `max(load) / mean(load)` (1.0 = perfectly
    /// balanced; only ranks receiving work are counted in the mean when
    /// there are fewer boxes than ranks).
    pub fn imbalance(&self, weights: &[Coord]) -> f64 {
        let loads = self.rank_loads(weights);
        let total: Coord = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let active = self.nranks.min(self.owners.len().max(1));
        let mean = total as f64 / active as f64;
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }
}

fn round_robin(nboxes: usize, nranks: usize) -> Vec<usize> {
    (0..nboxes).map(|i| i % nranks).collect()
}

/// Greedy LPT knapsack: sort weights descending, assign each to the
/// currently lightest rank.
fn knapsack(weights: &[Coord], nranks: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (Reverse(weights[i]), i));
    // Min-heap of (load, rank).
    let mut heap: BinaryHeap<Reverse<(Coord, usize)>> =
        (0..nranks).map(|r| Reverse((0, r))).collect();
    let mut owners = vec![0usize; weights.len()];
    for i in order {
        let Reverse((load, rank)) = heap.pop().expect("nranks > 0");
        owners[i] = rank;
        heap.push(Reverse((load + weights[i], rank)));
    }
    owners
}

/// SFC strategy: order boxes by the Morton key of their centers, then cut
/// the ordered sequence into `nranks` contiguous chunks of near-equal
/// total weight.
fn sfc(ba: &BoxArray, nranks: usize) -> Vec<usize> {
    let n = ba.len();
    if n == 0 {
        return Vec::new();
    }
    let origin = ba.minimal_box().lo();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (morton_key_in(box_center(&ba.get(i)), origin), i));

    let weights: Vec<Coord> = ba.iter().map(|b| b.num_pts()).collect();
    let total: Coord = weights.iter().sum();
    let mut owners = vec![0usize; n];
    let mut acc: Coord = 0;
    let mut rank = 0usize;
    for (pos, &i) in order.iter().enumerate() {
        // Advance to the next rank when this rank's fair share is consumed,
        // but never leave later boxes without a rank.
        let fair = total as f64 * (rank + 1) as f64 / nranks as f64;
        if acc as f64 >= fair && rank + 1 < nranks && (n - pos) >= 1 {
            rank += 1;
        }
        owners[i] = rank;
        acc += weights[i];
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_box::IndexBox;
    use crate::intvect::IntVect;

    fn grid_ba(nx: Coord, ny: Coord, max: Coord) -> BoxArray {
        BoxArray::single(IndexBox::at_origin(IntVect::new(nx, ny))).max_size(max)
    }

    #[test]
    fn round_robin_cycles() {
        let ba = grid_ba(64, 64, 16); // 16 boxes
        let dm = DistributionMapping::new(&ba, 4, DistributionStrategy::RoundRobin);
        assert_eq!(dm.len(), 16);
        assert_eq!(dm.owner(0), 0);
        assert_eq!(dm.owner(5), 1);
        for r in 0..4 {
            assert_eq!(dm.boxes_of(r).len(), 4);
        }
    }

    #[test]
    fn knapsack_balances_unequal_weights() {
        // Weights 8,1,1,1,1,1,1,1,1 over 2 ranks: LPT puts the 8 alone-ish.
        let boxes = vec![
            IndexBox::at_origin(IntVect::new(8, 1)),
            IndexBox::new(IntVect::new(0, 10), IntVect::new(0, 10)),
            IndexBox::new(IntVect::new(2, 10), IntVect::new(2, 10)),
            IndexBox::new(IntVect::new(4, 10), IntVect::new(4, 10)),
            IndexBox::new(IntVect::new(6, 10), IntVect::new(6, 10)),
            IndexBox::new(IntVect::new(8, 10), IntVect::new(8, 10)),
            IndexBox::new(IntVect::new(10, 10), IntVect::new(10, 10)),
            IndexBox::new(IntVect::new(12, 10), IntVect::new(12, 10)),
            IndexBox::new(IntVect::new(14, 10), IntVect::new(14, 10)),
        ];
        let ba = BoxArray::new(boxes);
        let dm = DistributionMapping::new(&ba, 2, DistributionStrategy::Knapsack);
        let weights: Vec<Coord> = ba.iter().map(|b| b.num_pts()).collect();
        let loads = dm.rank_loads(&weights);
        assert_eq!(loads.iter().sum::<Coord>(), 16);
        assert_eq!(*loads.iter().max().unwrap(), 8);
        assert!(dm.imbalance(&weights) <= 1.01);
    }

    #[test]
    fn knapsack_beats_round_robin_on_skewed_weights() {
        // Alternating huge/tiny boxes is adversarial for round-robin.
        let mut boxes = Vec::new();
        for i in 0..8 {
            let x0 = i * 40;
            if i % 2 == 0 {
                boxes.push(IndexBox::from_lo_size(
                    IntVect::new(x0, 0),
                    IntVect::new(32, 32),
                ));
            } else {
                boxes.push(IndexBox::from_lo_size(
                    IntVect::new(x0, 0),
                    IntVect::new(2, 2),
                ));
            }
        }
        let ba = BoxArray::new(boxes);
        let weights: Vec<Coord> = ba.iter().map(|b| b.num_pts()).collect();
        let rr = DistributionMapping::new(&ba, 2, DistributionStrategy::RoundRobin);
        let ks = DistributionMapping::new(&ba, 2, DistributionStrategy::Knapsack);
        assert!(ks.imbalance(&weights) < rr.imbalance(&weights));
    }

    #[test]
    fn sfc_assigns_every_box_and_balances_uniform_grid() {
        let ba = grid_ba(128, 128, 16); // 64 equal boxes
        let dm = DistributionMapping::new(&ba, 8, DistributionStrategy::Sfc);
        let weights: Vec<Coord> = ba.iter().map(|b| b.num_pts()).collect();
        let loads = dm.rank_loads(&weights);
        assert_eq!(loads.len(), 8);
        assert_eq!(loads.iter().sum::<Coord>(), 128 * 128);
        assert!(dm.imbalance(&weights) < 1.05, "loads {loads:?}");
    }

    #[test]
    fn sfc_ranks_are_contiguous_along_curve() {
        let ba = grid_ba(64, 64, 16);
        let dm = DistributionMapping::new(&ba, 4, DistributionStrategy::Sfc);
        // Re-derive curve order and check rank sequence is non-decreasing.
        let origin = ba.minimal_box().lo();
        let mut order: Vec<usize> = (0..ba.len()).collect();
        order.sort_by_key(|&i| (morton_key_in(box_center(&ba.get(i)), origin), i));
        let ranks: Vec<usize> = order.iter().map(|&i| dm.owner(i)).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks {ranks:?}");
    }

    #[test]
    fn more_ranks_than_boxes_leaves_some_idle() {
        let ba = grid_ba(32, 32, 32); // single box
        for strat in [
            DistributionStrategy::RoundRobin,
            DistributionStrategy::Knapsack,
            DistributionStrategy::Sfc,
        ] {
            let dm = DistributionMapping::new(&ba, 8, strat);
            assert_eq!(dm.len(), 1);
            assert!(dm.owner(0) < 8);
        }
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        DistributionMapping::new(&BoxArray::empty(), 0, DistributionStrategy::RoundRobin);
    }

    #[test]
    fn boxes_by_rank_matches_boxes_of_for_every_rank() {
        let ba = grid_ba(64, 64, 8); // 64 boxes
        for strategy in [
            DistributionStrategy::RoundRobin,
            DistributionStrategy::Knapsack,
            DistributionStrategy::Sfc,
        ] {
            // 100 ranks over 64 boxes: some ranks are idle.
            for nranks in [1, 3, 64, 100] {
                let dm = DistributionMapping::new(&ba, nranks, strategy);
                let by_rank = dm.boxes_by_rank();
                assert_eq!(by_rank.len(), nranks);
                for (rank, boxes) in by_rank.iter().enumerate() {
                    assert_eq!(*boxes, dm.boxes_of(rank), "{strategy:?} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn from_owners_validates() {
        let dm = DistributionMapping::from_owners(vec![0, 1, 1], 2);
        assert_eq!(dm.boxes_of(1), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "owner out of range")]
    fn from_owners_rejects_bad_rank() {
        DistributionMapping::from_owners(vec![0, 5], 2);
    }
}
