//! # costas — the Costas Array Problem domain
//!
//! A *Costas array* of order `n` is an `n × n` grid with exactly one mark per row and
//! per column such that the `n(n−1)/2` displacement vectors joining pairs of marks are
//! all distinct.  Equivalently (and this is the representation used throughout this
//! workspace, following §II of the IPPS 2012 paper): a permutation `V₁…Vₙ` of
//! `{1,…,n}` whose *difference triangle* has no repeated value in any row.
//!
//! This crate is the domain substrate shared by every solver in the workspace
//! (Adaptive Search, Dialectic Search, tabu search, complete backtracking):
//!
//! * [`CostasArray`] / [`Permutation`] — validated permutation types ([`array`]).
//! * [`DifferenceTriangle`] — the full triangle, row by row ([`triangle`]).
//! * [`cost`] — the paper's error model (`ERR(d)`), Chang's half-triangle optimisation
//!   and the [`cost::ConflictTable`] giving batched swap evaluation and the
//!   exact costs of the reset's sub-array rotations ([`Rotation`]), which is
//!   what makes local search on the CAP fast.
//! * [`kernel`] — the probe bodies behind
//!   [`ConflictTable::probe_partners`](cost::ConflictTable::probe_partners):
//!   on x86-64 with AVX-512 F + DQ + BW + VBMI, eight swapped permutations
//!   per pass for n ≤ 32 and 64 candidates per pass, one per byte lane, for
//!   33 ≤ n ≤ 128; scalar event-algebra bodies elsewhere, all pinned bit for
//!   bit to the histogram reference.
//! * [`check`] — standalone validity predicates.
//! * [`symmetry`] — the dihedral symmetry group acting on Costas arrays (rotations /
//!   reflections / transposition), orbit generation and canonical forms.
//! * [`construction`] — the Welch and Golomb algebraic constructions, which produce
//!   Costas arrays for infinitely many orders and are used both as test oracles and
//!   as the paper's historical context (§II).
//! * [`enumerate`] — exhaustive backtracking enumeration (ground truth for small `n`,
//!   and the stand-in for a propagation-based complete solver in the Table II /
//!   CP-comparison discussion).
//! * [`counts`] — the published census of Costas arrays per order.

pub mod array;
pub mod check;
pub mod construction;
pub mod cost;
pub mod counts;
pub mod enumerate;
pub mod kernel;
pub mod merge;
pub mod symmetry;
pub mod triangle;

pub use array::{CostasArray, Permutation, PermutationError};
pub use check::{is_costas, is_costas_permutation, violation_count};
pub use construction::{golomb_construction, welch_construction, ConstructionError};
pub use cost::{ConflictTable, CostModel, ErrWeight, Rotation, RowSpan};
pub use counts::{known_costas_count, KNOWN_COUNTS};
pub use enumerate::{count_costas, enumerate_costas, first_costas, EnumerationStats};
pub use merge::BucketMerge;
pub use symmetry::{canonical_form, orbit, Symmetry};
pub use triangle::DifferenceTriangle;

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from §II of the paper: [3, 4, 2, 1, 5] is a Costas array.
    #[test]
    fn paper_example_is_costas() {
        let a = CostasArray::try_new(vec![3, 4, 2, 1, 5]).expect("valid permutation");
        assert!(is_costas(&a));
    }

    /// And a permutation with a repeated difference is not.
    #[test]
    fn identity_is_not_costas_for_n_ge_3() {
        for n in 3..10 {
            let p: Vec<usize> = (1..=n).collect();
            assert!(!is_costas_permutation(&p), "identity of order {n}");
        }
    }
}
