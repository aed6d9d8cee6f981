//! Cyclic Jacobi eigendecomposition for symmetric matrices.
//!
//! Spectral clustering needs the `k` eigenvectors of the graph Laplacian
//! with the smallest eigenvalues. Laplacians are real symmetric, so the
//! classic Jacobi rotation method applies: sweep the upper triangle in
//! cyclic `(p, q)` order, zeroing each off-diagonal entry with a Givens
//! rotation, until the matrix is numerically diagonal, accumulating the
//! rotations as the eigenvector basis. It is extremely robust, and its
//! basis behaves well under downstream k-means on near-degenerate spectra.
//!
//! # Layout
//!
//! The working copy of `A` is row-major and the accumulated basis is kept
//! *transposed*: eigenvector `j` is row `j`. A rotation then touches
//! memory as follows:
//!
//! * `A ← Jᵀ A` and `V ← V J` each rotate two contiguous rows, which
//!   the compiler vectorises;
//! * `A ← A J` rotates two columns, one pair per row, walked row by row.
//!
//! # Bit identity
//!
//! Every partition, and with it every II, depends on the exact eigenvector
//! bits, so the loop must round exactly as the textbook column-walking
//! formulation does. `crates/cluster/tests/eigen_fingerprint.rs` pins the
//! bits. Four rules keep them:
//!
//! 1. each rotated pair is computed as `c*x - s*y` / `s*x + c*y`, with no
//!    `mul_add` and no reassociation;
//! 2. rotations run in the same cyclic order with the same skip test;
//! 3. the convergence test sums the off-diagonal squares in row-major
//!    order ([`DMatrix::off_diagonal_norm`]);
//! 4. work is reordered only across independent elements: the column pass
//!    finishes before the row pass reads rows `p` and `q`.
//!
//! Measured on an Intel Xeon (release build), the Laplacians of the 12
//! paper-scale kernels (n ≤ 517) take 24–28 s in total, and those of the
//! 12 scaled kernels (n ≤ 209) about half a second.

use crate::DMatrix;
use std::error::Error;
use std::fmt;

/// Error produced by [`SymmetricEigen::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigenError {
    /// The input matrix is not square.
    NotSquare,
    /// The input matrix is not symmetric within tolerance.
    NotSymmetric,
    /// The sweep limit was reached before convergence.
    NoConvergence,
}

impl fmt::Display for EigenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EigenError::NotSquare => write!(f, "matrix is not square"),
            EigenError::NotSymmetric => write!(f, "matrix is not symmetric"),
            EigenError::NoConvergence => write!(f, "jacobi sweeps did not converge"),
        }
    }
}

impl Error for EigenError {}

/// Eigendecomposition of a real symmetric matrix, eigenpairs sorted by
/// ascending eigenvalue.
///
/// # Examples
///
/// ```
/// use panorama_linalg::{DMatrix, SymmetricEigen};
///
/// let m = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = SymmetricEigen::new(&m)?;
/// assert!((eig.eigenvalue(0) - 1.0).abs() < 1e-10);
/// assert!((eig.eigenvalue(1) - 3.0).abs() < 1e-10);
/// # Ok::<(), panorama_linalg::EigenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Row `j` of this matrix is the eigenvector for `eigenvalues[j]`.
    eigenvectors: DMatrix,
    /// Jacobi sweeps executed before convergence (0 for the tridiagonal
    /// and trivial paths).
    sweeps: usize,
}

const MAX_SWEEPS: usize = 64;
const SYMMETRY_TOL: f64 = 1e-9;

impl SymmetricEigen {
    /// Decomposes the symmetric matrix `m`.
    ///
    /// # Errors
    ///
    /// * [`EigenError::NotSquare`] / [`EigenError::NotSymmetric`] on invalid
    ///   input;
    /// * [`EigenError::NoConvergence`] if the (generous) sweep limit is hit,
    ///   which indicates NaN/infinite input in practice.
    pub fn new(m: &DMatrix) -> Result<Self, EigenError> {
        if m.rows() != m.cols() {
            return Err(EigenError::NotSquare);
        }
        let scale = m.as_slice().iter().fold(1.0f64, |a, &x| a.max(x.abs()));
        if !m.is_symmetric(SYMMETRY_TOL * scale) {
            return Err(EigenError::NotSymmetric);
        }
        let n = m.rows();
        if n == 0 {
            return Ok(SymmetricEigen {
                eigenvalues: Vec::new(),
                eigenvectors: DMatrix::zeros(0, 0),
                sweeps: 0,
            });
        }
        // The tridiagonal (tred2/tql2) path is asymptotically faster, but
        // for near-degenerate Laplacian spectra Jacobi's basis behaves
        // better under downstream k-means; keep Jacobi up to the sizes
        // this workspace actually meets (paper-scale kernels have up to
        // ~520 nodes and take a few seconds each) and switch only far
        // beyond.
        if n > 1024 {
            if let Ok(eigen) = Self::tridiagonal(m) {
                return Ok(eigen);
            }
        }

        let mut a = m.clone();
        let mut v = DMatrix::identity(n);
        let threshold = 1e-12 * scale * (n as f64);

        let mut converged = false;
        let mut sweeps = 0usize;
        for _ in 0..MAX_SWEEPS {
            if a.off_diagonal_norm() <= threshold {
                converged = true;
                break;
            }
            sweeps += 1;
            sweep(
                a.as_mut_slice(),
                v.as_mut_slice(),
                n,
                threshold / (n as f64),
            );
        }
        if !converged && a.off_diagonal_norm() > threshold {
            return Err(EigenError::NoConvergence);
        }

        let values: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let mut eigen = Self::from_pairs(values, v);
        eigen.sweeps = sweeps;
        Ok(eigen)
    }

    /// The tridiagonal (tred2/tql2) decomposition of `m`.
    fn tridiagonal(m: &DMatrix) -> Result<Self, EigenError> {
        let (values, columns) = crate::tridiag::eigen_tridiagonal(m)?;
        Ok(Self::from_pairs(values, columns.transpose()))
    }

    /// Number of Jacobi sweeps the decomposition took — the eigensolve
    /// effort counter surfaced by the partitioning trace.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Sorts raw (unsorted) eigenpairs by ascending eigenvalue; row `j` of
    /// `vectors` is the eigenvector for `values[j]`.
    fn from_pairs(values: Vec<f64>, vectors: DMatrix) -> Self {
        let n = values.len();
        let mut pairs: Vec<(f64, usize)> = values.into_iter().zip(0..n).collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("eigenvalues are finite"));
        let eigenvalues: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
        let mut sorted = DMatrix::zeros(n, n);
        for (new_row, &(_, old_row)) in pairs.iter().enumerate() {
            sorted
                .row_mut(new_row)
                .copy_from_slice(vectors.row(old_row));
        }
        SymmetricEigen {
            eigenvalues,
            eigenvectors: sorted,
            sweeps: 0,
        }
    }

    /// Number of eigenpairs (the matrix dimension).
    pub fn len(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Returns `true` for the decomposition of the 0×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.eigenvalues.is_empty()
    }

    /// The `i`-th smallest eigenvalue.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn eigenvalue(&self, i: usize) -> f64 {
        self.eigenvalues[i]
    }

    /// All eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The eigenvector paired with the `i`-th smallest eigenvalue.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn eigenvector(&self, i: usize) -> Vec<f64> {
        self.eigenvectors.row(i).to_vec()
    }

    /// The spectral embedding: an `n × k` matrix whose columns are the `k`
    /// eigenvectors with the smallest eigenvalues. Row `i` is the feature
    /// vector of graph node `i`, exactly as spectral clustering consumes it.
    ///
    /// # Panics
    ///
    /// Panics when `k > len()`.
    pub fn embedding(&self, k: usize) -> DMatrix {
        assert!(k <= self.len(), "cannot take more eigenvectors than exist");
        let n = self.len();
        let mut m = DMatrix::zeros(n, k);
        for j in 0..k {
            for (i, &x) in self.eigenvectors.row(j).iter().enumerate() {
                m[(i, j)] = x;
            }
        }
        m
    }
}

/// One cyclic Jacobi sweep over the upper triangle of the row-major `n × n`
/// buffer `a`, accumulating the rotations into the transposed basis `v`
/// (eigenvector `j` is row `j`). Rotations with `|a_pq| <= skip` are skipped.
fn sweep(a: &mut [f64], v: &mut [f64], n: usize, skip: f64) {
    for p in 0..n {
        for q in (p + 1)..n {
            let apq = a[p * n + q];
            if apq.abs() <= skip {
                continue;
            }
            let app = a[p * n + p];
            let aqq = a[q * n + q];
            // Rotation angle: tan(2θ) = 2 a_pq / (a_qq − a_pp)
            let theta = 0.5 * (aqq - app) / apq;
            let t = if theta >= 0.0 {
                1.0 / (theta + (1.0 + theta * theta).sqrt())
            } else {
                -1.0 / (-theta + (1.0 + theta * theta).sqrt())
            };
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = t * c;

            // A ← A J rotates columns p and q of every row, then A ← Jᵀ A
            // rotates rows p and q.
            for row in a.chunks_exact_mut(n) {
                (row[p], row[q]) = rotate(c, s, row[p], row[q]);
            }
            rotate_rows(c, s, a, n, p, q);
            // V ← V J on the transposed basis rotates rows p and q too.
            rotate_rows(c, s, v, n, p, q);
        }
    }
}

/// One Givens rotation of the pair `(x, y)`, written out so that every
/// caller rounds exactly alike (no `mul_add`, no reassociation).
#[inline(always)]
fn rotate(c: f64, s: f64, x: f64, y: f64) -> (f64, f64) {
    (c * x - s * y, s * x + c * y)
}

/// Rotates rows `p < q` of the row-major `n × n` buffer `m` together:
/// two contiguous slices, a loop the compiler vectorises.
fn rotate_rows(c: f64, s: f64, m: &mut [f64], n: usize, p: usize, q: usize) {
    let (head, tail) = m.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    let row_q = &mut tail[..n];
    for (x, y) in row_p.iter_mut().zip(row_q.iter_mut()) {
        (*x, *y) = rotate(c, s, *x, *y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(eig: &SymmetricEigen) -> DMatrix {
        // Q Λ Qᵀ
        let n = eig.len();
        let mut lambda = DMatrix::zeros(n, n);
        for i in 0..n {
            lambda[(i, i)] = eig.eigenvalue(i);
        }
        let q = eig.embedding(n);
        q.matmul(&lambda).matmul(&q.transpose())
    }

    /// Ring Laplacian with chords, a non-trivial spectrum at size `n`.
    fn chorded_ring(n: usize) -> DMatrix {
        let mut l = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in [(i + 1) % n, (i + n / 3) % n] {
                l[(i, j)] -= 1.0;
                l[(j, i)] -= 1.0;
                l[(i, i)] += 1.0;
                l[(j, j)] += 1.0;
            }
        }
        l
    }

    /// `m` decomposed by both paths: Jacobi, and the tridiagonal route
    /// `new` takes above n = 1024. Both store one eigenvector per row.
    fn both_paths(m: &DMatrix) -> [SymmetricEigen; 2] {
        [
            SymmetricEigen::new(m).unwrap(),
            SymmetricEigen::tridiagonal(m).unwrap(),
        ]
    }

    #[test]
    fn two_by_two_known() {
        let m = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymmetricEigen::new(&m).unwrap();
        assert!((e.eigenvalue(0) - 1.0).abs() < 1e-10);
        assert!((e.eigenvalue(1) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let m = DMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let e = SymmetricEigen::new(&m).unwrap();
        assert_eq!(e.eigenvalues(), &[-1.0, 3.0]);
    }

    #[test]
    fn reconstruction_matches_input() {
        let small = DMatrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        for m in [small, chorded_ring(40)] {
            for e in both_paths(&m) {
                let r = reconstruct(&e);
                for i in 0..m.rows() {
                    for j in 0..m.cols() {
                        assert!((m[(i, j)] - r[(i, j)]).abs() < 1e-8, "entry ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let small = DMatrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 2.0], &[1.0, 2.0, 7.0]]);
        for m in [small, chorded_ring(40)] {
            for e in both_paths(&m) {
                let n = e.len();
                let q = e.embedding(n);
                for i in 0..n {
                    assert_eq!(q.column(i), e.eigenvector(i), "embedding column {i}");
                }
                let qtq = q.transpose().matmul(&q);
                for i in 0..n {
                    for j in 0..n {
                        let expect = if i == j { 1.0 } else { 0.0 };
                        assert!((qtq[(i, j)] - expect).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn path_graph_laplacian_has_zero_fiedler_gap_structure() {
        // L of path on 4 nodes; eigenvalues: 0, 2-√2, 2, 2+√2
        let l = DMatrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[-1.0, 2.0, -1.0, 0.0],
            &[0.0, -1.0, 2.0, -1.0],
            &[0.0, 0.0, -1.0, 1.0],
        ]);
        let e = SymmetricEigen::new(&l).unwrap();
        assert!(e.eigenvalue(0).abs() < 1e-10);
        assert!((e.eigenvalue(1) - (2.0 - 2.0_f64.sqrt())).abs() < 1e-9);
        assert!((e.eigenvalue(3) - (2.0 + 2.0_f64.sqrt())).abs() < 1e-9);
        // constant eigenvector for λ=0
        let v0 = e.eigenvector(0);
        let first = v0[0];
        assert!(v0.iter().all(|&x| (x - first).abs() < 1e-9));
    }

    #[test]
    fn disconnected_graph_has_multiplicity_two_zero() {
        // two disjoint edges
        let l = DMatrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, -1.0],
            &[0.0, 0.0, -1.0, 1.0],
        ]);
        let e = SymmetricEigen::new(&l).unwrap();
        assert!(e.eigenvalue(0).abs() < 1e-10);
        assert!(e.eigenvalue(1).abs() < 1e-10);
        assert!(e.eigenvalue(2) > 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let rect = DMatrix::zeros(2, 3);
        assert!(matches!(
            SymmetricEigen::new(&rect),
            Err(EigenError::NotSquare)
        ));
        let asym = DMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        assert!(matches!(
            SymmetricEigen::new(&asym),
            Err(EigenError::NotSymmetric)
        ));
    }

    #[test]
    fn empty_matrix_ok() {
        let e = SymmetricEigen::new(&DMatrix::zeros(0, 0)).unwrap();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn moderately_large_laplacian_converges() {
        // ring of 60 nodes: eigenvalues 2-2cos(2πk/n), all in [0,4]
        let n = 60;
        let mut l = DMatrix::zeros(n, n);
        for i in 0..n {
            l[(i, i)] = 2.0;
            let j = (i + 1) % n;
            l[(i, j)] = -1.0;
            l[(j, i)] = -1.0;
        }
        let e = SymmetricEigen::new(&l).unwrap();
        assert!(e.eigenvalue(0).abs() < 1e-8);
        assert!(e.eigenvalue(n - 1) <= 4.0 + 1e-8);
        // trace preserved: sum of eigenvalues == 2n
        let sum: f64 = e.eigenvalues().iter().sum();
        assert!((sum - 2.0 * n as f64).abs() < 1e-6);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    fn random_symmetric(seed: &[i8], n: usize) -> DMatrix {
        let mut m = DMatrix::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            for j in i..n {
                let v = *seed.get(k).unwrap_or(&1) as f64 / 2.0;
                m[(i, j)] = v;
                m[(j, i)] = v;
                k += 1;
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Q Λ Qᵀ reconstructs the input for arbitrary symmetric matrices.
        #[test]
        fn decomposition_reconstructs(n in 1usize..8, seed in proptest::collection::vec(-9i8..10, 0..36)) {
            let m = random_symmetric(&seed, n);
            let e = SymmetricEigen::new(&m).unwrap();
            let q = e.embedding(n);
            let mut lambda = DMatrix::zeros(n, n);
            for i in 0..n {
                lambda[(i, i)] = e.eigenvalue(i);
            }
            let r = q.matmul(&lambda).matmul(&q.transpose());
            for i in 0..n {
                for j in 0..n {
                    prop_assert!((m[(i, j)] - r[(i, j)]).abs() < 1e-7,
                        "entry ({},{}) {} vs {}", i, j, m[(i,j)], r[(i,j)]);
                }
            }
        }

        /// Eigenvalues come out sorted and their sum equals the trace.
        #[test]
        fn sorted_and_trace_preserved(n in 1usize..8, seed in proptest::collection::vec(-9i8..10, 0..36)) {
            let m = random_symmetric(&seed, n);
            let e = SymmetricEigen::new(&m).unwrap();
            for w in e.eigenvalues().windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
            let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
            let sum: f64 = e.eigenvalues().iter().sum();
            prop_assert!((trace - sum).abs() < 1e-8);
        }
    }
}
