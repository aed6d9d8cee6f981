//! Pins the exact bits of the spectral embedding.
//!
//! Every partition, and with it every II the pipeline reports, hangs off the
//! Laplacian eigenvectors, so a change to the eigensolver must reproduce
//! them bit for bit, not merely to a tolerance. Each test hashes, for every
//! suite kernel at one scale and one Laplacian variant, the eigenvalue bits,
//! the eigenvector bits and the Jacobi sweep count, plus the labels of the
//! `k ∈ [2, 8]` partitions the pipeline explores. The constants were
//! recorded with the original column-walking Jacobi loop and must never be
//! updated to follow a solver change.

use panorama_cluster::{explore_partitions_with_stats, SpectralConfig, SpectralKind};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_graph::AdjacencyMatrix;
use panorama_linalg::{DMatrix, SymmetricEigen};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(embedding hash, partition-label hash)` over the whole suite.
fn fingerprint(scale: KernelScale, kind: SpectralKind) -> (u64, u64) {
    let mut eigen_hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut label_hash = Fnv(0xcbf2_9ce4_8422_2325);
    let config = SpectralConfig {
        kind,
        ..SpectralConfig::default()
    };
    for id in KernelId::ALL {
        let dfg = kernels::generate(id, scale);
        // the Laplacian exactly as `SpectralClustering::with_kind` builds it
        let adj = AdjacencyMatrix::symmetric(dfg.graph());
        let n = adj.len();
        let buffer = match kind {
            SpectralKind::Unnormalized => adj.laplacian(),
            SpectralKind::Normalized => adj.normalized_laplacian(),
        };
        let eig = SymmetricEigen::new(&DMatrix::from_row_major(n, n, buffer)).unwrap();
        eigen_hash.word(n as u64);
        eigen_hash.word(eig.sweeps() as u64);
        for &value in eig.eigenvalues() {
            eigen_hash.word(value.to_bits());
        }
        for j in 0..n {
            for x in eig.eigenvector(j) {
                eigen_hash.word(x.to_bits());
            }
        }

        let (parts, sweeps) = explore_partitions_with_stats(&dfg, 2, 8, &config).unwrap();
        assert_eq!(
            sweeps,
            eig.sweeps(),
            "{id:?}: pipeline and direct solve disagree"
        );
        for p in &parts {
            label_hash.word(p.k() as u64);
            for &l in p.labels() {
                label_hash.word(l as u64);
            }
        }
    }
    (eigen_hash.0, label_hash.0)
}

#[test]
fn tiny_unnormalized_embedding_is_pinned() {
    assert_eq!(
        fingerprint(KernelScale::Tiny, SpectralKind::Unnormalized),
        (0xa0ce_72e8_429c_2fd5, 0x6b17_201d_e43d_2482)
    );
}

#[test]
fn tiny_normalized_embedding_is_pinned() {
    assert_eq!(
        fingerprint(KernelScale::Tiny, SpectralKind::Normalized),
        (0xbaa4_fa6a_0163_0514, 0x3e76_f24f_e410_45a3)
    );
}

#[test]
fn scaled_unnormalized_embedding_is_pinned() {
    assert_eq!(
        fingerprint(KernelScale::Scaled, SpectralKind::Unnormalized),
        (0xe2df_6688_e16e_a5c8, 0x868a_e1de_e4f3_2c83)
    );
}

#[test]
fn scaled_normalized_embedding_is_pinned() {
    assert_eq!(
        fingerprint(KernelScale::Scaled, SpectralKind::Normalized),
        (0x2528_ac47_27be_1771, 0x79d9_45a3_ce0b_6aa5)
    );
}
