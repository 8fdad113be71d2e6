//! Systematic Reed–Solomon erasure coding over GF(2⁸).
//!
//! `k` data shards plus `m` Vandermonde parity shards; any erased shards
//! (up to `m`) are reconstructed by Gaussian elimination over the
//! surviving rows of the generator matrix. Note what erasure coding is
//! *for*: recovering **lost** data. It has no ability to detect
//! **corrupted** data — §6.2: "EC is primarily used to recover lost data,
//! but not used to detect corrupted data" — and the audit shows a
//! corrupted shard poisoning a reconstruction.

use crate::gf256;

/// Errors from the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// More shards erased than parity can recover.
    TooManyErasures {
        /// Erased count.
        erased: usize,
        /// Parity count.
        parity: usize,
    },
    /// Shard lengths disagree.
    ShapeMismatch,
    /// The surviving-row matrix was singular (cannot happen for the
    /// supported `m ≤ 2`; possible for exotic erasure patterns beyond).
    Singular,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooManyErasures { erased, parity } => {
                write!(f, "{erased} erasures exceed {parity} parity shards")
            }
            RsError::ShapeMismatch => write!(f, "shard shape mismatch"),
            RsError::Singular => write!(f, "singular reconstruction matrix"),
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon codec.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `m × k` parity coefficient rows.
    rows: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Creates a codec with `k` data shards and `m` parity shards.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k`, `1 ≤ m`, and `k + m ≤ 255`.
    pub fn new(k: usize, m: usize) -> ReedSolomon {
        assert!(k >= 1 && m >= 1 && k + m <= 255, "unsupported geometry");
        // Vandermonde rows: row j has coefficients (d+1)^j.
        let rows = (0..m)
            .map(|j| {
                (0..k)
                    .map(|d| gf256::pow((d + 1) as u8, j as u32))
                    .collect()
            })
            .collect();
        ReedSolomon { k, m, rows }
    }

    /// Computes the `m` parity shards for `k` equal-length data shards.
    ///
    /// # Panics
    ///
    /// Panics if the number or shape of data shards is wrong.
    pub fn encode(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "need exactly k data shards");
        let len = data[0].len();
        assert!(data.iter().all(|s| s.len() == len), "ragged shards");
        self.rows
            .iter()
            .map(|row| {
                let mut parity = vec![0u8; len];
                for (coeff, shard) in row.iter().zip(data) {
                    for (p, &b) in parity.iter_mut().zip(shard) {
                        *p ^= gf256::mul(*coeff, b);
                    }
                }
                parity
            })
            .collect()
    }

    /// Reconstructs erased shards in place. `shards` holds `k + m`
    /// entries (data then parity); `None` marks an erasure.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::ShapeMismatch);
        }
        let erased: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if erased.is_empty() {
            return Ok(());
        }
        if erased.len() > self.m {
            return Err(RsError::TooManyErasures {
                erased: erased.len(),
                parity: self.m,
            });
        }
        let len = shards
            .iter()
            .flatten()
            .map(Vec::len)
            .next()
            .ok_or(RsError::ShapeMismatch)?;
        if shards.iter().flatten().any(|s| s.len() != len) {
            return Err(RsError::ShapeMismatch);
        }

        // Generator matrix row for shard i.
        let row_of = |i: usize| -> Vec<u8> {
            if i < self.k {
                (0..self.k).map(|d| u8::from(d == i)).collect()
            } else {
                self.rows[i - self.k].clone()
            }
        };
        // Pick k surviving shards and solve G_sub · data = survivors.
        let survivors: Vec<usize> = (0..shards.len())
            .filter(|&i| shards[i].is_some())
            .take(self.k)
            .collect();
        if survivors.len() < self.k {
            return Err(RsError::TooManyErasures {
                erased: erased.len(),
                parity: self.m,
            });
        }
        let mut matrix: Vec<Vec<u8>> = survivors.iter().map(|&i| row_of(i)).collect();
        let mut rhs: Vec<Vec<u8>> = survivors
            .iter()
            .map(|&i| shards[i].clone().expect("survivor"))
            .collect();

        // Gaussian elimination over GF(256).
        for col in 0..self.k {
            let pivot = (col..self.k)
                .find(|&r| matrix[r][col] != 0)
                .ok_or(RsError::Singular)?;
            matrix.swap(col, pivot);
            rhs.swap(col, pivot);
            let inv = gf256::inv(matrix[col][col]);
            for x in &mut matrix[col] {
                *x = gf256::mul(*x, inv);
            }
            for x in &mut rhs[col] {
                *x = gf256::mul(*x, inv);
            }
            for r in 0..self.k {
                if r != col && matrix[r][col] != 0 {
                    let factor = matrix[r][col];
                    let pivot_row = matrix[col].clone();
                    for (dst, &src) in matrix[r].iter_mut().zip(&pivot_row) {
                        *dst ^= gf256::mul(factor, src);
                    }
                    let pivot_rhs = rhs[col].clone();
                    for (dst, &src) in rhs[r].iter_mut().zip(&pivot_rhs) {
                        *dst ^= gf256::mul(factor, src);
                    }
                }
            }
        }
        // rhs now holds the k data shards; rebuild what was erased.
        let data: Vec<Vec<u8>> = rhs;
        let parity = self.encode(&data);
        for &i in &erased {
            shards[i] = Some(if i < self.k {
                data[i].clone()
            } else {
                parity[i - self.k].clone()
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 3) as u8).collect())
            .collect()
    }

    #[test]
    fn roundtrip_no_erasure() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 64);
        let parity = rs.encode(&data);
        let mut all: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
        assert_eq!(rs.reconstruct(&mut all), Ok(()));
    }

    #[test]
    fn recovers_any_two_erasures_with_two_parity() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 32);
        let parity = rs.encode(&data);
        let original: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut all: Vec<Option<Vec<u8>>> = original.iter().cloned().map(Some).collect();
                all[a] = None;
                all[b] = None;
                rs.reconstruct(&mut all)
                    .unwrap_or_else(|e| panic!("({a},{b}): {e}"));
                for (i, s) in all.iter().enumerate() {
                    assert_eq!(
                        s.as_ref().unwrap(),
                        &original[i],
                        "shard {i} after ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_parity_is_xor() {
        let rs = ReedSolomon::new(3, 1);
        let data = shards(3, 16);
        let parity = rs.encode(&data);
        for j in 0..16 {
            assert_eq!(parity[0][j], data[0][j] ^ data[1][j] ^ data[2][j]);
        }
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 8);
        let parity = rs.encode(&data);
        let mut all: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
        all[0] = None;
        all[1] = None;
        all[2] = None;
        assert_eq!(
            rs.reconstruct(&mut all),
            Err(RsError::TooManyErasures {
                erased: 3,
                parity: 2
            })
        );
    }

    #[test]
    fn corrupted_shard_poisons_reconstruction_silently() {
        // Observation 12: "a corrupted data block may be used to construct
        // a lost data block, causing the corruption to propagate."
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 32);
        let parity = rs.encode(&data);
        let mut all: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
        // An SDC corrupts shard 1; shard 2 is lost and reconstructed.
        all[1].as_mut().expect("present")[5] ^= 0x40;
        all[2] = None;
        rs.reconstruct(&mut all).expect("reconstruction succeeds");
        assert_ne!(
            all[2].as_ref().expect("rebuilt"),
            &data[2],
            "the rebuilt shard is wrong and nothing flagged it"
        );
    }

    #[test]
    #[should_panic(expected = "unsupported geometry")]
    fn rejects_oversized_geometry() {
        let _ = ReedSolomon::new(200, 100);
    }
}
