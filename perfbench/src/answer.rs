//! What the benchmark keeps of each reply until the oracle check.
//!
//! Joins and aggregates return up to a million pairs per read; keeping
//! them all would make the benchmark's own memory show in `peak_rss_mb`.
//! They are kept as an order-independent multiset digest instead: the
//! count plus the wrapping sum of a 64-bit mix of every element. Equal
//! answers always have equal digests; a wrong answer collides with the
//! oracle's digest with negligible probability.

use spade_core::query::QueryResult;

#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Selection ids, sorted.
    Ids(Vec<u32>),
    /// kNN `(id, distance)`, nearest first.
    Ranked(Vec<(u32, f64)>),
    Digest {
        len: usize,
        sum: u64,
    },
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of a multiset of `(a, b)` pairs.
pub fn digest(items: impl Iterator<Item = (u64, u64)>) -> Answer {
    let (mut len, mut sum) = (0usize, 0u64);
    for (a, b) in items {
        len += 1;
        sum = sum.wrapping_add(mix(mix(a) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
    Answer::Digest { len, sum }
}

impl Answer {
    pub fn of(result: QueryResult) -> Answer {
        match result {
            QueryResult::Ids(mut v) => {
                v.sort_unstable();
                Answer::Ids(v)
            }
            QueryResult::Ranked(v) => Answer::Ranked(v),
            QueryResult::Pairs(v) => digest(v.into_iter().map(|(a, b)| (a as u64, b as u64))),
            QueryResult::Counts(v) => digest(v.into_iter().map(|(a, n)| (a as u64, n))),
            QueryResult::RankedPairs(v) => digest(
                v.into_iter()
                    .map(|(a, b, d)| ((a as u64) << 32 | b as u64, d.to_bits())),
            ),
        }
    }

    /// Does this reply match the oracle's answer? kNN distances must agree
    /// to 1e-12 rank by rank, and ids must agree wherever a distance is not
    /// tied with a neighbour's (tied ids may come in either order).
    pub fn matches(&self, oracle: &Answer) -> bool {
        match (self, oracle) {
            (Answer::Ranked(a), Answer::Ranked(b)) => {
                let tied = |i: usize| {
                    (i > 0 && b[i - 1].1 == b[i].1) || (i + 1 < b.len() && b[i + 1].1 == b[i].1)
                };
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .enumerate()
                        .all(|(i, (x, y))| (x.1 - y.1).abs() < 1e-12 && (x.0 == y.0 || tied(i)))
            }
            (a, b) => a == b,
        }
    }

    /// For id answers, the first few ids missing from and extra in this
    /// reply against the oracle's, to name a mismatch's cause.
    pub fn id_diff(&self, oracle: &Answer) -> String {
        let (Answer::Ids(got), Answer::Ids(want)) = (self, oracle) else {
            return String::new();
        };
        let not_in = |a: &[u32], b: &[u32]| -> Vec<u32> {
            a.iter()
                .filter(|x| b.binary_search(x).is_err())
                .take(5)
                .copied()
                .collect()
        };
        format!(
            "; missing ids {:?}, extra ids {:?}",
            not_in(want, got),
            not_in(got, want)
        )
    }

    pub fn len(&self) -> usize {
        match self {
            Answer::Ids(v) => v.len(),
            Answer::Ranked(v) => v.len(),
            Answer::Digest { len, .. } => *len,
        }
    }
}
