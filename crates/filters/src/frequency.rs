//! Frequency-vector filter — the paper's §6 "frequency vectors" future
//! work, as a per-record filter.
//!
//! For each record, the occurrence counts of five tracked symbols
//! (A, C, G, N, T for DNA; the vowels for city names) plus an "other"
//! bucket are precomputed. At query time the sound lower bound
//! `ed ≥ max(⌈L1/2⌉, |Δlen|)` (see [`simsearch_data::freq`]) rejects
//! candidates before any DP row is computed.

use crate::{DynFilter, PreparedFilter};
use simsearch_data::freq::{FreqVector, TRACKED};
use simsearch_data::{Dataset, RecordId};

/// Per-dataset frequency-vector table.
#[derive(Debug, Clone)]
pub struct FrequencyFilter {
    tracked: [u8; TRACKED],
    vectors: Vec<FreqVector>,
}

impl FrequencyFilter {
    /// Builds the table, tracking the given five symbols.
    pub fn build(dataset: &Dataset, tracked: [u8; TRACKED]) -> Self {
        let vectors = dataset
            .records()
            .map(|r| FreqVector::compute(r, &tracked))
            .collect();
        Self { tracked, vectors }
    }

    /// The tracked symbol set.
    pub fn tracked(&self) -> &[u8; TRACKED] {
        &self.tracked
    }

    /// Whether record `id` can be within distance `k` of a query whose
    /// vector is `query_vec`.
    #[inline]
    pub fn admits(&self, query_vec: &FreqVector, id: RecordId, k: u32) -> bool {
        query_vec.ed_lower_bound(&self.vectors[id as usize]) <= k
    }
}

/// Prepared per-query state: the query's own frequency vector.
pub struct PreparedFrequency<'a> {
    filter: &'a FrequencyFilter,
    query_vec: FreqVector,
    k: u32,
}

impl DynFilter for FrequencyFilter {
    fn name(&self) -> &'static str {
        "frequency"
    }

    fn prepare<'a>(&'a self, query: &[u8], k: u32) -> Box<dyn PreparedFilter + 'a> {
        Box::new(PreparedFrequency {
            filter: self,
            query_vec: FreqVector::compute(query, &self.tracked),
            k,
        })
    }
}

impl PreparedFilter for PreparedFrequency<'_> {
    fn admits(&self, id: RecordId) -> bool {
        self.filter.admits(&self.query_vec, id, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_data::alphabet::DNA_SYMBOLS;
    use simsearch_distance::levenshtein;

    #[test]
    fn rejects_compositionally_distant_records() {
        let ds = Dataset::from_records(["AAAA", "TTTT", "AATT"]);
        let f = FrequencyFilter::build(&ds, DNA_SYMBOLS);
        let q = FreqVector::compute(b"AAAA", &DNA_SYMBOLS);
        assert!(f.admits(&q, 0, 0));
        assert!(!f.admits(&q, 1, 3)); // needs 4 substitutions
        assert!(f.admits(&q, 1, 4));
        assert!(!f.admits(&q, 2, 1)); // needs 2
        assert!(f.admits(&q, 2, 2));
    }

    #[test]
    fn never_rejects_a_true_match() {
        // Soundness check against the oracle on a small corpus.
        let words = ["AGGCGT", "AGAGT", "AGGT", "TTTT", "A", "", "NNNAN"];
        let ds = Dataset::from_records(words);
        let f = FrequencyFilter::build(&ds, DNA_SYMBOLS);
        for q in words {
            let qv = FreqVector::compute(q.as_bytes(), &DNA_SYMBOLS);
            for (id, w) in words.iter().enumerate() {
                let d = levenshtein(q.as_bytes(), w.as_bytes());
                for k in 0..8 {
                    if d <= k {
                        assert!(
                            f.admits(&qv, id as RecordId, k),
                            "filter rejected true match {q} ~ {w} (d={d}, k={k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dyn_interface_matches_direct() {
        let ds = Dataset::from_records(["AAAA", "TTTT"]);
        let f = FrequencyFilter::build(&ds, DNA_SYMBOLS);
        let p = f.prepare(b"AAAA", 2);
        assert!(p.admits(0));
        assert!(!p.admits(1));
    }
}
