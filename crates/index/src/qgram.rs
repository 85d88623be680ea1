//! Inverted q-gram index — the classical filter-and-verify baseline from
//! the string-similarity literature the paper competes in.
//!
//! Build: every record's q-grams go into posting lists
//! (`gram code → sorted record ids`). Search: the count filter (one edit
//! destroys at most `q` grams) requires
//! `shared ≥ (|query| − q + 1) − k·q` shared grams; candidates are
//! gathered by merging the query grams' posting lists with a reusable
//! per-record counter, then verified with the banded kernel. When the
//! required count is ≤ 0 (short queries or large `k`) the filter is
//! vacuous and the search degrades to a length-filtered scan.

use simsearch_data::{Dataset, Match, MatchSet, RecordId};
use simsearch_distance::ed_within_banded_with;
use simsearch_filters::qgram::collect_profile;
use std::collections::HashMap;

/// An inverted q-gram index over a dataset (keeps a reference-free copy
/// of nothing: records are verified against the dataset passed to
/// [`QgramIndex::search`], which must be the one it was built from).
#[derive(Debug, Clone)]
pub struct QgramIndex {
    q: usize,
    /// Posting lists: gram code → ascending record ids (with per-record
    /// multiplicity, matching multiset q-gram semantics).
    postings: HashMap<u64, Vec<RecordId>>,
    record_count: usize,
}

impl QgramIndex {
    /// Builds the index with gram size `q` (1 ≤ q ≤ 8).
    ///
    /// # Panics
    /// Panics if `q` is 0 or greater than 8.
    pub fn build(dataset: &Dataset, q: usize) -> Self {
        assert!((1..=8).contains(&q), "q must be in 1..=8");
        let mut postings: HashMap<u64, Vec<RecordId>> = HashMap::new();
        let mut profile = Vec::new();
        for (id, record) in dataset.iter() {
            collect_profile(record, q, &mut profile);
            for &g in &profile {
                postings.entry(g).or_default().push(id);
            }
        }
        Self {
            q,
            postings,
            record_count: dataset.len(),
        }
    }

    /// The gram size.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of distinct grams with posting lists.
    pub fn distinct_grams(&self) -> usize {
        self.postings.len()
    }

    /// Heap footprint in bytes: every posting list's allocated capacity,
    /// plus the map's table — one `(gram, list header)` slot and one
    /// control byte per entry of capacity.
    pub fn memory_bytes(&self) -> usize {
        let lists: usize = self
            .postings
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<RecordId>())
            .sum();
        let slot = std::mem::size_of::<(u64, Vec<RecordId>)>() + 1;
        lists + self.postings.capacity() * slot
    }

    /// Returns every record of `dataset` within edit distance `k` of
    /// `query`. `dataset` must be the dataset the index was built from.
    pub fn search(&self, dataset: &Dataset, query: &[u8], k: u32) -> MatchSet {
        let mut scratch = SearchScratch::new(self.record_count);
        self.search_with(dataset, query, k, &mut scratch)
    }

    /// Like [`QgramIndex::search`] with caller-provided scratch space
    /// (reused across queries in hot loops).
    pub fn search_with(
        &self,
        dataset: &Dataset,
        query: &[u8],
        k: u32,
        scratch: &mut SearchScratch,
    ) -> MatchSet {
        let required = query.len() as i64 - self.q as i64 + 1 - (k as i64) * (self.q as i64);
        let mut out = Vec::new();
        if required <= 0 {
            // Vacuous filter: length-filtered scan.
            for (id, record) in dataset.iter() {
                if record.len().abs_diff(query.len()) > k as usize {
                    continue;
                }
                if let Some(d) = ed_within_banded_with(&mut scratch.rows, query, record, k) {
                    out.push(Match::new(id, d));
                }
            }
            return MatchSet::from_unsorted(out);
        }
        // Count shared grams per candidate.
        collect_profile(query, self.q, &mut scratch.profile);
        scratch.reset_counts();
        // The query profile is sorted; duplicate grams must consume
        // multiplicity from the posting list, so walk runs of equal grams.
        let profile = std::mem::take(&mut scratch.profile);
        let mut i = 0;
        while i < profile.len() {
            let g = profile[i];
            let mut mult = 1;
            while i + mult < profile.len() && profile[i + mult] == g {
                mult += 1;
            }
            if let Some(list) = self.postings.get(&g) {
                // list holds each record id once per occurrence; shared
                // count for this gram = min(query mult, record mult).
                let mut j = 0;
                while j < list.len() {
                    let id = list[j];
                    let mut rec_mult = 1;
                    while j + rec_mult < list.len() && list[j + rec_mult] == id {
                        rec_mult += 1;
                    }
                    scratch.bump(id, rec_mult.min(mult) as u32);
                    j += rec_mult;
                }
            }
            i += mult;
        }
        scratch.profile = profile;
        // Verify survivors.
        for &id in &scratch.touched {
            if (scratch.counts[id as usize] as i64) < required {
                continue;
            }
            let record = dataset.get(id);
            if record.len().abs_diff(query.len()) > k as usize {
                continue;
            }
            if let Some(d) = ed_within_banded_with(&mut scratch.rows, query, record, k) {
                out.push(Match::new(id, d));
            }
        }
        MatchSet::from_unsorted(out)
    }
}

/// Reusable per-query scratch space for [`QgramIndex::search_with`].
#[derive(Debug, Clone)]
pub struct SearchScratch {
    counts: Vec<u32>,
    touched: Vec<RecordId>,
    profile: Vec<u64>,
    rows: Vec<u32>,
}

impl SearchScratch {
    /// Creates scratch space for a dataset of `record_count` records.
    pub fn new(record_count: usize) -> Self {
        Self {
            counts: vec![0; record_count],
            touched: Vec::new(),
            profile: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn reset_counts(&mut self) {
        for &id in &self.touched {
            self.counts[id as usize] = 0;
        }
        self.touched.clear();
    }

    fn bump(&mut self, id: RecordId, by: u32) {
        let c = &mut self.counts[id as usize];
        if *c == 0 {
            self.touched.push(id);
        }
        *c += by;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_distance::levenshtein;

    fn brute_force(ds: &Dataset, q: &[u8], k: u32) -> MatchSet {
        ds.iter()
            .filter_map(|(id, r)| {
                let d = levenshtein(q, r);
                (d <= k).then_some(Match::new(id, d))
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_across_qs_and_ks() {
        let words = [
            "Berlin", "Bern", "Bonn", "Ulm", "Berlingen", "", "B", "Bärlin", "Bernau",
        ];
        let ds = Dataset::from_records(words);
        for qsize in [1usize, 2, 3] {
            let idx = QgramIndex::build(&ds, qsize);
            for q in ["Berlin", "Bern", "", "Xyz", "Ulm", "Bonnn"] {
                for k in 0..4 {
                    assert_eq!(
                        idx.search(&ds, q.as_bytes(), k),
                        brute_force(&ds, q.as_bytes(), k),
                        "qsize={qsize} q={q} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn vacuous_filter_falls_back_to_scan() {
        // Query shorter than q: required ≤ 0 for any k.
        let ds = Dataset::from_records(["ab", "ba", "zzz"]);
        let idx = QgramIndex::build(&ds, 3);
        assert_eq!(idx.search(&ds, b"ab", 1), brute_force(&ds, b"ab", 1));
    }

    #[test]
    fn duplicate_grams_use_multiset_counts() {
        // "aaaa" has grams aa, aa, aa; "aa" has one. Multiset sharing = 1.
        let ds = Dataset::from_records(["aaaa", "aa"]);
        let idx = QgramIndex::build(&ds, 2);
        assert_eq!(idx.search(&ds, b"aaaa", 2), brute_force(&ds, b"aaaa", 2));
        assert_eq!(idx.search(&ds, b"aaaa", 1), brute_force(&ds, b"aaaa", 1));
    }

    #[test]
    fn scratch_reuse_across_queries_is_clean() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm"]);
        let idx = QgramIndex::build(&ds, 2);
        let mut scratch = SearchScratch::new(ds.len());
        let a = idx.search_with(&ds, b"Berlin", 1, &mut scratch);
        let b = idx.search_with(&ds, b"Ulm", 1, &mut scratch);
        let c = idx.search_with(&ds, b"Berlin", 1, &mut scratch);
        assert_eq!(a, c);
        assert_eq!(b.ids(), vec![2]);
    }

    #[test]
    fn reports_structure_stats() {
        let ds = Dataset::from_records(["abc", "abd"]);
        let idx = QgramIndex::build(&ds, 2);
        // Grams: ab, bc, ab, bd -> distinct {ab, bc, bd}.
        assert_eq!(idx.distinct_grams(), 3);
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.q(), 2);
    }

    #[test]
    fn memory_bytes_counts_list_headers_and_map_slots() {
        // Below this, the report leaves out what every posting list's
        // header (24 bytes) costs beside its gram key (8 bytes).
        let ds = Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm", "Berlingen", "Bernau"]);
        let idx = QgramIndex::build(&ds, 2);
        let ids: usize = idx.postings.values().map(Vec::len).sum();
        let floor = ids * 4 + idx.distinct_grams() * (8 + 24);
        assert!(
            idx.memory_bytes() >= floor,
            "{} < {floor}",
            idx.memory_bytes()
        );
    }
}
