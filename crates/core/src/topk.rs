//! Top-k nearest-neighbour search: the `count` records closest to a
//! query by edit distance.
//!
//! Applications that motivated the paper's introduction ("the
//! application has to find all relevant results") usually want *the best
//! few* suggestions rather than a fixed radius. This module answers that
//! by iterative deepening over the threshold: radius 0, then doubling,
//! until `count` matches exist — each probe is an ordinary threshold
//! query, so the result provably contains the true `count` nearest
//! records.
//!
//! There is one deepening loop, [`search_top_k_with`], and no engine has
//! a top-k path of its own: a probe is whatever the engine does for a
//! threshold query. Under a planner-routed engine that means every
//! radius is routed by the decision table, counted and timed into its
//! own `(length class, k)` cell like any `QUERY`; under a sharded or live
//! engine every radius fans out and merges like any `QUERY`.

use crate::engine::SearchEngine;
use simsearch_data::{Match, MatchSet};

/// The `count` records nearest to `query`, ordered by
/// `(distance, record id)`. At most `max_radius` is explored: if fewer
/// than `count` records exist within it, fewer matches are returned.
/// # Examples
///
/// ```
/// use simsearch_core::{search_top_k, EngineKind, SearchEngine, SeqVariant};
/// use simsearch_data::Dataset;
///
/// let ds = Dataset::from_records(["Berlin", "Bern", "Ulm"]);
/// let engine = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
/// let top = search_top_k(&engine, b"Berlim", 2, 8);
/// assert_eq!(top[0].id, 0); // Berlin, distance 1
/// assert_eq!(top.len(), 2);
/// ```
///
/// Ties at the cut-off are broken by record id, so the result is
/// deterministic.
pub fn search_top_k(
    engine: &SearchEngine<'_>,
    query: &[u8],
    count: usize,
    max_radius: u32,
) -> Vec<Match> {
    let backend = engine.backend();
    search_top_k_with(
        |radius| backend.search_counting(query, radius),
        count,
        max_radius,
    )
    .0
}

/// The iterative-deepening loop: `probe(radius)` answers one threshold
/// query and reports the DP cells it computed (what
/// [`crate::Backend::search_counting`] returns); the result is the
/// `count` nearest matches plus the cells summed over every probe — the
/// daemon's `TOPK` path.
pub fn search_top_k_with(
    mut probe: impl FnMut(u32) -> (MatchSet, u64),
    count: usize,
    max_radius: u32,
) -> (Vec<Match>, u64) {
    if count == 0 {
        return (Vec::new(), 0);
    }
    let mut cells = 0u64;
    let mut radius = 0u32;
    loop {
        let (found, counted) = probe(radius);
        cells += counted;
        if found.len() >= count || radius >= max_radius {
            // All records with distance ≤ radius are present, so the
            // `count` smallest of them are the global top-k (any record
            // outside has distance > radius ≥ the cut-off distance).
            let mut matches: Vec<Match> = found.iter().copied().collect();
            matches.sort_unstable_by_key(|m| (m.distance, m.id));
            matches.truncate(count);
            return (matches, cells);
        }
        radius = (radius * 2).clamp(radius + 1, max_radius);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, IdxVariant};
    use simsearch_data::Dataset;
    use simsearch_distance::levenshtein;
    use simsearch_scan::SeqVariant;

    fn engine(ds: &Dataset) -> SearchEngine<'_> {
        SearchEngine::build(ds, EngineKind::Scan(SeqVariant::V4Flat))
    }

    #[test]
    fn returns_nearest_records_in_order() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm", "Berl"]);
        let e = engine(&ds);
        let top = search_top_k(&e, b"Berlin", 3, 16);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].id, 0); // exact match first
        assert_eq!(top[0].distance, 0);
        // Distances are non-decreasing.
        assert!(top.windows(2).all(|w| w[0].distance <= w[1].distance));
        // Verify against the oracle: these are the 3 smallest distances.
        let mut all: Vec<(u32, u32)> = ds
            .iter()
            .map(|(id, r)| (levenshtein(b"Berlin", r), id))
            .collect();
        all.sort_unstable();
        for (m, &(d, id)) in top.iter().zip(all.iter()) {
            assert_eq!((m.distance, m.id), (d, id));
        }
    }

    #[test]
    fn respects_max_radius() {
        let ds = Dataset::from_records(["aaaaaaaa", "bbbbbbbb"]);
        let e = engine(&ds);
        let top = search_top_k(&e, b"cccccccc", 2, 3);
        // Both records are at distance 8 > max_radius 3.
        assert!(top.is_empty());
    }

    #[test]
    fn works_through_an_index_engine() {
        let ds = Dataset::from_records(["kitten", "sitting", "mitten", "bitten", "kitchen"]);
        let idx = SearchEngine::build(&ds, EngineKind::Index(IdxVariant::I2Compressed));
        let scan = engine(&ds);
        let a = search_top_k(&idx, b"kitten", 4, 16);
        let b = search_top_k(&scan, b"kitten", 4, 16);
        assert_eq!(a, b);
        assert_eq!(a[0].id, 0);
    }

    #[test]
    fn count_zero_and_oversized_count() {
        let ds = Dataset::from_records(["a", "b"]);
        let e = engine(&ds);
        assert!(search_top_k(&e, b"a", 0, 8).is_empty());
        let all = search_top_k(&e, b"a", 10, 8);
        assert_eq!(all.len(), 2);
    }
}
