//! The output check's reference: a flat scan over a plain two-row
//! banded DP written here, sharing no code with the kernels the
//! engines answer from (row-stack, Myers blocks, incremental trie
//! rows, q-gram verify), so no answering arm can agree with it by
//! sharing a bug.

use simsearch_data::{Dataset, Match};

/// `ed(a, b)` when it is `≤ k`, else `None`. Wagner–Fischer over the
/// diagonal band `|i − j| ≤ k`; a row whose minimum exceeds `k` ends it.
pub fn bounded_distance(a: &[u8], b: &[u8], k: u32) -> Option<u32> {
    let k = k as usize;
    if a.len().abs_diff(b.len()) > k {
        return None;
    }
    let inf = u32::MAX / 2;
    let mut prev: Vec<u32> = (0..=b.len())
        .map(|j| if j <= k { j as u32 } else { inf })
        .collect();
    let mut cur = vec![inf; b.len() + 1];
    for i in 1..=a.len() {
        let lo = i.saturating_sub(k).max(1);
        let hi = (i + k).min(b.len());
        cur[lo - 1] = if lo == 1 && i <= k { i as u32 } else { inf };
        let mut row_min = cur[lo - 1];
        for j in lo..=hi {
            let substitute = prev[j - 1] + u32::from(a[i - 1] != b[j - 1]);
            let v = substitute.min(prev[j] + 1).min(cur[j - 1] + 1);
            cur[j] = v;
            row_min = row_min.min(v);
        }
        if hi < b.len() {
            cur[hi + 1] = inf;
        }
        if row_min > k as u32 {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Some(prev[b.len()]).filter(|&d| d <= k as u32)
}

/// Every `(id, record)` within distance `k` of `query`, ascending by id
/// when `records` is.
pub fn flat_scan<'a>(
    records: impl Iterator<Item = (u32, &'a [u8])>,
    query: &[u8],
    k: u32,
) -> Vec<Match> {
    records
        .filter_map(|(id, record)| bounded_distance(query, record, k).map(|d| Match::new(id, d)))
        .collect()
}

/// Match-for-match comparison (ids and distances); `Err` names the
/// first difference.
pub fn compare(expected: &[Match], got: &[Match]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(e, g)| e != g)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "expected {} matches, got {}; first difference at position {at}: expected {:?}, got {:?}",
        expected.len(),
        got.len(),
        expected.get(at),
        got.get(at)
    ))
}

/// The records a live engine must hold after a run: the seed dataset
/// plus acknowledged inserts minus acknowledged deletes, by global id.
pub struct Shadow {
    records: Vec<Option<Vec<u8>>>,
}

impl Shadow {
    pub fn seeded(dataset: &Dataset) -> Self {
        Self {
            records: dataset.records().map(|r| Some(r.to_vec())).collect(),
        }
    }

    /// Records an acknowledged `INSERT`. Ids are dense but clients
    /// report theirs in any order, so gaps are filled as they arrive.
    pub fn insert(&mut self, id: u32, text: &[u8]) -> Result<(), String> {
        let at = id as usize;
        if at >= self.records.len() {
            self.records.resize(at + 1, None);
        }
        if self.records[at].is_some() {
            return Err(format!("id {id} was assigned twice"));
        }
        self.records[at] = Some(text.to_vec());
        Ok(())
    }

    /// Records an acknowledged `DELETE`; `Err` when the id was not live.
    pub fn delete(&mut self, id: u32) -> Result<(), String> {
        match self.records.get_mut(id as usize).and_then(Option::take) {
            Some(_) => Ok(()),
            None => Err(format!("deleted id {id} was not live")),
        }
    }

    /// Surviving `(id, record)` pairs, ascending by id.
    pub fn survivors(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_deref().map(|r| (id as u32, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_data::Xoshiro256;
    use simsearch_distance::levenshtein;

    #[test]
    fn bounded_distance_agrees_with_the_full_matrix() {
        let mut rng = Xoshiro256::seed_from_u64(42);
        for _ in 0..4000 {
            let mut word = |max: usize| -> Vec<u8> {
                (0..rng.index(max + 1))
                    .map(|_| b"ACGT"[rng.index(4)])
                    .collect()
            };
            let (a, b) = (word(14), word(14));
            let full = levenshtein(&a, &b) as u32;
            for k in 0..8 {
                assert_eq!(
                    bounded_distance(&a, &b, k),
                    Some(full).filter(|&d| d <= k),
                    "{a:?} {b:?} k={k}"
                );
            }
        }
        assert_eq!(bounded_distance(b"", b"", 0), Some(0));
        assert_eq!(bounded_distance(b"", b"ab", 2), Some(2));
        assert_eq!(bounded_distance(b"Berlin", b"Bern", 1), None);
    }

    #[test]
    fn a_tampered_reply_fails_the_check() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Bonn", "Berlim"]);
        let honest = flat_scan(ds.iter(), b"Berlin", 1);
        assert_eq!(honest, [Match::new(0, 0), Match::new(3, 1)]);
        assert!(compare(&honest, &honest).is_ok());
        let mut wrong_distance = honest.clone();
        wrong_distance[1].distance = 0;
        let mut wrong_id = honest.clone();
        wrong_id[1].id = 2;
        for tampered in [&wrong_distance[..], &wrong_id[..], &honest[..1], &[]] {
            assert!(compare(&honest, tampered).is_err());
        }
        let mut extra = honest.clone();
        extra.push(Match::new(9, 1));
        assert!(compare(&honest, &extra).is_err());
    }

    #[test]
    fn shadow_follows_a_hand_written_op_sequence() {
        let ds = Dataset::from_records(["a", "b", "c"]);
        let mut shadow = Shadow::seeded(&ds);
        // Two clients report out of id order; 4 arrives before 3.
        shadow.insert(4, b"e").unwrap();
        shadow.insert(3, b"d").unwrap();
        shadow.delete(1).unwrap();
        shadow.delete(4).unwrap();
        shadow.insert(5, b"b").unwrap();
        let survivors: Vec<(u32, &[u8])> = shadow.survivors().collect();
        assert_eq!(survivors, [(0, &b"a"[..]), (2, b"c"), (3, b"d"), (5, b"b")]);
        // A second delete, a delete of a never-assigned id and a reused
        // id are all server faults the model must flag.
        assert!(shadow.delete(1).is_err());
        assert!(shadow.delete(77).is_err());
        assert!(shadow.insert(3, b"x").is_err());
        assert_eq!(flat_scan(shadow.survivors(), b"b", 0), [Match::new(5, 0)]);
    }
}
