//! Seeded inputs. Everything a run feeds the system is derived from
//! `--seed S`: dataset `S`, queries `S+1`, arrival schedule `S+2`, op
//! mix `S+3`. `core::presets` (fixed seeds) is deliberately not used.

use simsearch_data::{
    Alphabet, CityGenerator, Dataset, DnaGenerator, Workload, WorkloadSpec, Xoshiro256,
    CITY_THRESHOLDS, DNA_THRESHOLDS,
};

/// Which of the paper's two corpora a workload searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Short strings, large alphabet (Table I city names).
    City,
    /// Reads of ≈100 bases over ACGNT (Table I DNA).
    Dna,
}

impl Corpus {
    /// The paper's threshold cycle for this corpus.
    pub fn thresholds(self) -> &'static [u32] {
        match self {
            Corpus::City => &CITY_THRESHOLDS,
            Corpus::Dna => &DNA_THRESHOLDS,
        }
    }

    /// `count` records from `seed`. The DNA genome is sized as
    /// `core::presets::dna` sizes it (≈70× coverage).
    pub fn records(self, count: usize, seed: u64) -> Dataset {
        match self {
            Corpus::City => CityGenerator::new(seed).generate(count),
            Corpus::Dna => {
                let genome = (count * 100 / 70).clamp(10_000, 100_000_000);
                DnaGenerator::new(seed).genome_len(genome).generate(count)
            }
        }
    }
}

/// Everything one workload run consumes.
pub struct Inputs {
    pub corpus: Corpus,
    pub dataset: Dataset,
    /// Queries cycling the corpus thresholds, in issue order.
    pub queries: Workload,
    /// Fresh records `INSERT`s draw from, in order (never in `dataset`
    /// by construction for city names; DNA reads may coincide).
    pub insert_pool: Dataset,
}

impl Inputs {
    pub fn generate(
        corpus: Corpus,
        records: usize,
        queries: usize,
        pool: usize,
        seed: u64,
    ) -> Self {
        let dataset = corpus.records(records, seed);
        let alphabet = Alphabet::from_corpus(dataset.records());
        let queries =
            WorkloadSpec::new(corpus.thresholds(), queries, seed + 1).generate(&dataset, &alphabet);
        let insert_pool = corpus.records(pool, seed + 3);
        Self {
            corpus,
            dataset,
            queries,
            insert_pool,
        }
    }

    /// Length of the threshold cycle: query `i` has threshold
    /// `thresholds()[i % cycle()]`, which makes `i % cycle()` its class.
    pub fn cycle(&self) -> usize {
        self.corpus.thresholds().len()
    }
}

/// Due times (nanoseconds from the phase start) of a Poisson arrival
/// process of `rate_per_s` over `duration_s`: exponential gaps, so
/// bursts and lulls occur as they do with independent users.
pub fn poisson_schedule(rate_per_s: f64, duration_s: f64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.f64()).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// One operation a client issues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `QUERY` with the workload's query at this index.
    Query(usize),
    /// `INSERT` of the insert-pool record at this index.
    Insert(usize),
    /// `DELETE` of the `n`-th still-live record this client inserted.
    Delete(usize),
}

/// Shares of writes in a client's op stream (the rest are queries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixShares {
    pub insert: f64,
    pub delete: f64,
}

impl MixShares {
    pub const READ_ONLY: Self = Self {
        insert: 0.0,
        delete: 0.0,
    };
}

/// One client's seeded op stream. Client `c` of `clients` walks the
/// whole query list in order (wrapping), starting `c/clients` of the
/// way in, and the insert pool likewise: every client issues every
/// threshold in turn, and no two are at the same query at once.
pub struct OpStream {
    rng: Xoshiro256,
    shares: MixShares,
    next_query: usize,
    queries: usize,
    next_insert: usize,
    pool: usize,
}

impl OpStream {
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        shares: MixShares,
        queries: usize,
        pool: usize,
    ) -> Self {
        assert!(queries > 0 && pool > 0 && client < clients);
        Self {
            rng: Xoshiro256::seed_from_u64(seed.wrapping_add(0x9E37_79B9 * client as u64)),
            shares,
            next_query: client * queries / clients,
            queries,
            next_insert: client * pool / clients,
            pool,
        }
    }

    /// The next op, given how many records this client inserted and has
    /// not deleted yet. A `DELETE` with nothing to delete becomes an
    /// `INSERT`, so no generated op can fail.
    pub fn next(&mut self, live_own: usize) -> Op {
        let u = self.rng.f64();
        if u < self.shares.delete && live_own > 0 {
            return Op::Delete(self.rng.index(live_own));
        }
        if u < self.shares.delete + self.shares.insert {
            let at = self.next_insert;
            self.next_insert = (at + 1) % self.pool;
            return Op::Insert(at);
        }
        let at = self.next_query;
        self.next_query = (at + 1) % self.queries;
        Op::Query(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: MixShares = MixShares {
        insert: 0.2,
        delete: 0.1,
    };

    fn ops(seed: u64, client: usize) -> Vec<Op> {
        let mut stream = OpStream::new(seed, client, 2, MIX, 100, 50);
        let mut live = 0usize;
        (0..2000)
            .map(|_| {
                let op = stream.next(live);
                match op {
                    Op::Insert(_) => live += 1,
                    Op::Delete(_) => live -= 1,
                    Op::Query(_) => {}
                }
                op
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_schedule_mix_and_query_order() {
        assert_eq!(
            poisson_schedule(250.0, 4.0, 9),
            poisson_schedule(250.0, 4.0, 9)
        );
        assert_ne!(
            poisson_schedule(250.0, 4.0, 9),
            poisson_schedule(250.0, 4.0, 10)
        );
        assert_eq!(ops(7, 0), ops(7, 0));
        assert_ne!(ops(7, 0), ops(8, 0));
        assert_ne!(ops(7, 0), ops(7, 1));
        for corpus in [Corpus::City, Corpus::Dna] {
            let a = Inputs::generate(corpus, 300, 40, 20, 5);
            let b = Inputs::generate(corpus, 300, 40, 20, 5);
            assert!(a.dataset.iter().eq(b.dataset.iter()));
            assert!(a.insert_pool.iter().eq(b.insert_pool.iter()));
            assert_eq!(a.queries, b.queries);
            let ks: Vec<u32> = a.queries.iter().take(4).map(|q| q.threshold).collect();
            assert_eq!(ks, corpus.thresholds());
        }
    }

    #[test]
    fn poisson_schedule_is_ascending_and_near_the_rate() {
        let due = poisson_schedule(250.0, 20.0, 3);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 20_000_000_000);
        // 5,000 expected; five standard deviations is ±354.
        assert!((4600..5400).contains(&due.len()), "{}", due.len());
    }

    #[test]
    fn op_stream_honours_shares_and_never_deletes_from_nothing() {
        let ops = ops(11, 1);
        let count =
            |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        let (q, i, d) = (
            count(|o| matches!(o, Op::Query(_))),
            count(|o| matches!(o, Op::Insert(_))),
            count(|o| matches!(o, Op::Delete(_))),
        );
        assert!(
            (q - 0.7).abs() < 0.05 && (i - 0.2).abs() < 0.05 && (d - 0.1).abs() < 0.05,
            "{q} {i} {d}"
        );
        // Client 1 of 2 starts half-way into the 100 queries.
        let walked: Vec<usize> = ops
            .iter()
            .filter_map(|o| {
                if let Op::Query(at) = o {
                    Some(*at)
                } else {
                    None
                }
            })
            .take(3)
            .collect();
        assert_eq!(walked, [50, 51, 52]);
        let mut read_only = OpStream::new(1, 0, 1, MixShares::READ_ONLY, 10, 1);
        assert!((0..100).all(|_| matches!(read_only.next(0), Op::Query(_))));
    }
}
