//! The partition-join oracle gate: PASS-JOIN returns the nested-loop
//! join's pair list everywhere it can be reached.
//!
//! Three layers:
//!
//! 1. **Property level** — randomized small corpora over both alphabet
//!    families (city-like letters, DNA), shrunk on failure, with the
//!    parallel entry points in the loop.
//! 2. **Executor level** — fixed city and DNA presets, k ∈ {0, 1, 2, 4},
//!    under every executor × thread count {1, 4, 8}.
//! 3. **Degenerate level** — the empty set, a singleton, an
//!    all-identical corpus, and k at or beyond the longest record.

use simsearch_core::join::nested_loop_join;
use simsearch_core::{parallel_pass_join, pass_join, Strategy};
use simsearch_data::{CityGenerator, Dataset, DnaGenerator};
use simsearch_testkit::{check, gen, prop_assert_eq, Config, Gen};

const SEED: u64 = 0x9A55_2013;

fn corpus(alphabet: &'static [u8]) -> Gen<Vec<Vec<u8>>> {
    gen::vec_of(gen::bytes_from(alphabet, 0..10), 0..12)
}

fn presets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("city", CityGenerator::new(0xC17E_7E57).generate(400)),
        (
            "dna",
            DnaGenerator::new(0xD7A_7E57).genome_len(4_000).generate(250),
        ),
    ]
}

fn all_strategies() -> Vec<Strategy> {
    let mut strategies = vec![Strategy::Sequential, Strategy::ThreadPerQuery];
    for threads in [1, 4, 8] {
        strategies.push(Strategy::FixedPool { threads });
        strategies.push(Strategy::WorkQueue { threads });
        strategies.push(Strategy::Adaptive { max_threads: threads });
    }
    strategies
}

#[test]
fn partition_joins_match_nested_loop_on_random_corpora() {
    for (name, alphabet) in [("letters", b"abcN".as_slice()), ("dna", b"ACGT".as_slice())] {
        check(
            &format!("partition_joins_match_nested_loop_{name}"),
            Config::default().seed(SEED),
            &gen::zip(corpus(alphabet), gen::u32_in(0..5)),
            |(words, k)| {
                let ds = Dataset::from_records(words);
                let reference = nested_loop_join(&ds, *k);
                prop_assert_eq!(pass_join(&ds, *k), reference.clone());
                prop_assert_eq!(
                    parallel_pass_join(&ds, *k, Strategy::WorkQueue { threads: 3 }),
                    reference
                );
                Ok(())
            },
        );
    }
}

#[test]
fn partition_joins_match_nested_loop_under_every_executor() {
    for (name, dataset) in presets() {
        for k in [0, 1, 2, 4] {
            let reference = nested_loop_join(&dataset, k);
            for strategy in all_strategies() {
                assert_eq!(
                    parallel_pass_join(&dataset, k, strategy),
                    reference,
                    "{name} PASS-JOIN k={k} under {}",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn degenerate_inputs_match_the_oracle() {
    let empty = Dataset::from_records(Vec::<Vec<u8>>::new());
    let singleton = Dataset::from_records(["Berlin"]);
    let identical = Dataset::from_records(vec!["Ulm"; 20]);
    let tiny = Dataset::from_records(["Bern", "Bonn", "a", ""]);
    for (name, ds) in [
        ("empty", &empty),
        ("singleton", &singleton),
        ("identical", &identical),
        ("tiny", &tiny),
    ] {
        // k = 9 exceeds every record length, so the join degenerates to
        // "all pairs" — the filters must not over-prune their way there.
        for k in [0, 1, 9] {
            let reference = nested_loop_join(ds, k);
            assert_eq!(pass_join(ds, k), reference, "{name} PASS-JOIN k={k}");
        }
    }
    assert_eq!(
        nested_loop_join(&identical, 0).len(),
        20 * 19 / 2,
        "the identical corpus really is the all-pairs case"
    );
}
