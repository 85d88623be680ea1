//! Property tests: no filter may ever reject a pair that is actually
//! within the threshold (soundness); chains inherit soundness.

use simsearch_data::alphabet::{DNA_SYMBOLS, VOWEL_SYMBOLS};
use simsearch_data::Dataset;
use simsearch_distance::levenshtein;
use simsearch_filters::{FilterChain, FrequencyFilter, LengthFilter};
use simsearch_testkit::{check, gen, prop_assert, Config, Gen};

const ALPHABET: &[u8] = b"ACGNTE";
const SEED: u64 = 0xF117E25;

fn corpus() -> Gen<Vec<Vec<u8>>> {
    gen::corpus(gen::bytes_from(ALPHABET, 0..15), 1..12)
}

fn query() -> Gen<Vec<u8>> {
    gen::bytes_from(ALPHABET, 0..15)
}

#[test]
fn length_filter_is_sound() {
    check(
        "length_filter_is_sound",
        Config::default().seed(SEED),
        &gen::zip3(corpus(), query(), gen::u32_in(0..6)),
        |(words, query, k)| {
            let ds = Dataset::from_records(words);
            let f = LengthFilter::build(&ds);
            for (id, w) in words.iter().enumerate() {
                if levenshtein(query, w) <= *k {
                    prop_assert!(f.admits(query.len() as u32, id as u32, *k));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn frequency_filter_is_sound() {
    check(
        "frequency_filter_is_sound",
        Config::default().seed(SEED),
        &gen::zip3(corpus(), query(), gen::u32_in(0..6)),
        |(words, query, k)| {
            let ds = Dataset::from_records(words);
            for tracked in [DNA_SYMBOLS, VOWEL_SYMBOLS] {
                let f = FrequencyFilter::build(&ds, tracked);
                let p = simsearch_filters::DynFilter::prepare(&f, query, *k);
                for (id, w) in words.iter().enumerate() {
                    if levenshtein(query, w) <= *k {
                        prop_assert!(
                            p.admits(id as u32),
                            "tracked={tracked:?} q={query:?} w={w:?}"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn full_chain_is_sound() {
    check(
        "full_chain_is_sound",
        Config::default().seed(SEED),
        &gen::zip3(corpus(), query(), gen::u32_in(0..6)),
        |(words, query, k)| {
            let ds = Dataset::from_records(words);
            let chain = FilterChain::new()
                .push(LengthFilter::build(&ds))
                .push(FrequencyFilter::build(&ds, DNA_SYMBOLS));
            let p = chain.prepare(query, *k);
            for (id, w) in words.iter().enumerate() {
                if levenshtein(query, w) <= *k {
                    prop_assert!(p.admits(id as u32));
                }
            }
            Ok(())
        },
    );
}
