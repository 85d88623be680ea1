//! The rungs of the paper's sequential-scan optimization ladder (§3).

/// One rung of the scan ladder (Tables III and VII evaluate exactly
/// these six, in this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeqVariant {
    /// Rung 1 (§3.1): naive full-matrix distance over owned string
    /// copies, fresh allocations everywhere, single-threaded.
    V1Base,
    /// Rung 2 (§3.2): + length filter and decisive-diagonal early abort.
    V2FastEd,
    /// Rung 3 (§3.3): + reference semantics — candidates and the query
    /// are borrowed, never copied.
    V3Borrowed,
    /// Rung 4 (§3.4): + simple data types — flat byte arena, one reusable
    /// DP row buffer for the whole scan.
    V4Flat,
    /// Rung 5 (§3.5): + parallelism, one thread per query (the paper
    /// keeps this deliberately bad rung to motivate rung 6).
    V5ThreadPerQuery,
    /// Rung 6 (§3.6): + management of parallelism — fixed pool with
    /// static partitioning; the paper sweeps 4/8/16/32 threads.
    V6Pool {
        /// Number of pool threads.
        threads: usize,
    },
    /// Rung 7 (extension beyond the paper): sorted-prefix scan. A
    /// one-time sort — by length, then by bytes — gives the flat arena the
    /// trie's two structural advantages — adjacency of shared prefixes,
    /// and the length filter as a range of positions — and a
    /// resumable row-stack DP pops to `lcp[i]` between records instead
    /// of recomputing from row zero.
    V7SortedPrefix,
    /// Rung 8 (extension): bit-parallel sweep. V7's sorted arena and LCP
    /// resume, but the DP column is packed into ⌈m/64⌉ Myers words — the
    /// query's Peq masks are compiled once, the view's length band and
    /// candidate selection drive the filter, and the stack checkpoints
    /// whole 64-cell blocks instead of scalar rows.
    V8BitParallel,
}

impl SeqVariant {
    /// The ladder exactly as evaluated in Tables III/VII, with rung 6 at
    /// the given thread count.
    pub fn ladder(pool_threads: usize) -> [SeqVariant; 6] {
        [
            SeqVariant::V1Base,
            SeqVariant::V2FastEd,
            SeqVariant::V3Borrowed,
            SeqVariant::V4Flat,
            SeqVariant::V5ThreadPerQuery,
            SeqVariant::V6Pool {
                threads: pool_threads,
            },
        ]
    }

    /// The paper's six rungs plus the V7 sorted-prefix and V8
    /// bit-parallel extensions, for suites that sweep everything this
    /// crate can run.
    pub fn ladder_extended(pool_threads: usize) -> [SeqVariant; 8] {
        [
            SeqVariant::V1Base,
            SeqVariant::V2FastEd,
            SeqVariant::V3Borrowed,
            SeqVariant::V4Flat,
            SeqVariant::V5ThreadPerQuery,
            SeqVariant::V6Pool {
                threads: pool_threads,
            },
            SeqVariant::V7SortedPrefix,
            SeqVariant::V8BitParallel,
        ]
    }

    /// The paper's row label for this rung (extensions use the "x)"
    /// prefix, matching the index-ladder extension rows).
    pub fn label(self) -> String {
        match self {
            SeqVariant::V1Base => "1) Base implementation".into(),
            SeqVariant::V2FastEd => "2) Calculation of the edit distance".into(),
            SeqVariant::V3Borrowed => "3) Value or reference".into(),
            SeqVariant::V4Flat => "4) Simple data types and program methods".into(),
            SeqVariant::V5ThreadPerQuery => "5) Parallelism".into(),
            SeqVariant::V6Pool { threads } => {
                format!("6) Management of parallelism ({threads} threads)")
            }
            SeqVariant::V7SortedPrefix => "x) Sorted-prefix scan (LCP reuse)".into(),
            SeqVariant::V8BitParallel => "x) Bit-parallel sweep (Myers blocks + LCP reuse)".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_has_six_rungs_in_paper_order() {
        let l = SeqVariant::ladder(8);
        assert_eq!(l.len(), 6);
        assert_eq!(l[0], SeqVariant::V1Base);
        assert_eq!(l[5], SeqVariant::V6Pool { threads: 8 });
    }

    #[test]
    fn extended_ladder_appends_v7_and_v8() {
        let l = SeqVariant::ladder_extended(8);
        assert_eq!(l.len(), 8);
        assert_eq!(&l[..6], &SeqVariant::ladder(8));
        assert_eq!(l[6], SeqVariant::V7SortedPrefix);
        assert_eq!(l[7], SeqVariant::V8BitParallel);
        assert!(SeqVariant::V7SortedPrefix.label().starts_with("x)"));
        assert!(SeqVariant::V8BitParallel.label().starts_with("x)"));
    }

    #[test]
    fn labels_match_table_rows() {
        assert!(SeqVariant::V1Base.label().starts_with("1)"));
        assert!(SeqVariant::V6Pool { threads: 8 }.label().contains("8 threads"));
    }
}
