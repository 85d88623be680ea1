//! # simsearch-distance
//!
//! Edit-distance kernels for the `simsearch` workspace — the reproduction
//! of *"Trying to outperform a well-known index with a sequential scan"*
//! (EDBT/ICDT 2013).
//!
//! The paper's scan ladder is, at its core, a sequence of increasingly
//! careful implementations of one recurrence (§2.2, eqs. (2)–(4)). This
//! crate provides every rung's kernel plus the extensions:
//!
//! | module | kernel | role |
//! |---|---|---|
//! | [`full`] | full matrix (fresh allocation / reusable buffer) | paper rung 1, test oracle, Figure 1 |
//! | [`two_row`] | rolling two-row | stepping stone to rung 4 |
//! | [`early_abort`] | length filter + decisive-diagonal abort | paper rung 2 (§3.2, Figure 2) |
//! | [`banded`] | Ukkonen band + per-row abort | extension; kernel ablation |
//! | [`myers`], [`myers_block`] | bit-parallel (≤64 / blocked) | extension; kernel ablation |
//! | [`incremental`] | row-stack DP with band | trie descent (§4.1) |
//! | [`row_stack`] | resumable row-stack (LCP reuse, counting) | sorted-prefix scan (rung V7) |
//! | [`myers_stack`] | resumable blocked bit-parallel (LCP reuse at word granularity) | bit-parallel sweep (rung V8) |
//! | [`prefix_bound`] | length-interval bounds | trie pruning (§4.1, eqs. (9)/(10)) |
//! | [`counted`] | cost-counting kernel variants | diagnostics |
//! | [`packed`] | banded DP over 3-bit DNA | paper §6 dictionary compression |
//!
//! [`BoundedKernel`] packages the three scan-grade bounded kernels behind
//! one per-query-compiled interface so higher layers can switch kernels by
//! configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banded;
pub mod counted;
pub mod early_abort;
pub mod full;
pub mod incremental;
pub mod matrix;
pub mod myers;
pub mod myers_block;
pub mod myers_stack;
pub mod packed;
pub mod prefix_bound;
pub mod row_stack;
pub mod two_row;

pub use banded::{ed_within_banded, ed_within_banded_with};
pub use early_abort::{ed_within_early_abort, ed_within_early_abort_with};
pub use full::{levenshtein, levenshtein_full_with, levenshtein_naive_alloc};
pub use incremental::IncrementalDp;
pub use matrix::DpMatrix;
pub use myers::Myers64;
pub use myers_block::{MyersAny, MyersBlock, PatternError};
pub use myers_stack::MyersStackKernel;
pub use row_stack::{RowStackKernel, RowStackMode};

/// Selects which bounded-distance kernel a scan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// The paper's rung-2 kernel: full-width rows, length filter,
    /// decisive-diagonal abort.
    #[default]
    EarlyAbort,
    /// Banded (Ukkonen) kernel with per-row abort.
    Banded,
    /// Bit-parallel Myers kernel (single-word or blocked by pattern size).
    Myers,
}

impl KernelKind {
    /// All kernels, for ablation sweeps.
    pub const ALL: [KernelKind; 3] =
        [KernelKind::EarlyAbort, KernelKind::Banded, KernelKind::Myers];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::EarlyAbort => "early-abort",
            KernelKind::Banded => "banded",
            KernelKind::Myers => "myers",
        }
    }
}

/// A bounded-distance kernel compiled for one `(query, k)` pair and then
/// applied to many candidates — the shape of work a sequential scan does.
/// # Examples
///
/// ```
/// use simsearch_distance::{BoundedKernel, KernelKind};
///
/// let mut kernel = BoundedKernel::compile(KernelKind::Myers, b"Berlin", 2);
/// assert_eq!(kernel.within(b"Bern"), Some(2));
/// assert_eq!(kernel.within(b"Bonn"), None);
/// ```
pub struct BoundedKernel {
    kind: KernelKind,
    query: Vec<u8>,
    k: u32,
    row_buf: Vec<u32>,
    myers: Option<MyersAny>,
}

impl BoundedKernel {
    /// Compiles a kernel of the requested kind.
    pub fn compile(kind: KernelKind, query: &[u8], k: u32) -> Self {
        let myers = match kind {
            // An empty query has no bit-parallel form; the generic kernels
            // handle it (distance = candidate length).
            KernelKind::Myers => MyersAny::new(query),
            _ => None,
        };
        Self {
            kind,
            query: query.to_vec(),
            k,
            row_buf: Vec::new(),
            myers,
        }
    }

    /// Re-targets the kernel at a new `(query, k)` pair, reusing buffers.
    pub fn retarget(&mut self, query: &[u8], k: u32) {
        self.query.clear();
        self.query.extend_from_slice(query);
        self.k = k;
        if self.kind == KernelKind::Myers {
            self.myers = MyersAny::new(query);
        }
    }

    /// The compiled query.
    pub fn query(&self) -> &[u8] {
        &self.query
    }

    /// The compiled threshold.
    pub fn threshold(&self) -> u32 {
        self.k
    }

    /// Whether `ed(query, candidate) ≤ k`; returns the distance when so.
    pub fn within(&mut self, candidate: &[u8]) -> Option<u32> {
        match (self.kind, &self.myers) {
            (KernelKind::EarlyAbort, _) => {
                ed_within_early_abort_with(&mut self.row_buf, &self.query, candidate, self.k)
            }
            (KernelKind::Banded, _) => {
                ed_within_banded_with(&mut self.row_buf, &self.query, candidate, self.k)
            }
            (KernelKind::Myers, Some(m)) => m.within(candidate, self.k),
            // Empty query: distance is the candidate length.
            (KernelKind::Myers, None) => {
                let d = candidate.len() as u32;
                (d <= self.k).then_some(d)
            }
        }
    }
}

impl std::fmt::Debug for BoundedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BoundedKernel({}, |q|={}, k={})",
            self.kind.name(),
            self.query.len(),
            self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_agree() {
        let words: &[&[u8]] = &[b"", b"a", b"Berlin", b"Bern", b"AGGCGT", b"AGAGT"];
        for &q in words {
            for k in 0..4 {
                let mut kernels: Vec<BoundedKernel> = KernelKind::ALL
                    .iter()
                    .map(|&kind| BoundedKernel::compile(kind, q, k))
                    .collect();
                for &c in words {
                    let expected = {
                        let d = levenshtein(q, c);
                        (d <= k).then_some(d)
                    };
                    for kernel in &mut kernels {
                        assert_eq!(kernel.within(c), expected, "{kernel:?} on {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn retarget_reuses_kernel() {
        let mut kernel = BoundedKernel::compile(KernelKind::Banded, b"Berlin", 1);
        assert_eq!(kernel.within(b"Bern"), None);
        kernel.retarget(b"Bern", 0);
        assert_eq!(kernel.within(b"Bern"), Some(0));
        assert_eq!(kernel.threshold(), 0);
        assert_eq!(kernel.query(), b"Bern");
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(KernelKind::EarlyAbort.name(), "early-abort");
        assert_eq!(KernelKind::Banded.name(), "banded");
        assert_eq!(KernelKind::Myers.name(), "myers");
    }
}
