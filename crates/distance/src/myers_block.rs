//! Blocked bit-parallel edit distance (Myers 1999 as extended by
//! Hyyrö 2003) for patterns of arbitrary length.
//!
//! The pattern's DP column is split across ⌈m/64⌉ words ("blocks"); each
//! text byte advances every block, with the horizontal delta at each
//! block's top bit carried into the next block. Used for DNA reads
//! (≈100 bytes), where [`crate::myers::Myers64`] does not fit.
//!
//! The score is tracked along the *decisive diagonal* — the one through
//! `D[m][n]`, i.e. cells `D[j+Δ][j]` with `Δ = m − n` — rather than along
//! the bottom row. `advance_block` reports the diagonal-zero vector
//! `D0` (bit `i` set iff `D[i+1][j+1] = D[i][j]`), so one step down the
//! diagonal costs one shift-and-mask: `s += 1 − bit_{j+Δ}(D0)`, starting
//! from `|Δ|` at the column where the diagonal enters the matrix. Values
//! on a diagonal never decrease (the paper's §3.2, eqs. (6)/(7)), so a
//! bounded run stops the moment `s > k`, and `s` at the last column *is*
//! the distance.

const W: usize = 64;

/// Why a pattern cannot be compiled into a bit-parallel engine.
///
/// The structured counterpart of the `Option`-returning constructors:
/// callers that want to report *why* compilation was refused (or pick a
/// fallback per reason) use the `compile` constructors instead of `new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternError {
    /// The pattern is empty — `ed(pattern, text)` degenerates to
    /// `|text|`, which needs no DP at all; callers special-case it.
    Empty,
    /// The pattern exceeds the engine's capacity (single-word
    /// [`crate::myers::Myers64`] only; the blocked engine is unbounded).
    TooLong {
        /// Actual pattern length in bytes.
        len: usize,
        /// The engine's capacity in bytes.
        max: usize,
    },
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::Empty => write!(f, "empty pattern has no bit-parallel form"),
            PatternError::TooLong { len, max } => {
                write!(f, "pattern of {len} bytes exceeds the {max}-byte engine")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// A query compiled for blocked bit-parallel distance computation.
#[derive(Clone)]
pub struct MyersBlock {
    /// `peq[b * 256 + c]`: match mask of block `b` for byte `c`.
    peq: Vec<u64>,
    /// Number of blocks.
    blocks: usize,
    /// Pattern length.
    m: usize,
}

/// Per-block vertical state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockState {
    pub(crate) pv: u64,
    pub(crate) mv: u64,
}

impl BlockState {
    /// The DP column of the empty text prefix, `D[i][0] = i`: every
    /// vertical delta is `+1`.
    pub(crate) const INITIAL: Self = Self { pv: !0, mv: 0 };
}

impl MyersBlock {
    /// Compiles `pattern`, reporting a structured reason on refusal
    /// (only [`PatternError::Empty`] — the blocked engine has no upper
    /// length limit).
    pub fn compile(pattern: &[u8]) -> Result<Self, PatternError> {
        if pattern.is_empty() {
            return Err(PatternError::Empty);
        }
        let m = pattern.len();
        let blocks = m.div_ceil(W);
        let mut peq = vec![0u64; blocks * 256];
        for (i, &c) in pattern.iter().enumerate() {
            peq[(i / W) * 256 + c as usize] |= 1 << (i % W);
        }
        Ok(Self { peq, blocks, m })
    }

    /// Compiles `pattern`. Returns `None` if it is empty
    /// ([`MyersBlock::compile`] reports the reason).
    pub fn new(pattern: &[u8]) -> Option<Self> {
        Self::compile(pattern).ok()
    }

    /// Pattern length.
    pub fn pattern_len(&self) -> usize {
        self.m
    }

    /// Computes `ed(pattern, text)` exactly.
    pub fn distance(&self, text: &[u8]) -> u32 {
        self.run(text, None).expect("unbounded run always yields")
    }

    /// Computes whether `ed(pattern, text) ≤ k`, returning the distance
    /// when it is.
    pub fn within(&self, text: &[u8], k: u32) -> Option<u32> {
        if self.m.abs_diff(text.len()) > k as usize {
            return None;
        }
        self.run(text, Some(k))
    }

    /// Walks the decisive diagonal from where it enters the matrix to
    /// `D[m][n]`; with a threshold, stops as soon as it exceeds `k`.
    fn run(&self, text: &[u8], k: Option<u32>) -> Option<u32> {
        let mut state = vec![BlockState::INITIAL; self.blocks];
        let delta = self.m as isize - text.len() as isize;
        // D[Δ][0] = Δ, or D[0][−Δ] = −Δ when the text is the longer one.
        let mut score = delta.unsigned_abs() as u32;
        for (j, &c) in text.iter().enumerate() {
            // Row the diagonal leaves in this column (negative: not
            // entered yet).
            let row = j as isize + delta;
            // Horizontal input into block 0 is +1: D[0][j] = j.
            let mut hin: i32 = 1;
            for (b, st) in state.iter_mut().enumerate() {
                let eq = self.peq[b * 256 + c as usize];
                let adv = advance_block(st.pv, st.mv, eq, hin);
                if b as isize == row >> 6 {
                    score += diagonal_rise(adv.d0, row);
                }
                st.pv = adv.pv;
                st.mv = adv.mv;
                hin = adv.hout;
            }
            if k.is_some_and(|k| score > k) {
                return None;
            }
        }
        Some(score)
    }
}

/// Result of advancing one block by one text character.
pub(crate) struct Advance {
    /// Horizontal delta leaving the block's last row (carried into the
    /// next block's `hin`).
    pub(crate) hout: i32,
    /// New vertical-positive state.
    pub(crate) pv: u64,
    /// New vertical-negative state.
    pub(crate) mv: u64,
    /// Diagonal-zero vector: bit `i` is set iff `D[i+1][j+1] = D[i][j]`
    /// (the other possibility being `+1`); used for score tracking along
    /// the decisive diagonal.
    pub(crate) d0: u64,
}

/// Advances one 64-bit block by one text character.
///
/// `hin`/`hout` are the horizontal deltas (−1, 0, +1) entering at the
/// block's first row and leaving at its last row. Formulation follows
/// Hyyrö 2003 (as used by edlib).
#[inline]
pub(crate) fn advance_block(pv: u64, mv: u64, mut eq: u64, hin: i32) -> Advance {
    // Branchless throughout: `hin` is −1, 0 or +1, so its sign bit and
    // positivity become the carried-in bits directly, and `hout` is the
    // difference of the two top delta bits. The data-dependent branches
    // this replaces are unpredictable (they follow the DP values), which
    // makes them expensive in the per-byte hot loop.
    let hin_neg = (hin >> 31) as u64 & 1;
    let xv = eq | mv;
    eq |= hin_neg;
    let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
    let ph_pre = mv | !(xh | pv);
    let mh_pre = pv & xh;
    let hout = (ph_pre >> (W - 1)) as i32 - (mh_pre >> (W - 1)) as i32;
    let ph = (ph_pre << 1) | u64::from(hin > 0);
    let mh = (mh_pre << 1) | hin_neg;
    Advance {
        hout,
        pv: mh | !(xv | ph),
        mv: ph & xv,
        d0: xh | mv,
    }
}

/// How much the decisive diagonal rises on its step out of `row`, given
/// the `D0` word of that row's block: 0 or 1, and 0 while `row < 0` (the
/// diagonal has not entered the matrix yet).
#[inline]
pub(crate) fn diagonal_rise(d0: u64, row: isize) -> u32 {
    u32::from(row >= 0) & !(d0 >> (row & 63)) as u32
}

impl std::fmt::Debug for MyersBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MyersBlock(m={}, blocks={})", self.m, self.blocks)
    }
}

/// Wrapper selecting [`crate::myers::Myers64`] when the pattern fits one
/// word and [`MyersBlock`] otherwise.
// The Word variant holds its 2 KiB Peq table inline on purpose: MyersAny
// is created once per query and never moved afterwards, and the inline
// table saves an indirection in the per-candidate hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum MyersAny {
    /// Single-word engine (pattern ≤ 64 bytes).
    Word(crate::myers::Myers64),
    /// Blocked engine (longer patterns).
    Block(MyersBlock),
}

impl MyersAny {
    /// Compiles `pattern`, reporting a structured reason on refusal.
    /// Only [`PatternError::Empty`] can occur: the word engine's length
    /// limit routes to the blocked engine instead of failing.
    pub fn compile(pattern: &[u8]) -> Result<Self, PatternError> {
        if pattern.len() <= 64 {
            crate::myers::Myers64::compile(pattern).map(MyersAny::Word)
        } else {
            MyersBlock::compile(pattern).map(MyersAny::Block)
        }
    }

    /// Compiles `pattern`. Returns `None` only for an empty pattern
    /// (for which the distance is trivially `|text|`;
    /// [`MyersAny::compile`] reports the reason).
    pub fn new(pattern: &[u8]) -> Option<Self> {
        Self::compile(pattern).ok()
    }

    /// Computes `ed(pattern, text)` exactly.
    pub fn distance(&self, text: &[u8]) -> u32 {
        match self {
            MyersAny::Word(m) => m.distance(text),
            MyersAny::Block(m) => m.distance(text),
        }
    }

    /// Computes whether `ed(pattern, text) ≤ k`.
    pub fn within(&self, text: &[u8], k: u32) -> Option<u32> {
        match self {
            MyersAny::Word(m) => m.within(text, k),
            MyersAny::Block(m) => m.within(text, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::levenshtein;

    #[test]
    fn matches_full_matrix_on_short_pairs() {
        let words: &[&[u8]] = &[b"a", b"Berlin", b"Bern", b"AGGCGT", b"AGAGT", b"kitten"];
        for &x in words {
            let m = MyersBlock::new(x).unwrap();
            for &y in words {
                assert_eq!(m.distance(y), levenshtein(x, y), "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn matches_full_matrix_across_block_boundaries() {
        // Patterns of lengths straddling 64 and 128.
        for len in [63usize, 64, 65, 100, 127, 128, 129] {
            let x: Vec<u8> = (0..len).map(|i| b"ACGT"[i % 4]).collect();
            let mut y = x.clone();
            y[len / 2] = b'N';
            y.insert(len / 3, b'G');
            y.remove(2 * len / 3);
            let m = MyersBlock::new(&x).unwrap();
            let truth = levenshtein(&x, &y);
            assert_eq!(m.distance(&y), truth, "len={len}");
            assert_eq!(m.within(&y, truth), Some(truth));
            if truth > 0 {
                assert_eq!(m.within(&y, truth - 1), None);
            }
        }
    }

    #[test]
    fn within_respects_threshold() {
        let x = vec![b'A'; 150];
        let mut y = x.clone();
        for i in 0..10 {
            y[i * 13] = b'T';
        }
        let m = MyersBlock::new(&x).unwrap();
        assert_eq!(m.distance(&y), 10);
        assert_eq!(m.within(&y, 10), Some(10));
        assert_eq!(m.within(&y, 9), None);
    }

    #[test]
    fn any_selects_correct_engine() {
        assert!(matches!(MyersAny::new(b"short"), Some(MyersAny::Word(_))));
        assert!(matches!(
            MyersAny::new(&[b'A'; 65]),
            Some(MyersAny::Block(_))
        ));
        assert!(MyersAny::new(b"").is_none());
    }

    #[test]
    fn length_filter_fires() {
        let m = MyersBlock::new(&[b'A'; 100]).unwrap();
        assert_eq!(m.within(&[b'A'; 80], 10), None);
    }

    #[test]
    fn compile_reports_structured_reasons() {
        assert_eq!(MyersBlock::compile(b"").unwrap_err(), PatternError::Empty);
        assert_eq!(MyersAny::compile(b"").unwrap_err(), PatternError::Empty);
        assert!(MyersBlock::compile(&[b'A'; 10_000]).is_ok());
        // The word engine's capacity surfaces as TooLong when used
        // directly, but MyersAny hides it by falling back to blocks.
        assert_eq!(
            crate::myers::Myers64::compile(&[b'A'; 65]).unwrap_err(),
            PatternError::TooLong { len: 65, max: 64 }
        );
        assert!(MyersAny::compile(&[b'A'; 65]).is_ok());
        let msg = PatternError::TooLong { len: 65, max: 64 }.to_string();
        assert!(msg.contains("65") && msg.contains("64"), "{msg}");
    }
}
