//! Streaming statistics: prefix sums.
//!
//! [`PrefixSums`] is the backbone of the O(n) multi-testing optimization
//! (§5.5 of the paper): the number of good transactions in *any* contiguous
//! range of the history — and therefore any window count and any suffix
//! p̂ — is answered in O(1) after a single O(n) pass.

use crate::error::StatsError;

/// Prefix sums over a boolean (good/bad) transaction sequence.
///
/// `sums[i]` is the number of good transactions among the first `i`.
///
/// # Examples
///
/// ```
/// use hp_stats::PrefixSums;
///
/// let ps = PrefixSums::from_bools([true, false, true, true].into_iter());
/// assert_eq!(ps.count_range(0, 4), 3);
/// assert_eq!(ps.count_range(1, 2), 0);
/// assert!((ps.rate_range(2, 4).unwrap() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSums {
    sums: Vec<u64>,
}

impl PrefixSums {
    /// Creates an empty prefix-sum structure.
    pub fn new() -> Self {
        PrefixSums { sums: vec![0] }
    }

    /// Builds prefix sums from an iterator of good/bad outcomes.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut ps = PrefixSums::new();
        for good in iter {
            ps.push(good);
        }
        ps
    }

    /// Appends one outcome.
    pub fn push(&mut self, good: bool) {
        let last = *self.sums.last().expect("sums is never empty");
        self.sums.push(last + u64::from(good));
    }

    /// Removes and returns the most recent outcome, or `None` when empty.
    ///
    /// Lets callers evaluate hypothetical continuations (append, test,
    /// revert) in O(1) — the strategic attacker of the paper's §5.1 does
    /// exactly this before every move.
    pub fn pop(&mut self) -> Option<bool> {
        if self.is_empty() {
            return None;
        }
        let last = self.sums.pop().expect("len checked above");
        Some(last > *self.sums.last().expect("sums is never empty"))
    }

    /// Number of outcomes recorded.
    pub fn len(&self) -> usize {
        self.sums.len() - 1
    }

    /// Whether no outcomes are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of good outcomes.
    pub fn total_good(&self) -> u64 {
        *self.sums.last().expect("sums is never empty")
    }

    /// Number of good outcomes in the half-open range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn count_range(&self, start: usize, end: usize) -> u64 {
        assert!(
            start <= end && end <= self.len(),
            "range [{start},{end}) out of bounds"
        );
        self.sums[end] - self.sums[start]
    }

    /// Fraction of good outcomes in `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty range.
    pub fn rate_range(&self, start: usize, end: usize) -> Result<f64, StatsError> {
        if start >= end {
            return Err(StatsError::EmptyInput {
                what: "rate over an empty range",
            });
        }
        Ok(self.count_range(start, end) as f64 / (end - start) as f64)
    }

    /// Window counts of size `m` covering `[start, end)`, aligned to
    /// `start`; a trailing partial window is dropped (paper semantics).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `m == 0`.
    pub fn window_counts(
        &self,
        start: usize,
        end: usize,
        m: usize,
    ) -> Result<Vec<u32>, StatsError> {
        if m == 0 {
            return Err(StatsError::InvalidCount {
                what: "window size",
                value: 0,
            });
        }
        assert!(start <= end && end <= self.len());
        let k = (end - start) / m;
        let mut out = Vec::with_capacity(k);
        for w in 0..k {
            let s = start + w * m;
            out.push(self.count_range(s, s + m) as u32);
        }
        Ok(out)
    }
}

impl Default for PrefixSums {
    fn default() -> Self {
        PrefixSums::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_basic_ranges() {
        let ps = PrefixSums::from_bools([true, true, false, true, false]);
        assert_eq!(ps.len(), 5);
        assert_eq!(ps.total_good(), 3);
        assert_eq!(ps.count_range(0, 5), 3);
        assert_eq!(ps.count_range(2, 3), 0);
        assert_eq!(ps.count_range(3, 4), 1);
        assert_eq!(ps.count_range(2, 2), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn prefix_sums_out_of_bounds_panics() {
        let ps = PrefixSums::from_bools([true]);
        let _ = ps.count_range(0, 2);
    }

    #[test]
    fn rate_range_errors_on_empty() {
        let ps = PrefixSums::from_bools([true, false]);
        assert!(ps.rate_range(1, 1).is_err());
        assert!((ps.rate_range(0, 2).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_counts_drop_trailing_partial() {
        // 7 outcomes, window 3 → 2 windows, last outcome dropped.
        let ps = PrefixSums::from_bools([true, true, false, false, true, true, true]);
        let w = ps.window_counts(0, 7, 3).unwrap();
        assert_eq!(w, vec![2, 2]);
        assert!(ps.window_counts(0, 7, 0).is_err());
    }

    #[test]
    fn window_counts_with_offset_start() {
        let ps = PrefixSums::from_bools([true, false, true, true, false, true]);
        // Suffix [2, 6): outcomes T T F T, window 2 → [2, 1]
        let w = ps.window_counts(2, 6, 2).unwrap();
        assert_eq!(w, vec![2, 1]);
    }

    #[test]
    fn window_counts_match_naive_recount() {
        let outcomes: Vec<bool> = (0..103).map(|i| i % 3 != 0).collect();
        let ps = PrefixSums::from_bools(outcomes.iter().copied());
        for m in [1usize, 2, 5, 10, 50] {
            let fast = ps.window_counts(0, outcomes.len(), m).unwrap();
            let slow: Vec<u32> = outcomes
                .chunks_exact(m)
                .map(|c| c.iter().filter(|&&g| g).count() as u32)
                .collect();
            assert_eq!(fast, slow, "m={m}");
        }
    }

    #[test]
    fn pop_reverses_push() {
        let mut ps = PrefixSums::new();
        assert_eq!(ps.pop(), None);
        ps.push(true);
        ps.push(false);
        ps.push(true);
        assert_eq!(ps.pop(), Some(true));
        assert_eq!(ps.pop(), Some(false));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.total_good(), 1);
        assert_eq!(ps.pop(), Some(true));
        assert_eq!(ps.pop(), None);
    }
}
