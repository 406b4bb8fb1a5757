//! Round-robin arbitration.
//!
//! The `Send TDs` and `Handle Finished` blocks of the Task Maestro "work in
//! a round-robin fashion": they continuously scan the request/notification
//! signals of the worker cores and serve the next active one. The paper
//! also uses round-robin task placement via the `Worker Cores IDs` list.
//! [`RoundRobinArbiter`] captures the scan: starting after the last grantee,
//! find the first index whose request line is raised.
//!
//! The request lines are held as a bitset that the model raises and lowers
//! as its request signals change, so a grant finds the next raised line a
//! 64-line word at a time instead of asking every line in turn.

/// A round-robin scanner over `n` request lines.
#[derive(Debug, Clone)]
pub(crate) struct RoundRobinArbiter {
    n: usize,
    /// Raised request lines, line `i` at bit `i % 64` of word `i / 64`.
    /// Bits at or past `n` are never set.
    raised: Vec<u64>,
    /// Index after which the next scan starts (last granted index).
    last: usize,
    grants: u64,
}

impl RoundRobinArbiter {
    /// An arbiter over `n` lines, all lowered. The first scan starts at
    /// line 0.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one line");
        RoundRobinArbiter {
            n,
            raised: vec![0; n.div_ceil(64)],
            last: n - 1, // so the first grant scan starts at 0
            grants: 0,
        }
    }

    /// Total grants issued.
    #[inline]
    pub(crate) fn grants(&self) -> u64 {
        self.grants
    }

    /// Raise request line `i` (idempotent).
    #[inline]
    pub(crate) fn raise(&mut self, i: usize) {
        assert!(i < self.n, "line {i} out of range 0..{}", self.n);
        self.raised[i / 64] |= 1 << (i % 64);
    }

    /// Lower request line `i` (idempotent).
    #[inline]
    pub(crate) fn lower(&mut self, i: usize) {
        assert!(i < self.n, "line {i} out of range 0..{}", self.n);
        self.raised[i / 64] &= !(1 << (i % 64));
    }

    /// Grant the first raised line after the last grantee, wrapping
    /// around. Returns the granted line, advancing the scan position, or
    /// `None` if no line is raised. The granted line stays raised: the
    /// model lowers it when its request is gone.
    pub(crate) fn grant(&mut self) -> Option<usize> {
        let start = if self.last + 1 == self.n {
            0
        } else {
            self.last + 1
        };
        let i = self
            .first_raised_from(start)
            .or_else(|| self.first_raised_from(0))?;
        self.last = i;
        self.grants += 1;
        Some(i)
    }

    /// The lowest raised line at or after `from`, without wrapping.
    #[inline]
    fn first_raised_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.raised[w] & (!0 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.raised.get(w)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_raised(n: usize, lines: &[usize]) -> RoundRobinArbiter {
        let mut a = RoundRobinArbiter::new(n);
        for &i in lines {
            a.raise(i);
        }
        a
    }

    #[test]
    fn fair_rotation_over_all_active() {
        let mut a = with_raised(4, &[0, 1, 2, 3]);
        let seq: Vec<_> = (0..8).map(|_| a.grant().unwrap()).collect();
        assert_eq!(seq, [0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(a.grants(), 8);
    }

    #[test]
    fn skips_inactive_lines() {
        let mut a = with_raised(4, &[1, 3]);
        assert_eq!(a.grant(), Some(1));
        assert_eq!(a.grant(), Some(3));
        assert_eq!(a.grant(), Some(1));
    }

    #[test]
    fn none_when_idle() {
        let mut a = RoundRobinArbiter::new(3);
        assert_eq!(a.grant(), None);
        assert_eq!(a.grants(), 0);
    }

    #[test]
    fn resumes_after_last_grantee() {
        let mut a = with_raised(5, &[0]);
        assert_eq!(a.grant(), Some(0));
        // Line 0 is still raised but 2 is next in rotation order.
        a.raise(2);
        assert_eq!(a.grant(), Some(2));
        assert_eq!(a.grant(), Some(0));
    }

    #[test]
    fn lowering_withdraws_a_request() {
        let mut a = with_raised(3, &[0, 1]);
        a.lower(1);
        assert_eq!(a.grant(), Some(0));
        assert_eq!(a.grant(), Some(0));
    }

    #[test]
    fn single_line() {
        let mut a = with_raised(1, &[0]);
        assert_eq!(a.grant(), Some(0));
        assert_eq!(a.grant(), Some(0));
        a.lower(0);
        assert_eq!(a.grant(), None);
    }

    #[test]
    fn scan_crosses_and_wraps_word_boundaries() {
        let mut a = with_raised(130, &[5, 64, 129]);
        assert_eq!(a.grant(), Some(5));
        assert_eq!(a.grant(), Some(64));
        assert_eq!(a.grant(), Some(129));
        assert_eq!(a.grant(), Some(5));
    }
}
