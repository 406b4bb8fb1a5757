//! On-chip SRAM access timing.
//!
//! "The access time for the ∼100 KB on-chip memory structures (those are
//! mainly the Task Pool and the Dependence Table) was determined using
//! Cacti 5.3, and was found to be 2 ns for each of them." And: "The hash
//! table access time equals the on-chip access time multiplied by the
//! number of lookups required per access."
//!
//! Every table operation in `nexuspp-core` reports how many entry touches it
//! performed (its `OpCost`); the simulator converts that
//! count to time via [`SramTiming::access_time`].

use nexuspp_desim::SimTime;

/// SRAM timing constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramTiming {
    /// Time per table access (one entry read or write). 2 ns in the paper
    /// (= 1 Nexus++ cycle).
    pub access: SimTime,
}

impl Default for SramTiming {
    fn default() -> Self {
        SramTiming {
            access: SimTime::from_ns(2),
        }
    }
}

impl SramTiming {
    /// Total time for `accesses` table touches.
    #[inline]
    pub(crate) fn access_time(&self, accesses: u64) -> SimTime {
        self.access * accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_access_time() {
        let s = SramTiming::default();
        assert_eq!(s.access_time(1), SimTime::from_ns(2));
        // "multiplied by the number of lookups required per access"
        assert_eq!(s.access_time(3), SimTime::from_ns(6));
        assert_eq!(s.access_time(0), SimTime::ZERO);
    }
}
