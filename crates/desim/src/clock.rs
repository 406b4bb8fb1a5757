//! Clock-domain helpers.
//!
//! The modeled system has two clock domains: worker cores at 2 GHz and the
//! Nexus++ logic at 500 MHz ("Nexus++ is simulated assuming a clock cycle
//! time of 2 ns"). [`Clock`] converts cycle counts to [`SimTime`] and aligns
//! event times up to clock edges, keeping all block service times quantized
//! to whole cycles like the SystemC model.

use crate::time::SimTime;

/// A clock domain defined by its period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    period: SimTime,
}

impl Clock {
    /// A clock with the given period.
    pub const fn from_period(period: SimTime) -> Self {
        Clock { period }
    }

    /// A clock from a frequency in MHz (must divide 1e6 ps evenly for an
    /// exact period; 500 MHz → 2000 ps, 2000 MHz → 500 ps).
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0);
        let ps = 1_000_000 / mhz;
        assert_eq!(
            ps * mhz,
            1_000_000,
            "{mhz} MHz does not have an integral picosecond period"
        );
        Clock {
            period: SimTime::from_ps(ps),
        }
    }

    /// The clock period.
    #[inline]
    pub const fn period(&self) -> SimTime {
        self.period
    }

    /// Duration of `n` cycles.
    #[inline]
    pub fn cycles(&self, n: u64) -> SimTime {
        self.period * n
    }
}

/// The paper's Nexus++ clock: 500 MHz (2 ns cycle).
pub const NEXUS_CLOCK_MHZ: u64 = 500;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_periods() {
        assert_eq!(
            Clock::from_mhz(NEXUS_CLOCK_MHZ).period(),
            SimTime::from_ns(2)
        );
        assert_eq!(Clock::from_mhz(2_000).period(), SimTime::from_ps(500));
    }

    #[test]
    fn cycles_to_time() {
        let c = Clock::from_mhz(500);
        assert_eq!(c.cycles(0), SimTime::ZERO);
        assert_eq!(c.cycles(5), SimTime::from_ns(10));
        // Worked example from the paper: a 4-parameter submission takes
        // 10 cycles = 20 ns, an 8-parameter one 14 cycles = 28 ns.
        assert_eq!(c.cycles(10), SimTime::from_ns(20));
        assert_eq!(c.cycles(14), SimTime::from_ns(28));
    }

    #[test]
    #[should_panic]
    fn non_integral_period_rejected() {
        let _ = Clock::from_mhz(3_000); // 333.33 ps
    }
}
