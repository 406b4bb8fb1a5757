//! Task descriptor building blocks.

use nexuspp_desim::SimTime;
use std::fmt;

/// How a task accesses one of its parameters. Mirrors the StarSs pragma
/// clauses `input`, `output` and `inout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read-only (`input(...)`).
    In,
    /// Write-only (`output(...)`).
    Out,
    /// Read-write (`inout(...)`).
    InOut,
}

impl AccessMode {
    /// Does this access read the data?
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// Does this access write the data? This is what the Dependence Table's
    /// `isOut` flag tracks — `inout` counts as a write for hazard purposes.
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }

    /// Is this the read-only mode? (The dependency-resolution pseudocode of
    /// Listing 2 branches on "newTask read-only A".)
    #[inline]
    pub fn is_read_only(self) -> bool {
        matches!(self, AccessMode::In)
    }

    /// Combine two accesses by the same task to the same address into the
    /// most conservative single mode.
    pub fn merge(self, other: AccessMode) -> AccessMode {
        if self == other {
            self
        } else {
            AccessMode::InOut
        }
    }

    /// Short lowercase name used by the `.ntr` format.
    pub fn as_str(self) -> &'static str {
        match self {
            AccessMode::In => "in",
            AccessMode::Out => "out",
            AccessMode::InOut => "inout",
        }
    }

    /// Parse an `.ntr` access-mode token.
    pub fn parse(s: &str) -> Option<AccessMode> {
        match s {
            "in" => Some(AccessMode::In),
            "out" => Some(AccessMode::Out),
            "inout" => Some(AccessMode::InOut),
            _ => None,
        }
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One task parameter: "An input/output of a task is stored in the format:
/// (base memory address, size, and access mode)". Dependencies are decided
/// "by comparing the base addresses of the inputs/outputs of the different
/// tasks" — sizes are carried but never used for overlap analysis, exactly
/// as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Param {
    /// Base memory address of the data segment.
    pub addr: u64,
    /// Segment size in bytes.
    pub size: u32,
    /// Access mode.
    pub mode: AccessMode,
}

impl Param {
    /// Convenience constructor.
    pub fn new(addr: u64, size: u32, mode: AccessMode) -> Self {
        Param { addr, size, mode }
    }

    /// A read-only parameter.
    pub fn input(addr: u64, size: u32) -> Self {
        Param::new(addr, size, AccessMode::In)
    }

    /// A write-only parameter.
    pub fn output(addr: u64, size: u32) -> Self {
        Param::new(addr, size, AccessMode::Out)
    }

    /// A read-write parameter.
    pub fn inout(addr: u64, size: u32) -> Self {
        Param::new(addr, size, AccessMode::InOut)
    }
}

/// Memory cost of a task's input fetch or output write-back.
///
/// The H.264 trace records measured times ("the time they have spent
/// reading/writing their inputs/outputs from/to memory"); the Gaussian
/// benchmark instead specifies data volumes ("each task also reads W
/// floating point numbers from memory, and writes the same number back")
/// that the memory model converts to time. Both appear in traces, so the
/// cost is a small sum type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemCost {
    /// No memory traffic for this phase.
    None,
    /// A measured duration (trace-recorded).
    Time(SimTime),
    /// A byte volume to be timed by the memory model
    /// (`ceil(bytes/128) × 12 ns` with the paper's parameters).
    Bytes(u64),
}

impl MemCost {
    /// True if this phase moves no data.
    pub fn is_none(self) -> bool {
        matches!(self, MemCost::None)
    }
}

/// One task in a trace: the unit the Master Core turns into a Task
/// Descriptor and submits to the Task Maestro.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Serial number in generation order (the paper generates tasks "in
    /// serial execution order").
    pub id: u64,
    /// Function pointer / task-type tag (`*f` in the Task Pool layout).
    pub fptr: u64,
    /// Parameter list (may exceed the hardware's per-descriptor limit; the
    /// Task Maestro then chains dummy tasks).
    pub params: Vec<Param>,
    /// Pure execution time on a worker core.
    pub exec: SimTime,
    /// Input-fetch memory cost (`Get Inputs` stage).
    pub read: MemCost,
    /// Output-writeback memory cost (`Put Outputs` stage).
    pub write: MemCost,
}

impl TaskRecord {
    /// A task with no memory traffic (useful in unit tests).
    #[cfg(test)]
    pub(crate) fn compute_only(id: u64, params: Vec<Param>, exec: SimTime) -> Self {
        TaskRecord {
            id,
            fptr: 0xABCD,
            params,
            exec,
            read: MemCost::None,
            write: MemCost::None,
        }
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_semantics() {
        assert!(AccessMode::In.reads() && !AccessMode::In.writes());
        assert!(!AccessMode::Out.reads() && AccessMode::Out.writes());
        assert!(AccessMode::InOut.reads() && AccessMode::InOut.writes());
        assert!(AccessMode::In.is_read_only());
        assert!(!AccessMode::InOut.is_read_only());
    }

    #[test]
    fn access_mode_merge() {
        use AccessMode::*;
        assert_eq!(In.merge(In), In);
        assert_eq!(In.merge(Out), InOut);
        assert_eq!(Out.merge(In), InOut);
        assert_eq!(InOut.merge(In), InOut);
        assert_eq!(Out.merge(Out), Out);
    }

    #[test]
    fn access_mode_parse_roundtrip() {
        for m in [AccessMode::In, AccessMode::Out, AccessMode::InOut] {
            assert_eq!(AccessMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(AccessMode::parse("rw"), None);
    }

    #[test]
    fn param_constructors() {
        let p = Param::input(0x1A, 4);
        assert_eq!(p.mode, AccessMode::In);
        assert_eq!(Param::output(0x1B, 4).mode, AccessMode::Out);
        assert_eq!(Param::inout(0x1C, 4).mode, AccessMode::InOut);
    }

    #[test]
    fn task_record_basics() {
        let t = TaskRecord::compute_only(7, vec![Param::input(1, 4)], SimTime::from_us(1));
        assert_eq!(t.n_params(), 1);
        assert!(t.read.is_none());
        assert!(t.write.is_none());
    }
}
