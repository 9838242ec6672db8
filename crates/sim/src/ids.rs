//! Newtype identifiers for processes and shared objects.

use std::fmt;

/// Identifier of a process (`p_0, …, p_{n-1}` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterator over the first `n` process ids.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> + Clone {
        (0..n).map(ProcessId)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// One transition of the explored execution graph: a normal protocol step
/// by a process, or a crash failure of a process (Section 2's crash model —
/// the crashed process permanently stops without deciding).
///
/// Crash transitions exist only where an exploration strategy injects them
/// ([`crate::engine::CrashBounded`]); runs without crash injection consist
/// of `Step` actions only.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Process `pid` applies its poised operation.
    Step(ProcessId),
    /// Process `pid` crashes: it permanently stops without deciding.
    Crash(ProcessId),
}

impl Action {
    /// The process this action concerns (the stepper or the crasher).
    pub fn pid(self) -> ProcessId {
        match self {
            Action::Step(p) | Action::Crash(p) => p,
        }
    }

    /// Whether this is a crash transition.
    pub fn is_crash(self) -> bool {
        matches!(self, Action::Crash(_))
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Step(p) => write!(f, "{p}"),
            Action::Crash(p) => write!(f, "†{p}"),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a shared object (`B_1, …` in the paper; zero-indexed here).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub usize);

impl ObjectId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterator over the first `n` object ids.
    pub fn all(n: usize) -> impl Iterator<Item = ObjectId> + Clone {
        (0..n).map(ObjectId)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl From<usize> for ObjectId {
    fn from(i: usize) -> Self {
        ObjectId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{:?}", ProcessId(3)), "p3");
        assert_eq!(format!("{}", ObjectId(0)), "B0");
    }

    #[test]
    fn all_iterates_in_order() {
        let ps: Vec<_> = ProcessId::all(3).collect();
        assert_eq!(ps, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
        let os: Vec<_> = ObjectId::all(2).collect();
        assert_eq!(os, vec![ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn conversions() {
        assert_eq!(ProcessId::from(5).index(), 5);
        assert_eq!(ObjectId::from(7).index(), 7);
    }

    #[test]
    fn actions_project_pids_and_format() {
        assert_eq!(Action::Step(ProcessId(2)).pid(), ProcessId(2));
        assert_eq!(Action::Crash(ProcessId(2)).pid(), ProcessId(2));
        assert!(Action::Crash(ProcessId(0)).is_crash());
        assert!(!Action::Step(ProcessId(0)).is_crash());
        assert_eq!(format!("{:?}", Action::Step(ProcessId(1))), "p1");
        assert_eq!(format!("{}", Action::Crash(ProcessId(1))), "†p1");
    }
}
