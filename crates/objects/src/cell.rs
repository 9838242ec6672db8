//! Deterministic single-threaded object cells.
//!
//! Plain sequential state with the exact operation semantics of Section 2
//! of the paper. Each cell enforces its capability statically — a
//! [`SwapCell`] simply has no read method. The simulator in `swapcons-sim`
//! does not use these cells: it stores object values directly and checks
//! every poised operation against the object's
//! [`ObjectSchema`](crate::ObjectSchema) before applying it.

use crate::op::{HistorylessOp, Response};

/// A swap object: supports only [`SwapCell::swap`]. No read.
///
/// # Example
///
/// ```
/// use swapcons_objects::cell::SwapCell;
///
/// let mut cell = SwapCell::new("init");
/// assert_eq!(cell.swap("a"), "init");
/// assert_eq!(cell.swap("b"), "a");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SwapCell<V> {
    value: V,
}

impl<V> SwapCell<V> {
    /// Create a swap cell holding `initial`.
    pub fn new(initial: V) -> Self {
        SwapCell { value: initial }
    }

    /// Atomically replace the value with `v`, returning the previous value.
    pub fn swap(&mut self, v: V) -> V {
        std::mem::replace(&mut self.value, v)
    }

    /// Consume the cell, yielding its current value. This models the
    /// *system* (not a process) inspecting memory, e.g. for assertions in
    /// tests; processes interact only through `swap`.
    pub fn into_inner(self) -> V {
        self.value
    }
}

/// A readable swap object: supports [`ReadableSwapCell::swap`],
/// [`ReadableSwapCell::read`], and [`ReadableSwapCell::apply`] for generic
/// [`HistorylessOp`]s.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReadableSwapCell<V> {
    value: V,
}

impl<V: Clone> ReadableSwapCell<V> {
    /// Create a readable swap cell holding `initial`.
    pub fn new(initial: V) -> Self {
        ReadableSwapCell { value: initial }
    }

    /// Atomically replace the value with `v`, returning the previous value.
    pub fn swap(&mut self, v: V) -> V {
        std::mem::replace(&mut self.value, v)
    }

    /// Return the current value.
    pub fn read(&self) -> V {
        self.value.clone()
    }

    /// Apply any historyless operation with the semantics of Section 2.
    pub fn apply(&mut self, op: &HistorylessOp<V>) -> Response<V> {
        let response = op.response(&self.value);
        if let Some(next) = op.next_value(&self.value) {
            self.value = next;
        }
        response
    }
}

/// A register: supports [`RegisterCell::read`] and [`RegisterCell::write`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RegisterCell<V> {
    value: V,
}

impl<V: Clone> RegisterCell<V> {
    /// Create a register holding `initial`.
    pub fn new(initial: V) -> Self {
        RegisterCell { value: initial }
    }

    /// Return the current value.
    pub fn read(&self) -> V {
        self.value.clone()
    }

    /// Set the value to `v`. The response carries no information.
    pub fn write(&mut self, v: V) {
        self.value = v;
    }
}

/// A test-and-set object: a binary object whose only nontrivial operation
/// sets it to `true` and returns the previous value.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TasCell {
    set: bool,
}

impl TasCell {
    /// Create an unset test-and-set cell.
    pub fn new() -> Self {
        TasCell::default()
    }

    /// Set the object, returning `true` iff this call won (the object was
    /// previously unset).
    pub fn test_and_set(&mut self) -> bool {
        !std::mem::replace(&mut self.set, true)
    }

    /// Read the current state without modifying it.
    pub fn read(&self) -> bool {
        self.set
    }

    /// Reset to the unset state (a *system* operation used between test
    /// runs, not available to processes).
    pub fn reset(&mut self) {
        self.set = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_cell_exchanges_values() {
        let mut c = SwapCell::new(0u64);
        assert_eq!(c.swap(1), 0);
        assert_eq!(c.swap(2), 1);
        assert_eq!(c.into_inner(), 2);
    }

    #[test]
    fn readable_swap_cell_read_does_not_modify() {
        let mut c = ReadableSwapCell::new(5u64);
        assert_eq!(c.read(), 5);
        assert_eq!(c.read(), 5);
        assert_eq!(c.swap(6), 5);
        assert_eq!(c.read(), 6);
    }

    #[test]
    fn readable_swap_cell_apply_matches_direct_methods() {
        let mut a = ReadableSwapCell::new(1u64);
        let mut b = ReadableSwapCell::new(1u64);
        assert_eq!(a.apply(&HistorylessOp::Swap(9)), Response::Value(b.swap(9)));
        assert_eq!(a.apply(&HistorylessOp::Read), Response::Value(b.read()));
        assert_eq!(a.apply(&HistorylessOp::Write(3)), Response::Ack);
        b.swap(3);
        assert_eq!(a.read(), b.read());
    }

    #[test]
    fn register_cell_semantics() {
        let mut r = RegisterCell::new(0u64);
        r.write(10);
        assert_eq!(r.read(), 10);
        r.write(20);
        assert_eq!(r.read(), 20);
    }

    #[test]
    fn tas_cell_first_caller_wins() {
        let mut t = TasCell::new();
        assert!(!t.read());
        assert!(t.test_and_set());
        assert!(!t.test_and_set());
        assert!(t.read());
        t.reset();
        assert!(t.test_and_set());
    }
}
