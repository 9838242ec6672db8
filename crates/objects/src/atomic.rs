//! Lock-free and linearizable shared objects for real multi-threaded runs.
//!
//! The deterministic cells in [`crate::cell`] serve the simulator; this
//! module provides the objects used by the threaded implementations of the
//! paper's algorithms (`swapcons-core::threaded`):
//!
//! * [`AtomicSwap<T>`] — a **lock-free swap object with arbitrary value
//!   type**. Because a swap object supports *no read*, the value can be
//!   represented as an exclusively-owned heap cell whose pointer is exchanged
//!   with [`std::sync::atomic::AtomicPtr::swap`]: ownership of the displaced
//!   value transfers atomically to the swapper, so no reclamation scheme is
//!   needed. This is the Rust-native realization of the paper's observation
//!   that learning from a swap object *requires* overwriting it.
//! * [`AtomicWordSwap`] — a lock-free **readable** swap object for values
//!   that fit in a machine word (`u64`), with optional bounded-domain
//!   enforcement, built on `AtomicU64::{swap, load}`.
//! * [`AtomicRegister<T>`] — a linearizable multi-reader multi-writer
//!   register for arbitrary `T: Clone` (via `std::sync::RwLock`; reads and
//!   writes are individually atomic, which is the register semantics the
//!   model assumes).
//! * [`AtomicTas`] — a test-and-set object on `AtomicBool`.

use std::fmt;
use std::marker::PhantomData;
use std::ptr;

// In normal builds these aliases re-export the std types verbatim; under
// `--cfg conc_check` they switch to the instrumented shims of
// `swapcons-conc`, making every object in this module exhaustively
// model-checkable without further changes.
use swapcons_conc::sync::{AtomicBool, AtomicPtr, AtomicU64, Ordering, RwLock};

use crate::schema::Domain;

/// A lock-free swap object holding values of type `T`.
///
/// Supports exactly one operation, [`AtomicSwap::swap`], matching the
/// paper's swap object (Section 2): it atomically replaces the stored value
/// and returns the previous one. There is deliberately **no read method**.
///
/// # Implementation
///
/// The value lives in a `Box` whose raw pointer is stored in an `AtomicPtr`.
/// `swap` boxes the new value, atomically exchanges pointers, and takes
/// ownership of the displaced box. Since the displaced pointer can never be
/// observed by any other thread after the exchange (the only accessor is
/// `swap`, which removes it), the swapper owns it exclusively — no epochs,
/// no hazard pointers.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use swapcons_objects::atomic::AtomicSwap;
///
/// let obj = Arc::new(AtomicSwap::new(String::from("init")));
/// let prev = obj.swap(String::from("mine"));
/// assert_eq!(prev, "init");
/// ```
pub struct AtomicSwap<T> {
    ptr: AtomicPtr<T>,
    _owned: PhantomData<Box<T>>,
}

impl<T> AtomicSwap<T> {
    /// Create a swap object holding `initial`.
    pub fn new(initial: T) -> Self {
        let raw = Box::into_raw(Box::new(initial));
        // Under the checker, declare the initial payload write so a swap
        // racing with construction (impossible through safe code, since
        // sharing requires the constructor to finish first) would be caught.
        #[cfg(conc_check)]
        swapcons_conc::hooks::data_write(raw as usize);
        AtomicSwap {
            ptr: AtomicPtr::new(raw),
            _owned: PhantomData,
        }
    }

    /// Atomically replace the stored value with `value`, returning the
    /// previous value. Lock-free; a single `AtomicPtr::swap` with `AcqRel`
    /// ordering is the linearization point.
    pub fn swap(&self, value: T) -> T {
        let new = Box::into_raw(Box::new(value));
        // The payload write must be declared *before* the pointer is
        // published: release ordering on the swap is what makes it visible.
        #[cfg(conc_check)]
        swapcons_conc::hooks::data_write(new as usize);
        let old = self.ptr.swap(new, Ordering::AcqRel);
        // The displaced payload is read (moved out) below; the acquire side
        // of the swap is the edge that orders it after its writer. Retire
        // the address: the allocator may reuse it for an unrelated Box.
        #[cfg(conc_check)]
        {
            swapcons_conc::hooks::data_read(old as usize);
            swapcons_conc::hooks::data_retire(old as usize);
        }
        // SAFETY: `old` was produced by `Box::into_raw` (in `new` or a prior
        // `swap`) and has just been atomically removed from the object; no
        // other thread can obtain it again, so we hold unique ownership.
        unsafe { *Box::from_raw(old) }
    }

    /// Consume the object and return its current value.
    pub fn into_inner(self) -> T {
        let raw = self.ptr.swap(ptr::null_mut(), Ordering::AcqRel);
        // Prevent Drop from double-freeing.
        std::mem::forget(self);
        #[cfg(conc_check)]
        {
            swapcons_conc::hooks::data_read(raw as usize);
            swapcons_conc::hooks::data_retire(raw as usize);
        }
        // SAFETY: unique ownership as in `swap`; `raw` is non-null because
        // the pointer is only null transiently inside this method after
        // `mem::forget`.
        unsafe { *Box::from_raw(raw) }
    }
}

impl<T> Drop for AtomicSwap<T> {
    fn drop(&mut self) {
        let raw = *self.ptr.get_mut();
        if !raw.is_null() {
            #[cfg(conc_check)]
            swapcons_conc::hooks::data_retire(raw as usize);
            // SAFETY: `&mut self` gives unique access; the pointer was
            // produced by `Box::into_raw`.
            unsafe { drop(Box::from_raw(raw)) }
        }
    }
}

// SAFETY: the object owns its T and `swap` transfers T values across
// threads by value, so `Send` for the wrapper requires exactly `T: Send`.
unsafe impl<T: Send> Send for AtomicSwap<T> {}
// SAFETY: the shared interface never hands out references to the inner T —
// `swap` moves values in and out — so sharing `&AtomicSwap<T>` across
// threads only ever transfers owned T values, which `T: Send` covers;
// `T: Sync` is deliberately not required.
unsafe impl<T: Send> Sync for AtomicSwap<T> {}

impl<T> fmt::Debug for AtomicSwap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Reading the value would violate the object's interface; show
        // only identity.
        f.debug_struct("AtomicSwap").finish_non_exhaustive()
    }
}

/// A lock-free readable swap object over `u64` with an optional bounded
/// domain (Section 5's objects).
///
/// # Example
///
/// ```
/// use swapcons_objects::atomic::AtomicWordSwap;
/// use swapcons_objects::Domain;
///
/// let obj = AtomicWordSwap::new(0, Domain::BINARY);
/// assert_eq!(obj.swap(1), 0);
/// assert_eq!(obj.read(), 1);
/// ```
///
/// # Panics
///
/// [`AtomicWordSwap::swap`] panics if the value is outside the configured
/// domain; this is a programming error in the calling protocol, equivalent
/// to a type error in the paper's model.
#[derive(Debug)]
pub struct AtomicWordSwap {
    value: AtomicU64,
    domain: Domain,
}

impl AtomicWordSwap {
    /// Create a readable swap object holding `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is outside `domain`.
    pub fn new(initial: u64, domain: Domain) -> Self {
        assert!(
            domain.contains(initial),
            "initial value {initial} outside {domain}"
        );
        AtomicWordSwap {
            value: AtomicU64::new(initial),
            domain,
        }
    }

    /// The object's domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Atomically replace the value, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the domain.
    pub fn swap(&self, value: u64) -> u64 {
        assert!(
            self.domain.contains(value),
            "swapped value {value} outside {}",
            self.domain
        );
        self.value.swap(value, Ordering::AcqRel)
    }

    /// Read the current value without modifying it.
    pub fn read(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A linearizable multi-reader multi-writer register for arbitrary
/// `T: Clone`.
///
/// Individual `read`/`write` calls are atomic (guarded by a
/// `std::sync::RwLock`), which is exactly the atomic-register semantics of
/// the asynchronous shared-memory model. This is *not* lock-free; the
/// threaded baselines that use it (racing counters) are baselines for space
/// accounting and schedule-level behavior, not for lock-freedom.
///
/// # Poisoning
///
/// The register **never propagates lock poisoning**: a panic while a guard
/// is held marks the std lock poisoned, but the stored `T` is always a
/// fully-formed value — `write` replaces it with a single `*guard = v`
/// assignment, whose new value is in place before the old one is dropped —
/// so both `read` and `write` recover the guard and proceed. This pins the
/// model-level semantics: a crashed process leaves the register holding a
/// legitimate previously-written value, and other processes keep going
/// (crash-stop, not crash-contaminate). The conc shim's `RwLock` encodes
/// the same choice by never poisoning at all.
#[derive(Debug, Default)]
pub struct AtomicRegister<T> {
    value: RwLock<T>,
}

impl<T: Clone> AtomicRegister<T> {
    /// Create a register holding `initial`.
    pub fn new(initial: T) -> Self {
        AtomicRegister {
            value: RwLock::new(initial),
        }
    }

    /// Return the current value.
    pub fn read(&self) -> T {
        // A poisoned lock only means a writer panicked mid-`=`; the stored T
        // was never left partially written, so recover the guard.
        self.value.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Set the value.
    pub fn write(&self, v: T) {
        *self.value.write().unwrap_or_else(|e| e.into_inner()) = v;
    }
}

/// A test-and-set object on `AtomicBool`.
#[derive(Debug, Default)]
pub struct AtomicTas {
    set: AtomicBool,
}

impl AtomicTas {
    /// Create an unset test-and-set object.
    pub fn new() -> Self {
        AtomicTas::default()
    }

    /// Set the object; returns `true` iff this call won.
    pub fn test_and_set(&self) -> bool {
        !self.set.swap(true, Ordering::AcqRel)
    }

    /// Read without modifying.
    pub fn read(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }
}

// The unit tests drive the objects on free-running std threads, which only
// works when the `conc` aliases resolve to the real std types; under
// `--cfg conc_check` the shims require a model context, and the objects are
// exercised by the dedicated exhaustive suites instead.
#[cfg(all(test, not(conc_check)))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn atomic_swap_sequential_exchange() {
        let s = AtomicSwap::new(0u64);
        assert_eq!(s.swap(1), 0);
        assert_eq!(s.swap(2), 1);
        assert_eq!(s.into_inner(), 2);
    }

    #[test]
    fn atomic_swap_with_heap_values() {
        let s = AtomicSwap::new(vec![0u8; 16]);
        let prev = s.swap(vec![1u8; 32]);
        assert_eq!(prev, vec![0u8; 16]);
        assert_eq!(s.into_inner(), vec![1u8; 32]);
    }

    #[test]
    fn atomic_swap_drop_frees_current_value() {
        // Drop coverage: constructing and dropping without into_inner must
        // not leak or double-free (validated under the default allocator by
        // simply exercising the path; miri-style checks happen in CI setups).
        let s = AtomicSwap::new(String::from("x"));
        let _ = s.swap(String::from("y"));
        drop(s);
    }

    /// Exchange totality: with T threads each swapping K tokens through one
    /// object, every token (plus the initial one) is returned exactly once,
    /// and the final resident value accounts for the last missing token.
    #[test]
    fn atomic_swap_concurrent_exchange_totality() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 1000;
        let obj = Arc::new(AtomicSwap::new(u64::MAX)); // initial token
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let obj = Arc::clone(&obj);
            handles.push(std::thread::spawn(move || {
                let mut received = Vec::with_capacity(PER_THREAD as usize);
                for i in 0..PER_THREAD {
                    let token = t * PER_THREAD + i;
                    received.push(obj.swap(token));
                }
                received
            }));
        }
        let mut seen: Vec<u64> = Vec::new();
        for h in handles {
            seen.extend(h.join().unwrap());
        }
        let final_value = match Arc::try_unwrap(obj) {
            Ok(s) => s.into_inner(),
            Err(_) => panic!("all threads joined; Arc must be unique"),
        };
        seen.push(final_value);
        // seen now holds: the initial token + every injected token, each
        // exactly once.
        let unique: HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(unique.len(), seen.len(), "a token was duplicated");
        assert_eq!(seen.len() as u64, THREADS * PER_THREAD + 1);
        assert!(unique.contains(&u64::MAX), "initial token lost");
    }

    #[test]
    fn word_swap_read_and_swap() {
        let w = AtomicWordSwap::new(0, Domain::Bounded(4));
        assert_eq!(w.read(), 0);
        assert_eq!(w.swap(3), 0);
        assert_eq!(w.read(), 3);
        assert_eq!(w.domain(), Domain::Bounded(4));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn word_swap_rejects_out_of_domain() {
        let w = AtomicWordSwap::new(0, Domain::BINARY);
        w.swap(2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn word_swap_rejects_bad_initial() {
        let _ = AtomicWordSwap::new(5, Domain::BINARY);
    }

    #[test]
    fn register_read_write() {
        let r = AtomicRegister::new(vec![1, 2, 3]);
        assert_eq!(r.read(), vec![1, 2, 3]);
        r.write(vec![4]);
        assert_eq!(r.read(), vec![4]);
    }

    #[test]
    fn register_recovers_from_poisoned_lock() {
        // A panic while the write guard is held poisons the std RwLock.
        // The register's pinned semantics: subsequent reads and writes
        // recover the guard and observe a fully-formed value (crash-stop,
        // not crash-contaminate).
        struct PanicOnDrop(bool);
        impl Drop for PanicOnDrop {
            fn drop(&mut self) {
                if self.0 && !std::thread::panicking() {
                    panic!("drop bomb");
                }
            }
        }

        let r = Arc::new(AtomicRegister::new(7u64));
        let poisoner = Arc::clone(&r);
        let result = std::panic::catch_unwind(move || {
            // Panic *while holding the guard*: the drop bomb detonates
            // inside `write`'s assignment, after the new value is stored.
            let bomb = PanicOnDrop(true);
            poisoner.write(9);
            drop(bomb);
        });
        assert!(result.is_err(), "the drop bomb must have fired");

        // The catch_unwind closure panicked after `write` completed, so the
        // lock may or may not be poisoned depending on guard timing; force
        // definite poisoning with a panic strictly inside the guard scope.
        let poisoner = Arc::clone(&r);
        let t = std::thread::spawn(move || {
            let _guard = poisoner.value.write();
            panic!("poison while holding the write guard");
        });
        assert!(t.join().is_err());

        // Pinned behavior: both operations recover and behave normally.
        assert_eq!(r.read(), 9, "read must see the last completed write");
        r.write(11);
        assert_eq!(r.read(), 11, "write must succeed after poisoning");
    }

    #[test]
    fn tas_only_one_winner_concurrently() {
        let t = Arc::new(AtomicTas::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || t.test_and_set()));
        }
        let wins: usize = handles
            .into_iter()
            .filter(|_| true)
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1, "exactly one thread must win the TAS");
        assert!(t.read());
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<AtomicSwap<Vec<u64>>>();
        assert_send_sync::<AtomicWordSwap>();
        assert_send_sync::<AtomicRegister<Vec<u64>>>();
        assert_send_sync::<AtomicTas>();
    }
}
