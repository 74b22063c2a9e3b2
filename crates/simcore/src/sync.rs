//! The workspace's locks: `Mutex`, `RwLock` and `Condvar` over
//! `std::sync`, and [`blocking!`](crate::blocking), the one way to make a
//! blocking call. The rest of the workspace may not name the raw types or
//! the blocking methods (`clippy.toml`); this module is the one exception.
//!
//! A debug build checks two rules where the locks are taken (DESIGN §10):
//!
//! * **Lock order (L001).** A lock's *class* is the place it was created
//!   (`file:line:column`, through `#[track_caller]`). Each thread keeps a
//!   stack of the locks it holds. The first time a thread takes a lock of
//!   class B while its newest held lock is of class A, the edge A → B is
//!   added to one process-wide graph, and a path B → … → A already in the
//!   graph is a cycle: two threads taking those locks at once could
//!   deadlock. The checker panics before it waits, naming both creation
//!   sites. It also panics when a thread takes a lock it already holds, or
//!   nests two locks of one class, since no order is defined between them.
//!   Recording an edge allocates; that is the checker's own work and runs
//!   [`Uncounted`](crate::uncounted::Uncounted).
//! * **No guard across a blocking call (L002).** `blocking!` panics when
//!   the thread holds any lock; a [`Condvar`] wait tolerates only the guard
//!   it releases.
//!
//! A release build has none of it: the types are `#[inline]` wrappers of
//! the same size as their `std::sync` counterparts.
//!
//! Poisoning follows `parking_lot`: [`Mutex::lock`], [`RwLock::read`],
//! [`RwLock::write`] and [`Condvar::wait_timeout_while`] hand back a lock a
//! panicking thread left behind. A site whose data a half-done update
//! would leave wrong takes [`Mutex::checked_lock`] instead, which reports
//! the poison as std does.
#![expect(
    clippy::disallowed_types,
    reason = "the checked locks wrap the raw std::sync types"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Make a blocking call: a channel `send`, `recv` or `recv_timeout`, a
/// thread `join` or a `sleep`. A debug build first checks that the thread
/// holds no lock (L002), since a guard held across the call would stall
/// every thread that needs the lock for as long as the call blocks.
///
/// ```
/// let worker = std::thread::spawn(|| 7);
/// assert_eq!(nagano_simcore::sync::blocking!(worker.join()).ok(), Some(7));
/// ```
#[macro_export]
macro_rules! blocking {
    ($call:expr) => {{
        $crate::sync::assert_unheld(stringify!($call));
        #[expect(
            clippy::disallowed_methods,
            reason = "blocking! is the one way to make a blocking call: after the check above"
        )]
        let out = $call;
        out
    }};
}
pub use crate::blocking;

/// Panic if this thread holds a lock: the check [`blocking!`] makes before
/// its call. A release build checks nothing.
#[doc(hidden)]
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn assert_unheld(call: &str) {
    #[cfg(debug_assertions)]
    order::assert_unheld(call, None);
    #[cfg(not(debug_assertions))]
    let _ = call;
}

/// A mutual-exclusion lock, order-checked in a debug build.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: order::Class,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: order::Held,
}

impl<T> Mutex<T> {
    /// An unlocked mutex holding `t`. Its class is the caller's location.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(t: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            class: std::panic::Location::caller(),
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Consume the mutex, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is free.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            #[cfg(debug_assertions)]
            held: order::Held::acquire(self.class, order::addr(self)),
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire the lock, or `Err` if a thread panicked while holding it.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn checked_lock(&self) -> LockResult<MutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let held = order::Held::acquire(self.class, order::addr(self));
        let guard = |inner| MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            held,
        };
        match self.inner.lock() {
            Ok(inner) => Ok(guard(inner)),
            Err(poisoned) => Err(PoisonError::new(guard(poisoned.into_inner()))),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock, order-checked in a debug build. A read and a
/// write are both acquisitions of the lock's class.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: order::Class,
    inner: std::sync::RwLock<T>,
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> RwLock<T> {
    /// An unlocked lock holding `t`. Its class is the caller's location.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(t: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            class: std::panic::Location::caller(),
            inner: std::sync::RwLock::new(t),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access, blocking until it is available.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            _held: order::Held::acquire(self.class, order::addr(self)),
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire exclusive write access, blocking until it is available.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            _held: order::Held::acquire(self.class, order::addr(self)),
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable for [`Mutex`]. Waiting is a blocking call that
/// releases its own guard, so a debug build lets the waiting thread hold
/// that guard and no other.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Release `guard` and wait until `condition` is false or `timeout`
    /// has passed, then take the lock again.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait_timeout_while<'a, T, F>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
        condition: F,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult)
    where
        F: FnMut(&mut T) -> bool,
    {
        #[cfg(debug_assertions)]
        let waiting = guard.held.wait();
        let (inner, result) = self
            .inner
            .wait_timeout_while(guard.inner, timeout, condition)
            .unwrap_or_else(PoisonError::into_inner);
        let guard = MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            held: waiting.resume(),
        };
        (guard, result)
    }

    /// Wake every thread waiting on this condition variable.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// The debug-build checker: each thread's stack of held locks and the
/// process-wide before → after graph of lock classes. The common case, a
/// thread that holds nothing or takes an edge it has taken before, touches
/// only this thread's fixed-size state, which needs no allocation.
#[cfg(debug_assertions)]
mod order {
    use std::cell::Cell;
    use std::panic::Location;
    use std::sync::PoisonError;

    /// A lock's class: where it was created.
    pub(super) type Class = &'static Location<'static>;

    /// The identity of one lock: its address while it is held.
    #[inline(always)]
    pub(super) fn addr<T: ?Sized>(lock: &T) -> usize {
        lock as *const T as *const () as usize
    }

    /// One location can be compiled into several crates.
    fn same(a: Class, b: Class) -> bool {
        std::ptr::eq(a, b)
            || (a.line() == b.line() && a.column() == b.column() && a.file() == b.file())
    }

    #[derive(Clone, Copy)]
    struct Entry {
        class: Class,
        addr: usize,
    }

    /// The most locks one thread may hold at once; this workspace nests
    /// at most three.
    const DEPTH: usize = 8;

    /// Slots of the per-thread cache of edges already in [`EDGES`].
    const SEEN: usize = 64;

    /// One thread's state. Every test run takes its locks through here
    /// tens of millions of times, unoptimised: the path of a thread that
    /// holds nothing is kept to a few loads and stores.
    struct Thread {
        /// How many locks this thread holds.
        len: Cell<usize>,
        /// The address and class of each, oldest first: `held[..len]`.
        held: [Cell<(usize, Option<Class>)>; DEPTH],
        /// Edges this thread found in [`EDGES`], by the addresses of their
        /// two classes, direct-mapped.
        seen: [Cell<(usize, usize)>; SEEN],
    }

    thread_local! {
        static THREAD: Thread = const {
            Thread {
                len: Cell::new(0),
                held: [const { Cell::new((0, None)) }; DEPTH],
                seen: [const { Cell::new((0, 0)) }; SEEN],
            }
        };
    }

    /// Every before → after edge any thread has taken.
    static EDGES: std::sync::Mutex<Vec<(Class, Class)>> = std::sync::Mutex::new(Vec::new());

    /// A held lock's place on its thread's stack; dropping it pops it.
    pub(super) struct Held(Entry);

    /// A lock released for a [`super::Condvar`] wait, to be held again.
    pub(super) struct Waiting(Entry);

    impl Held {
        /// Check that taking the lock `(class, addr)` now keeps the order,
        /// and push it. Called before the thread waits for the lock.
        #[inline(always)]
        #[track_caller]
        pub(super) fn acquire(class: Class, addr: usize) -> Held {
            let at = Location::caller();
            THREAD.with(|t| {
                let len = t.len.get();
                if len > 0 {
                    check(t, len, class, addr, at);
                }
                t.push(len, class, addr);
            });
            Held(Entry { class, addr })
        }

        /// Release this guard for a wait, which must leave the thread
        /// holding nothing.
        #[track_caller]
        pub(super) fn wait(self) -> Waiting {
            let entry = self.0;
            drop(self);
            assert_unheld("a Condvar wait", Some(entry.class));
            Waiting(entry)
        }
    }

    impl Waiting {
        /// The wait is over and the lock is held again.
        pub(super) fn resume(self) -> Held {
            THREAD.with(|t| t.push(t.len.get(), self.0.class, self.0.addr));
            Held(self.0)
        }
    }

    impl Drop for Held {
        #[inline(always)]
        fn drop(&mut self) {
            THREAD.with(|t| {
                let top = t.len.get() - 1;
                if t.held[top].get().0 == self.0.addr {
                    t.len.set(top);
                } else {
                    t.remove(top, self.0.addr);
                }
            });
        }
    }

    impl Thread {
        fn class(&self, i: usize) -> Class {
            self.held[i].get().1.expect("a slot below len is held")
        }

        /// Hold the lock at `addr`; a thread holding more than [`DEPTH`]
        /// fails on the index.
        #[inline(always)]
        fn push(&self, len: usize, class: Class, addr: usize) {
            self.held[len].set((addr, Some(class)));
            self.len.set(len + 1);
        }

        /// Pop the lock at `addr` from below the newest, `held[top]`.
        fn remove(&self, top: usize, addr: usize) {
            let i = (0..top)
                .rfind(|&i| self.held[i].get().0 == addr)
                .expect("a guard's lock is on its thread's stack");
            for j in i..top {
                self.held[j].set(self.held[j + 1].get());
            }
            self.len.set(top);
        }
    }

    /// Taking the lock `(class, addr)` while holding `len` others: no
    /// re-lock, no two locks of one class, and no cycle through the newest
    /// held lock.
    fn check(t: &Thread, len: usize, class: Class, addr: usize, at: Class) {
        let before = t.class(len - 1);
        let key = (
            before as *const Location as usize,
            class as *const Location as usize,
        );
        let hash = (key.0 ^ key.1.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &t.seen[hash >> (usize::BITS - SEEN.ilog2())];
        // A known edge needs no more. Each held lock was taken while the one
        // below it, or a lock taken after that one, was newest, so the graph
        // leads from every held class to `before` and on to `class`. It never
        // holds a cycle, so no held lock is of `class`: neither this lock nor
        // another of its class is held.
        if slot.get() == key {
            return;
        }
        for i in 0..len {
            if t.held[i].get().0 == addr {
                panic!(
                    "lock order: the lock created at {class} is taken again at {at} \
                     by the thread that holds it"
                );
            }
            if same(t.class(i), class) {
                panic!(
                    "lock order: two locks created at {class} are nested at {at}; \
                     no order is defined between locks of one class"
                );
            }
        }
        add_edge(before, class, at);
        slot.set(key);
    }

    /// Record `before` → `after` in [`EDGES`], panicking if it closes a
    /// cycle. The checker's own work: what it allocates is uncounted.
    fn add_edge(before: Class, after: Class, at: Class) {
        let _checking = crate::uncounted::Uncounted::enter();
        let mut cycle = Vec::new();
        {
            let mut edges = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
            let known = edges
                .iter()
                .any(|&(b, a)| same(b, before) && same(a, after));
            if !known && !path(&edges, after, before, &mut cycle) {
                edges.push((before, after));
            }
        }
        if !cycle.is_empty() {
            let cycle: Vec<String> = cycle.iter().map(ToString::to_string).collect();
            panic!(
                "lock order cycle: the lock created at {after} is taken at {at} while \
                 holding the lock created at {before}, but the opposite order was \
                 taken before: {}",
                cycle.join(" → ")
            );
        }
    }

    /// Whether `edges` lead from `from` to `to`; if so, `trail` is the way.
    fn path(edges: &[(Class, Class)], from: Class, to: Class, trail: &mut Vec<Class>) -> bool {
        trail.push(from);
        if same(from, to) {
            return true;
        }
        for &(b, a) in edges {
            if same(b, from) && !trail.iter().any(|&t| same(t, a)) && path(edges, a, to, trail) {
                return true;
            }
        }
        trail.pop();
        false
    }

    /// Panic if this thread holds a lock other than `own`, which a
    /// [`super::Condvar`] wait has already taken off the stack.
    #[track_caller]
    pub(super) fn assert_unheld(call: &str, own: Option<Class>) {
        let at = Location::caller();
        THREAD.with(|t| {
            let len = t.len.get();
            if len > 0 {
                let sites: Vec<String> = (0..len).map(|i| t.class(i).to_string()).collect();
                let own = own.map_or(String::new(), |c| {
                    format!(" besides its own, created at {c}")
                });
                panic!(
                    "{call} blocks at {at} while holding the lock(s) created at {}{own}",
                    sites.join(", ")
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(debug_assertions))]
    const _: () = {
        assert!(size_of::<Mutex<u64>>() == size_of::<std::sync::Mutex<u64>>());
        assert!(size_of::<RwLock<u64>>() == size_of::<std::sync::RwLock<u64>>());
    };

    /// Run `f`, which must panic, and return its message.
    #[cfg(debug_assertions)]
    fn panic_message<R>(f: impl FnOnce() -> R) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .err()
            .expect("the checker did not panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn an_inversion_across_two_call_chains_names_both_creation_sites() {
        let (inbox, inbox_line) = (Mutex::new(vec![0u32]), line!());
        let (ledger, ledger_line) = (Mutex::new(Vec::<usize>::new()), line!());
        // The queue's chain: `inbox`, then (stamping the ledger) `ledger`.
        let stamp_ledger = |depth| ledger.lock().push(depth);
        let enqueue = |u| {
            let mut q = inbox.lock();
            q.push(u);
            stamp_ledger(q.len());
        };
        // The ledger's chain: `ledger`, then (noting the depth) `inbox`.
        let note_inbox_depth = || inbox.lock().len();
        let settle = || {
            let entries = ledger.lock();
            entries.len() + note_inbox_depth()
        };
        enqueue(1);
        let message = panic_message(settle);
        assert!(message.contains("lock order cycle"), "{message}");
        for line in [inbox_line, ledger_line] {
            assert!(message.contains(&format!("sync.rs:{line}:")), "{message}");
        }
        // Taken apart, in either order, neither chain is a finding.
        enqueue(2);
        assert_eq!(note_inbox_depth(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn one_order_taken_over_and_over_is_no_finding() {
        let outer = RwLock::new(0);
        let inner = Mutex::new(0);
        for _ in 0..3 {
            let r = outer.read();
            *inner.lock() += *r;
            drop(r);
            let mut w = outer.write();
            *w += *inner.lock();
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn re_locking_one_instance_panics() {
        let (m, line) = (Mutex::new(0), line!());
        let _held = m.lock();
        let message = panic_message(|| drop(m.lock()));
        assert!(message.contains("taken again"), "{message}");
        assert!(message.contains(&format!("sync.rs:{line}:")), "{message}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn nesting_two_locks_of_one_class_panics() {
        let shards: Vec<Mutex<u32>> = (0..2).map(|_| Mutex::new(0)).collect();
        let _first = shards[0].lock();
        let message = panic_message(|| drop(shards[1].lock()));
        assert!(message.contains("are nested"), "{message}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_guard_held_across_a_blocking_call_panics() {
        let (m, line) = (Mutex::new(()), line!());
        let held = m.lock();
        let message = panic_message(|| blocking!(std::thread::sleep(Duration::ZERO)));
        assert!(message.contains("std::thread::sleep"), "{message}");
        assert!(message.contains(&format!("sync.rs:{line}:")), "{message}");
        drop(held);
        blocking!(std::thread::sleep(Duration::ZERO));
    }

    #[test]
    fn a_condvar_wait_holding_only_its_own_guard_passes() {
        let done = Mutex::new(false);
        let cv = Condvar::default();
        let (guard, result) = cv.wait_timeout_while(done.lock(), Duration::ZERO, |d| !*d);
        assert!(result.timed_out() && !*guard);
        drop(guard);
        // The lock came back onto the stack and off it again.
        *done.lock() = true;
        let (guard, result) = cv.wait_timeout_while(done.lock(), Duration::ZERO, |d| !*d);
        assert!(!result.timed_out() && *guard);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_condvar_wait_holding_another_guard_panics() {
        let (other, line) = (Mutex::new(()), line!());
        let done = Mutex::new(false);
        let cv = Condvar::default();
        let _other = other.lock();
        let message = panic_message(|| {
            cv.wait_timeout_while(done.lock(), Duration::ZERO, |d| !*d);
        });
        assert!(message.contains("a Condvar wait"), "{message}");
        assert!(message.contains(&format!("sync.rs:{line}:")), "{message}");
    }

    #[test]
    fn poison_is_recovered_or_reported_per_call() {
        let m = std::sync::Arc::new(Mutex::new(1));
        let poisoner = std::sync::Arc::clone(&m);
        let thread = std::thread::spawn(move || {
            let _g = poisoner.lock();
            panic!("poison it");
        });
        assert!(blocking!(thread.join()).is_err());
        assert!(m.checked_lock().is_err());
        assert_eq!(*m.lock(), 1);
    }
}
