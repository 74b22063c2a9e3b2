//! Work a checker does beside the code it checks, marked so that what
//! counts that code's allocations leaves it out.
//!
//! A debug build composes every page the renderer keeps or patches, to
//! compare, and records each lock-order edge the first time a thread takes
//! it (DESIGN §10, §14a): both allocate, inside stretches whose allocations
//! tests count. That work runs under an [`Uncounted`] guard, and a
//! counting allocator skips a call while [`is_uncounted`] says one is alive
//! on its thread. A guard wraps only what the checker owns — never a read
//! or a write of the path it checks — so it cannot hide that path's
//! allocations. It is a depth, not a setting: a release build enters none.
//!
//! ```
//! use nagano_simcore::uncounted::{is_uncounted, Uncounted};
//!
//! assert!(!is_uncounted());
//! {
//!     let _checking = Uncounted::enter();
//!     assert!(is_uncounted());
//! }
//! assert!(!is_uncounted());
//! ```

use std::cell::Cell;
use std::marker::PhantomData;

thread_local! {
    /// How many [`Uncounted`] guards are alive on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// While alive, this thread's work is a checker's. Guards nest; each gives
/// back the depth it found when it is dropped, on unwind too.
#[must_use = "work is uncounted only while the guard lives"]
#[derive(Debug)]
pub struct Uncounted {
    /// Dropped on the thread that entered it, whose depth it holds.
    _thread: PhantomData<*const ()>,
}

impl Uncounted {
    /// Mark this thread's work uncounted until the guard is dropped.
    pub fn enter() -> Self {
        DEPTH.with(|depth| depth.set(depth.get() + 1));
        Uncounted {
            _thread: PhantomData,
        }
    }
}

impl Drop for Uncounted {
    fn drop(&mut self) {
        DEPTH.with(|depth| depth.set(depth.get() - 1));
    }
}

/// Whether an [`Uncounted`] guard is alive on this thread. Allocates
/// nothing, so a global allocator may ask.
pub fn is_uncounted() -> bool {
    DEPTH.try_with(|depth| depth.get() > 0).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth() -> u32 {
        DEPTH.with(Cell::get)
    }

    #[test]
    fn nested_guards_give_back_the_depth_they_found() {
        assert_eq!(depth(), 0);
        let outer = Uncounted::enter();
        {
            let _inner = Uncounted::enter();
            assert_eq!(depth(), 2);
        }
        assert!(is_uncounted() && depth() == 1);
        drop(outer);
        assert!(!is_uncounted() && depth() == 0);
    }

    #[test]
    fn a_panic_inside_a_guard_leaves_the_depth_at_zero() {
        let unwound = std::panic::catch_unwind(|| {
            let _outer = Uncounted::enter();
            let _inner = Uncounted::enter();
            panic!("a checker failed");
        });
        assert!(unwound.is_err());
        assert_eq!(depth(), 0);
        assert!(!is_uncounted());
    }

    #[test]
    fn the_depth_is_the_threads_own() {
        let _guard = Uncounted::enter();
        let elsewhere = std::thread::spawn(is_uncounted);
        assert_eq!(crate::blocking!(elsewhere.join()).ok(), Some(false));
        assert!(is_uncounted());
    }
}
