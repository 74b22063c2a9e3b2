//! Offline compat shim for `bytes`: [`Bytes`], an immutable, cheaply
//! cloneable byte buffer backed by a shared `Vec<u8>`, and as much of
//! [`BytesMut`] as [`Bytes::try_into_mut`] needs. The workspace uses the
//! shared-ownership read path plus [`Bytes::slice`] subviews: a slice
//! shares the parent's allocation and narrows the visible window, so a
//! view never copies. Like the real crate, `Bytes::from(Vec<u8>)` takes
//! the vector's allocation over — spare capacity included — instead of
//! copying it, and `try_into_mut` hands a buffer nobody else holds back
//! for writing in place. An empty buffer holds no allocation at all, so
//! making, cloning and dropping one allocates and counts nothing.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. `clone()` is an `Arc`
/// refcount bump, never a copy; [`Bytes::slice`] produces a narrowed view
/// over the same allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` for a buffer that never held an allocation: [`Bytes::new`]
    /// and the conversion of a vector that has none.
    data: Option<Arc<Shared>>,
    start: usize,
    end: usize,
}

/// What the clones and slices of one buffer share: the adopted vector,
/// behind a reference count in a small allocation of its own.
struct Shared {
    buf: Vec<u8>,
    /// Sizes that allocation (136 bytes with the counts) past glibc's
    /// fastbins, which hold freed chunks of up to 128 bytes *without*
    /// merging them into their free neighbours. One such chunk beside
    /// every body kept the bodies a dropped site freed from coalescing —
    /// and a thread's arena from being trimmed — until something next
    /// allocated from that arena: 15–25 MB of peak RSS in a process that
    /// builds a site per round and regenerates on a thread of its own
    /// (`serve_under_updates`, 30 s: 87 MB without this, 65 MB with).
    _past_fastbins: [usize; 12],
}

impl Bytes {
    /// Empty buffer, holding no allocation: like the real crate's
    /// `const fn new`, it allocates nothing.
    pub const fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// Buffer borrowing a static slice (copied once into shared storage —
    /// this shim does not keep the zero-copy static fast path).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The visible window of the underlying allocation.
    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(shared) => &shared.buf[self.start..self.end],
            None => &[],
        }
    }

    /// A zero-copy subview of `range` (indices relative to this view):
    /// shares the parent allocation, narrows the window. Panics when the
    /// range is out of bounds, matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "slice {begin}..{end} out of bounds for Bytes of length {len}"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// The buffer as a [`BytesMut`] when no clone or slice of it is alive
    /// anywhere; otherwise `self`, unchanged. Nothing can see the bytes
    /// change while the `BytesMut` is written.
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        if self.data.as_mut().is_none_or(|shared| Arc::get_mut(shared).is_some()) {
            Ok(BytesMut { owned: self })
        } else {
            Err(self)
        }
    }
}

/// A byte buffer owned by one handle, writable in place. This shim has
/// the real crate's way in ([`Bytes::try_into_mut`]) and way out
/// ([`BytesMut::freeze`]), and writes within the length it came with.
#[derive(Debug)]
pub struct BytesMut {
    /// Never shared: no other handle to `owned.data` exists.
    owned: Bytes,
}

impl BytesMut {
    /// Hand the buffer over as `Bytes` again, allocation and all.
    pub fn freeze(self) -> Bytes {
        self.owned
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.owned.as_slice()
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let Bytes { data, start, end } = &mut self.owned;
        let Some(shared) = data else {
            return &mut [];
        };
        let shared = Arc::get_mut(shared).expect("a BytesMut is the one handle to its buffer");
        &mut shared.buf[*start..*end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Shares `v`'s allocation: no copy, and whatever capacity `v` has
    /// beyond its length stays allocated for as long as the buffer lives.
    /// A vector without an allocation makes [`Bytes::new`].
    fn from(v: Vec<u8>) -> Self {
        if v.capacity() == 0 {
            return Bytes::new();
        }
        let end = v.len();
        Bytes {
            data: Some(Arc::new(Shared {
                buf: v,
                _past_fastbins: [0; 12],
            })),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.as_slice() == other[..]
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_the_allocation() {
        let b = Bytes::from("0123456789".to_string());
        let mid = b.slice(2..7);
        assert_eq!(&mid[..], b"23456");
        assert!(std::ptr::eq(&b[2], &mid[0]));
        // Sub-slicing a slice stays relative to the view.
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], b"34");
        assert_eq!(mid.slice(..).len(), 5);
        assert!(mid.slice(3..3).is_empty());
    }

    #[test]
    fn from_vec_and_from_string_keep_the_source_allocation() {
        let v = b"rendered body".to_vec();
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b, "rendered body");
        let s = String::from("composed page");
        let at = s.as_ptr();
        let b = Bytes::from(s);
        assert_eq!(b.as_ptr(), at);
        // A slice of an adopted buffer, and a clone of that, still share it.
        let tail = b.slice(9..);
        assert_eq!(tail, "page");
        assert!(std::ptr::eq(&b[9], &tail[0]));
        assert_eq!(tail.clone().as_ptr(), tail.as_ptr());
        // The last owner frees the vector; nothing to observe but no crash.
        drop(b);
        assert_eq!(tail, "page");
    }

    #[test]
    fn copying_constructors_behave_as_before() {
        static SRC: &[u8] = b"static bytes";
        let b = Bytes::from_static(SRC);
        assert_eq!(b, SRC);
        assert_eq!(b.len(), SRC.len());
        assert_eq!(Bytes::from("static bytes"), b);
        assert_eq!(Bytes::from(SRC), b);
        let src = vec![1u8, 2, 3];
        let c = Bytes::copy_from_slice(&src);
        assert_ne!(c.as_ptr(), src.as_ptr());
        assert_eq!(c, src);
        for empty in [Bytes::default(), Bytes::new(), Bytes::from(Vec::new())] {
            assert!(empty.is_empty());
            assert_eq!(empty.len(), 0);
            assert_eq!(&empty[..], b"");
            assert!(empty.slice(..).is_empty());
        }
    }

    #[test]
    fn an_empty_buffer_holds_no_allocation() {
        const EMPTY: Bytes = Bytes::new();
        let adopted = Bytes::from(Vec::new());
        let slice = Bytes::from_static(b"abc").slice(1..1);
        for empty in [EMPTY, Bytes::default(), adopted.clone(), adopted] {
            assert!(empty.data.is_none(), "no shared count to touch");
            assert!(empty.clone().data.is_none());
            assert!(empty.slice(..).data.is_none());
            let mut m = empty.try_into_mut().expect("nobody else holds it");
            let writable: &mut [u8] = &mut m;
            assert!(writable.is_empty());
            assert!(m.freeze().data.is_none());
        }
        // A window of a buffer, even an empty one, still shares it, and
        // an empty vector with room keeps its allocation, as it would
        // with any length.
        assert!(slice.data.is_some() && slice.is_empty());
        assert!(Bytes::from(Vec::with_capacity(8)).data.is_some());
    }

    #[test]
    fn a_buffer_held_once_is_written_in_place() {
        let b = Bytes::from(b"0123456789".to_vec());
        let at = b.as_ptr();
        let mut m = b.try_into_mut().expect("nobody else holds it");
        m[..3].copy_from_slice(b"abc");
        assert_eq!(&m[..], b"abc3456789");
        let b = m.freeze();
        assert_eq!(b, "abc3456789");
        assert_eq!(b.as_ptr(), at, "the same allocation");
        // A slice nobody shares any more is that window of it.
        let tail = b.slice(4..);
        drop(b);
        let mut m = tail.try_into_mut().expect("the parent is gone");
        m[0] = b'-';
        assert_eq!(m.freeze(), "-56789");
    }

    #[test]
    fn a_buffer_held_twice_is_not() {
        let b = Bytes::from(b"shared body".to_vec());
        let clone = b.clone();
        let b = b.try_into_mut().expect_err("a clone is alive");
        assert_eq!(b, "shared body");
        let view = clone.slice(7..);
        let clone = clone
            .try_into_mut()
            .expect_err("the parent and a slice are alive");
        let view = view.try_into_mut().expect_err("its parent is alive");
        drop((b, clone));
        assert!(view.try_into_mut().is_ok(), "the last handle");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from_static(b"abc").slice(1..5);
    }
}
