//! Reference-counted immutable slices over shared byte storage.
//!
//! The snapshot format (`io`) lays fixed-width little-endian `u32` arrays
//! out on disk so that the on-disk bytes *are* the in-memory representation.
//! This module provides the two types that make that zero-copy story safe:
//!
//! * [`SharedBytes`] — an immutable byte region kept alive by an `Arc`'d
//!   owner (a memory mapping, an aligned read buffer, or a plain `Vec<u8>`).
//!   Sub-slicing is O(1) and shares the owner.
//! * [`ArcSlice<T>`] — a typed view (`Deref<Target = [T]>`) into such a
//!   region, or into an owned `Vec<T>`. Cloning is an `Arc` bump; dropping
//!   the last clone releases the backing storage (unmapping the file if it
//!   was a mapping).
//!
//! The typed reinterpretation is restricted to [`Word`] types — `u32`-sized,
//! `#[repr(transparent)]` newtypes over `u32` ([`VertexId`](crate::VertexId),
//! [`Label`](crate::Label)) plus `u32` itself — and is only performed
//! in-place on little-endian targets, where the on-disk encoding matches the
//! native one. On big-endian targets [`SharedBytes::typed`] decodes into an
//! owned buffer instead; every caller gets the same `&[T]` semantics either
//! way, just without the sharing.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Marker for types that can be reinterpreted from little-endian `u32`s.
///
/// # Safety
///
/// Implementors must be `#[repr(transparent)]` wrappers over `u32` (or `u32`
/// itself): size 4, alignment 4, no padding, every bit pattern valid.
pub unsafe trait Word: Copy + Send + Sync + 'static {
    /// Builds the value from a raw little-endian-decoded `u32`.
    fn from_u32(raw: u32) -> Self;
}

// SAFETY: u32 trivially satisfies the contract.
unsafe impl Word for u32 {
    #[inline]
    fn from_u32(raw: u32) -> Self {
        raw
    }
}

/// The owner keeping a byte region alive: any `Send + Sync` storage.
type Owner = Arc<dyn Any + Send + Sync>;

/// An immutable, reference-counted byte region.
///
/// Constructed from any storage that yields `&[u8]` (a `Vec<u8>`, an
/// [`mmap_lite::Mmap`], an [`mmap_lite::AlignedBuf`]); sub-slicing shares the
/// owner without copying.
#[derive(Clone)]
pub struct SharedBytes {
    owner: Owner,
    ptr: *const u8,
    len: usize,
}

// SAFETY: the region is immutable and the owner is Send + Sync; handing
// &[u8] views to other threads is as safe as sharing a frozen Vec<u8>.
unsafe impl Send for SharedBytes {}
unsafe impl Sync for SharedBytes {}

impl SharedBytes {
    /// Wraps `storage` (taking ownership) as a shared immutable region.
    pub fn new<S>(storage: S) -> Self
    where
        S: Deref<Target = [u8]> + Any + Send + Sync,
    {
        let owner: Arc<S> = Arc::new(storage);
        let slice: &[u8] = &owner;
        let (ptr, len) = (slice.as_ptr(), slice.len());
        Self {
            owner: owner as Owner,
            ptr,
            len,
        }
    }

    /// An empty region with a trivial owner.
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// The bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len were captured from the owner's stable heap (or
        // mapped) storage, which `self.owner` keeps alive.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-region sharing the same owner.
    ///
    /// # Panics
    /// Panics if the range is out of bounds (callers bound-check with typed
    /// errors first; this is the internal slip-proof).
    pub fn slice(&self, offset: usize, len: usize) -> SharedBytes {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "SharedBytes::slice out of bounds: {offset}+{len} > {}",
            self.len
        );
        Self {
            owner: self.owner.clone(),
            // SAFETY: offset <= self.len, so the result stays inside (or one
            // past) the owned region.
            ptr: unsafe { self.ptr.add(offset) },
            len,
        }
    }

    /// Reinterprets `count` little-endian `T`s starting at `byte_offset`.
    ///
    /// Zero-copy on little-endian targets when the data is 4-byte aligned;
    /// decoded into an owned buffer otherwise (big-endian targets, or an
    /// unaligned source such as a plain `Vec<u8>` sub-range). Returns `None`
    /// if the range is out of bounds — callers translate that into their own
    /// typed truncation errors.
    pub fn typed<T: Word>(&self, byte_offset: usize, count: usize) -> Option<ArcSlice<T>> {
        let bytes = count.checked_mul(4)?;
        let end = byte_offset.checked_add(bytes)?;
        if end > self.len {
            return None;
        }
        let region = self.slice(byte_offset, bytes);
        if cfg!(target_endian = "little") && (region.ptr as usize).is_multiple_of(4) {
            Some(ArcSlice {
                owner: region.owner,
                ptr: region.ptr as *const T,
                len: count,
            })
        } else {
            // Portable decode: byte-exact semantics, owned storage.
            let decoded: Vec<T> = region
                .as_slice()
                .chunks_exact(4)
                .map(|c| T::from_u32(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
                .collect();
            Some(ArcSlice::from_vec(decoded))
        }
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes({} bytes)", self.len)
    }
}

/// An immutable, cheaply clonable typed slice.
///
/// Either a view into [`SharedBytes`] storage (zero-copy) or an owned
/// `Vec<T>` promoted into shared ownership; `Deref`s to `&[T]` with no
/// branching on the hot path.
pub struct ArcSlice<T> {
    owner: Owner,
    ptr: *const T,
    len: usize,
}

// SAFETY: same argument as SharedBytes — immutable data, Send + Sync owner.
unsafe impl<T: Send + Sync> Send for ArcSlice<T> {}
unsafe impl<T: Send + Sync> Sync for ArcSlice<T> {}

impl<T: 'static + Send + Sync> ArcSlice<T> {
    /// Promotes an owned vector into a shared slice (no copy; the `Vec`'s
    /// heap buffer becomes the shared storage).
    pub fn from_vec(v: Vec<T>) -> Self {
        let owner: Arc<Vec<T>> = Arc::new(v);
        let (ptr, len) = (owner.as_ptr(), owner.len());
        Self {
            owner: owner as Owner,
            ptr,
            len,
        }
    }

    /// An empty slice.
    pub fn empty() -> Self {
        Self::from_vec(Vec::new())
    }
}

impl<T> ArcSlice<T> {
    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr/len describe initialized, immutable storage kept alive
        // by self.owner.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Clone for ArcSlice<T> {
    fn clone(&self) -> Self {
        Self {
            owner: self.owner.clone(),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T> Deref for ArcSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for ArcSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: 'static + Send + Sync> From<Vec<T>> for ArcSlice<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_bytes_slices_share_the_owner() {
        let data: Vec<u8> = (0..64u8).collect();
        let all = SharedBytes::new(data);
        let mid = all.slice(16, 8);
        assert_eq!(mid.as_slice(), &(16..24u8).collect::<Vec<_>>()[..]);
        drop(all);
        // The sub-slice keeps the storage alive on its own.
        assert_eq!(mid.len(), 8);
        assert_eq!(mid.as_slice()[0], 16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_bytes_slice_bounds_checked() {
        SharedBytes::new(vec![0u8; 8]).slice(4, 8);
    }

    #[test]
    fn typed_views_decode_little_endian_words() {
        let words: Vec<u32> = vec![7, 0xdead_beef, 42];
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let shared = SharedBytes::new(bytes);
        let typed: ArcSlice<u32> = shared.typed(0, 3).expect("in bounds");
        assert_eq!(&*typed, &words[..]);
        // Offset views and out-of-bounds checks.
        let tail: ArcSlice<u32> = shared.typed(4, 2).expect("in bounds");
        assert_eq!(&*tail, &words[1..]);
        assert!(shared.typed::<u32>(0, 4).is_none(), "past the end");
        assert!(shared.typed::<u32>(usize::MAX, 1).is_none(), "overflow");
    }

    #[test]
    fn typed_view_survives_dropping_the_shared_handle() {
        let shared = SharedBytes::new(vec![1u8, 0, 0, 0, 2, 0, 0, 0]);
        let typed: ArcSlice<u32> = shared.typed(0, 2).expect("in bounds");
        drop(shared);
        assert_eq!(&*typed, &[1, 2]);
    }

    #[test]
    fn arc_slice_from_vec_and_clone() {
        let s = ArcSlice::from_vec(vec![5u32, 6, 7]);
        let t = s.clone();
        drop(s);
        assert_eq!(&*t, &[5, 6, 7]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(ArcSlice::<u32>::empty().is_empty());
    }

    #[test]
    fn unaligned_typed_view_falls_back_to_decoding() {
        // 1 padding byte then two u32s: the 4-byte alignment of the source
        // cannot be guaranteed, so the view must still read correctly.
        let mut bytes = vec![0xffu8];
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&10u32.to_le_bytes());
        let shared = SharedBytes::new(bytes);
        let typed: ArcSlice<u32> = shared.typed(1, 2).expect("in bounds");
        assert_eq!(&*typed, &[9, 10]);
    }
}
