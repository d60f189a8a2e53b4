//! The one array type behind the machine's big per-tile structures: fixed
//! length, all-zero at birth, and committed page by page only where a run
//! writes.
//!
//! A paper-scale machine carries 64 L2 way arrays of 96 KiB and 64
//! directory entry arrays of 128 KiB, and a short run fills few of their
//! sets. On x86-64 and aarch64 Linux an array of [`MAP_MIN_BYTES`] or more
//! is an anonymous private mapping: its untouched pages read as zero and
//! cost no resident memory until first written, whatever the allocator's
//! own mmap threshold happens to be (glibc raises that threshold as mapped
//! chunks are freed, and a heap-served zeroed block must then be cleared,
//! committing every page). Smaller arrays — the L1s, and every array of the
//! covert-channel testbench — come from the heap's zeroed allocator, as do
//! all arrays on other targets: page-aligning many tiny arrays would stack
//! them onto the same host cache sets.
//!
//! This is the only module of the crate with `unsafe` code.

use std::alloc::Layout;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use crate::directory::DirEntry;
use crate::set_assoc::Way;

/// Arrays of at least this many bytes are mapped rather than taken from the
/// heap (on targets with [`os::MAPS`]).
const MAP_MIN_BYTES: usize = 64 * 1024;

/// Element types whose all-zero byte pattern is a valid value.
///
/// # Safety
///
/// An implementor must be plain data for which every byte being zero is a
/// fully initialised, valid value.
pub(crate) unsafe trait Zeroable: Copy {}

// SAFETY: every bit pattern, zero included, is a valid `u64`.
unsafe impl Zeroable for u64 {}

// SAFETY: `Way` holds only bools and unsigned integers; all-zero is
// `Way::default()`, an invalid way of generation 0.
unsafe impl Zeroable for Way {}

// SAFETY: `DirEntry` holds unsigned integers, a bool and the `repr(u8)`
// `MesiState`, whose zero discriminant is the `Shared` variant; all-zero is
// `DirEntry::default()`, a never-filled entry.
unsafe impl Zeroable for DirEntry {}

/// An array the host would not provide: its size overflows the address
/// space, or the allocator or the kernel refused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayError {
    /// Elements requested.
    pub len: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot allocate {} elements of {} bytes", self.len, self.elem_bytes)
    }
}

impl std::error::Error for ArrayError {}

/// A fixed-length array of zero-initialised `T`, dereferencing to `[T]`
/// (see the module docs for where its memory comes from).
pub(crate) struct ZeroedArray<T: Zeroable> {
    ptr: NonNull<T>,
    len: usize,
    /// The layout of `len` elements, which freeing the memory needs.
    layout: Layout,
    /// Whether `ptr` is a mapping of [`os::map`] rather than a heap block.
    mapped: bool,
    _owns: PhantomData<T>,
}

impl<T: Zeroable> ZeroedArray<T> {
    /// An array of `len` all-zero elements, or the error the host gave.
    pub(crate) fn new(len: usize) -> Result<Self, ArrayError> {
        let refused = ArrayError { len, elem_bytes: size_of::<T>() };
        let layout = Layout::array::<T>(len).map_err(|_| refused)?;
        let (ptr, mapped) = if layout.size() == 0 {
            (NonNull::dangling(), false)
        } else if os::MAPS && layout.size() >= MAP_MIN_BYTES {
            (os::map(layout.size()).ok_or(refused)?.cast(), true)
        } else {
            // SAFETY: `layout` has a non-zero size (the first branch took
            // the zero case).
            let raw = unsafe { std::alloc::alloc_zeroed(layout) };
            (NonNull::new(raw.cast()).ok_or(refused)?, false)
        };
        Ok(ZeroedArray { ptr, len, layout, mapped, _owns: PhantomData })
    }
}

impl<T: Zeroable> Drop for ZeroedArray<T> {
    fn drop(&mut self) {
        if self.layout.size() == 0 {
            return;
        }
        if self.mapped {
            // SAFETY: `ptr` is the live mapping `os::map` returned for
            // `layout.size()` bytes, and nothing uses it after this drop.
            unsafe { os::unmap(self.ptr.cast(), self.layout.size()) }
        } else {
            // SAFETY: `ptr` came from `alloc_zeroed` with this same layout
            // and is freed exactly once, here.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr().cast(), self.layout) }
        }
    }
}

impl<T: Zeroable> Deref for ZeroedArray<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is valid for `len` elements, all initialised (zero
        // is a valid `T` by `Zeroable`, and writes only store whole `T`s),
        // and the borrow of `self` keeps them alive and unaliased by any
        // `&mut`. It is aligned for `T`: a heap block by its layout, a
        // mapping by starting on a page boundary. `Layout::array` accepted
        // `len`, so the total size fits in `isize`. A zero-sized array has
        // a dangling but aligned `ptr`, which `from_raw_parts` accepts.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> DerefMut for ZeroedArray<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`; the exclusive borrow of `self` makes this
        // the only reference to the elements.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Clone for ZeroedArray<T> {
    /// Copies the elements into a new array.
    ///
    /// # Panics
    ///
    /// Panics if the host refuses the copy's memory.
    fn clone(&self) -> Self {
        let mut copy = ZeroedArray::new(self.len).unwrap_or_else(|e| panic!("{e}"));
        copy.copy_from_slice(self);
        copy
    }
}

impl<T: Zeroable + fmt::Debug> fmt::Debug for ZeroedArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// SAFETY: `ptr` is the only pointer to memory the array owns outright, as
// a `Box<[T]>` does, and it hands the elements out only through borrows of
// itself; `len`, `layout` and `mapped` are plain values. Moving the array
// to another thread moves that ownership (the heap block or mapping may be
// freed from any thread), which is sound whenever `T: Send`.
unsafe impl<T: Zeroable + Send> Send for ZeroedArray<T> {}

// SAFETY: through a shared borrow the array yields only `&[T]` and reads of
// its plain `len`, `layout` and `mapped` fields, as a `Box<[T]>` would,
// which is sound to share across threads whenever `T: Sync`.
unsafe impl<T: Zeroable + Sync> Sync for ZeroedArray<T> {}

/// Anonymous private mappings, on the Linux targets whose `mmap` flag
/// values are the generic ones below.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod os {
    use std::ffi::{c_int, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Whether this target maps large arrays.
    pub(super) const MAPS: bool = true;

    /// A new zero-filled, read-write mapping of `bytes` bytes, or `None`
    /// when the kernel refuses it.
    pub(super) fn map(bytes: usize) -> Option<NonNull<u8>> {
        let flags = MAP_PRIVATE | MAP_ANONYMOUS;
        // SAFETY: an anonymous mapping at an address the kernel picks
        // aliases no memory the program already uses; the call has no other
        // precondition, and failure is reported as `MAP_FAILED` (-1).
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), bytes, PROT_READ | PROT_WRITE, flags, -1, 0) };
        if ptr as isize == -1 {
            None
        } else {
            NonNull::new(ptr.cast())
        }
    }

    /// Returns a mapping of [`map`] to the kernel.
    ///
    /// # Safety
    ///
    /// `ptr` and `bytes` must be a live mapping `map` returned, and nothing
    /// may use it afterwards.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
        // SAFETY: the caller passes a live mapping of exactly `bytes` bytes
        // that nothing references any more. `munmap` fails only on a range
        // that is no mapping, which that contract excludes, and a drop
        // could not report a failure anyway.
        let _ = unsafe { munmap(ptr.as_ptr().cast(), bytes) };
    }
}

/// Targets without the mapping path: every array comes from the heap.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod os {
    use std::ptr::NonNull;

    /// Whether this target maps large arrays.
    pub(super) const MAPS: bool = false;

    pub(super) fn map(_bytes: usize) -> Option<NonNull<u8>> {
        None
    }

    /// Never called: nothing is mapped on this target.
    ///
    /// # Safety
    ///
    /// None needed; it only panics.
    pub(super) unsafe fn unmap(_ptr: NonNull<u8>, _bytes: usize) {
        unreachable!("no array is mapped on this target")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arrays_are_zeroed_heap_blocks() {
        let mut a = ZeroedArray::<u64>::new(100).unwrap();
        assert!(!a.mapped);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|w| *w == 0));
        a[99] = 7;
        let b = a.clone();
        assert_eq!(&*b, &*a);
        assert!(ZeroedArray::<u64>::new(0).unwrap().is_empty());
    }

    #[test]
    fn large_arrays_are_mapped_where_the_target_maps() {
        let words = MAP_MIN_BYTES / 8;
        let mut a = ZeroedArray::<u64>::new(words).unwrap();
        assert_eq!(a.mapped, os::MAPS);
        assert!(a.iter().all(|w| *w == 0));
        a[0] = 1;
        a[words - 1] = 2;
        let b = a.clone();
        assert_eq!((b[0], b[words - 1], b.mapped), (1, 2, os::MAPS));
        assert!(ZeroedArray::<u64>::new(words - 1).is_ok_and(|small| !small.mapped));
    }

    #[test]
    fn refused_arrays_are_errors() {
        // A byte size beyond `isize::MAX` has no layout.
        let err = ZeroedArray::<u64>::new(1 << 61).err();
        assert_eq!(err, Some(ArrayError { len: 1 << 61, elem_bytes: 8 }));
        // 2^59 bytes exceed every host's address space: mmap (or malloc)
        // refuses them.
        let err = ZeroedArray::<u64>::new(1 << 56).expect_err("no host maps 512 PiB");
        assert!(err.to_string().contains("cannot allocate"));
    }
}
