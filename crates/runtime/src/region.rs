//! Data regions: the memory segments tasks declare access to.
//!
//! A [`Region<T>`] owns a typed buffer and a unique address used by the
//! dependency engine exactly like a StarSs parameter's base address. Tasks
//! obtain references through [`read`](crate::runtime::TaskCtx::read) /
//! [`write`](crate::runtime::TaskCtx::write) guards that verify — at run
//! time — that the running task actually declared that access, and — in
//! all builds — that the dependency engine never granted conflicting
//! access (a shared reader count / exclusive writer flag per region).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::sync::Arc;

/// Unique identity of a region: plays the role of the parameter's base
/// memory address in the Dependence Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

static NEXT_REGION: AtomicU64 = AtomicU64::new(0x1000);

pub(crate) struct RegionCell<T> {
    pub(crate) id: RegionId,
    data: UnsafeCell<Box<[T]>>,
    /// Element count (immutable: regions never reallocate).
    len: usize,
    /// Concurrency checker: >0 = active readers, −1 = active writer.
    access: AtomicI32,
}

// SAFETY: `id` and `len` are immutable and `access` is atomic. `data` is
// reached only through a `ReadGuard` or a `WriteGuard`, and `access`
// admits either readers (shared `&[T]`, hence `T: Sync`) or one writer
// (hence `T: Send`), never both; the dependency engine serializes
// writers against everything, and `access` asserts it.
unsafe impl<T: Send + Sync> Sync for RegionCell<T> {}

/// A shared handle to a typed data region.
pub struct Region<T> {
    pub(crate) cell: Arc<RegionCell<T>>,
}

impl<T> Clone for Region<T> {
    fn clone(&self) -> Self {
        Region {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<T> std::fmt::Debug for Region<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region({:#x}, len {})", self.id().0, self.len())
    }
}

impl<T> Region<T> {
    /// Create a region from owned data. (Usually via
    /// [`Runtime::region`](crate::Runtime::region).)
    pub fn new(data: Vec<T>) -> Self {
        // Region ids are spaced so they behave like distinct base
        // addresses under the engine's hash.
        let id = RegionId(NEXT_REGION.fetch_add(64, Ordering::Relaxed));
        let len = data.len();
        Region {
            cell: Arc::new(RegionCell {
                id,
                data: UnsafeCell::new(data.into_boxed_slice()),
                len,
                access: AtomicI32::new(0),
            }),
        }
    }

    /// The region's dependency-resolution identity.
    pub fn id(&self) -> RegionId {
        self.cell.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cell.len
    }

    /// True if the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn begin_read(&self) -> ReadGuard<'_, T> {
        // CAS loop so a rejected acquisition leaves the counter untouched
        // (the panic unwinds through other guards' Drops).
        let mut cur = self.cell.access.load(Ordering::Acquire);
        loop {
            assert!(
                cur >= 0,
                "dependency violation: reader admitted while a writer is active"
            );
            match self.cell.access.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return ReadGuard { region: self },
                Err(actual) => cur = actual,
            }
        }
    }

    pub(crate) fn begin_write(&self) -> WriteGuard<'_, T> {
        let swapped = self
            .cell
            .access
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire);
        assert!(
            swapped.is_ok(),
            "dependency violation: writer admitted while region is in use"
        );
        WriteGuard { region: self }
    }
}

/// Shared read access to a region's data for the duration of a task.
pub struct ReadGuard<'a, T> {
    region: &'a Region<T>,
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: `access` ≥ 1 while this guard lives, so no writer holds
        // the data; the engine guarantees no writer task runs concurrently.
        unsafe { &*self.region.cell.data.get() }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        self.region.cell.access.fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive write access to a region's data for the duration of a task.
pub struct WriteGuard<'a, T> {
    region: &'a Region<T>,
}

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: `access` == −1 while this guard lives: it is the only
        // accessor, and the borrow is tied to `&self`.
        unsafe { &*self.region.cell.data.get() }
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: `access` == −1 while this guard lives: it is the only
        // accessor, and the borrow is tied to `&mut self`.
        unsafe { &mut *self.region.cell.data.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        let prev = self.region.cell.access.swap(0, Ordering::Release);
        debug_assert_eq!(prev, -1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_have_distinct_ids() {
        let a = Region::new(vec![0u8; 4]);
        let b = Region::new(vec![0u8; 4]);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn read_guards_share() {
        let a = Region::new(vec![7u32; 3]);
        let g1 = a.begin_read();
        let g2 = a.begin_read();
        assert_eq!(g1[0], 7);
        assert_eq!(g2[2], 7);
        drop(g1);
        drop(g2);
        let mut w = a.begin_write();
        w[0] = 9;
        drop(w);
        let g = a.begin_read();
        assert_eq!(g[0], 9);
    }

    #[test]
    #[should_panic(expected = "dependency violation")]
    fn write_while_read_panics() {
        let a = Region::new(vec![0u8; 1]);
        let _r = a.begin_read();
        let _w = a.begin_write();
    }

    #[test]
    #[should_panic(expected = "dependency violation")]
    fn read_while_write_panics() {
        let a = Region::new(vec![0u8; 1]);
        let _w = a.begin_write();
        let _r = a.begin_read();
    }

    #[test]
    fn clone_shares_storage() {
        let a = Region::new(vec![1u64, 2, 3]);
        let b = a.clone();
        {
            let mut w = a.begin_write();
            w[1] = 99;
        }
        let r = b.begin_read();
        assert_eq!(&*r, &[1, 99, 3]);
    }
}
