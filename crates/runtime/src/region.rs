//! Data regions: the memory segments tasks declare access to.
//!
//! A [`Region<T>`] owns a typed buffer and a unique address used by the
//! dependency engine exactly like a StarSs parameter's base address. Tasks
//! obtain references through [`read`](crate::runtime::TaskCtx::read) /
//! [`write`](crate::runtime::TaskCtx::write) guards that verify — at run
//! time — that the running task actually declared that access, and — in
//! all builds — that the dependency engine never granted conflicting
//! access: the buffer sits behind an `RwLock` that is only ever *tried*,
//! so an acquisition that would block is a dependency violation and
//! panics instead of waiting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError, TryLockResult};

/// Unique identity of a region: plays the role of the parameter's base
/// memory address in the Dependence Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

static NEXT_REGION: AtomicU64 = AtomicU64::new(0x1000);

/// A shared handle to a typed data region.
pub struct Region<T> {
    id: RegionId,
    /// Element count (regions never reallocate).
    len: usize,
    data: Arc<RwLock<Box<[T]>>>,
}

impl<T> Clone for Region<T> {
    fn clone(&self) -> Self {
        Region {
            id: self.id,
            len: self.len,
            data: Arc::clone(&self.data),
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
        Region {
            id,
            len: data.len(),
            data: Arc::new(RwLock::new(data.into_boxed_slice())),
        }
    }

    /// The region's dependency-resolution identity.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn begin_read(&self) -> ReadGuard<'_, T> {
        ReadGuard(self.admit(
            self.data.try_read(),
            "reader admitted while a writer is active",
        ))
    }

    pub(crate) fn begin_write(&self) -> WriteGuard<'_, T> {
        WriteGuard(self.admit(
            self.data.try_write(),
            "writer admitted while region is in use",
        ))
    }

    fn admit<G>(&self, tried: TryLockResult<G>, violation: &str) -> G {
        match tried {
            Ok(guard) => guard,
            // A body that panicked while writing poisoned the lock. The
            // engine ordered its access like any other, so what it wrote
            // is the region's state and the next task proceeds from it.
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                panic!(
                    "dependency violation: {violation} (region {:#x})",
                    self.id.0
                )
            }
        }
    }
}

/// Shared read access to a region's data for the duration of a task.
pub struct ReadGuard<'a, T>(RwLockReadGuard<'a, Box<[T]>>);

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

/// Exclusive write access to a region's data for the duration of a task.
pub struct WriteGuard<'a, T>(RwLockWriteGuard<'a, Box<[T]>>);

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
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
