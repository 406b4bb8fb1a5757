//! Chase–Lev work-stealing deques, one per worker.
//!
//! [`Worker`] is the single-owner end: LIFO `push`/`pop` touch only the
//! bottom index, so the owner's hot path is a handful of atomic
//! operations and never takes a lock. [`Stealer`] handles take from the
//! top (FIFO order) and race each other, and the owner's last-element
//! pop, through a CAS on `top`, per Chase & Lev, *Dynamic Circular
//! Work-Stealing Deque* (SPAA'05), with the memory orderings of Lê et
//! al., *Correct and Efficient Work-Stealing for Weak Memory Models*
//! (PPoPP'13).
//!
//! * The ring buffer grows geometrically and old buffers are *retired*,
//!   not freed, until the deque itself drops: stealers may still be
//!   reading a superseded buffer, and retirement makes that read
//!   always safe without epoch reclamation. Peak retired memory is
//!   bounded by 2× the largest buffer.
//! * A steal reads the slot *before* validating ownership with the CAS
//!   on `top`; a failed CAS forgets the read value without dropping it.
//!   Values are only returned (and dropped) by the one winner of index
//!   `t`.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

const MIN_CAP: usize = 64;

struct Buffer<T> {
    /// Power of two.
    cap: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Buffer { cap, slots }))
    }

    /// Write `value` into the slot for `index`.
    ///
    /// # Safety
    ///
    /// Only the owner may call this, for an index outside the published
    /// range `[top, bottom)`: no stealer reads the slot until `bottom`
    /// is stored past it.
    unsafe fn write(&self, index: isize, value: T) {
        let slot = self.slots[index as usize & (self.cap - 1)].get();
        (*slot).write(value);
    }

    /// Bitwise read of the slot for `index`.
    ///
    /// # Safety
    ///
    /// The slot must hold a value. A caller that does not yet own
    /// `index` may race an owner overwrite: it must validate with the
    /// CAS on `top` before using (or dropping) the value, and
    /// `mem::forget` it on failure.
    unsafe fn read(&self, index: isize) -> T {
        let slot = self.slots[index as usize & (self.cap - 1)].get();
        (*slot).assume_init_read()
    }
}

struct Inner<T> {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buf: AtomicPtr<Buffer<T>>,
    /// Superseded buffers, kept alive until the deque drops.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the raw buffer pointers are owned by `Inner` and freed only in
// its `Drop`; elements cross threads by value (hence `T: Send`), each
// handed to exactly one thread by the CAS on `top`.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: shared access goes through the atomics; a slot is written only
// by the owner outside `[top, bottom)` and taken only by the winner of
// its index.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let buf = *self.buf.get_mut();
        // SAFETY: `&mut self` excludes every handle; `[t, b)` are exactly
        // the live elements of the current buffer, which came from
        // `Box::into_raw` and is freed only here.
        unsafe {
            for i in t..b {
                drop((*buf).read(i));
            }
            drop(Box::from_raw(buf));
        }
        for p in self
            .retired
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            // SAFETY: each retired buffer came from `Box::into_raw` and is
            // listed once; its `MaybeUninit` slots hold only bitwise copies,
            // so freeing it drops no element twice.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race; retrying may succeed.
    Retry,
    /// Took this element.
    Success(T),
}

/// The single-owner end of a deque: LIFO push/pop, lock-free.
pub(crate) struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Single-owner handle: `Send`, deliberately `!Sync`.
    _not_sync: PhantomData<UnsafeCell<()>>,
}

impl<T: Send> Worker<T> {
    /// A new empty deque (owner pops newest-first; stealers take
    /// oldest-first).
    pub(crate) fn new_lifo() -> Self {
        Worker {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buf: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
                retired: Mutex::new(Vec::new()),
            }),
            _not_sync: PhantomData,
        }
    }

    /// A stealer handle for this deque.
    pub(crate) fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Push onto the bottom (owner end).
    pub(crate) fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buf.load(Ordering::Relaxed);
        // SAFETY: only the owner replaces `buf`, and no buffer is freed
        // before the deque drops.
        if b - t >= unsafe { (*buf).cap } as isize {
            buf = self.grow(t, b);
        }
        // SAFETY: the owner writes index `b`, which lies outside the
        // published range `[t, b)`.
        unsafe { (*buf).write(b, value) };
        // SeqCst publication so a parking consumer's sequenced re-check
        // (registration, then queue sweep) cannot miss it.
        inner.bottom.store(b + 1, Ordering::SeqCst);
    }

    /// Pop from the bottom (owner end, LIFO).
    pub(crate) fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buf.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::SeqCst);
        if t <= b {
            if t == b {
                // Last element: race stealers for index b via `top`.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::SeqCst);
                if won {
                    // SAFETY: winning the CAS on `top` made index `b` ours.
                    Some(unsafe { (*buf).read(b) })
                } else {
                    None
                }
            } else {
                // SAFETY: `t < b` after the lowered `bottom` is visible, so
                // no stealer can claim index `b`.
                Some(unsafe { (*buf).read(b) })
            }
        } else {
            inner.bottom.store(b + 1, Ordering::SeqCst);
            None
        }
    }

    /// Double the buffer, copying the live range `[t, b)`. The old
    /// buffer is retired (stealers may still be reading it).
    fn grow(&self, t: isize, b: isize) -> *mut Buffer<T> {
        let inner = &*self.inner;
        let old = inner.buf.load(Ordering::Relaxed);
        // SAFETY: only the owner replaces `buf`, and no buffer is freed
        // before the deque drops.
        let new = Buffer::alloc(unsafe { (*old).cap } * 2);
        // SAFETY: `[t, b)` hold values, and `new` is not yet published,
        // so only this thread sees it. The copy is bitwise: the old slot
        // keeps a stale copy that is never dropped (`MaybeUninit`).
        unsafe {
            for i in t..b {
                (*new).write(i, (*old).read(i));
            }
        }
        inner.buf.store(new, Ordering::Release);
        inner
            .retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(old);
        new
    }
}

/// A shareable handle that takes from the top (FIFO end) of a
/// [`Worker`]'s deque.
pub(crate) struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T: Send> Stealer<T> {
    /// Attempt to steal the oldest element.
    pub(crate) fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::SeqCst);
        if t < b {
            // Load the buffer only after `bottom`: seeing b > t
            // guarantees (release/acquire through `bottom`) that this
            // load observes a buffer holding index t.
            let buf = inner.buf.load(Ordering::Acquire);
            // SAFETY: `buf` is never freed while a handle lives; the value
            // is used only if the CAS below wins index `t`, else forgotten.
            let v = unsafe { (*buf).read(t) };
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                Steal::Success(v)
            } else {
                // Lost index t to another thief or the owner: the
                // bitwise copy is not ours to drop.
                std::mem::forget(v);
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn owner_lifo_stealer_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1), "stealer takes oldest");
        assert_eq!(w.pop(), Some(3), "owner takes newest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn growth_preserves_elements() {
        let w = Worker::new_lifo();
        for i in 0..10_000u64 {
            w.push(i);
        }
        let mut got = Vec::new();
        while let Some(v) = w.pop() {
            got.push(v);
        }
        got.reverse();
        assert_eq!(got, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_stealers_take_each_element_once() {
        const N: u64 = 50_000;
        const THIEVES: usize = 3;
        let w = Worker::new_lifo();
        let sum = Arc::new(AtomicU64::new(0));
        let taken = Arc::new(AtomicU64::new(0));
        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let s = w.stealer();
                let sum = Arc::clone(&sum);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if taken.load(Ordering::SeqCst) >= N {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        // Owner interleaves pushes with occasional pops.
        let mut owner_sum = 0u64;
        for i in 1..=N {
            w.push(i);
            if i % 64 == 0 {
                if let Some(v) = w.pop() {
                    owner_sum += v;
                    taken.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Drain the remainder from the owner side.
        while let Some(v) = w.pop() {
            owner_sum += v;
            taken.fetch_add(1, Ordering::Relaxed);
        }
        for h in thieves {
            h.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::SeqCst), N, "every element taken once");
        assert_eq!(
            sum.load(Ordering::SeqCst) + owner_sum,
            N * (N + 1) / 2,
            "sum conserved: no loss, no duplication"
        );
    }

    #[test]
    fn no_leaks_across_grow_and_steal() {
        let tracker = Arc::new(());
        {
            let w = Worker::new_lifo();
            let s = w.stealer();
            for _ in 0..500 {
                w.push(Arc::clone(&tracker));
            }
            for _ in 0..100 {
                let _ = s.steal();
            }
            for _ in 0..100 {
                let _ = w.pop();
            }
            // 300 live elements drop with the deque.
        }
        assert_eq!(Arc::strong_count(&tracker), 1);
    }
}
