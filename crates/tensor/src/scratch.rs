//! The per-thread scratch pool behind the hot numeric paths.
//!
//! The GEMM microkernel packs operand panels, convolution lowers through
//! im2col patch matrices, the layers check their forward caches out for
//! backward, and PWT binds its per-layer buffers — all of which would
//! otherwise allocate a fresh `Vec` per call. Every one of them checks
//! buffers out of one pool per thread with [`take`] / [`take_zeroed`]
//! and back in with [`recycle`], so steady-state workloads (training
//! epochs, multi-cycle evaluation, benchmark loops) stop hitting the
//! allocator after warm-up. Temporaries are shared by every layer and
//! every network copy that runs on the thread, so cloning a network
//! warms no pool of its own.
//!
//! Checkouts are plain owned `Vec`s: a caller holds any number at once,
//! may hand one to another thread, and the pool's `RefCell` is borrowed
//! only inside each call. `f32` and `f64` buffers are pooled apart, so an
//! f64 checkout never takes a packed f32 panel or vice versa.
//!
//! # Examples
//!
//! ```
//! use rdo_tensor::scratch;
//!
//! let buf = scratch::take_zeroed(1024);
//! assert!(buf.iter().all(|&v| v == 0.0));
//! scratch::recycle(buf);
//! // the second checkout reuses the first buffer's storage
//! let again = scratch::take_zeroed(512);
//! assert!(again.capacity() >= 1024);
//! ```

use std::cell::RefCell;

/// How many idle buffers of each element type a thread's pool retains.
/// More concurrent checkouts work fine; the excess is simply freed on
/// recycle.
const MAX_POOLED: usize = 16;

/// The idle buffers of one thread.
struct Pool {
    free: Vec<Vec<f32>>,
    free64: Vec<Vec<f64>>,
}

thread_local! {
    static POOL: RefCell<Pool> =
        const { RefCell::new(Pool { free: Vec::new(), free64: Vec::new() }) };
}

/// Runs `f` on this thread's pool; the borrow ends with the call.
fn with_pool<R>(f: impl FnOnce(&mut Pool) -> R) -> R {
    POOL.with(|p| f(&mut p.borrow_mut()))
}

/// Checks out a buffer of exactly `len` elements, all zero.
///
/// Reuses the idle buffer with the smallest capacity that fits; allocates
/// a new one when none does.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = checkout(len, |p| &mut p.free);
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Checks out a buffer of exactly `len` elements with unspecified (but
/// initialized) contents — for callers that overwrite every element
/// anyway, e.g. packing routines.
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = checkout(len, |p| &mut p.free);
    buf.resize(len, 0.0);
    buf
}

/// Returns a buffer to this thread's pool for later reuse.
pub fn recycle(buf: Vec<f32>) {
    checkin(buf, |p| &mut p.free);
}

/// `f64` twin of [`take`].
pub fn take_f64(len: usize) -> Vec<f64> {
    let mut buf = checkout(len, |p| &mut p.free64);
    buf.resize(len, 0.0);
    buf
}

/// `f64` twin of [`recycle`].
pub fn recycle_f64(buf: Vec<f64>) {
    checkin(buf, |p| &mut p.free64);
}

/// Total capacity (in elements) of the idle `f32` buffers in this
/// thread's pool.
pub fn pooled_capacity() -> usize {
    with_pool(|p| p.free.iter().map(Vec::capacity).sum())
}

fn checkout<T>(len: usize, list: fn(&mut Pool) -> &mut Vec<Vec<T>>) -> Vec<T> {
    let reused = with_pool(|p| best_fit(list(p), len));
    if rdo_obs::enabled() {
        rdo_obs::counter_add("tensor.scratch.takes", 1);
        if reused.is_none() {
            rdo_obs::counter_add("tensor.scratch.allocs", 1);
        }
    }
    reused.unwrap_or_else(|| Vec::with_capacity(len))
}

fn checkin<T>(buf: Vec<T>, list: fn(&mut Pool) -> &mut Vec<Vec<T>>) {
    if buf.capacity() == 0 {
        return;
    }
    let bytes = with_pool(|p| {
        let free = list(p);
        if free.len() < MAX_POOLED {
            free.push(buf);
        }
        rdo_obs::enabled().then(|| pooled_bytes(p))
    });
    if let Some(bytes) = bytes {
        rdo_obs::counter_max("tensor.scratch.pooled_bytes", bytes as u64);
    }
}

/// Idle bytes of one thread's pool, both element types; the counter's
/// high-water mark is the largest any thread's pool reached.
fn pooled_bytes(p: &Pool) -> usize {
    p.free.iter().map(Vec::capacity).sum::<usize>() * 4
        + p.free64.iter().map(Vec::capacity).sum::<usize>() * 8
}

/// Removes and returns the idle buffer with the smallest capacity of at
/// least `len`, or `None` when no idle buffer is that large. An undersized
/// buffer is never grown: growing would copy its stale contents into the
/// new allocation for nothing.
fn best_fit<T>(free: &mut Vec<Vec<T>>, len: usize) -> Option<Vec<T>> {
    let i = (0..free.len())
        .filter(|&i| free[i].capacity() >= len)
        .min_by_key(|&i| free[i].capacity())?;
    Some(free.swap_remove(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of idle `f32` buffers in this thread's pool.
    fn pooled() -> usize {
        with_pool(|p| p.free.len())
    }

    /// Empties this thread's pool, so a test starts from a known state.
    fn drain() {
        with_pool(|p| {
            p.free.clear();
            p.free64.clear();
        });
    }

    #[test]
    fn take_zeroed_is_zero_and_reuses_storage() {
        drain();
        let mut a = take_zeroed(100);
        a.iter_mut().for_each(|v| *v = 7.0);
        let ptr = a.as_ptr();
        recycle(a);
        let b = take_zeroed(50);
        assert_eq!(b.as_ptr(), ptr, "storage not reused");
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(b.len(), 50);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        drain();
        recycle(Vec::with_capacity(1000));
        recycle(Vec::with_capacity(64));
        let b = take(60);
        assert!(b.capacity() < 1000, "should have picked the 64-cap buffer");
        assert_eq!(pooled(), 1);
    }

    #[test]
    fn allocates_fresh_when_nothing_fits() {
        drain();
        recycle(Vec::with_capacity(8));
        recycle(Vec::with_capacity(64));
        let b = take(128);
        assert_eq!(b.len(), 128);
        // neither undersized buffer was taken (and grown): both stay idle
        assert_eq!((pooled(), pooled_capacity()), (2, 72));
    }

    #[test]
    fn multiple_simultaneous_checkouts() {
        drain();
        let a = take_zeroed(10);
        let b = take_zeroed(20);
        let c = take_zeroed(30);
        assert_eq!((a.len(), b.len(), c.len()), (10, 20, 30));
        recycle(a);
        recycle(b);
        recycle(c);
        assert_eq!(pooled(), 3);
        assert!(pooled_capacity() >= 60);
    }

    #[test]
    fn f64_pool_is_independent_and_reuses_storage() {
        drain();
        let a = take_f64(100);
        assert_eq!(a.len(), 100);
        let ptr = a.as_ptr();
        recycle_f64(a);
        // the f32 pool is untouched by f64 traffic
        assert_eq!(pooled(), 0);
        let b = take_f64(50);
        assert_eq!((b.len(), b.as_ptr()), (50, ptr), "f64 storage not reused");
        let c = take_zeroed(10);
        recycle(c);
        recycle_f64(b);
        assert_eq!(pooled(), 1);
    }

    #[test]
    fn pools_are_per_thread() {
        drain();
        recycle(Vec::with_capacity(100));
        let other = std::thread::spawn(|| {
            let before = pooled();
            recycle(Vec::with_capacity(10));
            (before, pooled())
        });
        assert_eq!(other.join().unwrap(), (0, 1));
        assert_eq!(pooled_capacity(), 100);
    }

    #[test]
    fn pool_is_bounded() {
        drain();
        for _ in 0..(MAX_POOLED + 10) {
            recycle(Vec::with_capacity(8));
        }
        assert_eq!(pooled(), MAX_POOLED);
    }
}
