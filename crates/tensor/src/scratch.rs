//! Reusable scratch buffers for the hot numeric paths.
//!
//! The GEMM microkernel packs operand panels, convolution lowers through
//! im2col patch matrices, and the trainers build per-batch activation
//! tensors — all of which used to allocate a fresh `Vec` per call. A
//! [`Scratch`] pool checks buffers out and back in so steady-state
//! workloads (training epochs, multi-cycle evaluation, benchmark loops)
//! stop hitting the allocator entirely after warm-up.
//!
//! The pool hands out plain owned `Vec<f32>`s, so a caller can hold any
//! number of buffers simultaneously without fighting the borrow checker;
//! returning them with [`Scratch::recycle`] is what makes the next
//! checkout allocation-free.
//!
//! # Examples
//!
//! ```
//! use rdo_tensor::Scratch;
//!
//! let mut scratch = Scratch::new();
//! let buf = scratch.take_zeroed(1024);
//! assert!(buf.iter().all(|&v| v == 0.0));
//! scratch.recycle(buf);
//! // the second checkout reuses the first buffer's storage
//! let again = scratch.take_zeroed(512);
//! assert!(again.capacity() >= 1024);
//! ```

/// A pool of reusable `f32` (and `f64`) buffers (see the
/// [module docs](self)). The two element types are pooled separately so
/// an f64 checkout never evicts packed f32 panels or vice versa.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
    free64: Vec<Vec<f64>>,
}

/// How many idle buffers a pool retains. More than this many concurrent
/// checkouts work fine; the excess is simply freed on recycle.
const MAX_POOLED: usize = 16;

impl Scratch {
    /// Creates an empty pool. No memory is held until buffers are
    /// recycled into it.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Checks out a buffer of exactly `len` elements, all zero.
    ///
    /// Reuses the pooled buffer whose capacity fits best; allocates only
    /// when no pooled buffer is large enough.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_storage(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Checks out a buffer of exactly `len` elements with unspecified
    /// (but initialized) contents — for callers that overwrite every
    /// element anyway, e.g. packing routines.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_storage(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() < MAX_POOLED {
            self.free.push(buf);
        }
        self.note_pooled_bytes();
    }

    /// `f64` twin of [`Scratch::take`].
    pub fn take_f64(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.take_storage_f64(len);
        buf.resize(len, 0.0);
        buf
    }

    /// `f64` twin of [`Scratch::recycle`].
    pub fn recycle_f64(&mut self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free64.len() < MAX_POOLED {
            self.free64.push(buf);
        }
        self.note_pooled_bytes();
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Total capacity (in elements) of the idle pooled buffers.
    pub fn pooled_capacity(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }

    fn take_storage(&mut self, len: usize) -> Vec<f32> {
        if rdo_obs::enabled() {
            rdo_obs::counter_add("tensor.scratch.takes", 1);
            if self.free.iter().all(|b| b.capacity() < len) {
                rdo_obs::counter_add("tensor.scratch.allocs", 1);
            }
        }
        best_fit(&mut self.free, len)
    }

    fn take_storage_f64(&mut self, len: usize) -> Vec<f64> {
        if rdo_obs::enabled() {
            rdo_obs::counter_add("tensor.scratch.takes", 1);
            if self.free64.iter().all(|b| b.capacity() < len) {
                rdo_obs::counter_add("tensor.scratch.allocs", 1);
            }
        }
        best_fit(&mut self.free64, len)
    }

    /// High-water mark of this pool's idle bytes (both element types);
    /// pools are per owner, so the mark tracks the largest single pool.
    fn note_pooled_bytes(&self) {
        if rdo_obs::enabled() {
            let bytes = self.free.iter().map(Vec::capacity).sum::<usize>() * 4
                + self.free64.iter().map(Vec::capacity).sum::<usize>() * 8;
            rdo_obs::counter_max("tensor.scratch.pooled_bytes", bytes as u64);
        }
    }
}

/// Picks the pooled buffer whose capacity fits `len` best (smallest
/// sufficient capacity; otherwise the largest available, which will
/// grow once and then stick around at the new size).
fn best_fit<T>(free: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    let mut best: Option<usize> = None;
    for (i, buf) in free.iter().enumerate() {
        let cap = buf.capacity();
        best = Some(match best {
            None => i,
            Some(j) => {
                let bc = free[j].capacity();
                let better = if cap >= len { bc < len || cap < bc } else { bc < len && cap > bc };
                if better {
                    i
                } else {
                    j
                }
            }
        });
    }
    match best {
        Some(i) => free.swap_remove(i),
        None => Vec::with_capacity(len),
    }
}

impl Clone for Scratch {
    /// Cloning yields an *empty* pool: scratch storage is per-owner
    /// working memory, not data, so clones (e.g. of a layer) warm up
    /// their own buffers instead of duplicating megabytes of scratch.
    fn clone(&self) -> Self {
        Scratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_is_zero_and_reuses_storage() {
        let mut s = Scratch::new();
        let mut a = s.take_zeroed(100);
        a.iter_mut().for_each(|v| *v = 7.0);
        let ptr = a.as_ptr();
        s.recycle(a);
        let b = s.take_zeroed(50);
        assert_eq!(b.as_ptr(), ptr, "storage not reused");
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(b.len(), 50);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut s = Scratch::new();
        s.recycle(Vec::with_capacity(1000));
        s.recycle(Vec::with_capacity(64));
        let b = s.take(60);
        assert!(b.capacity() < 1000, "should have picked the 64-cap buffer");
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn grows_largest_when_nothing_fits() {
        let mut s = Scratch::new();
        s.recycle(Vec::with_capacity(8));
        s.recycle(Vec::with_capacity(64));
        let b = s.take(128);
        assert_eq!(b.len(), 128);
        assert_eq!(s.pooled(), 1, "one (the smaller) buffer left pooled");
    }

    #[test]
    fn multiple_simultaneous_checkouts() {
        let mut s = Scratch::new();
        let a = s.take_zeroed(10);
        let b = s.take_zeroed(20);
        let c = s.take_zeroed(30);
        assert_eq!((a.len(), b.len(), c.len()), (10, 20, 30));
        s.recycle(a);
        s.recycle(b);
        s.recycle(c);
        assert_eq!(s.pooled(), 3);
        assert!(s.pooled_capacity() >= 60);
    }

    #[test]
    fn f64_pool_is_independent_and_reuses_storage() {
        let mut s = Scratch::new();
        let a = s.take_f64(100);
        assert_eq!(a.len(), 100);
        let ptr = a.as_ptr();
        s.recycle_f64(a);
        // the f32 pool is untouched by f64 traffic
        assert_eq!(s.pooled(), 0);
        let b = s.take_f64(50);
        assert_eq!((b.len(), b.as_ptr()), (50, ptr), "f64 storage not reused");
        let c = s.take_zeroed(10);
        s.recycle(c);
        s.recycle_f64(b);
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn clone_is_empty() {
        let mut s = Scratch::new();
        s.recycle(Vec::with_capacity(100));
        assert_eq!(s.clone().pooled(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..(MAX_POOLED + 10) {
            s.recycle(Vec::with_capacity(8));
        }
        assert_eq!(s.pooled(), MAX_POOLED);
    }
}
