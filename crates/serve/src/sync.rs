//! The serving engine's request queue: a bounded MPMC channel with a
//! batch-draining receive.
//!
//! The workspace deliberately carries no external concurrency crates;
//! the queue is `Mutex` + `Condvar`, because `std::sync::mpsc` has no
//! bounded multi-consumer receive that drains a batch. It is the engine's
//! request spine: any number of client threads [`send`](Sender::send)
//! into it, any number of workers drain it in coalesced batches via
//! [`recv_many`](Receiver::recv_many) — the primitive the dynamic
//! batcher is built on.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<ChannelState<T>>,
    /// Signalled when an item arrives or the channel closes.
    not_empty: Condvar,
    /// Signalled when capacity frees up.
    not_full: Condvar,
    capacity: usize,
}

/// Creates a bounded MPMC channel of at most `capacity` queued items
/// (clamped to at least 1). Both ends are cloneable.
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(ChannelState { queue: VecDeque::new(), closed: false }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// Producing end of a [`channel`].
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender { shared: Arc::clone(&self.shared) }
    }
}

/// Consuming end of a [`channel`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Sender<T> {
    /// Enqueues `item`, blocking while the queue is at capacity. Returns
    /// the queue depth right after the push (for high-water-mark
    /// accounting), or the item back if the channel is closed.
    pub fn send(&self, item: T) -> Result<usize, T> {
        let mut state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if state.closed {
                return Err(item);
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(item);
                let depth = state.queue.len();
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(depth);
            }
            state = self.shared.not_full.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the channel: further sends fail, receivers drain what is
    /// queued and then observe the end of the stream.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        state.closed = true;
        drop(state);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Drains a coalesced batch: blocks for the first item, then keeps
    /// collecting until `max` items are in hand or `linger` has elapsed
    /// since the first one — the dynamic-batching primitive. Returns an
    /// empty vector only when the channel is closed and drained.
    pub fn recv_many(&self, max: usize, linger: Duration) -> Vec<T> {
        let max = max.max(1);
        let mut batch = Vec::with_capacity(max.min(64));
        let mut state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        // phase 1: block for the first item (or closure)
        loop {
            if !state.queue.is_empty() {
                break;
            }
            if state.closed {
                return batch;
            }
            state = self.shared.not_empty.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        // phase 2: coalesce until the batch is full or the linger deadline
        // passes; items already queued are taken without waiting
        let deadline = Instant::now() + linger;
        loop {
            while batch.len() < max {
                match state.queue.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if batch.len() >= max || state.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = self
                .shared
                .not_empty
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = next;
            if timeout.timed_out() && state.queue.is_empty() {
                break;
            }
        }
        drop(state);
        self.shared.not_full.notify_all();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn channel_roundtrips_in_order() {
        let (tx, rx) = channel(8);
        assert_eq!(tx.send(1), Ok(1));
        assert_eq!(tx.send(2), Ok(2));
        assert_eq!(rx.recv_many(1, Duration::ZERO), [1]);
        assert_eq!(rx.recv_many(1, Duration::ZERO), [2]);
    }

    #[test]
    fn close_drains_then_ends() {
        let (tx, rx) = channel(8);
        tx.send(7).unwrap();
        tx.close();
        assert!(tx.send(8).is_err(), "send after close must fail");
        assert_eq!(rx.recv_many(4, Duration::from_secs(10)), [7], "queued items survive closure");
        assert!(rx.recv_many(4, Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn bounded_send_blocks_until_capacity_frees() {
        let (tx, rx) = channel(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2));
        // the blocked sender completes once we drain one slot
        assert_eq!(rx.recv_many(1, Duration::ZERO), [1]);
        assert_eq!(t.join().unwrap(), Ok(1));
        assert_eq!(rx.recv_many(1, Duration::ZERO), [2]);
    }

    #[test]
    fn recv_many_takes_what_is_queued_without_lingering() {
        let (tx, rx) = channel(16);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        // max smaller than the queue: exactly max, no waiting
        let batch = rx.recv_many(3, Duration::from_secs(10));
        assert_eq!(batch, vec![0, 1, 2]);
        // max larger than the queue: the linger deadline bounds the wait
        let batch = rx.recv_many(10, Duration::from_millis(1));
        assert_eq!(batch, vec![3, 4]);
    }

    #[test]
    fn recv_many_coalesces_late_arrivals_within_linger() {
        let (tx, rx) = channel(16);
        tx.send(0).unwrap();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let batch = rx.recv_many(3, Duration::from_secs(5));
        t.join().unwrap();
        assert_eq!(batch, vec![0, 1, 2], "late arrivals within the linger window coalesce");
    }

    #[test]
    fn mpmc_distributes_all_items_exactly_once() {
        let (tx, rx) = channel(32);
        let n = 200;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..n / 4 {
                        tx.send(p * (n / 4) + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let batch = rx.recv_many(8, Duration::from_millis(1));
                        if batch.is_empty() {
                            return got;
                        }
                        got.extend(batch);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        tx.close();
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }
}
