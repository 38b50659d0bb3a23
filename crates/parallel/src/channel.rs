//! A small bounded MPSC channel — the pipelined cell's stage coupling.
//!
//! `flexcore-engine`'s pipelined cell overlaps transmit/prepare of frame
//! N+1 with detection of frame N and decode of frame N−1. The stages are
//! plain scoped threads ([`std::thread::scope`]); what couples them
//! is this channel: a fixed-capacity queue whose **blocking send is the
//! backpressure** — when detection falls behind, the transmit stage parks
//! on a full queue instead of growing an unbounded backlog, so per-frame
//! latency stays observable instead of exploding silently.
//!
//! Deliberately tiny — no runtime, no `unsafe`, no spinning: a
//! [`std::sync::Mutex`] around a preallocated ring plus two
//! [`std::sync::Condvar`]s. Multiple producers ([`Sender`] is `Clone`),
//! one consumer. FIFO per queue; senders and the receiver learn about
//! each other's disconnection through the same lock.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The error returned by [`Sender::send`] when the [`Receiver`] has been
/// dropped; carries the unsent value back to the caller.
///
/// ```
/// let (tx, rx) = flexcore_parallel::bounded::<u32>(1);
/// drop(rx);
/// assert_eq!(tx.send(7), Err(flexcore_parallel::SendError(7)));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

struct State<T> {
    buf: VecDeque<T>,
    cap: usize,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when a slot frees up (or the receiver goes away).
    not_full: Condvar,
    /// Signalled when a value arrives (or the last sender goes away).
    not_empty: Condvar,
}

impl<T> Shared<T> {
    /// A panic while holding the channel lock only abandons queued
    /// values, never detector state — recover the inner value.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The producing half of a [`bounded`] channel. Cloning registers another
/// producer; the receiver sees end-of-stream once every clone is dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half of a [`bounded`] channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded FIFO channel with room for `cap` in-flight values.
///
/// The capacity is the pipeline depth: `cap = 1` makes the producer run
/// at most one item ahead of the consumer; larger capacities absorb
/// burstier stage-time imbalance at the price of more queueing latency.
///
/// # Panics
/// Panics if `cap == 0` — a zero-capacity (rendezvous) channel would make
/// every send a synchronous hand-off, which is exactly the barrier the
/// pipeline exists to remove.
///
/// ```
/// let (tx, rx) = flexcore_parallel::bounded(2);
/// tx.send(1).unwrap();
/// tx.send(2).unwrap();
/// drop(tx);
/// assert_eq!(rx.recv(), Some(1));
/// assert_eq!(rx.recv(), Some(2));
/// assert_eq!(rx.recv(), None); // all senders gone, queue drained
/// ```
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "bounded: capacity must be at least 1");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(cap),
            cap,
            senders: 1,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueues `value`, **blocking while the channel is full** — this is
    /// the pipeline's backpressure. Returns `Err` with the value if the
    /// receiver has been dropped (the pipeline is shutting down).
    ///
    /// ```
    /// let (tx, rx) = flexcore_parallel::bounded(1);
    /// tx.send("frame").unwrap();
    /// assert_eq!(rx.recv(), Some("frame"));
    /// ```
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        // flexcore-lint: hot-path
        // Steady-state sends push onto the preallocated ring: the buffer
        // never grows past `cap`, so no allocation after construction.
        let mut state = self.shared.lock();
        loop {
            if !state.receiver_alive {
                return Err(SendError(value));
            }
            if state.buf.len() < state.cap {
                state.buf.push_back(value);
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let senders = {
            let mut state = self.shared.lock();
            state.senders -= 1;
            state.senders
        };
        if senders == 0 {
            // Wake a receiver blocked on an empty queue so it can see
            // end-of-stream.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the oldest value, **blocking while the channel is
    /// empty**. Returns `None` once every [`Sender`] clone has been
    /// dropped and the queue is drained — the pipeline's end-of-stream.
    pub fn recv(&self) -> Option<T> {
        // flexcore-lint: hot-path
        // Pops hand values out of the preallocated ring; nothing here
        // allocates.
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.buf.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
        // Wake senders parked on a full queue so they can fail fast.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(
            (0..5).map(|_| rx.recv()).collect::<Vec<_>>(),
            vec![Some(0), Some(1), Some(2), Some(3), None]
        );
    }

    #[test]
    fn send_blocks_until_a_slot_frees() {
        // Producer fills cap=1 then tries a second send; it can only
        // complete after the consumer pops — observable as the consumer
        // always seeing strictly ordered values with at most one queued.
        let (tx, rx) = bounded(1);
        crossbeam::thread::scope(|s| {
            s.spawn(move |_| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        })
        .unwrap();
    }

    #[test]
    fn multiple_producers_all_drain() {
        let (tx, rx) = bounded(2);
        let done: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        crossbeam::thread::scope(|s| {
            for p in 0..3u64 {
                let tx = tx.clone();
                s.spawn(move |_| {
                    for i in 0..50 {
                        tx.send(100 * p + i).unwrap();
                    }
                });
            }
            drop(tx);
            while let Some(v) = rx.recv() {
                done.lock().unwrap().push(v);
            }
        })
        .unwrap();
        let mut got = done.into_inner().unwrap();
        got.sort_unstable();
        let want: Vec<u64> = (0..3u64)
            .flat_map(|p| (0..50).map(move |i| 100 * p + i))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dropped_receiver_fails_sends_with_the_value() {
        let (tx, rx) = bounded(1);
        tx.send(1u8).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn dropped_senders_end_the_stream_after_draining() {
        let (tx, rx) = bounded(3);
        let tx2 = tx.clone();
        tx.send(10).unwrap();
        tx2.send(20).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(10));
        drop(tx2);
        assert_eq!(rx.recv(), Some(20));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = bounded::<u8>(0);
    }
}
