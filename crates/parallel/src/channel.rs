//! A bounded MPSC channel — the pipelined cell's stage coupling.
//!
//! `flexcore-engine`'s pipelined cell overlaps transmit/prepare of frame
//! N+1 with detection of frame N and decode of frame N−1. The stages are
//! plain scoped threads ([`std::thread::scope`]); what couples them
//! is this channel: a fixed-capacity queue whose **blocking send is the
//! backpressure** — when detection falls behind, the transmit stage parks
//! on a full queue instead of growing an unbounded backlog, so per-frame
//! latency stays observable instead of exploding silently.
//!
//! The queue is [`std::sync::mpsc::sync_channel`]: FIFO, blocking sends
//! on a full queue, end-of-stream once every [`Sender`] clone is dropped,
//! and a failed send hands its value back in [`SendError`]. This module
//! only forbids the rendezvous (capacity 0) form and reads end-of-stream
//! as `None`.

use std::sync::mpsc;

pub use std::sync::mpsc::{SendError, SyncSender as Sender};

/// The consuming half of a [`bounded`] channel.
pub struct Receiver<T>(mpsc::Receiver<T>);

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
///
/// // A send after the receiver is gone fails with the value.
/// let (tx, rx) = flexcore_parallel::bounded::<u32>(1);
/// drop(rx);
/// assert_eq!(tx.send(7), Err(flexcore_parallel::SendError(7)));
/// ```
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "bounded: capacity must be at least 1");
    let (tx, rx) = mpsc::sync_channel(cap);
    (tx, Receiver(rx))
}

impl<T> Receiver<T> {
    /// Dequeues the oldest value, **blocking while the channel is
    /// empty**. Returns `None` once every [`Sender`] clone has been
    /// dropped and the queue is drained — the pipeline's end-of-stream.
    pub fn recv(&self) -> Option<T> {
        self.0.recv().ok()
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
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn multiple_producers_all_drain() {
        let (tx, rx) = bounded(2);
        let done: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..3u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        tx.send(100 * p + i).unwrap();
                    }
                });
            }
            drop(tx);
            while let Some(v) = rx.recv() {
                done.lock().unwrap().push(v);
            }
        });
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
