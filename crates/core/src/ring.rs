//! Bounded single-producer / single-consumer frame rings — the hand-off
//! between a frame dispatcher and one shard's run-to-completion
//! consumer. Its one user is the `splidt-net` ingress service (receiver
//! thread → shard consumer threads); a batch already in memory needs no
//! ring, so `ShardedEngine::ingest_batch` lends its frames to the shards
//! directly.
//!
//! Design constraints, in order:
//!
//! 1. **The producer never blocks.** [`Producer::try_push`] either copies
//!    the frame into a preallocated slot or returns
//!    [`PushError::Full`] immediately — backpressure is *drop and count*,
//!    so a slow shard can never stall the socket loop (and with it every
//!    other shard).
//! 2. **The consumer borrows, it does not copy.** [`Consumer::peek`]
//!    hands out `(&[u8], u64)` views straight into ring slots, so a whole
//!    batch flows into `Engine::ingest_batch` with zero allocations and
//!    zero additional copies; [`Consumer::advance`] releases the slots
//!    afterwards.
//! 3. **All slot memory is allocated up front.** Each slot owns a
//!    fixed-size frame buffer (`max_frame` bytes), so the steady state
//!    performs no heap allocation on either side — verified by the ring
//!    rows of `tests/zero_alloc.rs`.
//!
//! The SPSC discipline is enforced by ownership: [`ring`] returns exactly
//! one [`Producer`] and one [`Consumer`], neither of which is cloneable.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a push was refused. Both cases are non-blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Every slot is occupied — the consumer is behind. The frame should
    /// be dropped and counted (`dropped_ring_full`).
    Full,
    /// The frame exceeds the ring's `max_frame` slot size. Counted as
    /// malformed input: nothing that large can be a valid frame for this
    /// deployment's MTU.
    TooLong,
}

struct Slot {
    ts_us: u64,
    len: usize,
    buf: Box<[u8]>,
}

struct Shared {
    slots: Box<[UnsafeCell<Slot>]>,
    /// Next slot index the consumer will read (free-running counter).
    head: AtomicUsize,
    /// Next slot index the producer will write (free-running counter).
    tail: AtomicUsize,
    closed: AtomicBool,
}

// SAFETY: slot cells are only ever accessed by the single producer (for
// indices in `[tail, head + capacity)`) or the single consumer (for
// indices in `[head, tail)`), with the head/tail Acquire/Release pair
// ordering the hand-off; the `ring` constructor makes the single-ness
// structural (neither endpoint is cloneable).
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// Creates a bounded SPSC ring of `capacity` slots, each holding up to
/// `max_frame` bytes (all allocated up front).
pub fn ring(capacity: usize, max_frame: usize) -> (Producer, Consumer) {
    assert!(capacity > 0, "ring capacity must be positive");
    let slots = (0..capacity)
        .map(|_| {
            UnsafeCell::new(Slot { ts_us: 0, len: 0, buf: vec![0u8; max_frame].into_boxed_slice() })
        })
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
    });
    (Producer { shared: Arc::clone(&shared) }, Consumer { shared })
}

/// The write end (exactly one per ring).
pub struct Producer {
    shared: Arc<Shared>,
}

impl Producer {
    /// Copies `frame` (with its ingress timestamp) into the next free
    /// slot. Never blocks: a full ring or an oversized frame is refused
    /// immediately with the corresponding [`PushError`].
    pub fn try_push(&mut self, frame: &[u8], ts_us: u64) -> Result<(), PushError> {
        let cap = self.shared.slots.len();
        let head = self.shared.head.load(Ordering::Acquire);
        let tail = self.shared.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) >= cap {
            return Err(PushError::Full);
        }
        // SAFETY: `tail` is outside `[head, tail)`, so the consumer holds
        // no borrow of this slot; we are the only producer.
        let slot = unsafe { &mut *self.shared.slots[tail % cap].get() };
        if frame.len() > slot.buf.len() {
            return Err(PushError::TooLong);
        }
        slot.buf[..frame.len()].copy_from_slice(frame);
        slot.len = frame.len();
        slot.ts_us = ts_us;
        self.shared.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Marks the ring closed: the consumer drains what is already queued,
    /// then sees end-of-stream. Pushes after `close` are a logic error
    /// (they still succeed mechanically; the service never does this).
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Slots currently queued (diagnostic).
    pub fn len(&self) -> usize {
        self.shared
            .tail
            .load(Ordering::Relaxed)
            .wrapping_sub(self.shared.head.load(Ordering::Acquire))
    }

    /// Whether nothing is queued (diagnostic).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The read end (exactly one per ring).
pub struct Consumer {
    shared: Arc<Shared>,
}

impl Consumer {
    /// Frames currently readable via [`Consumer::peek`].
    pub fn readable(&self) -> usize {
        let tail = self.shared.tail.load(Ordering::Acquire);
        tail.wrapping_sub(self.shared.head.load(Ordering::Relaxed))
    }

    /// Whether the producer closed the ring. Queued frames remain
    /// readable; end-of-stream is `is_closed() && readable() == 0`.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Borrows queued frame `i` (0-based from the oldest unconsumed;
    /// `i` must be `< readable()`). The borrow pins the slot: `advance`
    /// takes `&mut self`, so no released slot can be observed.
    pub fn peek(&self, i: usize) -> (&[u8], u64) {
        debug_assert!(i < self.readable(), "peek past readable window");
        let cap = self.shared.slots.len();
        let head = self.shared.head.load(Ordering::Relaxed);
        // SAFETY: `head + i < tail` (asserted above), so the producer
        // will not touch this slot until `advance` moves `head` past it —
        // which borrows `self` mutably and therefore cannot happen while
        // the returned slice is alive.
        let slot = unsafe { &*self.shared.slots[head.wrapping_add(i) % cap].get() };
        (&slot.buf[..slot.len], slot.ts_us)
    }

    /// Releases the `n` oldest queued slots back to the producer.
    pub fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.readable(), "advance past readable window");
        let head = self.shared.head.load(Ordering::Relaxed);
        self.shared.head.store(head.wrapping_add(n), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_ring_refuses_without_blocking() {
        let (mut tx, _rx) = ring(4, 64);
        for i in 0..4u8 {
            tx.try_push(&[i; 8], i as u64).unwrap();
        }
        // No consumer progress: the 5th push must fail *immediately*.
        assert_eq!(tx.try_push(&[9; 8], 9), Err(PushError::Full));
        assert_eq!(tx.len(), 4);
    }

    #[test]
    fn oversized_frames_are_refused() {
        let (mut tx, rx) = ring(2, 16);
        assert_eq!(tx.try_push(&[0; 17], 0), Err(PushError::TooLong));
        assert_eq!(rx.readable(), 0, "refused frame must not occupy a slot");
        tx.try_push(&[0; 16], 0).unwrap();
    }

    #[test]
    fn frames_round_trip_in_order_across_wrap() {
        let (mut tx, mut rx) = ring(3, 32);
        let mut next = 0u8;
        let mut seen = Vec::new();
        // Push/pop enough to wrap the 3-slot ring several times.
        for round in 0..5 {
            let n = 1 + (round % 3);
            for _ in 0..n {
                tx.try_push(&[next, next, next], next as u64 * 10).unwrap();
                next += 1;
            }
            let avail = rx.readable();
            assert_eq!(avail, n);
            for i in 0..avail {
                let (frame, ts) = rx.peek(i);
                seen.push((frame[0], ts));
            }
            rx.advance(avail);
        }
        let expect: Vec<(u8, u64)> = (0..next).map(|v| (v, v as u64 * 10)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn close_drains_then_signals_end_of_stream() {
        let (mut tx, mut rx) = ring(4, 8);
        tx.try_push(&[1], 1).unwrap();
        tx.try_push(&[2], 2).unwrap();
        tx.close();
        assert!(rx.is_closed());
        assert_eq!(rx.readable(), 2, "queued frames survive close");
        rx.advance(2);
        assert!(rx.is_closed() && rx.readable() == 0);
    }

    #[test]
    fn producer_consumer_threads_agree_on_every_frame() {
        let (mut tx, mut rx) = ring(8, 16);
        let n = 10_000u64;
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut sent = 0u64;
                while sent < n {
                    let b = [sent as u8; 4];
                    if tx.try_push(&b, sent).is_ok() {
                        sent += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                tx.close();
            });
            let mut expect = 0u64;
            loop {
                let avail = rx.readable();
                if avail == 0 {
                    if rx.is_closed() && rx.readable() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                }
                for i in 0..avail {
                    let (frame, ts) = rx.peek(i);
                    assert_eq!(ts, expect);
                    assert_eq!(frame, [expect as u8; 4]);
                    expect += 1;
                }
                rx.advance(avail);
            }
            assert_eq!(expect, n);
        });
    }
}
