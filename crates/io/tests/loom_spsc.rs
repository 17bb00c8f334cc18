//! `loom` model of the SPSC ring's burst hand-off (`nba_io::spsc`, the
//! IO-thread → worker RX path of the live runtime).
//!
//! Build with `RUSTFLAGS="--cfg loom"` to enable. A producer publishes a
//! few bursts — some larger than the ring's free space, so it must make
//! partial progress and retry — racing a consumer that drains in bursts,
//! then the producer drops. The ring has four pages of two slots, so a
//! burst locks several pages in turn and crosses page boundaries and the
//! wrap. Under every explored interleaving:
//!
//! * every item is seen exactly once, in order (one release store per burst
//!   publishes every slot written before it; the cached cursors never let a
//!   side run past the other), and
//! * the consumer terminates: `is_disconnected` turns true only after the
//!   producer is gone *and* the last burst — possibly published right before
//!   the drop — has been drained.
//!
//! A second model parks the producer on a full 2-slot ring
//! (`Producer::wait_for_room`, the lossless IO thread's backpressure)
//! against a consumer that pops one item, lets the producer refill the
//! ring, and drops. The producer is woken once by the pop (the ring is at
//! its watermark of one) and, parked again on the refilled ring, once by
//! the drop: no wake-up is lost, so no wait runs out its timeout.
#![cfg(loom)]

use std::time::{Duration, Instant};

use loom::thread;
use nba_io::spsc;

/// Ring slots: four pages of two, and smaller than two bursts.
const CAPACITY: usize = 8;
/// Bursts the producer publishes, and items per burst: an odd burst
/// starts on every page offset.
const BURSTS: u32 = 5;
const BURST: u32 = 5;

#[test]
fn burst_handoff_delivers_every_item_once_in_order() {
    loom::model(|| {
        let (tx, rx) = spsc::channel::<u32>(CAPACITY);

        let producer = thread::spawn(move || {
            for b in 0..BURSTS {
                let mut burst: Vec<u32> = (b * BURST..(b + 1) * BURST).collect();
                while !burst.is_empty() {
                    if tx.push_burst(&mut burst) == 0 {
                        thread::yield_now();
                    }
                }
            }
            // `tx` drops here: the close the consumer must not mistake for
            // "drained" while the last burst is still queued.
        });

        let consumer = thread::spawn(move || {
            let mut seen = Vec::new();
            while !rx.is_disconnected() {
                if rx.pop_burst(BURST as usize, |v| seen.push(v)) == 0 {
                    thread::yield_now();
                }
            }
            assert_eq!(rx.pop_burst(BURST as usize, |v| seen.push(v)), 0);
            seen
        });

        producer.join().unwrap();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, (0..BURSTS * BURST).collect::<Vec<_>>());
    });
}

/// Far longer than a wake-up takes: a wait that runs this out was never
/// woken (it may still return `true`, having seen the consumer's drop on
/// its last look).
const PROMPT: Duration = Duration::from_secs(10);

#[test]
fn a_parked_producer_is_woken_by_the_drain_and_by_the_drop() {
    loom::model(|| {
        let (tx, rx) = spsc::channel::<u32>(2);

        let producer = thread::spawn(move || {
            let mut next = 0;
            loop {
                if tx.push(next).is_ok() {
                    next += 1;
                    continue;
                }
                if tx.is_receiver_gone() {
                    break next;
                }
                let t0 = Instant::now();
                tx.wait_for_room(PROMPT);
                assert!(
                    t0.elapsed() < PROMPT,
                    "a parked producer missed its wake-up"
                );
            }
        });

        let consumer = thread::spawn(move || {
            while rx.len() < 2 {
                thread::yield_now();
            }
            assert_eq!(rx.pop(), Some(0));
            // Let the producer refill the ring and park on it again.
            while rx.len() < 2 {
                thread::yield_now();
            }
            thread::yield_now();
            // `rx` drops here: the last wake-up the producer gets.
        });

        consumer.join().unwrap();
        assert_eq!(producer.join().unwrap(), 3, "two fills of a 2-slot ring");
    });
}
