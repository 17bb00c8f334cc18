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
#![cfg(loom)]

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
