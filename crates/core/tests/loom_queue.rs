//! `loom` model of the offload round trip of the live runtime
//! (`runtime/live.rs`): worker → device thread → worker.
//!
//! Build with `RUSTFLAGS="--cfg loom"` to enable. The model runs the
//! runtime's own pieces: each worker owns one `nba_io::spsc` task ring and
//! one `crossbeam::channel` completion queue. A worker pushes its tagged
//! tasks — a task that meets a full ring completes inline, the live CPU
//! fallback — drops its producer, the device's drain signal, and reaps its
//! completions. The device thread round-robins over the rings, routes
//! each task back to the completion queue of the worker that pushed it,
//! and exits by the live rule: a scan that pulled nothing while every task
//! ring `is_disconnected`. Dropping the senders on exit disconnects the
//! completion queues. The properties checked under every explored
//! interleaving:
//!
//! * every submitted task is completed exactly once to its own worker
//!   (none lost, none duplicated, none misrouted), and
//! * both sides terminate — the device does not exit while a ring still
//!   holds a task, and no worker waits on a completion that never comes.
#![cfg(loom)]

use crossbeam::channel;
use loom::thread;
use nba_io::spsc;

/// Workers submitting offload tasks (loom models few threads well).
const WORKERS: usize = 2;
/// Tasks each worker submits: more than its ring holds, so some
/// interleavings take the inline fallback.
const TASKS: usize = 3;
/// Slots of each task ring.
const RING: usize = 2;

#[test]
fn offload_round_trip_completes_every_task_once_to_its_worker() {
    loom::model(|| {
        let (producers, rings): (Vec<_>, Vec<_>) = (0..WORKERS)
            .map(|_| spsc::channel::<(usize, usize)>(RING))
            .unzip();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..WORKERS).map(|_| channel::unbounded::<usize>()).unzip();

        // The device thread: round-robin over the task rings, complete,
        // route back by origin tag; exit once a scan finds every ring
        // drained and closed.
        let device = thread::spawn(move || loop {
            let mut pulled = 0;
            for ring in &rings {
                while let Some((worker, seq)) = ring.pop() {
                    pulled += 1;
                    senders[worker].send(seq).expect("worker reaps");
                }
            }
            if pulled == 0 {
                if rings.iter().all(spsc::Consumer::is_disconnected) {
                    break;
                }
                thread::yield_now();
            }
        });

        // Workers: submit, drop the producer, then reap their own
        // completions until they have all of them or the device is gone.
        let workers: Vec<_> = (producers.into_iter().zip(receivers).enumerate())
            .map(|(w, (tx, done))| {
                thread::spawn(move || {
                    let mut seqs = Vec::new();
                    for seq in 0..TASKS {
                        if tx.push((w, seq)).is_err() {
                            seqs.push(seq);
                        }
                    }
                    drop(tx);
                    while seqs.len() < TASKS {
                        match done.try_recv() {
                            Ok(seq) => seqs.push(seq),
                            Err(channel::TryRecvError::Empty) => thread::yield_now(),
                            Err(channel::TryRecvError::Disconnected) => break,
                        }
                    }
                    // Exactly once, correctly routed: this worker's own
                    // sequence numbers, each present a single time.
                    seqs.sort_unstable();
                    assert_eq!(seqs, (0..TASKS).collect::<Vec<_>>());
                })
            })
            .collect();

        for h in workers {
            h.join().unwrap();
        }
        device.join().unwrap();
    });
}
