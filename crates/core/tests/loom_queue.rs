//! `loom` model of the offload round trip of the live runtime
//! (`runtime/live.rs`): worker → device thread → worker.
//!
//! Build with `RUSTFLAGS="--cfg loom"` to enable. The model runs the
//! runtime's own pieces: each worker owns one `nba_io::spsc` task ring and
//! one `crossbeam::channel` completion queue. A worker pushes its tagged
//! tasks and unparks the device after each — a task that meets a full ring
//! completes inline, the live CPU fallback. At its in-flight cap it blocks
//! in `recv` on its completion queue. Once it has submitted everything it
//! drops its producer, the device's drain signal, unparks the device, and
//! blocks in `recv` for the rest of its completions. The device thread
//! scans the rings round-robin, routes each task back to the completion
//! queue of the worker that pushed it, and parks when a scan pulls
//! nothing. It exits by the live rule: a scan that pulled nothing while
//! every task ring `is_disconnected`. Dropping the senders on exit
//! disconnects the completion queues. Both waits are untimed here, where
//! the runtime caps them, so a lost wake-up hangs the model instead of
//! passing on a timer. The properties checked under every explored
//! interleaving:
//!
//! * every submitted task is completed exactly once to its own worker
//!   (none lost, none duplicated, none misrouted),
//! * both sides terminate — the device does not exit while a ring still
//!   holds a task, and no worker waits on a completion that never comes,
//!   and
//! * no lost wake-up — a parked device is woken by every push and by
//!   every closed ring, and a worker blocked at its cap by every
//!   completion.
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
const RING: usize = 1;
/// A worker with more than this many tasks in flight blocks on its
/// completions (the live `MAX_OUTSTANDING`).
const CAP: usize = 1;

#[test]
fn offload_round_trip_completes_every_task_once_to_its_worker() {
    loom::model(|| {
        let (producers, rings): (Vec<_>, Vec<_>) = (0..WORKERS)
            .map(|_| spsc::channel::<(usize, usize)>(RING))
            .unzip();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..WORKERS).map(|_| channel::unbounded::<usize>()).unzip();

        // The device thread: round-robin over the task rings from a
        // rotating start, complete, route back by origin tag; park when a
        // scan finds nothing, exit once it finds every ring drained and
        // closed.
        let device = thread::spawn(move || {
            let mut scan = 0;
            loop {
                let mut pulled = 0;
                for i in 0..rings.len() {
                    while let Some((worker, seq)) = rings[(scan + i) % rings.len()].pop() {
                        pulled += 1;
                        senders[worker].send(seq).expect("worker reaps");
                    }
                }
                scan += 1;
                if pulled == 0 {
                    if rings.iter().all(spsc::Consumer::is_disconnected) {
                        break;
                    }
                    thread::park();
                }
            }
        });

        // Workers: submit (blocking at the cap), drop the producer, then
        // reap their own completions until they have all of them or the
        // device is gone.
        let workers: Vec<_> = (producers.into_iter().zip(receivers).enumerate())
            .map(|(w, (tx, done))| {
                let dev = device.thread().clone();
                thread::spawn(move || {
                    let mut seqs = Vec::new();
                    let mut outstanding = 0;
                    for seq in 0..TASKS {
                        while outstanding > CAP {
                            seqs.push(done.recv().expect("the device completes"));
                            outstanding -= 1;
                        }
                        match tx.push((w, seq)) {
                            Ok(()) => {
                                dev.unpark();
                                outstanding += 1;
                            }
                            Err(_) => seqs.push(seq),
                        }
                    }
                    drop(tx);
                    dev.unpark();
                    while seqs.len() < TASKS {
                        match done.recv() {
                            Ok(seq) => seqs.push(seq),
                            Err(_) => break,
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
