//! `loom` model of the offload round trip of the live runtime
//! (`runtime/live.rs`): worker → device thread → worker.
//!
//! Build with `RUSTFLAGS="--cfg loom"` to enable. The model runs the
//! runtime's own pieces: one `crossbeam::channel` command queue that every
//! worker sends on through its own clone of the `Sender`, and one
//! completion channel per worker. A worker sends its tagged tasks; at its
//! in-flight cap it blocks in `recv` on its completion channel. Once it
//! has sent everything it drops its sender and blocks in `recv` for the
//! rest of its completions. The device thread takes tasks in arrival
//! order and routes each back to the completion channel of the worker
//! that sent it. When `try_recv` finds the queue empty it blocks in
//! `recv`, which a send or the last sender's drop ends; it exits by the
//! live rule, on `Disconnected` once every sender is gone. Dropping the
//! completion senders on exit disconnects the completion channels. Both
//! waits are untimed here, where the runtime caps them, so a lost wake-up
//! hangs the model instead of passing on a timer. The properties checked
//! under every explored interleaving:
//!
//! * every submitted task is completed exactly once to its own worker
//!   (none lost, none duplicated, none misrouted),
//! * both sides terminate — the device does not exit while a worker can
//!   still send (every send succeeds), and no worker waits on a completion
//!   that never comes, and
//! * no lost wake-up — a device blocked on the empty queue is woken by
//!   every send and by the last sender's drop, and a worker blocked at its
//!   cap by every completion.
#![cfg(loom)]

use crossbeam::channel;
use loom::thread;

/// Workers submitting offload tasks (loom models few threads well).
const WORKERS: usize = 2;
/// Tasks each worker submits: more than its cap lets it have in flight,
/// so some interleavings block on completions.
const TASKS: usize = 3;
/// A worker with more than this many tasks in flight blocks on its
/// completions (the live `MAX_OUTSTANDING`).
const CAP: usize = 1;

#[test]
fn offload_round_trip_completes_every_task_once_to_its_worker() {
    loom::model(|| {
        let (tasks, queue) = channel::unbounded::<(usize, usize)>();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..WORKERS).map(|_| channel::unbounded::<usize>()).unzip();

        // The device thread: take tasks in arrival order, complete, route
        // back by origin tag; block when the queue is empty, exit once
        // every sender is gone.
        let device = thread::spawn(move || loop {
            let (worker, seq) = match queue.try_recv() {
                Ok(task) => task,
                Err(channel::TryRecvError::Disconnected) => break,
                // Empty: the live device flushes its partial aggregates
                // here, then waits for a send or the last sender's drop.
                Err(channel::TryRecvError::Empty) => match queue.recv() {
                    Ok(task) => task,
                    Err(_) => break,
                },
            };
            senders[worker].send(seq).expect("worker reaps");
        });

        // Workers: submit (blocking at the cap), drop the sender, then
        // reap their own completions until they have all of them or the
        // device is gone.
        let workers: Vec<_> = (0..WORKERS)
            .zip(receivers)
            .map(|(w, done)| {
                let tasks = tasks.clone();
                thread::spawn(move || {
                    let mut seqs = Vec::new();
                    let mut outstanding = 0;
                    for seq in 0..TASKS {
                        while outstanding > CAP {
                            seqs.push(done.recv().expect("the device completes"));
                            outstanding -= 1;
                        }
                        assert!(
                            tasks.send((w, seq)).is_ok(),
                            "the device left while a worker could still send"
                        );
                        outstanding += 1;
                    }
                    drop(tasks);
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
        // Only the workers' clones are left: their drops end the device.
        drop(tasks);

        for h in workers {
            h.join().unwrap();
        }
        device.join().unwrap();
    });
}
