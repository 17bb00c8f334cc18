//! In-workspace stand-in for the `crossbeam` crate: the [`channel`] module
//! only, implementing multi-producer multi-consumer unbounded channels with
//! cloneable receivers over `std::sync` primitives.

#![forbid(unsafe_code)]

pub mod channel {
    //! MPMC unbounded channels with `try_recv`/`recv_timeout`.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `ready`: a send with none waiting skips the
        /// wake-up (a futex call per message otherwise).
        waiting: usize,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waiting: 0,
            }),
            ready: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    /// The sending half; cloneable.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half; cloneable (any one receiver gets each message).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message waiting.
        Empty,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only when every receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.queue.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.items.push_back(value);
            let waiting = st.waiting > 0;
            drop(st);
            if waiting {
                self.0.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.0.queue.lock().unwrap().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.queue.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.0.queue.lock().unwrap().items.len()
        }

        /// Whether no message is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Dequeues a message if one is waiting.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.queue.lock().unwrap();
            match st.items.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.queue.lock().unwrap();
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.waiting += 1;
                let (guard, timed_out) = self.0.ready.wait_timeout(st, deadline - now).unwrap();
                st = guard;
                st.waiting -= 1;
                if timed_out.timed_out() && st.items.is_empty() {
                    return if st.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }

        /// Blocks until a message arrives or all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvTimeoutError> {
            let mut st = self.0.queue.lock().unwrap();
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                st.waiting += 1;
                st = self.0.ready.wait(st).unwrap();
                st.waiting -= 1;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.0.queue.lock().unwrap().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        /// The last receiver drops what is still queued, as crossbeam's
        /// channels do, once the lock is released: nobody can read it.
        fn drop(&mut self) {
            let mut st = self.0.queue.lock().unwrap();
            st.receivers -= 1;
            let orphans = (st.receivers == 0).then(|| std::mem::take(&mut st.items));
            drop(st);
            drop(orphans);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_and_receive_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn dropping_all_senders_disconnects() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            drop(tx);
            drop(tx2);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn len_counts_queued_messages() {
            let (tx, rx) = unbounded();
            assert!(rx.is_empty());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!((rx.len(), rx.is_empty()), (2, false));
            rx.try_recv().unwrap();
            assert_eq!(rx.len(), 1);
        }

        #[test]
        fn a_send_without_receivers_hands_the_message_back() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            drop(rx);
            assert_eq!(tx.send(1), Ok(()), "one receiver is left");
            drop(rx2);
            assert_eq!(tx.send(2), Err(SendError(2)));
        }

        #[test]
        fn dropping_the_last_receiver_drops_what_is_queued() {
            let (tx, rx) = unbounded();
            let (producer, consumer) = nba_io::spsc::channel::<u32>(4);
            assert!(tx.send(producer).is_ok());
            let rx2 = rx.clone();
            drop(rx);
            assert!(!consumer.is_disconnected(), "a receiver still holds it");
            drop(rx2);
            assert!(consumer.is_disconnected(), "the queued producer dropped");
        }

        #[test]
        fn timeout_expires_without_messages() {
            let (_tx, rx) = unbounded::<u32>();
            let t0 = Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(t0.elapsed() >= Duration::from_millis(5));
        }

        /// Far longer than any wake-up takes, even on one busy CPU, and far
        /// shorter than the 60 s the blocked receivers ask for: a receiver
        /// slower than this was woken by its timeout, not by the sender.
        const PROMPT: Duration = Duration::from_secs(10);

        fn waiters<T>(rx: &Receiver<T>) -> usize {
            rx.0.queue.lock().unwrap().waiting
        }

        /// Polls until `n` receivers are blocked in the channel.
        fn await_waiters<T>(rx: &Receiver<T>, n: usize) {
            let t0 = Instant::now();
            while waiters(rx) != n {
                assert!(t0.elapsed() < PROMPT, "{} waiters, not {n}", waiters(rx));
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// A receiver blocked in `recv_timeout(60 s)` on its own thread;
        /// joins to its result and how long it waited.
        fn blocked_receiver(
            rx: Receiver<u32>,
        ) -> std::thread::JoinHandle<(Result<u32, RecvTimeoutError>, Duration)> {
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let got = rx.recv_timeout(Duration::from_secs(60));
                (got, t0.elapsed())
            })
        }

        #[test]
        fn a_send_wakes_a_blocked_receiver_promptly() {
            let (tx, rx) = unbounded();
            let h = blocked_receiver(rx.clone());
            await_waiters(&rx, 1);
            tx.send(7).unwrap();
            let (got, waited) = h.join().unwrap();
            assert_eq!(got, Ok(7));
            assert!(waited < PROMPT, "woken after {waited:?}");
            assert_eq!(waiters(&rx), 0);
        }

        #[test]
        fn dropping_the_last_sender_wakes_a_blocked_receiver() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            let h = blocked_receiver(rx.clone());
            await_waiters(&rx, 1);
            drop(tx);
            drop(tx2);
            let (got, waited) = h.join().unwrap();
            assert_eq!(got, Err(RecvTimeoutError::Disconnected));
            assert!(waited < PROMPT, "woken after {waited:?}");
        }

        #[test]
        fn a_timed_out_wait_leaves_no_waiter_behind() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(waiters(&rx), 0);
            // A later blocked receiver is still counted, so a send still
            // wakes it.
            let h = blocked_receiver(rx.clone());
            await_waiters(&rx, 1);
            tx.send(3).unwrap();
            let (got, waited) = h.join().unwrap();
            assert_eq!(got, Ok(3));
            assert!(waited < PROMPT, "woken after {waited:?}");
        }

        #[test]
        fn with_two_receivers_each_message_arrives_once() {
            const N: u32 = 1000;
            let (tx, rx) = unbounded();
            let drain = |rx: Receiver<u32>| {
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv_timeout(Duration::from_secs(60)) {
                        got.push(v);
                    }
                    got
                })
            };
            let (a, b) = (drain(rx.clone()), drain(rx));
            for i in 0..N {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut all = a.join().unwrap();
            all.extend(b.join().unwrap());
            all.sort_unstable();
            assert_eq!(all, (0..N).collect::<Vec<_>>());
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = 0;
            while got < 100 {
                if rx.recv_timeout(Duration::from_millis(100)).is_ok() {
                    got += 1;
                }
            }
            h.join().unwrap();
            assert_eq!(got, 100);
        }
    }
}
