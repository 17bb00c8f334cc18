//! In-workspace stand-in for the `loom` permutation-testing model checker.
//!
//! The real `loom` replaces `std::sync` with instrumented types and runs the
//! model body under every legal interleaving of its threads. This shim keeps
//! the API (so `cfg(loom)` model tests compile and run in the offline build
//! environment) but explores stochastically instead of exhaustively: the
//! body runs [`ITERATIONS`] times on real OS threads, relying on scheduler
//! nondeterminism plus the [`thread::yield_now`] calls loom models insert at
//! synchronization points. Swap in the real crate for exhaustive coverage —
//! no test changes needed.

#![forbid(unsafe_code)]

/// Executions per model (the real loom enumerates; the shim samples).
pub const ITERATIONS: usize = 64;

/// Runs `f` repeatedly, failing (panicking) if any execution panics — the
/// same user-visible contract as `loom::model`.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    for _ in 0..ITERATIONS {
        f();
    }
}

pub mod thread {
    //! Model-aware threads (plain OS threads in the shim).
    pub use std::thread::{park, spawn, yield_now, JoinHandle};
}

pub mod sync {
    //! Model-aware synchronization primitives (plain `std::sync` here).
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    pub mod atomic {
        //! Model-aware atomics (plain `std::sync::atomic` here).
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }
}

pub mod hint {
    //! Model-aware spin hints.
    pub use std::hint::spin_loop;
}
