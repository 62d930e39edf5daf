//! Offline drop-in subset of the `crossbeam` API.
//!
//! Nothing in the workspace calls this crate any more: the sweep runner
//! that used `crossbeam::channel::unbounded` now fans out over scoped
//! threads. It stays only because `dirq-sim`'s manifest still names it
//! and the benchmark's lockfile (`perfbench/Cargo.lock`) records it;
//! dropping the manifest line rewrites that lockfile, so both go together
//! in a change to the benchmark. The channel maps onto `std::sync::mpsc`
//! (clonable senders, receiver iteration ending when every sender is
//! dropped).

pub mod channel {
    //! MPMC-ish channels (MPSC is all the workspace needs).

    pub use std::sync::mpsc::{Receiver, SendError, Sender};

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fan_in_terminates_when_senders_drop() {
        let (tx, rx) = channel::unbounded::<u32>();
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        let mut got: Vec<u32> = rx.into_iter().collect();
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
