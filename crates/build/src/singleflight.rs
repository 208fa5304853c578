//! Single-flight request coalescing with a bounded completion memo.
//!
//! The compile-farm daemon (`filament serve`) must collapse concurrent
//! *identical* build requests into one build: N clients asking for the
//! same source at the same moment should cost one compile, with everyone
//! handed the same result. [`SingleFlight::run`] provides exactly that —
//! the first caller for a key becomes the **leader** and computes; callers
//! arriving while the leader runs block on a condvar and share the
//! leader's `Arc`'d value; and completed values stay behind as a bounded
//! FIFO **memo**, so a request repeated after the leader finished is
//! served from memory without recomputing (this is what makes "the build
//! runs once" deterministic rather than a race on request overlap).
//!
//! Failed computations are handed to every waiter but *not* memoized —
//! a transient failure (say, an unreadable cache directory) should not
//! poison the key forever. A panicking leader unparks its waiters (one of
//! them retakes leadership) instead of deadlocking them.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// How a [`SingleFlight::run`] call obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// This caller was the leader: it ran the computation.
    Led,
    /// This caller blocked on an in-flight leader and shares its result.
    Coalesced,
    /// The value was already in the completion memo; nothing blocked.
    Memo,
}

enum Slot<V> {
    InFlight,
    Done(Arc<V>),
}

struct State<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Completed keys in insertion order, for FIFO memo eviction.
    done: VecDeque<K>,
}

/// See the module docs.
pub struct SingleFlight<K, V> {
    state: Mutex<State<K, V>>,
    cv: Condvar,
    /// Maximum number of memoized completions (in-flight entries are
    /// never evicted).
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> SingleFlight<K, V> {
    /// A new coalescer memoizing at most `capacity` completed values
    /// (`capacity == 0` disables the memo: pure request coalescing).
    pub fn new(capacity: usize) -> Self {
        SingleFlight {
            state: Mutex::new(State {
                map: HashMap::new(),
                done: VecDeque::new(),
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Number of memoized completions currently held.
    pub fn memo_len(&self) -> usize {
        self.state.lock().unwrap().done.len()
    }

    /// Runs `compute` for `key` unless an identical request is in flight
    /// (block and share its result) or already memoized (return it
    /// immediately). `compute` returns `(value, keep)`; with `keep ==
    /// false` the value is handed to this round's callers but not
    /// memoized.
    pub fn run<F>(&self, key: K, compute: F) -> (Arc<V>, Served)
    where
        F: FnOnce() -> (V, bool),
    {
        let mut waited = false;
        {
            let mut st = self.state.lock().unwrap();
            loop {
                match st.map.get(&key) {
                    Some(Slot::Done(v)) => {
                        let served = if waited {
                            Served::Coalesced
                        } else {
                            Served::Memo
                        };
                        return (v.clone(), served);
                    }
                    Some(Slot::InFlight) => {
                        waited = true;
                        st = self.cv.wait(st).unwrap();
                    }
                    None => {
                        st.map.insert(key.clone(), Slot::InFlight);
                        break;
                    }
                }
            }
        }
        // Leader path. The guard removes the in-flight marker and wakes
        // waiters if `compute` panics, so they retry instead of hanging.
        let guard = PanicGuard {
            flight: self,
            key: key.clone(),
            armed: true,
        };
        let (value, keep) = compute();
        let value = Arc::new(value);
        let mut evicted = Vec::new();
        {
            let mut st = self.state.lock().unwrap();
            if keep && self.capacity > 0 {
                st.map.insert(key.clone(), Slot::Done(value.clone()));
                st.done.push_back(key.clone());
                while st.done.len() > self.capacity {
                    if let Some(old) = st.done.pop_front() {
                        if matches!(st.map.get(&old), Some(Slot::Done(_))) {
                            evicted.extend(st.map.remove(&old));
                        }
                    }
                }
            } else {
                st.map.remove(&key);
            }
        }
        // An evicted value may hold its last reference here: free it after
        // the lock, so concurrent callers never wait on the deallocation.
        drop(evicted);
        let mut guard = guard;
        guard.armed = false;
        self.cv.notify_all();
        (value, Served::Led)
    }
}

struct PanicGuard<'a, K: Eq + Hash + Clone, V> {
    flight: &'a SingleFlight<K, V>,
    key: K,
    armed: bool,
}

impl<K: Eq + Hash + Clone, V> Drop for PanicGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self.flight.state.lock().unwrap();
            if matches!(st.map.get(&self.key), Some(Slot::InFlight)) {
                st.map.remove(&self.key);
            }
            drop(st);
            self.flight.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let flight = Arc::new(SingleFlight::<u32, u64>::new(8));
        let runs = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (f, r, b) = (flight.clone(), runs.clone(), barrier.clone());
                std::thread::spawn(move || {
                    b.wait();
                    let (v, _) = f.run(7, || {
                        r.fetch_add(1, Ordering::SeqCst);
                        // Widen the in-flight window so peers coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        (42u64, true)
                    });
                    *v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one leader, rest coalesced");
        // And once completed, later calls are memo hits.
        let (v, served) = flight.run(7, || panic!("must not recompute"));
        assert_eq!((*v, served), (42, Served::Memo));
    }

    #[test]
    fn unkept_values_are_recomputed() {
        let flight = SingleFlight::<u32, Result<u64, String>>::new(8);
        let (v, served) = flight.run(1, || (Err("transient".into()), false));
        assert!(v.is_err());
        assert_eq!(served, Served::Led);
        let (v, served) = flight.run(1, || (Ok(5), true));
        assert_eq!((*v).clone(), Ok(5));
        assert_eq!(served, Served::Led, "error was not memoized");
        assert_eq!(flight.run(1, || unreachable!()).1, Served::Memo);
    }

    #[test]
    fn memo_is_bounded_fifo() {
        let flight = SingleFlight::<u32, u32>::new(2);
        for k in 0..5 {
            flight.run(k, || (k, true));
        }
        assert_eq!(flight.memo_len(), 2);
        // Oldest keys were evicted: key 0 recomputes, key 4 is memoized.
        assert_eq!(flight.run(0, || (0, true)).1, Served::Led);
        assert_eq!(flight.run(4, || unreachable!()).1, Served::Memo);
    }

    #[test]
    fn evicted_values_are_freed_after_the_lock() {
        static FLIGHT: std::sync::OnceLock<SingleFlight<u32, Evictee>> = std::sync::OnceLock::new();
        static FREED_UNLOCKED: AtomicU64 = AtomicU64::new(0);
        struct Evictee;
        impl Drop for Evictee {
            fn drop(&mut self) {
                if FLIGHT.get().is_some_and(|f| f.state.try_lock().is_ok()) {
                    FREED_UNLOCKED.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let flight = FLIGHT.get_or_init(|| SingleFlight::new(1));
        flight.run(0, || (Evictee, true));
        // Evicts key 0, whose last reference the memo held.
        flight.run(1, || (Evictee, true));
        assert_eq!(FREED_UNLOCKED.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_leader_releases_waiters() {
        let flight = Arc::new(SingleFlight::<u32, u64>::new(8));
        let barrier = Arc::new(Barrier::new(2));
        let f = flight.clone();
        let b = barrier.clone();
        let leader = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f.run(9, || {
                    b.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("leader died");
                })
            }));
        });
        barrier.wait();
        // This call either coalesces onto the dying leader and retries, or
        // arrives after cleanup — both must end with it computing.
        let (v, _) = flight.run(9, || (11, true));
        assert_eq!(*v, 11);
        leader.join().unwrap();
    }
}
