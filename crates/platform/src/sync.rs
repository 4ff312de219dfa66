//! Poison-recovering synchronization helpers.
//!
//! The established pattern for every mutex in daemon-adjacent code:
//! state protected by these locks is kept consistent by its writers
//! (each critical section is atomic over its own fields), so a panic on
//! one thread must degrade *that* session — never cascade a
//! poisoned-mutex panic through the daemon or a watcher. `wf-lint`'s
//! `lock-unwrap` rule enforces the pattern: a bare `.lock().unwrap()` is
//! a finding, this helper is the fix.

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// ```
/// use std::sync::Mutex;
/// use wf_platform::lock_recover;
///
/// let m = Mutex::new(1);
/// *lock_recover(&m) += 1;
/// assert_eq!(*lock_recover(&m), 2);
/// ```
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = std::sync::Arc::new(Mutex::new(7usize));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("first lock cannot be poisoned");
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) = 8;
        assert_eq!(*lock_recover(&m), 8);
    }
}
