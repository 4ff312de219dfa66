//! The host-time carve-out — the one place workspace code may read the
//! host wall clock to time search work.
//!
//! No search algorithm reads the clock. Their callers time them from the
//! outside: the platform session times each wave's ask
//! (`propose_batch`) and tell (`observe_batch`), and the Fig. 7 harness
//! times each `propose` + `observe` pair. Those numbers are reported for
//! profiling and are outside the determinism contract
//! (docs/DETERMINISM.md): nothing downstream — proposals, observations,
//! clocks, routing, the stored ledger — may read them back. Keeping the
//! actual `Instant::now()` call here, behind a single annotated type,
//! means `wf-lint`'s `wall-clock-in-det-path` rule flags any *new*
//! wall-clock read at merge time while this documented carve-out stays
//! the only allowed one.

/// A started host-time measurement of search work.
///
/// The elapsed value must only ever feed reporting, never a decision or
/// the stored ledger.
#[derive(Clone, Copy, Debug)]
pub struct HostTimer(std::time::Instant);

impl HostTimer {
    /// Starts measuring.
    pub fn start() -> Self {
        // wf-lint: allow(wall-clock-in-det-path, reason = "the documented host-time carve-out: host cost of search-algorithm work, reported for profiling and never fed back into any decision or the ledger (DETERMINISM.md)")
        HostTimer(std::time::Instant::now())
    }

    /// Host seconds since [`HostTimer::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f`, returning its result and the elapsed host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = HostTimer::start();
    let out = f();
    let s = t.seconds();
    (out, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_nonnegative_seconds() {
        let (v, s) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn timer_is_monotonic_nonnegative() {
        let t = HostTimer::start();
        assert!(t.seconds() >= 0.0);
    }
}
