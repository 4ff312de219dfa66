//! Performance-aware lane routing for evaluation backends.
//!
//! Real evaluator fleets are heterogeneous: some lanes are faster, some
//! fail. The [`Router`] assigns each wave slot to a backend lane using
//! one of the four wayfinder-gateway strategies
//! (`random | fastest | round-robin | preferred`), keeps per-lane
//! latency/failure statistics, and health-gates lanes whose transport
//! died. [`dispatch_wave`] wraps a backend with the full routed-dispatch
//! protocol: cache probe, routed submission, retry-with-backoff on lane
//! failure, and cache publish.
//!
//! Determinism (see `docs/DETERMINISM.md`): the router only ever observes
//! *virtual* durations — the deterministic per-candidate cost the
//! simulator charges — never host time, so `fastest` routing is a pure
//! function of (seed, history). `random` draws from an RNG stream derived
//! from `(session_seed, wave_index)`. The default `round-robin` strategy
//! reduces to the identity slot → lane assignment on full-width waves,
//! which is exactly the lane discipline the pre-backend pipeline used.
//! Because a candidate's *outcome* derives only from
//! `(session_seed, index)`, lane assignment can shift build durations on
//! compile targets (working-tree reuse) but never metrics or crashes.
//!
//! # Examples
//!
//! ```
//! use wf_jobfile::RoutingStrategy;
//! use wf_platform::router::Router;
//!
//! let mut router = Router::new(RoutingStrategy::Fastest, 3);
//! // Unobserved lanes count as "fastest" so every lane gets explored.
//! assert_eq!(router.assign(3, 42, 0), vec![0, 1, 2]);
//! router.observe(0, 9.0);
//! router.observe(1, 1.0);
//! router.observe(2, 5.0);
//! // Lane 1 has the lowest latency EWMA, so it is preferred now.
//! assert_eq!(router.assign(1, 42, 1), vec![1]);
//! ```

use crate::backend::{EvalBackend, WorkItem, WorkResult};
use crate::cache::ImageCache;
use crate::target::EvalTarget;
use crate::workers::{derive_seed, CandidateEval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wf_configspace::Configuration;
pub use wf_jobfile::RoutingStrategy;
use wf_ossim::KernelImage;

/// EWMA smoothing factor for per-lane latency (higher = more reactive).
const EWMA_ALPHA: f64 = 0.3;

/// Stream tag mixed into the session seed for `random` routing draws, so
/// routing never perturbs the candidate evaluation streams.
const STREAM_ROUTE: u64 = 0x524F_5554;

/// Observed statistics for one evaluator lane.
#[derive(Clone, Copy, Debug)]
pub struct LaneStats {
    /// Exponentially-weighted moving average of the lane's per-candidate
    /// virtual duration (seconds). Zero until the first observation.
    pub ewma_s: f64,
    /// Number of completed evaluations observed on this lane.
    pub samples: u64,
    /// Number of transport failures on this lane.
    pub failures: u64,
    /// Whether the lane is accepting work. Lanes are health-gated on
    /// transport failure and stay out of rotation for the session.
    pub healthy: bool,
}

impl LaneStats {
    fn fresh() -> LaneStats {
        LaneStats {
            ewma_s: 0.0,
            samples: 0,
            failures: 0,
            healthy: true,
        }
    }
}

/// Assigns wave slots to evaluator lanes.
///
/// One router instance lives per session; its cursor (round-robin) and
/// EWMA state persist across waves so routing decisions reflect the whole
/// session's observations.
#[derive(Clone, Debug)]
pub struct Router {
    strategy: RoutingStrategy,
    lanes: Vec<LaneStats>,
    cursor: usize,
}

impl Router {
    /// Creates a router over `lanes` evaluator lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(strategy: RoutingStrategy, lanes: usize) -> Router {
        assert!(lanes >= 1, "a router needs at least one lane");
        Router {
            strategy,
            lanes: vec![LaneStats::fresh(); lanes],
            cursor: 0,
        }
    }

    /// Number of lanes (healthy or not).
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// The configured strategy.
    pub fn strategy(&self) -> RoutingStrategy {
        self.strategy
    }

    /// Per-lane statistics, indexed by lane.
    pub fn stats(&self) -> &[LaneStats] {
        &self.lanes
    }

    /// Whether `lane` is currently in rotation.
    pub fn is_healthy(&self, lane: usize) -> bool {
        self.lanes[lane].healthy
    }

    /// Lanes currently in rotation, in ascending order.
    pub fn healthy_lanes(&self) -> Vec<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.healthy)
            .map(|(i, _)| i)
            .collect()
    }

    /// Records a completed evaluation's virtual duration on `lane`.
    ///
    /// Always feed *virtual* (simulated) durations, in a deterministic
    /// order (the pipeline uses candidate order) — host time would make
    /// `fastest` routing nondeterministic.
    pub fn observe(&mut self, lane: usize, duration_s: f64) {
        let s = &mut self.lanes[lane];
        s.ewma_s = if s.samples == 0 {
            duration_s
        } else {
            EWMA_ALPHA * duration_s + (1.0 - EWMA_ALPHA) * s.ewma_s
        };
        s.samples += 1;
    }

    /// Records a transport failure on `lane` and takes it out of
    /// rotation.
    pub fn mark_failure(&mut self, lane: usize) {
        let s = &mut self.lanes[lane];
        s.failures += 1;
        s.healthy = false;
    }

    /// Assigns `slots` wave slots to healthy lanes.
    ///
    /// Deterministic given the router state and `(session_seed,
    /// wave_index)`; multiple slots may share a lane (the backend then
    /// runs them sequentially on that lane).
    ///
    /// # Panics
    ///
    /// Panics if no healthy lanes remain.
    pub fn assign(&mut self, slots: usize, session_seed: u64, wave_index: u64) -> Vec<usize> {
        let healthy = self.healthy_lanes();
        assert!(
            !healthy.is_empty(),
            "no healthy evaluator lanes remain (wave {wave_index})"
        );
        match self.strategy {
            RoutingStrategy::RoundRobin => (0..slots)
                .map(|_| {
                    // Advance the persistent cursor to the next healthy
                    // lane. On full-width all-healthy waves this is the
                    // identity assignment.
                    loop {
                        let lane = self.cursor % self.lanes.len();
                        self.cursor = (self.cursor + 1) % self.lanes.len();
                        if self.lanes[lane].healthy {
                            return lane;
                        }
                    }
                })
                .collect(),
            RoutingStrategy::Random => {
                let mut rng = StdRng::seed_from_u64(derive_seed(
                    derive_seed(session_seed, STREAM_ROUTE),
                    wave_index,
                ));
                (0..slots)
                    .map(|_| healthy[rng.random_range(0..healthy.len())])
                    .collect()
            }
            RoutingStrategy::Fastest => {
                // Healthy lanes ordered by latency EWMA (unobserved lanes
                // sort first so every lane gets explored), ties broken by
                // lane index; slots fill the fastest lanes in order and
                // wrap when the wave is wider than the healthy set.
                let mut ordered = healthy;
                ordered.sort_by(|&a, &b| {
                    self.lanes[a]
                        .ewma_s
                        .partial_cmp(&self.lanes[b].ewma_s)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                (0..slots).map(|s| ordered[s % ordered.len()]).collect()
            }
            RoutingStrategy::Preferred => {
                // Lowest-numbered healthy lanes, wrapping: lane 0 is the
                // "preferred gateway" and unhealthy lanes fall through to
                // the next-lowest survivor.
                (0..slots).map(|s| healthy[s % healthy.len()]).collect()
            }
        }
    }

    /// Re-assigns failed slots across the surviving healthy lanes
    /// (retry routing: failed slot `k` goes to the `k`-th healthy lane,
    /// wrapping).
    ///
    /// # Panics
    ///
    /// Panics if no healthy lanes remain.
    pub fn reassign(&self, count: usize, wave_index: u64) -> Vec<usize> {
        let healthy = self.healthy_lanes();
        assert!(
            !healthy.is_empty(),
            "no healthy evaluator lanes remain (wave {wave_index})"
        );
        (0..count).map(|k| healthy[k % healthy.len()]).collect()
    }
}

/// Retry backoff: 2 ms doubling per attempt, capped at 50 ms. Host time —
/// only reached on transport failure, which is itself a host-level event.
fn backoff(attempt: u32) -> std::time::Duration {
    let ms = (2u64 << attempt.min(5)).min(50);
    std::time::Duration::from_millis(ms)
}

/// Evaluates a wave through a routed backend: the full dispatch protocol
/// the session uses per wave.
///
/// 1. the router assigns each slot a lane;
/// 2. the session's cache is probed sequentially in candidate order
///    (phase 1 of the two-phase cache protocol);
/// 3. items are submitted to the backend; slots that come back as
///    transport-level [`crate::backend::LaneError`]s health-gate their
///    lane and retry (with backoff) on the surviving lanes until every
///    slot has a result;
/// 4. in candidate order: the lane's latency EWMA is fed, working trees
///    advance for successful builds, and built images are published back
///    to the cache (phase 3).
///
/// Returns evaluations in candidate order. `trees` holds one working
/// tree per lane (`trees.len() == router.width()`).
///
/// Backends never touch the cache, and the `&mut` borrow held here for
/// the whole wave enforces it: probe answers travel in the
/// [`WorkItem`]s and built images come back in the [`WorkResult`]s, and
/// both cache phases run here, sequentially in candidate order. So
/// `build_skipped` flags, cache statistics, and incremental-build reuse
/// are pure functions of (seed, candidate order) — the property the
/// session-store resume guarantee relies on. Two same-fingerprint
/// candidates in one wave both miss and both build, exactly like two
/// real VM workers racing a build farm; the next wave reuses the
/// published image.
///
/// # Panics
///
/// Panics if every lane has failed (no healthy lanes remain).
#[allow(clippy::too_many_arguments)] // the platform's one dispatch point
pub fn dispatch_wave(
    backend: &mut dyn EvalBackend,
    router: &mut Router,
    target: &Arc<dyn EvalTarget>,
    candidates: &[Configuration],
    first_index: usize,
    session_seed: u64,
    wave_index: u64,
    repetitions: usize,
    cache: &mut ImageCache,
    trees: &mut [Option<Configuration>],
) -> Vec<CandidateEval> {
    assert_eq!(
        trees.len(),
        router.width(),
        "one working tree per router lane"
    );
    let n = candidates.len();
    let lanes = router.assign(n, session_seed, wave_index);

    // Phase 1: probe the cache in candidate order.
    let reuses: Vec<Option<KernelImage>> = candidates
        .iter()
        .map(|c| cache.get(target.image_fingerprint(c)))
        .collect();

    let mut pending: Vec<WorkItem> = (0..n)
        .map(|j| WorkItem {
            slot: j,
            index: first_index + j,
            lane: lanes[j],
            config: candidates[j].clone(),
            reuse: reuses[j].clone(),
            working_tree: trees[lanes[j]].clone(),
        })
        .collect();

    // Phase 2: routed submission with retry on lane failure.
    let mut done: Vec<Option<WorkResult>> = (0..n).map(|_| None).collect();
    let mut attempt = 0u32;
    while !pending.is_empty() {
        let results = backend.run_items(
            target,
            session_seed,
            repetitions,
            std::mem::take(&mut pending),
        );
        let mut failed: Vec<usize> = Vec::new();
        for result in results {
            match result {
                Ok(w) => {
                    let slot = w.slot;
                    done[slot] = Some(w);
                }
                Err(e) => {
                    router.mark_failure(e.lane);
                    failed.push(e.slot);
                }
            }
        }
        if failed.is_empty() {
            break;
        }
        failed.sort_unstable();
        std::thread::sleep(backoff(attempt));
        attempt += 1;
        let retry_lanes = router.reassign(failed.len(), wave_index);
        pending = failed
            .into_iter()
            .zip(retry_lanes)
            .map(|(slot, lane)| WorkItem {
                slot,
                index: first_index + slot,
                lane,
                config: candidates[slot].clone(),
                reuse: reuses[slot].clone(),
                working_tree: trees[lane].clone(),
            })
            .collect();
    }

    // Phase 3: in candidate order — feed the router, advance working
    // trees, publish images, collect evaluations.
    let mut evals = Vec::with_capacity(n);
    for (j, slot) in done.into_iter().enumerate() {
        let w = slot.expect("every slot resolved by the retry loop");
        router.observe(w.lane, w.eval.duration_s);
        if let Some(image) = w.image {
            trees[w.lane] = Some(candidates[j].clone());
            cache.insert(image);
        }
        evals.push(w.eval);
    }
    evals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{InProcessBackend, LaneError};
    use crate::target::SimTarget;
    use crate::workers::evaluate_candidate;
    use wf_kconfig::LinuxVersion;
    use wf_ossim::{App, AppId, SimOs};

    fn arc_target() -> Arc<dyn EvalTarget> {
        Arc::new(SimTarget::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 56),
            App::by_id(AppId::Nginx),
        ))
    }

    #[test]
    fn round_robin_cycles_deterministically() {
        let mut r = Router::new(RoutingStrategy::RoundRobin, 3);
        // Full-width wave: identity assignment.
        assert_eq!(r.assign(3, 1, 0), vec![0, 1, 2]);
        assert_eq!(r.assign(3, 1, 1), vec![0, 1, 2]);
        // Tail wave advances the persistent cursor.
        assert_eq!(r.assign(2, 1, 2), vec![0, 1]);
        assert_eq!(r.assign(2, 1, 3), vec![2, 0]);
    }

    #[test]
    fn round_robin_skips_unhealthy_lanes() {
        let mut r = Router::new(RoutingStrategy::RoundRobin, 3);
        r.mark_failure(1);
        assert_eq!(r.assign(4, 1, 0), vec![0, 2, 0, 2]);
    }

    #[test]
    fn fastest_prefers_the_lane_with_lowest_ewma() {
        let mut r = Router::new(RoutingStrategy::Fastest, 3);
        r.observe(0, 100.0);
        r.observe(1, 10.0);
        r.observe(2, 50.0);
        assert_eq!(r.assign(3, 1, 0), vec![1, 2, 0]);
        // New observations shift the ranking (EWMA, not last-sample).
        for _ in 0..20 {
            r.observe(1, 500.0);
        }
        assert_eq!(r.assign(1, 1, 1), vec![2]);
    }

    #[test]
    fn fastest_explores_unobserved_lanes_first() {
        let mut r = Router::new(RoutingStrategy::Fastest, 3);
        r.observe(0, 1.0);
        // Lanes 1 and 2 are unobserved (EWMA 0) so they sort ahead of
        // lane 0 regardless of its speed.
        assert_eq!(r.assign(3, 1, 0), vec![1, 2, 0]);
    }

    #[test]
    fn preferred_falls_back_on_unhealthy_lanes() {
        let mut r = Router::new(RoutingStrategy::Preferred, 4);
        assert_eq!(r.assign(2, 1, 0), vec![0, 1]);
        r.mark_failure(0);
        r.mark_failure(1);
        assert_eq!(r.assign(3, 1, 1), vec![2, 3, 2]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_wave() {
        let mut a = Router::new(RoutingStrategy::Random, 4);
        let mut b = Router::new(RoutingStrategy::Random, 4);
        assert_eq!(a.assign(8, 99, 0), b.assign(8, 99, 0));
        assert_ne!(
            a.assign(8, 99, 1),
            a.assign(8, 99, 2),
            "different waves draw different streams (overwhelmingly likely)"
        );
    }

    #[test]
    fn random_only_picks_healthy_lanes() {
        let mut r = Router::new(RoutingStrategy::Random, 4);
        r.mark_failure(2);
        for lane in r.assign(64, 7, 0) {
            assert_ne!(lane, 2);
        }
    }

    #[test]
    fn ewma_tracks_failures_and_samples() {
        let mut r = Router::new(RoutingStrategy::RoundRobin, 2);
        r.observe(0, 10.0);
        r.observe(0, 20.0);
        let s = r.stats()[0];
        assert_eq!(s.samples, 2);
        assert!((s.ewma_s - (0.3 * 20.0 + 0.7 * 10.0)).abs() < 1e-12);
        r.mark_failure(1);
        assert_eq!(r.stats()[1].failures, 1);
        assert!(!r.is_healthy(1));
        assert_eq!(r.healthy_lanes(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "no healthy evaluator lanes")]
    fn assign_panics_with_no_healthy_lanes() {
        let mut r = Router::new(RoutingStrategy::RoundRobin, 1);
        r.mark_failure(0);
        r.assign(1, 1, 0);
    }

    /// The wave protocol written out sequentially, one wave of `width`
    /// candidates at a time: probe every candidate, evaluate them in
    /// order (candidate `j` of the wave on lane `j`'s tree, which moves
    /// to the candidate when an image comes back), then publish every
    /// built image in order. Returns the evaluations and the lanes' final
    /// working trees.
    fn sequential_reference(
        target: &dyn EvalTarget,
        candidates: &[Configuration],
        width: usize,
    ) -> (Vec<CandidateEval>, Vec<Option<Configuration>>) {
        let mut cache = ImageCache::new(8);
        let mut trees = vec![None; width];
        let mut evals = Vec::with_capacity(candidates.len());
        for (w, wave) in candidates.chunks(width).enumerate() {
            let reuses: Vec<Option<KernelImage>> = wave
                .iter()
                .map(|c| cache.get(target.image_fingerprint(c)))
                .collect();
            let results: Vec<(CandidateEval, Option<KernelImage>)> = wave
                .iter()
                .zip(trees.iter_mut())
                .zip(&reuses)
                .enumerate()
                .map(|(j, ((config, tree), reuse))| {
                    let (eval, image) = evaluate_candidate(
                        target,
                        config,
                        w * width + j,
                        42,
                        2,
                        reuse.as_ref(),
                        tree.as_ref(),
                    );
                    if image.is_some() {
                        *tree = Some(config.clone());
                    }
                    (eval, image)
                })
                .collect();
            for (eval, image) in results {
                if let Some(image) = image {
                    cache.insert(image);
                }
                evals.push(eval);
            }
        }
        (evals, trees)
    }

    /// The same candidates through [`dispatch_wave`] over an in-process
    /// backend `width` lanes wide.
    fn routed_waves(
        target: &Arc<dyn EvalTarget>,
        candidates: &[Configuration],
        width: usize,
    ) -> (Vec<CandidateEval>, Vec<Option<Configuration>>) {
        let mut backend = InProcessBackend::new(width);
        let mut router = Router::new(RoutingStrategy::RoundRobin, width);
        let mut cache = ImageCache::new(8);
        let mut trees = vec![None; width];
        let mut evals = Vec::with_capacity(candidates.len());
        for (w, wave) in candidates.chunks(width).enumerate() {
            evals.extend(dispatch_wave(
                &mut backend,
                &mut router,
                target,
                wave,
                w * width,
                42,
                w as u64,
                2,
                &mut cache,
                &mut trees,
            ));
        }
        (evals, trees)
    }

    fn assert_same_outcome(a: &CandidateEval, b: &CandidateEval) {
        assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
        match (&a.outcome, &b.outcome) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x.phase, y.phase),
            _ => panic!("outcome kind differs"),
        }
    }

    #[test]
    fn dispatch_wave_matches_a_sequential_reference_bit_for_bit() {
        // The routed dispatch must reproduce the plain sequential protocol
        // exactly (identity lane assignment under default round-robin on
        // full-width waves), both as one wave of four and as four waves
        // of one.
        let target = arc_target();
        let mut rng = StdRng::seed_from_u64(5);
        let candidates: Vec<Configuration> =
            (0..4).map(|_| target.space().sample(&mut rng)).collect();

        let mut by_width = Vec::new();
        for width in [4, 1] {
            let (reference, reference_trees) =
                sequential_reference(target.as_ref(), &candidates, width);
            let (routed, trees) = routed_waves(&target, &candidates, width);
            assert_eq!(routed.len(), reference.len());
            for (a, b) in routed.iter().zip(&reference) {
                assert_same_outcome(a, b);
                assert_eq!(a.build_skipped, b.build_skipped, "width {width}");
            }
            assert_eq!(
                trees, reference_trees,
                "working trees agree at width {width}"
            );
            by_width.push(routed);
        }
        // Every virtual-cost draw derives from (seed, candidate index), so
        // on a runtime target outcomes and durations do not depend on the
        // wave width either.
        for (a, b) in by_width[0].iter().zip(&by_width[1]) {
            assert_same_outcome(a, b);
        }
    }

    /// A backend whose lane 0 fails transport-level on every submission:
    /// the wave must still complete via retry on the surviving lanes.
    struct FlakyLane0 {
        inner: InProcessBackend,
    }

    impl EvalBackend for FlakyLane0 {
        fn label(&self) -> &'static str {
            "flaky"
        }

        fn run_items(
            &mut self,
            target: &Arc<dyn EvalTarget>,
            session_seed: u64,
            repetitions: usize,
            items: Vec<WorkItem>,
        ) -> Vec<Result<WorkResult, LaneError>> {
            let (dead, live): (Vec<WorkItem>, Vec<WorkItem>) =
                items.into_iter().partition(|i| i.lane == 0);
            let mut out: Vec<Result<WorkResult, LaneError>> = dead
                .into_iter()
                .map(|i| {
                    Err(LaneError {
                        slot: i.slot,
                        lane: i.lane,
                        message: "lane 0 is wired to fail".into(),
                    })
                })
                .collect();
            out.extend(
                self.inner
                    .run_items(target, session_seed, repetitions, live),
            );
            out
        }
    }

    #[test]
    fn waves_complete_via_retry_when_a_lane_dies() {
        let target = arc_target();
        let mut rng = StdRng::seed_from_u64(6);
        let candidates: Vec<Configuration> =
            (0..4).map(|_| target.space().sample(&mut rng)).collect();
        let mut backend = FlakyLane0 {
            inner: InProcessBackend::new(4),
        };
        let mut router = Router::new(RoutingStrategy::RoundRobin, 4);
        let mut cache = ImageCache::new(8);
        let mut trees = vec![None; 4];
        let evals = dispatch_wave(
            &mut backend,
            &mut router,
            &target,
            &candidates,
            0,
            42,
            0,
            2,
            &mut cache,
            &mut trees,
        );
        assert_eq!(evals.len(), 4, "every slot resolved despite the dead lane");
        assert!(!router.is_healthy(0), "the failed lane is health-gated");
        assert_eq!(router.stats()[0].failures, 1);
        // Outcomes are lane-independent: the retried slot's evaluation is
        // identical to a fully healthy run.
        let mut healthy_backend = InProcessBackend::new(4);
        let mut healthy_router = Router::new(RoutingStrategy::RoundRobin, 4);
        let mut healthy_cache = ImageCache::new(8);
        let mut healthy_trees = vec![None; 4];
        let healthy = dispatch_wave(
            &mut healthy_backend,
            &mut healthy_router,
            &target,
            &candidates,
            0,
            42,
            0,
            2,
            &mut healthy_cache,
            &mut healthy_trees,
        );
        for (a, b) in evals.iter().zip(healthy.iter()) {
            match (&a.outcome, &b.outcome) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(x), Err(y)) => assert_eq!(x.phase, y.phase),
                _ => panic!("outcome kind differs under fault injection"),
            }
        }
    }
}
