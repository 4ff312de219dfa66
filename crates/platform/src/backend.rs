//! Evaluation backends: where a wave's candidates execute.
//!
//! The dispatch layer is a trait with two implementations:
//!
//! * [`InProcessBackend`] — evaluates every item on the thread that
//!   dispatches the wave, in submission order (the default);
//! * [`crate::remote::RemoteBackend`] — workers behind a process/socket
//!   boundary speaking the length-prefixed `wf-evald` protocol.
//!
//! Every backend upholds the same determinism contract (see
//! `docs/DETERMINISM.md`): a candidate's outcome derives only from
//! `(session_seed, index)`, results are tagged with their wave slot so
//! the session can restore candidate order, and the session-owned image
//! cache is only ever touched by the session between waves — [`WorkItem`]s
//! carry the cache probe's answer in, [`WorkResult`]s carry built images
//! out. The `tests/props.rs` proptest pins the contract across backends.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use wf_kconfig::LinuxVersion;
//! use wf_ossim::{App, AppId, SimOs};
//! use wf_platform::backend::{EvalBackend, InProcessBackend, WorkItem};
//! use wf_platform::{EvalTarget, SimTarget};
//!
//! let target: Arc<dyn EvalTarget> = Arc::new(SimTarget::new(
//!     SimOs::linux_runtime(LinuxVersion::V4_19, 56),
//!     App::by_id(AppId::Nginx),
//! ));
//! let mut backend = InProcessBackend::new(2);
//! let config = target.space().default_config();
//! let wave = vec![
//!     WorkItem::new(0, 0, 0, config.clone()),
//!     WorkItem::new(1, 1, 1, config.clone()),
//! ];
//! let results = backend.run_items(&target, 42, 1, wave);
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use crate::target::EvalTarget;
use crate::workers::{evaluate_candidate, CandidateEval};
use std::sync::Arc;
use wf_configspace::Configuration;
use wf_ossim::KernelImage;

/// One candidate evaluation, fully described: everything a worker needs
/// to run [`evaluate_candidate`] without touching shared session state.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// Position in the wave (results are restored to candidate order by
    /// this slot).
    pub slot: usize,
    /// Global history index of the candidate — the seed derivation input,
    /// which is why outcomes cannot depend on lane or backend.
    pub index: usize,
    /// The evaluator lane assigned by the router: the virtual worker
    /// whose working tree and clock the item charges. For the remote
    /// backend it also selects the worker connection.
    pub lane: usize,
    /// The candidate configuration.
    pub config: Configuration,
    /// The session's cache-probe answer for this candidate (phase 1 of
    /// the two-phase cache protocol).
    pub reuse: Option<KernelImage>,
    /// The lane's working tree: the configuration it last built
    /// (incremental-rebuild timing on compile targets).
    pub working_tree: Option<Configuration>,
}

impl WorkItem {
    /// A work item with no cache reuse and an empty working tree.
    pub fn new(slot: usize, index: usize, lane: usize, config: Configuration) -> WorkItem {
        WorkItem {
            slot,
            index,
            lane,
            config,
            reuse: None,
            working_tree: None,
        }
    }
}

/// A completed evaluation, tagged with its wave slot.
#[derive(Clone, Debug)]
pub struct WorkResult {
    /// The item's position in the wave.
    pub slot: usize,
    /// The lane that executed it.
    pub lane: usize,
    /// Outcome, cache flag, and virtual cost.
    pub eval: CandidateEval,
    /// The built (or reused) image, for the session to publish in
    /// candidate order (phase 3 of the cache protocol). `Some` exactly
    /// when the build succeeded — the signal that the lane's working
    /// tree advanced to this item's configuration.
    pub image: Option<KernelImage>,
}

/// A transport-level failure: the lane's worker process died before
/// producing a result. Candidate outcomes are never `LaneError`s —
/// crashes of the *evaluated configuration* come back as a successful
/// [`WorkResult`] whose eval records the crash.
#[derive(Clone, Debug)]
pub struct LaneError {
    /// The item's position in the wave.
    pub slot: usize,
    /// The lane that failed.
    pub lane: usize,
    /// Human-readable cause.
    pub message: String,
}

/// Where candidate evaluations execute.
///
/// The contract every implementation upholds:
///
/// * exactly one `Result` per submitted item (order unspecified — each
///   carries its slot);
/// * item outcomes derive only from `(session_seed, item.index)` plus
///   the explicit `reuse`/`working_tree` inputs, never from the lane,
///   the backend, or scheduling;
/// * the session's image cache is never touched — probe answers arrive in
///   items, built images leave in results.
pub trait EvalBackend: Send {
    /// Short label for logs and benches (`"in-process"`, `"remote"`).
    fn label(&self) -> &'static str;

    /// Evaluates a batch of items and returns one result per item.
    fn run_items(
        &mut self,
        target: &Arc<dyn EvalTarget>,
        session_seed: u64,
        repetitions: usize,
        items: Vec<WorkItem>,
    ) -> Vec<Result<WorkResult, LaneError>>;
}

/// Evaluates one item on the calling thread: each item of an in-process
/// wave, and each request a `wf-evald` worker serves.
pub(crate) fn run_item(
    target: &dyn EvalTarget,
    session_seed: u64,
    repetitions: usize,
    item: WorkItem,
) -> WorkResult {
    let (eval, image) = evaluate_candidate(
        target,
        &item.config,
        item.index,
        session_seed,
        repetitions,
        item.reuse.as_ref(),
        item.working_tree.as_ref(),
    );
    WorkResult {
        slot: item.slot,
        lane: item.lane,
        eval,
        image,
    }
}

/// Evaluates every item inline, in submission order, on the thread that
/// dispatches the wave.
///
/// A simulated evaluation costs microseconds of host time, and the
/// paper's platform benchmarks configurations one after the other, so
/// the `workers` lanes are virtual: the router assigns them and the wave
/// charges the busiest one to the wall clock, but no host thread stands
/// behind a lane. A panic inside the target propagates to the caller,
/// like a panic in ask or tell.
pub struct InProcessBackend {
    workers: usize,
}

impl InProcessBackend {
    /// Creates a backend with `workers` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> InProcessBackend {
        assert!(workers >= 1, "a backend needs at least one lane");
        InProcessBackend { workers }
    }
}

impl EvalBackend for InProcessBackend {
    fn label(&self) -> &'static str {
        "in-process"
    }

    fn run_items(
        &mut self,
        target: &Arc<dyn EvalTarget>,
        session_seed: u64,
        repetitions: usize,
        items: Vec<WorkItem>,
    ) -> Vec<Result<WorkResult, LaneError>> {
        items
            .into_iter()
            .map(|item| {
                assert!(item.lane < self.workers, "lane out of range");
                Ok(run_item(target.as_ref(), session_seed, repetitions, item))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SimTarget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_kconfig::LinuxVersion;
    use wf_ossim::{App, AppId, SimOs};

    #[test]
    fn items_routed_to_one_lane_run_sequentially() {
        // Two items on the same lane is legal (retries land there); they
        // run back to back, in submission order.
        let target: Arc<dyn EvalTarget> = Arc::new(SimTarget::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 56),
            App::by_id(AppId::Redis),
        ));
        let mut rng = StdRng::seed_from_u64(11);
        let items = (0..3)
            .map(|j| WorkItem::new(j, j, 1, target.space().sample(&mut rng)))
            .collect();
        let results = InProcessBackend::new(2).run_items(&target, 5, 1, items);
        let slots: Vec<(usize, usize)> = results
            .iter()
            .map(|r| r.as_ref().map(|w| (w.slot, w.lane)).expect("ok"))
            .collect();
        assert_eq!(slots, [(0, 1), (1, 1), (2, 1)]);
    }
}
