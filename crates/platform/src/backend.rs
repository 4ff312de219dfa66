//! Persistent evaluation backends: where a wave's candidates execute.
//!
//! The dispatch layer is a trait with two implementations:
//!
//! * [`InProcessBackend`] — long-lived worker threads fed through
//!   channels, spawned once and reused across every wave (the default);
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
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
    /// The evaluator lane assigned by the router. For
    /// [`InProcessBackend`] this is also the worker thread that runs the
    /// item; for the remote backend it selects the worker connection.
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

/// A transport-level failure: the lane (thread or worker process) died
/// before producing a result. Candidate outcomes are never `LaneError`s —
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

/// Runs one item inline on the current thread.
fn run_one(
    target: &dyn EvalTarget,
    session_seed: u64,
    repetitions: usize,
    item: WorkItem,
) -> WorkResult {
    let mut tree = item.working_tree;
    let (eval, image) = evaluate_candidate(
        target,
        &item.config,
        item.index,
        session_seed,
        repetitions,
        item.reuse.as_ref(),
        &mut tree,
    );
    WorkResult {
        slot: item.slot,
        lane: item.lane,
        eval,
        image,
    }
}

/// A message to a persistent worker thread.
struct Run {
    target: Arc<dyn EvalTarget>,
    session_seed: u64,
    repetitions: usize,
    item: WorkItem,
}

struct Worker {
    sender: Option<mpsc::Sender<Run>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Long-lived worker threads with channel-fed work queues.
///
/// Worker thread `i` executes every item routed to lane `i`, so the lane
/// is a real execution context (one OS thread, like one VM worker), not
/// just a bookkeeping index. Threads spawn lazily on the first wave with
/// more than one item — construction is free, and single-item waves run
/// inline so `workers = 1` sessions stay strictly sequential.
pub struct InProcessBackend {
    workers: usize,
    lanes: Vec<Worker>,
    results_tx: mpsc::Sender<Result<WorkResult, LaneError>>,
    results_rx: mpsc::Receiver<Result<WorkResult, LaneError>>,
}

impl InProcessBackend {
    /// Creates a pool of `workers` lanes. Threads are not spawned until
    /// the first multi-item wave.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> InProcessBackend {
        assert!(workers >= 1, "a backend needs at least one lane");
        let (results_tx, results_rx) = mpsc::channel();
        InProcessBackend {
            workers,
            lanes: Vec::new(),
            results_tx,
            results_rx,
        }
    }

    /// Number of worker lanes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn ensure_spawned(&mut self) {
        if !self.lanes.is_empty() {
            return;
        }
        for lane in 0..self.workers {
            let (tx, rx) = mpsc::channel::<Run>();
            let results = self.results_tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("wf-worker-{lane}"))
                .spawn(move || {
                    while let Ok(run) = rx.recv() {
                        let slot = run.item.slot;
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            run_one(
                                run.target.as_ref(),
                                run.session_seed,
                                run.repetitions,
                                run.item,
                            )
                        }));
                        let message = match outcome {
                            Ok(result) => {
                                if results.send(Ok(result)).is_err() {
                                    return; // backend dropped mid-flight
                                }
                                continue;
                            }
                            Err(_) => "worker thread panicked".to_string(),
                        };
                        let _ = results.send(Err(LaneError {
                            slot,
                            lane,
                            message,
                        }));
                        return; // a panicked worker does not take new work
                    }
                });
            // A lane whose thread cannot spawn degrades to a dead lane:
            // run_items fails its items with "worker thread is gone" and
            // the router reroutes them, instead of the whole session
            // panicking over one exhausted thread quota.
            match thread {
                Ok(thread) => self.lanes.push(Worker {
                    sender: Some(tx),
                    thread: Some(thread),
                }),
                Err(_) => self.lanes.push(Worker {
                    sender: None,
                    thread: None,
                }),
            }
        }
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
        if items.len() <= 1 {
            return items
                .into_iter()
                .map(|item| Ok(run_one(target.as_ref(), session_seed, repetitions, item)))
                .collect();
        }
        self.ensure_spawned();
        let mut out = Vec::with_capacity(items.len());
        let mut outstanding = 0usize;
        for item in items {
            assert!(item.lane < self.workers, "lane out of range");
            let slot = item.slot;
            let lane = item.lane;
            let run = Run {
                target: Arc::clone(target),
                session_seed,
                repetitions,
                item,
            };
            let sent = match &self.lanes[lane].sender {
                Some(sender) => sender.send(run).is_ok(),
                None => false,
            };
            if sent {
                outstanding += 1;
            } else {
                // The lane's thread is gone (earlier panic); fail fast so
                // the router can reroute the item.
                out.push(Err(LaneError {
                    slot,
                    lane,
                    message: "worker thread is gone".into(),
                }));
            }
        }
        for _ in 0..outstanding {
            match self.results_rx.recv() {
                Ok(result) => out.push(result),
                Err(_) => break, // unreachable: we hold a sender clone
            }
        }
        out
    }
}

impl Drop for InProcessBackend {
    fn drop(&mut self) {
        for worker in &mut self.lanes {
            worker.sender.take(); // closing the queue stops the thread
        }
        for worker in &mut self.lanes {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
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

    fn arc_target() -> Arc<dyn EvalTarget> {
        Arc::new(SimTarget::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 56),
            App::by_id(AppId::Redis),
        ))
    }

    fn wave(target: &Arc<dyn EvalTarget>, n: usize, seed: u64) -> Vec<WorkItem> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|j| WorkItem::new(j, j, j, target.space().sample(&mut rng)))
            .collect()
    }

    fn sort_by_slot(mut results: Vec<Result<WorkResult, LaneError>>) -> Vec<WorkResult> {
        let mut ok: Vec<WorkResult> = results.drain(..).map(|r| r.expect("ok")).collect();
        ok.sort_by_key(|w| w.slot);
        ok
    }

    #[test]
    fn pool_threads_persist_across_waves() {
        let target = arc_target();
        let mut pool = InProcessBackend::new(4);
        for round in 0..3 {
            let items = wave(&target, 4, round);
            let results = pool.run_items(&target, 5, 1, items);
            assert_eq!(results.len(), 4);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        assert_eq!(pool.lanes.len(), 4, "threads spawned once and reused");
    }

    #[test]
    fn single_item_waves_run_inline() {
        let target = arc_target();
        let mut pool = InProcessBackend::new(4);
        let items = wave(&target, 1, 3);
        let results = pool.run_items(&target, 5, 1, items);
        assert_eq!(results.len(), 1);
        assert!(pool.lanes.is_empty(), "no threads for single-item waves");
    }

    #[test]
    fn items_routed_to_one_lane_run_sequentially() {
        // Two items on the same lane is legal (retries land there); the
        // worker just executes them back to back.
        let target = arc_target();
        let mut pool = InProcessBackend::new(2);
        let mut items = wave(&target, 3, 11);
        for item in &mut items {
            item.lane = 1;
        }
        let results = sort_by_slot(pool.run_items(&target, 5, 1, items));
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|w| w.lane == 1));
    }
}
