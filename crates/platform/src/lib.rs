//! `wf-platform`: the automated benchmarking pipeline (§3.1 of the paper).
//!
//! The platform builds, boots, and benchmarks OS images, drives a
//! pluggable search algorithm, and records the exploration history:
//!
//! * [`clock`] — the virtual clock all budgets are charged against;
//! * [`cache`] — the kernel-image cache behind §3.1's rebuild-skip, a
//!   bounded LRU the session owns and hands to each wave's dispatch;
//! * [`workers`] — per-candidate evaluation: one worker's build → boot →
//!   benchmark of one configuration ([`workers::evaluate_candidate`]),
//!   its per-candidate seed derivation ([`derive_seed`]), and benchmark
//!   repetitions run one after the other;
//! * [`backend`] — the [`backend::EvalBackend`] trait and its
//!   [`backend::InProcessBackend`] implementation, which evaluates each
//!   wave inline on the session's thread over virtual worker lanes;
//! * [`remote`] — [`remote::RemoteBackend`]: workers behind a
//!   process/socket boundary speaking the length-prefixed `wf-evald`
//!   protocol;
//! * [`router`] — performance-aware slot → lane assignment
//!   ([`router::Router`]: `random | fastest | round-robin | preferred`)
//!   with retry and lane health-gating;
//! * [`history`] — per-iteration records plus Table 2's summary stats;
//! * [`metrics`] — smoothing, best-so-far, crash-rate series, per-wave
//!   scheduling stats, and the Eq. 4 throughput–memory score;
//! * [`prober`] — the §3.4 runtime-space inference heuristic;
//! * [`target`] — the open [`EvalTarget`] abstraction (space + build /
//!   boot / bench) every session runs against, with [`SimTarget`] (a
//!   `wf_ossim::SimOs` + `App` pair) as the reference implementation;
//! * [`pipeline`] — [`Session`]: the batch ask → build/boot/bench across
//!   the pool → tell loop with iteration/time budgets;
//! * [`events`] — the typed [`SessionEvent`] stream and [`EventSink`]
//!   observer interface (`run_with`/`step_wave_with` emit through it);
//! * [`store`] — on-disk session stores: a job-file manifest plus an
//!   append-only, hash-chained `events.jsonl`, written by
//!   [`store::JsonlSink`] and reloaded by [`store::SessionStore`] for
//!   offline reports and deterministic resume ([`Session::replay`]);
//! * [`daemon`] — the `wfd` multi-tenant session daemon: a Unix-socket
//!   API over a state root with one supervised thread and store per
//!   session;
//! * [`signal`] — the cooperative SIGINT/SIGTERM flag drive loops check
//!   at wave boundaries so interrupts never tear the ledger;
//! * [`epoch`] — continuous specialization: drifting workloads
//!   ([`wf_ossim::DriftSchedule`]) measured per candidate, deployed-
//!   reference telemetry fed to a `wf_drift` detector, and epoch-based
//!   re-specialization on confirmed drift ([`Session::enable_drift`]).

pub mod backend;
pub mod cache;
pub mod clock;
pub mod daemon;
pub mod epoch;
pub mod events;
pub mod history;
pub mod metrics;
pub mod pipeline;
pub mod prober;
pub mod remote;
pub mod router;
pub mod signal;
pub mod store;
pub mod sync;
pub mod target;
pub mod workers;

pub use backend::{EvalBackend, InProcessBackend, LaneError, WorkItem, WorkResult};
pub use cache::ImageCache;
pub use clock::VirtualClock;
pub use daemon::{
    Daemon, SessionControl, SessionEntry, SessionLauncher, SessionStatus, SocketSink,
};
pub use epoch::DriftConfig;
pub use events::{EventSink, NullSink, RecordingSink, SessionEvent, Tee};
pub use history::{History, Record};
pub use metrics::{
    mean_occupancy, min_max_normalize, rolling_crash_rate, throughput_memory_score, Series,
    WaveStats,
};
pub use pipeline::{default_workers, Objective, ReplayError, Session, SessionSpec, SessionSummary};
pub use prober::{probe_runtime_space, ProbeReport};
pub use remote::{serve, RemoteBackend, RemoteSpec};
pub use router::{dispatch_wave, LaneStats, Router, RoutingStrategy};
pub use store::{JsonlSink, SessionStore, StoreError, StoredDrift, StoredEpoch, StoredSession};
pub use sync::lock_recover;
pub use target::{EvalTarget, SimTarget, TargetDescriptor};
pub use workers::derive_seed;
