//! `wayfinder-core`: the public API and the per-figure experiment
//! runners.
//!
//! * [`session`] — [`SessionBuilder`]: pick an OS target, application,
//!   algorithm, and budget; run (optionally streaming
//!   [`wf_platform::SessionEvent`]s through a sink or the
//!   [`SpecializationSession::drive`] iterator); persist to a
//!   [`wf_platform::SessionStore`] and resume deterministically with
//!   [`SessionBuilder::resume`]; extract transfer checkpoints and
//!   importance analyses;
//! * [`targets`] — the open [`TargetRegistry`]: `os:` keywords resolve to
//!   [`targets::TargetFactory`]s, the five paper targets ship
//!   pre-registered, and downstream crates register new scenarios without
//!   touching the core loop;
//! * [`daemon_host`] — glue hosting the `wfd` multi-tenant daemon:
//!   [`RegistryLauncher`] builds and drives one stored session per
//!   submitted job on the daemon's session threads;
//! * [`scale`] — full (paper-sized) vs reduced experiment budgets;
//! * [`experiments`] — one runner per table/figure of the evaluation
//!   (see DESIGN.md §3 for the index);
//! * [`report`] — plain-text tables and series for the regeneration
//!   binaries.
//!
//! # Examples
//!
//! ```
//! use wayfinder_core::prelude::*;
//!
//! let mut session = SessionBuilder::new()
//!     .os(OsFlavor::Linux419)
//!     .app(AppId::Nginx)
//!     .algorithm(AlgorithmChoice::DeepTune)
//!     .runtime_params(56)
//!     .iterations(6)
//!     .seed(7)
//!     .build()
//!     .expect("valid session");
//! let outcome = session.run();
//! assert!(outcome.best.is_some());
//! ```

pub mod daemon_host;
pub mod experiments;
pub mod report;
pub mod scale;
pub mod session;
pub mod targets;

pub use daemon_host::{bind_daemon, serve_daemon, RegistryLauncher, ServeError};
pub use report::{store_report, trajectory_table, wave_stats_table, Table};
pub use scale::Scale;
pub use session::{
    target_from_job, AlgorithmChoice, BuildError, Drive, OsFlavor, Outcome, ResumeError,
    SessionBuilder, SpecializationSession,
};
pub use targets::{TargetFactory, TargetInstance, TargetRegistry, TargetRequest};

/// Convenient re-exports for application code and the examples.
pub mod prelude {
    pub use crate::report::Table;
    pub use crate::scale::Scale;
    pub use crate::session::{
        AlgorithmChoice, BuildError, Drive, OsFlavor, Outcome, ResumeError, SessionBuilder,
        SpecializationSession,
    };
    pub use crate::targets::{TargetFactory, TargetInstance, TargetRegistry, TargetRequest};
    pub use wf_jobfile::{DetectorId, Direction, DriftScenarioId, DriftSpec, Job, Mode};
    pub use wf_ossim::{AppId, DriftScenario, DriftSchedule};
    pub use wf_platform::{
        EvalTarget, EventSink, NullSink, Objective, RecordingSink, SessionEvent, SessionStore,
        SimTarget, StoredSession, TargetDescriptor, Tee,
    };
}
