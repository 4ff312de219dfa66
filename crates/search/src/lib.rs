//! `wf-search`: the pluggable search-algorithm API and the paper's
//! baseline algorithms (§3.1, §2.3).
//!
//! * [`api`] — the [`SearchAlgorithm`] trait (batch ask/tell:
//!   `propose_batch`/`observe_batch`, whose one-candidate case is
//!   `propose`/`observe`), observations, contexts, sampling policies, and
//!   per-iteration cost statistics;
//! * [`random`] — the random-search baseline;
//! * [`grid`] — systematic coordinate sweeps;
//! * [`bayes`] — Gaussian-process Bayesian optimization (RBF kernel,
//!   packed Cholesky, expected improvement). The default extends the
//!   factor by the new rows at every wave boundary
//!   (O(n²) per row), refitting from scratch only when the matrix needs
//!   jitter, and scores proposal pools with one batched matrix-level
//!   triangular solve; the from-scratch O(n³)-per-observe profile the
//!   paper critiques (Fig. 9) survives behind `BayesOpt::with_full_refit`,
//!   bit-identical by proof;
//! * [`causal`] — a Unicorn-style PC-algorithm causal search. The default
//!   folds column statistics at ingest and persists the skeleton's
//!   adjacency/sepset state across waves; the recompute-everything cost
//!   profile that reproduces Fig. 7 survives behind
//!   `CausalSearch::with_scratch_stats`, bit-identical by proof;
//! * [`memtrack`] — explicit byte accounting (the `tracemalloc`
//!   substitute).
//!
//! DeepTune itself lives in `wf-deeptune` and implements the same trait.

pub mod api;
pub mod bayes;
pub mod causal;
pub mod grid;
pub mod host_clock;
pub mod memtrack;
pub mod random;

pub use api::{
    fill_distinct, AlgoStats, Observation, SamplePolicy, SearchAlgorithm, SearchContext,
};
pub use bayes::BayesOpt;
pub use causal::CausalSearch;
pub use grid::GridSearch;
pub use memtrack::MemTracker;
pub use random::RandomSearch;
