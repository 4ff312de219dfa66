//! The exploration history: everything the platform records about every
//! evaluated configuration, and the summary statistics the paper's tables
//! derive from it.

use wf_configspace::Configuration;
use wf_jobfile::Direction;
use wf_ossim::Phase;
use wf_search::Observation;

/// One completed pipeline iteration: exactly one `candidate` row of the
/// store's ledger. Every field is a deterministic function of the job,
/// so two runs of one job store identical rows; host measurements stay
/// on the live session ([`crate::pipeline::Session::algo_seconds`]).
#[derive(Clone, Debug)]
pub struct Record {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// The evaluated configuration.
    pub config: Configuration,
    /// The objective value (None on crash).
    pub objective: Option<f64>,
    /// The raw primary metric (None on crash).
    pub metric: Option<f64>,
    /// Resident memory in MB (None on crash before measurement).
    pub memory_mb: Option<f64>,
    /// Crash phase, if the configuration failed.
    pub crash_phase: Option<Phase>,
    /// Whether the build was skipped via the image cache (§3.1).
    pub build_skipped: bool,
    /// Virtual seconds this evaluation cost.
    pub duration_s: f64,
    /// Virtual time when the evaluation *finished*.
    pub finished_at_s: f64,
    /// The search algorithm's reported live memory after the wave that
    /// evaluated this record ([`wf_search::AlgoStats::memory_bytes`];
    /// deterministic, so replay re-derives it).
    pub algo_memory_bytes: usize,
}

impl Record {
    /// Whether the configuration crashed.
    pub fn crashed(&self) -> bool {
        self.crash_phase.is_some()
    }

    /// The search-algorithm view of this record.
    pub fn observation(&self) -> Observation {
        Observation {
            config: self.config.clone(),
            value: self.objective,
            crashed: self.crashed(),
            duration_s: self.duration_s,
        }
    }
}

/// The full session history.
#[derive(Clone, Debug, Default)]
pub struct History {
    records: Vec<Record>,
    /// The algorithm-facing view of `records`, maintained at push so the
    /// per-wave hot path borrows it instead of re-cloning every
    /// configuration in the history (which is O(n) per wave and grows
    /// with the campaign).
    observations: Vec<Observation>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: Record) {
        self.observations.push(record.observation());
        self.records.push(record);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no iterations have run.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The best record under `direction` (by objective).
    pub fn best(&self, direction: Direction) -> Option<&Record> {
        best(&self.records, direction)
    }

    /// Overall crash rate.
    pub fn crash_rate(&self) -> f64 {
        crash_rate(&self.records)
    }

    /// Mean virtual time between successive improvements of the
    /// best-so-far objective; see [`mean_improvement_interval_s`].
    pub fn mean_improvement_interval_s(&self, direction: Direction) -> Option<f64> {
        mean_improvement_interval_s(&self.records, direction)
    }

    /// The observations slice algorithms receive (maintained at push;
    /// element `i` is `records()[i].observation()`).
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }
}

/// The best of `records` under `direction` (by objective).
pub fn best(records: &[Record], direction: Direction) -> Option<&Record> {
    records
        .iter()
        .filter_map(|r| Some((r, r.objective?)))
        .max_by(|(_, x), (_, y)| {
            let order = match direction {
                Direction::Maximize => x.partial_cmp(y),
                Direction::Minimize => y.partial_cmp(x),
            };
            order.expect("objectives are never NaN")
        })
        .map(|(r, _)| r)
}

/// The share of `records` that crashed (0 for none).
pub fn crash_rate(records: &[Record]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().filter(|r| r.crashed()).count() as f64 / records.len() as f64
}

/// Mean virtual time between successive improvements of the best-so-far
/// objective over `records` — the "Avg. time to find" column of Table 2
/// (see DESIGN.md §4 for why this interpretation). `None` with fewer
/// than two improvements.
pub fn mean_improvement_interval_s(records: &[Record], direction: Direction) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut improvement_times = Vec::new();
    for r in records {
        let Some(v) = r.objective else { continue };
        let improved = match (best, direction) {
            (None, _) => true,
            (Some(b), Direction::Maximize) => v > b,
            (Some(b), Direction::Minimize) => v < b,
        };
        if improved {
            best = Some(v);
            improvement_times.push(r.finished_at_s);
        }
    }
    if improvement_times.len() < 2 {
        return None;
    }
    let span = improvement_times[improvement_times.len() - 1] - improvement_times[0];
    Some(span / (improvement_times.len() - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_configspace::{ConfigSpace, ParamKind, ParamSpec, Stage};

    fn record(i: usize, objective: Option<f64>, at: f64) -> Record {
        let mut s = ConfigSpace::new();
        s.add(ParamSpec::new("x", ParamKind::Bool, Stage::Runtime));
        Record {
            iteration: i,
            config: s.default_config(),
            objective,
            metric: objective,
            memory_mb: Some(100.0),
            crash_phase: objective.is_none().then_some(Phase::Run),
            build_skipped: true,
            duration_s: 60.0,
            finished_at_s: at,
            algo_memory_bytes: 1000,
        }
    }

    #[test]
    fn best_respects_direction() {
        let mut h = History::new();
        h.push(record(0, Some(10.0), 60.0));
        h.push(record(1, Some(30.0), 120.0));
        h.push(record(2, None, 150.0));
        h.push(record(3, Some(20.0), 210.0));
        assert_eq!(h.best(Direction::Maximize).unwrap().iteration, 1);
        assert_eq!(h.best(Direction::Minimize).unwrap().iteration, 0);
    }

    #[test]
    fn crash_rate_counts_failures() {
        let mut h = History::new();
        h.push(record(0, Some(1.0), 60.0));
        h.push(record(1, None, 90.0));
        assert!((h.crash_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_interval() {
        let mut h = History::new();
        // Improvements at t = 60 (first), 120, 300 -> intervals 60, 180.
        h.push(record(0, Some(10.0), 60.0));
        h.push(record(1, Some(20.0), 120.0));
        h.push(record(2, Some(15.0), 200.0));
        h.push(record(3, Some(25.0), 300.0));
        let avg = h.mean_improvement_interval_s(Direction::Maximize).unwrap();
        assert!((avg - 120.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_interval_needs_two_improvements() {
        let mut h = History::new();
        h.push(record(0, Some(10.0), 60.0));
        assert!(h.mean_improvement_interval_s(Direction::Maximize).is_none());
    }

    // Boundary cases the store replay path leans on: empty, all-crash,
    // and single-record histories must answer every summary query
    // without panicking or lying.

    #[test]
    fn empty_history_boundaries() {
        let h = History::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert!(h.best(Direction::Maximize).is_none());
        assert!(h.best(Direction::Minimize).is_none());
        assert_eq!(h.crash_rate(), 0.0, "no runs, no crashes");
        assert!(h.mean_improvement_interval_s(Direction::Maximize).is_none());
        assert!(h.observations().is_empty());
    }

    #[test]
    fn all_crash_history_boundaries() {
        let mut h = History::new();
        for i in 0..4 {
            h.push(record(i, None, 60.0 * (i + 1) as f64));
        }
        assert!(
            h.best(Direction::Maximize).is_none(),
            "no survivor, no best"
        );
        assert!(h.best(Direction::Minimize).is_none());
        assert_eq!(h.crash_rate(), 1.0);
        assert!(
            h.mean_improvement_interval_s(Direction::Minimize).is_none(),
            "crashes never improve the best"
        );
        assert!(h
            .observations()
            .iter()
            .all(|o| o.crashed && o.value.is_none()));
    }

    #[test]
    fn single_record_history_boundaries() {
        let mut h = History::new();
        h.push(record(0, Some(42.0), 60.0));
        assert_eq!(h.len(), 1);
        assert_eq!(h.best(Direction::Maximize).unwrap().iteration, 0);
        assert_eq!(h.best(Direction::Minimize).unwrap().iteration, 0);
        assert_eq!(h.crash_rate(), 0.0);
        // One improvement (the first success) is not an interval yet.
        assert!(h.mean_improvement_interval_s(Direction::Maximize).is_none());

        // ... and a single *crashed* record.
        let mut c = History::new();
        c.push(record(0, None, 60.0));
        assert!(c.best(Direction::Maximize).is_none());
        assert_eq!(c.crash_rate(), 1.0);
        assert!(c.mean_improvement_interval_s(Direction::Maximize).is_none());
    }
}
