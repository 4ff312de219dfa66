//! Drifting workloads: phase schedules over the SimOs response surface.
//!
//! Continuous specialization needs workloads that *change* — and a
//! ground truth that says what the best configuration is after each
//! change. A [`DriftSchedule`] is a piecewise-constant sequence of
//! [`WorkloadPhase`]s over virtual time: each phase is a full [`App`]
//! (its own performance model), so a shift both moves the response
//! surface's optimum and changes the observable level of the deployed
//! configuration's telemetry (which is what a drift detector sees).
//!
//! Three scenario families ship, mirroring ROADMAP item 3:
//!
//! * **step change** — one permanent shift at `shift_at_s`;
//! * **diurnal ramp** — a repeating base → busy → peak cycle;
//! * **flash crowd** — a transient overload that arrives and subsides.
//!
//! All phases derive from a base application via [`shifted_workload`],
//! which (a) scales the baseline metric so the shift is *detectable* and
//! (b) adds interior-optimum effect curves on top of the base model so
//! the post-shift optimum genuinely *moves* — re-specialization has
//! something to find. Everything is deterministic: schedules own no RNG;
//! callers pass per-sample seeded streams exactly as for a static
//! [`SimOs`] benchmark.

use crate::apps::{App, MetricDirection};
use crate::curve::Curve;
use crate::machine::Machine;
use crate::sim::SimOs;
use rand::Rng;
use wf_configspace::NamedConfig;

/// The built-in scenario families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftScenario {
    /// One permanent workload shift.
    Step,
    /// A repeating base → busy → peak traffic cycle.
    Diurnal,
    /// A transient overload: steady → flash → steady.
    FlashCrowd,
}

impl DriftScenario {
    /// Job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            DriftScenario::Step => "step",
            DriftScenario::Diurnal => "diurnal",
            DriftScenario::FlashCrowd => "flash-crowd",
        }
    }

    /// Parses a job-file keyword.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "step" => Some(DriftScenario::Step),
            "diurnal" => Some(DriftScenario::Diurnal),
            "flash-crowd" => Some(DriftScenario::FlashCrowd),
            _ => None,
        }
    }
}

/// One constant-workload segment of a schedule.
#[derive(Clone, Debug)]
pub struct WorkloadPhase {
    /// Phase name for reports (e.g. `peak`).
    pub name: String,
    /// Virtual time (within the cycle) the phase begins at.
    pub starts_at_s: f64,
    /// The workload during this phase.
    pub app: App,
}

/// A piecewise-constant workload over virtual time.
#[derive(Clone, Debug)]
pub struct DriftSchedule {
    name: String,
    phases: Vec<WorkloadPhase>,
    /// Cyclic schedules (diurnal) wrap with this period.
    period_s: Option<f64>,
    machine: Machine,
    defaults: NamedConfig,
}

impl DriftSchedule {
    /// Builds a schedule from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, unsorted, does not start at 0, or a
    /// cyclic period does not cover every phase start.
    pub fn new(
        name: impl Into<String>,
        phases: Vec<WorkloadPhase>,
        period_s: Option<f64>,
        machine: Machine,
        defaults: NamedConfig,
    ) -> Self {
        assert!(!phases.is_empty(), "schedule needs at least one phase");
        assert_eq!(phases[0].starts_at_s, 0.0, "first phase must start at 0");
        assert!(
            phases
                .windows(2)
                .all(|w| w[0].starts_at_s < w[1].starts_at_s),
            "phases must be strictly sorted by start time"
        );
        if let Some(p) = period_s {
            assert!(
                phases.iter().all(|ph| ph.starts_at_s < p),
                "every phase must start within the period"
            );
        }
        Self {
            name: name.into(),
            phases,
            period_s,
            machine,
            defaults,
        }
    }

    /// A built-in scenario over `app` on `os`'s machine and defaults.
    ///
    /// `shift_at_s` is the scenario's characteristic time: the shift
    /// instant (step), the per-stage dwell of the cycle (diurnal), or
    /// the crowd's arrival time and duration (flash crowd).
    pub fn scenario(kind: DriftScenario, os: &SimOs, app: &App, shift_at_s: f64) -> Self {
        assert!(shift_at_s > 0.0, "shift_at_s must be positive");
        let phase = |name: &str, at: f64, app: App| WorkloadPhase {
            name: name.into(),
            starts_at_s: at,
            app,
        };
        let (name, phases, period) = match kind {
            DriftScenario::Step => (
                "step",
                vec![
                    phase("steady", 0.0, app.clone()),
                    phase("shifted", shift_at_s, shifted_workload(app, 1.0)),
                ],
                None,
            ),
            DriftScenario::Diurnal => (
                "diurnal",
                vec![
                    phase("night", 0.0, app.clone()),
                    phase("day", shift_at_s, shifted_workload(app, 0.55)),
                    phase("peak", 2.0 * shift_at_s, shifted_workload(app, 1.0)),
                ],
                Some(3.0 * shift_at_s),
            ),
            DriftScenario::FlashCrowd => (
                "flash-crowd",
                vec![
                    phase("steady", 0.0, app.clone()),
                    phase("flash", shift_at_s, flash_workload(app)),
                    phase("recovered", 2.0 * shift_at_s, app.clone()),
                ],
                None,
            ),
        };
        Self::new(
            name,
            phases,
            period,
            os.machine.clone(),
            os.defaults_view.clone(),
        )
    }

    /// Scenario name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phases, in start order.
    pub fn phases(&self) -> &[WorkloadPhase] {
        &self.phases
    }

    /// The cycle period, if the schedule repeats.
    pub fn period_s(&self) -> Option<f64> {
        self.period_s
    }

    /// The default view phase oracles are computed against.
    pub fn defaults(&self) -> &NamedConfig {
        &self.defaults
    }

    /// Index of the phase active at virtual time `t_s`.
    pub fn phase_index_at(&self, t_s: f64) -> usize {
        let t = match self.period_s {
            Some(p) => t_s.rem_euclid(p),
            None => t_s,
        };
        self.phases
            .iter()
            .rposition(|ph| ph.starts_at_s <= t)
            .unwrap_or(0)
    }

    /// The phase active at virtual time `t_s`.
    pub fn phase_at(&self, t_s: f64) -> &WorkloadPhase {
        &self.phases[self.phase_index_at(t_s)]
    }

    /// One noisy metric measurement of `view` at virtual time `t_s`,
    /// under the phase active then. Same contract as [`App::measure`].
    pub fn measure_at(&self, t_s: f64, view: &NamedConfig, rng: &mut impl Rng) -> f64 {
        self.phase_at(t_s)
            .app
            .measure(view, &self.defaults, &self.machine, rng)
    }

    /// Ground-truth oracle for a phase: the mean metric of the best
    /// configuration the phase's model admits (coordinate-wise
    /// [`crate::PerfModel::headroom_bound`] — an upper bound that search
    /// approaches but, under interactions and noise, rarely attains).
    pub fn oracle_metric(&self, phase: usize) -> f64 {
        let app = &self.phases[phase].app;
        let bound = app.perf.headroom_bound(&self.defaults);
        let hw = app.hw_factor(&self.machine);
        match app.direction {
            MetricDirection::HigherBetter => app.base * bound * hw,
            MetricDirection::LowerBetter => app.base / (bound * hw),
        }
    }

    /// The oracle for the phase active at `t_s`.
    pub fn oracle_metric_at(&self, t_s: f64) -> f64 {
        self.oracle_metric(self.phase_index_at(t_s))
    }

    /// Mean (noise-free) metric of `view` at `t_s` — the deterministic
    /// level a drift detector's baseline converges to.
    pub fn mean_metric_at(&self, t_s: f64, view: &NamedConfig) -> f64 {
        let app = &self.phase_at(t_s).app;
        let factor = app.perf.mean_factor(view, &self.defaults);
        let hw = app.hw_factor(&self.machine);
        match app.direction {
            MetricDirection::HigherBetter => app.base * factor * hw,
            MetricDirection::LowerBetter => app.base / (factor * hw),
        }
    }
}

/// Derives a shifted variant of `app`: the workload mix changes.
///
/// `severity` in `[0, 1]` controls both how far the baseline level moves
/// (so detectors see the shift) and how strongly the response surface is
/// re-shaped. The reshaping adds interior-optimum curves *on top of* the
/// base model for a handful of high-leverage runtime parameters — the
/// product of old and new curves moves each parameter's optimum, so the
/// configuration that was best before the shift is measurably stale
/// after it. Curves are normalized at the defaults by
/// [`crate::PerfModel::mean_factor`], so the *default* configuration
/// only sees the baseline scale change.
pub fn shifted_workload(app: &App, severity: f64) -> App {
    assert!((0.0..=1.0).contains(&severity), "severity in [0,1]");
    let mut out = app.clone();
    // Load change: throughput drops / latency rises with the new mix.
    match out.direction {
        MetricDirection::HigherBetter => out.base *= 1.0 - 0.35 * severity,
        MetricDirection::LowerBetter => out.base *= 1.0 + 0.55 * severity,
    }
    let perf = out.perf.clone();
    out.perf = perf
        // Small objects now: the huge receive buffers that paid off
        // before thrash the cache under the new mix.
        .effect(
            "net.core.rmem_default",
            Curve::OptimumLog {
                best: 65_536.0,
                width: 0.8,
                gain: 0.05 * severity,
            },
        )
        // Short bursty connections: moderate backlogs win.
        .effect(
            "net.core.somaxconn",
            Curve::OptimumLog {
                best: 1_024.0,
                width: 0.9,
                gain: 0.04 * severity,
            },
        )
        .effect(
            "net.core.netdev_max_backlog",
            Curve::OptimumLog {
                best: 4_096.0,
                width: 0.9,
                gain: 0.035 * severity,
            },
        )
        // Latency-sensitive mix rewards finer scheduling granularity.
        .effect(
            "kernel.sched_min_granularity_ns",
            Curve::OptimumLog {
                best: 500_000.0,
                width: 0.8,
                gain: 0.03 * severity,
            },
        );
    out
}

/// The flash-crowd phase: a severity-1 mix shift plus a deeper load hit.
fn flash_workload(app: &App) -> App {
    let mut out = shifted_workload(app, 1.0);
    match out.direction {
        MetricDirection::HigherBetter => out.base *= 0.75,
        MetricDirection::LowerBetter => out.base *= 1.35,
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_configspace::Value;
    use wf_kconfig::LinuxVersion;

    fn os() -> SimOs {
        SimOs::linux_runtime(LinuxVersion::V4_19, 56)
    }

    #[test]
    fn step_schedule_switches_phase_once() {
        let os = os();
        let s = DriftSchedule::scenario(DriftScenario::Step, &os, &App::nginx(), 1000.0);
        assert_eq!(s.phase_index_at(0.0), 0);
        assert_eq!(s.phase_index_at(999.9), 0);
        assert_eq!(s.phase_index_at(1000.0), 1);
        assert_eq!(s.phase_index_at(1e9), 1);
    }

    #[test]
    fn diurnal_schedule_wraps() {
        let os = os();
        let s = DriftSchedule::scenario(DriftScenario::Diurnal, &os, &App::nginx(), 100.0);
        assert_eq!(s.phase_index_at(0.0), 0);
        assert_eq!(s.phase_index_at(150.0), 1);
        assert_eq!(s.phase_index_at(250.0), 2);
        // Wraps back to night after one period.
        assert_eq!(s.phase_index_at(310.0), 0);
        assert_eq!(s.phase_index_at(160.0 + 300.0), 1);
    }

    #[test]
    fn flash_crowd_recovers() {
        let os = os();
        let s = DriftSchedule::scenario(DriftScenario::FlashCrowd, &os, &App::nginx(), 100.0);
        assert_eq!(s.phase_index_at(50.0), 0);
        assert_eq!(s.phase_index_at(150.0), 1);
        assert_eq!(s.phase_index_at(250.0), 2);
        // The recovered phase is the original workload again.
        let before = s.mean_metric_at(50.0, &NamedConfig::empty());
        let after = s.mean_metric_at(250.0, &NamedConfig::empty());
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn default_config_sees_only_the_level_shift() {
        let os = os();
        let s = DriftSchedule::scenario(DriftScenario::Step, &os, &App::nginx(), 1000.0);
        let d = NamedConfig::empty();
        let before = s.mean_metric_at(0.0, &d);
        let after = s.mean_metric_at(2000.0, &d);
        // base scaled by 0.65 at severity 1; added curves are normalized
        // out at the defaults.
        assert!(
            (after / before - 0.65).abs() < 1e-9,
            "before={before} after={after}"
        );
    }

    #[test]
    fn the_shift_moves_the_optimum_not_just_the_level() {
        let os = os();
        let s = DriftSchedule::scenario(DriftScenario::Step, &os, &App::nginx(), 1000.0);
        // A big-buffer config that the pre-shift nginx model loves.
        let mut big = NamedConfig::empty();
        big.set("net.core.rmem_default", Value::Int(4_194_304));
        let d = NamedConfig::empty();
        let pre_gain = s.mean_metric_at(0.0, &big) / s.mean_metric_at(0.0, &d);
        let post_gain = s.mean_metric_at(2000.0, &big) / s.mean_metric_at(2000.0, &d);
        assert!(pre_gain > 1.0, "pre_gain={pre_gain}");
        assert!(
            post_gain < pre_gain,
            "shift should penalize the stale optimum: pre={pre_gain} post={post_gain}"
        );
    }

    #[test]
    fn oracle_tracks_the_phase() {
        let os = os();
        let s = DriftSchedule::scenario(DriftScenario::Step, &os, &App::nginx(), 1000.0);
        let o0 = s.oracle_metric(0);
        let o1 = s.oracle_metric(1);
        assert!(o0 > 0.0 && o1 > 0.0);
        // The shifted phase's oracle is lower (throughput app, heavier
        // load) but above its own default level.
        assert!(o1 < o0, "o0={o0} o1={o1}");
        assert!(o1 > s.mean_metric_at(2000.0, &NamedConfig::empty()));
        assert_eq!(s.oracle_metric_at(500.0).to_bits(), o0.to_bits());
        assert_eq!(s.oracle_metric_at(1500.0).to_bits(), o1.to_bits());
    }

    #[test]
    fn measure_at_is_deterministic_per_rng_stream() {
        let os = os();
        let s = DriftSchedule::scenario(DriftScenario::Diurnal, &os, &App::redis(), 300.0);
        let v = NamedConfig::empty();
        let a = s.measure_at(450.0, &v, &mut StdRng::seed_from_u64(7));
        let b = s.measure_at(450.0, &v, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn shifted_workload_severity_zero_keeps_the_level() {
        let app = App::nginx();
        let v = shifted_workload(&app, 0.0);
        assert_eq!(v.base, app.base);
    }

    #[test]
    fn by_id_apps_all_take_scenarios() {
        let os = os();
        for id in AppId::ALL {
            let app = App::by_id(id);
            for kind in [
                DriftScenario::Step,
                DriftScenario::Diurnal,
                DriftScenario::FlashCrowd,
            ] {
                let s = DriftSchedule::scenario(kind, &os, &app, 500.0);
                assert!(s.oracle_metric(0).is_finite());
                assert!(s.phases().len() >= 2);
            }
        }
    }
}
