//! The open target abstraction: anything the pipeline can specialize.
//!
//! Wayfinder's exploration loop (§3.1) is generic over "a given
//! configuration space + an automated benchmarking pipeline": nothing in
//! the wave dispatch, image cache, or budget accounting cares *what* is
//! being built, booted, and benchmarked. [`EvalTarget`] captures exactly
//! that contract — the three pipeline phases plus a searchable
//! configuration space and a typed identity ([`TargetDescriptor`]) — so
//! new OSes, applications, and backends plug into [`crate::Session`]
//! without touching the core loop.
//!
//! [`SimTarget`] is the first implementation: the simulated OS substrate
//! (`wf_ossim::SimOs`) paired with a benchmark application
//! (`wf_ossim::App`). Downstream code implements the trait directly (a
//! remote build farm, a hardware testbed, a different simulator) or
//! composes `SimOs` building blocks into new scenarios.

use rand::RngCore;
use std::any::Any;
use wf_configspace::{ConfigSpace, Configuration};
use wf_ossim::{App, BenchResult, CrashReport, KernelImage, MetricDirection, SimOs};

/// The typed identity of a target: who is measured, with what, in which
/// unit, and which way is better. Reports, histories, and `wfctl` print
/// from this descriptor instead of guessing from internal types.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetDescriptor {
    /// Target name, e.g. `linux-4.19-runtime` or `unikraft-nginx`.
    pub name: String,
    /// Application label, e.g. `nginx`, `memcached`, or `boot-probe`.
    pub app: String,
    /// The driving benchmark tool (purple box in Fig. 3).
    pub bench_tool: String,
    /// Primary metric name, e.g. `throughput`, `latency`, `memory`.
    pub metric: String,
    /// Metric unit as printed in reports, e.g. `req/s`.
    pub unit: String,
    /// Whether larger metric values are better.
    pub direction: MetricDirection,
}

/// An evaluation target: a configuration space plus the three pipeline
/// phases (build → boot → bench) the core loop iterates.
///
/// Implementations must be deterministic *per RNG stream*: every virtual
/// draw comes from the `rng` handed in, never from ambient state, so the
/// platform's worker-count-invariance guarantee (see `pipeline`) holds
/// for any target. `Send + Sync` is required because a session, and the
/// shared target it holds, moves to the thread that hosts it (`wfd` runs
/// each session on its own thread).
///
/// # Examples
///
/// ```
/// use wf_kconfig::LinuxVersion;
/// use wf_ossim::{App, AppId, SimOs};
/// use wf_platform::{EvalTarget, SimTarget};
///
/// let target = SimTarget::new(
///     SimOs::linux_runtime(LinuxVersion::V4_19, 64),
///     App::by_id(AppId::Nginx),
/// );
/// assert_eq!(target.descriptor().app, "nginx");
/// assert_eq!(target.descriptor().metric, "throughput");
/// assert!(!target.space().is_empty());
/// ```
pub trait EvalTarget: Send + Sync {
    /// The target's typed identity.
    fn descriptor(&self) -> &TargetDescriptor;

    /// The searchable configuration space.
    fn space(&self) -> &ConfigSpace;

    /// Mutable access to the space (pins mark specs as fixed, §3.5).
    fn space_mut(&mut self) -> &mut ConfigSpace;

    /// Replaces the searched space with an explicit one (§3.1: job files
    /// "representing the configuration space of the target OS"). The
    /// target should fold the new specs' defaults into whatever
    /// ground-truth view it keeps, so effect normalization stays exact.
    fn install_space(&mut self, space: ConfigSpace);

    /// Fingerprint of the image a configuration needs; equal fingerprints
    /// share an image through the cache (§3.1's rebuild-skip).
    fn image_fingerprint(&self, config: &Configuration) -> u64;

    /// Builds (or reuses) the image for `config`. Returns the image or a
    /// build-phase crash, plus the virtual seconds spent. `reuse` is a
    /// cache hit with the same fingerprint; `prev` is the last
    /// configuration built in this worker's working tree (incremental
    /// rebuilds).
    fn build(
        &self,
        config: &Configuration,
        reuse: Option<&KernelImage>,
        prev: Option<&Configuration>,
        rng: &mut dyn RngCore,
    ) -> (Result<KernelImage, CrashReport>, f64);

    /// Boots an image and applies the configuration's runtime parameters.
    fn boot(
        &self,
        image: &KernelImage,
        config: &Configuration,
        rng: &mut dyn RngCore,
    ) -> (Result<(), CrashReport>, f64);

    /// Runs one benchmark repetition on a booted system.
    fn bench(
        &self,
        image: &KernelImage,
        config: &Configuration,
        rng: &mut dyn RngCore,
    ) -> (Result<BenchResult, CrashReport>, f64);

    /// Downcast support for ground-truth tooling (e.g. the Table 3
    /// prediction-accuracy runner samples held-out labels straight from a
    /// [`SimTarget`]'s models).
    fn as_any(&self) -> &dyn Any;
}

/// The simulated-testbed target: a [`SimOs`] paired with an [`App`].
///
/// This is the reference [`EvalTarget`]: the five paper targets are all
/// `SimTarget`s, and new simulated scenarios are built by composing a
/// `SimOs` (space, crash rules, timing) with an `App` (ground-truth
/// metric and memory models).
#[derive(Clone, Debug)]
pub struct SimTarget {
    os: SimOs,
    app: App,
    descriptor: TargetDescriptor,
}

impl SimTarget {
    /// Pairs an OS with an application. The descriptor snapshots the OS
    /// name and the app's metric metadata at construction.
    pub fn new(os: SimOs, app: App) -> SimTarget {
        let descriptor = TargetDescriptor {
            name: os.name.clone(),
            app: app.id.label().to_string(),
            bench_tool: app.bench_tool.to_string(),
            metric: app.metric_name.to_string(),
            unit: app.unit.to_string(),
            direction: app.direction,
        };
        SimTarget {
            os,
            app,
            descriptor,
        }
    }

    /// The simulated OS (ground truth: crash rules, timing, footprint).
    pub fn os(&self) -> &SimOs {
        &self.os
    }

    /// The application under test.
    pub fn app(&self) -> &App {
        &self.app
    }
}

impl EvalTarget for SimTarget {
    fn descriptor(&self) -> &TargetDescriptor {
        &self.descriptor
    }

    fn space(&self) -> &ConfigSpace {
        &self.os.space
    }

    fn space_mut(&mut self) -> &mut ConfigSpace {
        &mut self.os.space
    }

    fn install_space(&mut self, space: ConfigSpace) {
        // The explicit space's defaults join the ground-truth view so
        // effect normalization stays exact.
        for spec in space.specs() {
            self.os.defaults_view.set(spec.name.clone(), spec.default);
        }
        self.os.space = space;
    }

    fn image_fingerprint(&self, config: &Configuration) -> u64 {
        self.os.image_fingerprint(config)
    }

    fn build(
        &self,
        config: &Configuration,
        reuse: Option<&KernelImage>,
        prev: Option<&Configuration>,
        mut rng: &mut dyn RngCore,
    ) -> (Result<KernelImage, CrashReport>, f64) {
        self.os.build(config, reuse, prev, &mut rng)
    }

    fn boot(
        &self,
        image: &KernelImage,
        config: &Configuration,
        mut rng: &mut dyn RngCore,
    ) -> (Result<(), CrashReport>, f64) {
        self.os.boot(image, config, &mut rng)
    }

    fn bench(
        &self,
        image: &KernelImage,
        config: &Configuration,
        mut rng: &mut dyn RngCore,
    ) -> (Result<BenchResult, CrashReport>, f64) {
        self.os.bench(&self.app, image, config, &mut rng)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_kconfig::LinuxVersion;
    use wf_ossim::AppId;

    fn nginx_target() -> SimTarget {
        SimTarget::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 64),
            App::by_id(AppId::Nginx),
        )
    }

    #[test]
    fn descriptor_snapshots_identity() {
        let t = nginx_target();
        assert_eq!(t.descriptor().name, "linux-4.19-runtime");
        assert_eq!(t.descriptor().app, "nginx");
        assert_eq!(t.descriptor().bench_tool, "wrk");
        assert_eq!(t.descriptor().unit, "req/s");
        assert_eq!(t.descriptor().direction, MetricDirection::HigherBetter);
    }

    #[test]
    fn trait_phases_match_the_underlying_simulator() {
        let t = nginx_target();
        let cfg = t.space().default_config();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let (img_t, s_t) = t.build(&cfg, None, None, &mut a);
        let (img_os, s_os) = t.os().build(&cfg, None, None, &mut b);
        assert_eq!(img_t.as_ref().unwrap(), img_os.as_ref().unwrap());
        assert_eq!(s_t, s_os);
        let img = img_t.unwrap();
        let (r_t, _) = t.bench(&img, &cfg, &mut a);
        let (r_os, _) = t.os().bench(t.app(), &img, &cfg, &mut b);
        assert_eq!(r_t.unwrap(), r_os.unwrap());
    }

    #[test]
    fn install_space_replaces_and_registers_defaults() {
        let mut t = nginx_target();
        let mut space = ConfigSpace::new();
        space.add(
            wf_configspace::ParamSpec::new(
                "custom.knob",
                wf_configspace::ParamKind::int(0, 10),
                wf_configspace::Stage::Runtime,
            )
            .with_default(wf_configspace::Value::Int(5)),
        );
        t.install_space(space);
        assert_eq!(t.space().len(), 1);
        assert_eq!(
            t.os().defaults_view.get("custom.knob"),
            Some(wf_configspace::Value::Int(5))
        );
    }

    #[test]
    fn boot_probe_target_carries_its_own_identity() {
        let t = SimTarget::new(SimOs::linux_riscv_footprint(), App::boot_probe());
        assert_eq!(t.descriptor().app, "boot-probe");
        assert_eq!(t.descriptor().metric, "memory");
        assert_eq!(t.app().id, AppId::BootProbe);
    }
}
