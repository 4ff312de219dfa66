//! In-process evaluation runs on the thread that dispatches the wave:
//! lanes are virtual workers, and repetitions run one after the other.

use rand::RngCore;
use std::any::Any;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use wf_configspace::{ConfigSpace, Configuration};
use wf_kconfig::LinuxVersion;
use wf_ossim::{App, AppId, BenchResult, CrashReport, KernelImage, SimOs};
use wf_platform::{
    dispatch_wave, EvalTarget, ImageCache, InProcessBackend, Router, RoutingStrategy, SimTarget,
    TargetDescriptor,
};

/// A [`SimTarget`] that records the thread of every build, boot and bench.
struct ThreadRecorder {
    inner: SimTarget,
    threads: Mutex<Vec<ThreadId>>,
}

impl ThreadRecorder {
    fn record(&self) {
        self.threads.lock().unwrap().push(thread::current().id());
    }
}

impl EvalTarget for ThreadRecorder {
    fn descriptor(&self) -> &TargetDescriptor {
        self.inner.descriptor()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn space_mut(&mut self) -> &mut ConfigSpace {
        self.inner.space_mut()
    }

    fn install_space(&mut self, space: ConfigSpace) {
        self.inner.install_space(space)
    }

    fn image_fingerprint(&self, config: &Configuration) -> u64 {
        self.inner.image_fingerprint(config)
    }

    fn build(
        &self,
        config: &Configuration,
        reuse: Option<&KernelImage>,
        prev: Option<&Configuration>,
        rng: &mut dyn RngCore,
    ) -> (Result<KernelImage, CrashReport>, f64) {
        self.record();
        self.inner.build(config, reuse, prev, rng)
    }

    fn boot(
        &self,
        image: &KernelImage,
        config: &Configuration,
        rng: &mut dyn RngCore,
    ) -> (Result<(), CrashReport>, f64) {
        self.record();
        self.inner.boot(image, config, rng)
    }

    fn bench(
        &self,
        image: &KernelImage,
        config: &Configuration,
        rng: &mut dyn RngCore,
    ) -> (Result<BenchResult, CrashReport>, f64) {
        self.record();
        self.inner.bench(image, config, rng)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn a_wide_in_process_wave_runs_every_phase_on_the_dispatching_thread() {
    let recorder = Arc::new(ThreadRecorder {
        inner: SimTarget::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 56),
            App::by_id(AppId::Nginx),
        ),
        threads: Mutex::new(Vec::new()),
    });
    let target: Arc<dyn EvalTarget> = recorder.clone();
    let candidates = vec![target.space().default_config(); 4];
    let evals = dispatch_wave(
        &mut InProcessBackend::new(4),
        &mut Router::new(RoutingStrategy::RoundRobin, 4),
        &target,
        &candidates,
        0,
        9,
        0,
        3,
        &mut ImageCache::new(8),
        &mut vec![None; 4],
    );
    assert!(evals.iter().all(|e| e.outcome.is_ok()));
    // Four builds, four boots and three repetitions each.
    let threads = recorder.threads.lock().unwrap();
    assert_eq!(threads.len(), 4 + 4 + 4 * 3);
    assert!(threads.iter().all(|id| *id == thread::current().id()));
}
