//! Metric post-processing: smoothing, normalization, the Eq. 4 score,
//! per-wave scheduling metrics, and the series shapes the paper's figures
//! plot.

/// Scheduling metrics for one evaluation wave of the multi-worker
/// pipeline: how full the pool ran, what the wave cost in virtual wall
/// time vs summed compute, and how the session's image cache behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WaveStats {
    /// Zero-based wave index.
    pub wave: usize,
    /// Candidates evaluated in this wave.
    pub size: usize,
    /// Virtual wall seconds charged (the slowest worker lane).
    pub wall_s: f64,
    /// Summed per-candidate virtual seconds (total compute).
    pub busy_s: f64,
    /// Image-cache hits observed during the wave.
    pub cache_hits: u64,
    /// Image-cache misses observed during the wave.
    pub cache_misses: u64,
}

impl WaveStats {
    /// Fraction of the pool's capacity this wave used: summed compute
    /// over `workers × wall`. 1.0 means every worker was busy for the
    /// whole wave; a short straggler-free wave on a half-empty pool
    /// scores 0.5.
    pub fn occupancy(&self, workers: usize) -> f64 {
        if self.wall_s <= 0.0 || workers == 0 {
            return 1.0;
        }
        (self.busy_s / (workers as f64 * self.wall_s)).clamp(0.0, 1.0)
    }

    /// Cache hit rate over the wave's lookups (0.0 when none happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Mean pool occupancy over a session's waves (1.0 for an empty list, the
/// vacuous case: nothing ever idled).
pub fn mean_occupancy(waves: &[WaveStats], workers: usize) -> f64 {
    if waves.is_empty() {
        return 1.0;
    }
    waves.iter().map(|w| w.occupancy(workers)).sum::<f64>() / waves.len() as f64
}

/// A time series of (virtual seconds, value) points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// X-axis: virtual seconds.
    pub t: Vec<f64>,
    /// Y-axis values.
    pub y: Vec<f64>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not non-decreasing.
    pub fn push(&mut self, t: f64, y: f64) {
        if let Some(last) = self.t.last() {
            assert!(t >= *last, "time must be non-decreasing");
        }
        self.t.push(t);
        self.y.push(y);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Centered moving average with the given window ("results ...
    /// smoothed for readability", Fig. 6/9/10/11).
    pub fn smoothed(&self, window: usize) -> Series {
        let w = window.max(1);
        let n = self.y.len();
        let mut out = Series::new();
        for i in 0..n {
            let lo = i.saturating_sub(w / 2);
            let hi = (i + w.div_ceil(2)).min(n);
            let mean = self.y[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            out.push(self.t[i], mean);
        }
        out
    }

    /// Best-so-far transform: `y[i] := best(y[..=i])`.
    pub fn best_so_far(&self, higher_is_better: bool) -> Series {
        let mut out = Series::new();
        let mut best = if higher_is_better { f64::MIN } else { f64::MAX };
        for (t, y) in self.t.iter().zip(self.y.iter()) {
            best = if higher_is_better {
                best.max(*y)
            } else {
                best.min(*y)
            };
            out.push(*t, best);
        }
        out
    }

    /// Resamples onto `k` evenly spaced time points (step interpolation),
    /// so multiple runs can be averaged into one curve.
    pub fn resample(&self, t_end: f64, k: usize) -> Series {
        assert!(k >= 2 && t_end > 0.0);
        let mut out = Series::new();
        let mut j = 0;
        let mut last = self.y.first().copied().unwrap_or(0.0);
        for i in 0..k {
            let t = t_end * i as f64 / (k - 1) as f64;
            while j < self.len() && self.t[j] <= t {
                last = self.y[j];
                j += 1;
            }
            out.push(t, last);
        }
        out
    }

    /// Pointwise mean of equally sampled series ("results of 5 runs").
    ///
    /// # Panics
    ///
    /// Panics if the series have different lengths or time axes.
    pub fn mean_of(series: &[Series]) -> Series {
        assert!(!series.is_empty());
        let n = series[0].len();
        for s in series {
            assert_eq!(s.len(), n, "series lengths differ");
        }
        let mut out = Series::new();
        for i in 0..n {
            let t = series[0].t[i];
            for s in series {
                assert!((s.t[i] - t).abs() < 1e-9, "time axes differ");
            }
            let mean = series.iter().map(|s| s.y[i]).sum::<f64>() / series.len() as f64;
            out.push(t, mean);
        }
        out
    }
}

/// Rolling crash-rate series: fraction of crashes in a trailing window
/// (the dashed lines of Fig. 6).
pub fn rolling_crash_rate(t: &[f64], crashed: &[bool], window: usize) -> Series {
    assert_eq!(t.len(), crashed.len());
    let w = window.max(1);
    let mut out = Series::new();
    for i in 0..t.len() {
        let lo = i.saturating_sub(w - 1);
        let c = crashed[lo..=i].iter().filter(|x| **x).count();
        out.push(t[i], c as f64 / (i - lo + 1) as f64);
    }
    out
}

/// Min–max normalization to [0, 1]; constant slices map to 0.5.
pub fn min_max_normalize(values: &[f64]) -> Vec<f64> {
    let (lo, hi) = bounds(values);
    if (hi - lo).abs() < 1e-12 {
        return vec![0.5; values.len()];
    }
    values.iter().map(|v| (v - lo) / (hi - lo)).collect()
}

/// Eq. 4 of the paper: `s = mXNorm(t) − mXNorm(m)` — min–max normalized
/// throughput minus min–max normalized memory. Higher is better.
pub fn throughput_memory_score(throughput: &[f64], memory: &[f64]) -> Vec<f64> {
    assert_eq!(throughput.len(), memory.len());
    let tn = min_max_normalize(throughput);
    let mn = min_max_normalize(memory);
    tn.iter().zip(mn.iter()).map(|(t, m)| t - m).collect()
}

fn bounds(values: &[f64]) -> (f64, f64) {
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for v in values {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_averages_neighbors() {
        let mut s = Series::new();
        for (i, y) in [0.0, 10.0, 0.0, 10.0, 0.0].iter().enumerate() {
            s.push(i as f64, *y);
        }
        let sm = s.smoothed(3);
        assert!((sm.y[2] - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(sm.len(), 5);
    }

    #[test]
    fn best_so_far_directions() {
        let mut s = Series::new();
        for (i, y) in [5.0, 3.0, 8.0, 2.0].iter().enumerate() {
            s.push(i as f64, *y);
        }
        assert_eq!(s.best_so_far(true).y, vec![5.0, 5.0, 8.0, 8.0]);
        assert_eq!(s.best_so_far(false).y, vec![5.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn resample_steps_hold_last_value() {
        let mut s = Series::new();
        s.push(0.0, 1.0);
        s.push(10.0, 2.0);
        let r = s.resample(20.0, 5);
        assert_eq!(r.y, vec![1.0, 1.0, 2.0, 2.0, 2.0]);
        assert_eq!(r.t, vec![0.0, 5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    fn mean_of_aligned_series() {
        let mut a = Series::new();
        let mut b = Series::new();
        for i in 0..3 {
            a.push(i as f64, 1.0);
            b.push(i as f64, 3.0);
        }
        assert_eq!(Series::mean_of(&[a, b]).y, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn crash_rate_window() {
        let t = [0.0, 1.0, 2.0, 3.0];
        let crashed = [true, false, true, false];
        let s = rolling_crash_rate(&t, &crashed, 2);
        assert_eq!(s.y, vec![1.0, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn eq4_score_prefers_high_throughput_low_memory() {
        let t = [100.0, 200.0, 150.0];
        let m = [50.0, 80.0, 50.0];
        let s = throughput_memory_score(&t, &m);
        // The second config has top throughput but top memory too.
        assert!((s[1] - 0.0).abs() < 1e-12);
        // The third: mid throughput, min memory -> positive score.
        assert!(s[2] > 0.0 && s[2] > s[0]);
    }

    #[test]
    fn min_max_handles_constant_input() {
        assert_eq!(min_max_normalize(&[4.0, 4.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn wave_occupancy_and_hit_rate() {
        let w = WaveStats {
            wave: 0,
            size: 4,
            wall_s: 80.0,
            busy_s: 240.0,
            cache_hits: 3,
            cache_misses: 1,
        };
        // 240 busy seconds over 4 workers × 80 s wall = 0.75.
        assert!((w.occupancy(4) - 0.75).abs() < 1e-12);
        assert!((w.cache_hit_rate() - 0.75).abs() < 1e-12);
        // Degenerate waves are fully occupied by definition.
        assert_eq!(WaveStats::default().occupancy(4), 1.0);
        assert_eq!(WaveStats::default().cache_hit_rate(), 0.0);
        assert_eq!(mean_occupancy(&[], 4), 1.0);
        assert!((mean_occupancy(&[w, w], 4) - 0.75).abs() < 1e-12);
    }
}
