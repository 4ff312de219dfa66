//! Plain-text table and series rendering for the experiment binaries.
//!
//! Every `wf-bench` regeneration binary prints the same rows/series the
//! paper's tables and figures report; these helpers keep that output
//! uniform and diff-friendly.

use wf_configspace::ConfigSpace;
use wf_platform::{history, Series, StoredSession, WaveStats};

/// A fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Renders a series as `t<TAB>y` lines with a labelled header, the format
/// the plotting scripts of artifact repositories typically consume.
pub fn render_series(label: &str, series: &Series) -> String {
    let mut out = format!("# series: {label} ({} points)\n", series.len());
    for (t, y) in series.t.iter().zip(series.y.iter()) {
        out.push_str(&format!("{t:.1}\t{y:.4}\n"));
    }
    out
}

/// Renders several series side by side at shared time points.
///
/// # Panics
///
/// Panics if the series have different lengths.
pub fn render_multi_series(labels: &[&str], series: &[Series]) -> String {
    assert_eq!(labels.len(), series.len());
    let n = series.first().map(Series::len).unwrap_or(0);
    for s in series {
        assert_eq!(s.len(), n, "series must be resampled to a shared axis");
    }
    let mut out = format!("# t\t{}\n", labels.join("\t"));
    for i in 0..n {
        out.push_str(&format!("{:.1}", series[0].t[i]));
        for s in series {
            out.push_str(&format!("\t{:.4}", s.y[i]));
        }
        out.push('\n');
    }
    out
}

/// Renders the full report of a loaded session store — entirely offline:
/// every line derives from the manifest and the persisted event log, so
/// `wfctl report DIR` re-evaluates nothing. `space` (when the caller can
/// rebuild it from the manifest) names the best configuration's
/// non-default parameters; without it the diff is printed positionally.
pub fn store_report(stored: &StoredSession, space: Option<&ConfigSpace>) -> String {
    let job = &stored.job;
    let mut out = String::new();
    out.push_str(&format!(
        "session {:?}: {} on {}\n",
        job.name,
        job.app.as_deref().unwrap_or("(default app)"),
        job.os,
    ));
    out.push_str(&format!(
        "algorithm {}, seed {}, {} worker(s), {} repetition(s)\n",
        job.algorithm.keyword(),
        job.seed,
        job.workers.unwrap_or(1),
        job.repetitions,
    ));
    out.push_str(&format!(
        "budget: {} iteration(s) / {} virtual second(s)\n",
        job.budget
            .iterations
            .map_or("unbounded".to_string(), |n| n.to_string()),
        job.budget
            .time_seconds
            .map_or("unbounded".to_string(), |s| format!("{s:.0}")),
    ));
    out.push_str(&format!(
        "status: {}, {} evaluation(s) in {} wave(s), {} checkpoint(s), {} dropped record(s)\n",
        if stored.finished {
            "finished"
        } else {
            "interrupted"
        },
        stored.records.len(),
        stored.wave_sizes.len(),
        stored.checkpoints,
        stored.dropped_records,
    ));

    let records = &stored.records;
    if records.is_empty() {
        out.push_str("no evaluations recorded\n");
        return out;
    }
    let elapsed_s = records.last().map(|r| r.finished_at_s).unwrap_or(0.0);
    let compute_s: f64 = records.iter().map(|r| r.duration_s).sum();
    out.push_str(&format!(
        "clock: {:.2} virtual hours wall, {:.2} VM-hours compute, crash rate {:.0}%\n",
        elapsed_s / 3600.0,
        compute_s / 3600.0,
        history::crash_rate(records) * 100.0,
    ));

    let direction = job.direction;
    match history::best(records, direction) {
        None => out.push_str("best: none (every configuration crashed)\n"),
        Some(best) => {
            out.push_str(&format!(
                "best {}: {:.2} at iteration {} ({})\n",
                job.metric.as_deref().unwrap_or("objective"),
                best.objective.unwrap_or(f64::NAN),
                best.iteration,
                direction.keyword(),
            ));
            if let Some(interval) = history::mean_improvement_interval_s(records, direction) {
                out.push_str(&format!(
                    "mean improvement interval: {interval:.0} virtual s\n"
                ));
            }
            if !stored.new_bests.is_empty() {
                out.push_str("improvements:\n");
                for (iteration, objective) in &stored.new_bests {
                    out.push_str(&format!("  iteration {iteration:>4}: {objective:.2}\n"));
                }
            }
            match space {
                Some(space) if space.len() == best.config.len() => {
                    let default = space.default_config();
                    let diff = best.config.diff_indices(&default);
                    if diff.is_empty() {
                        out.push_str("best configuration: the default\n");
                    } else {
                        out.push_str("non-default parameters of the best configuration:\n");
                        for idx in diff {
                            out.push_str(&format!(
                                "  {} = {}\n",
                                space.spec(idx).name,
                                best.config.get(idx)
                            ));
                        }
                    }
                }
                _ => out.push_str(&format!(
                    "best configuration: {} parameter(s) (space unavailable for naming)\n",
                    best.config.len()
                )),
            }
        }
    }
    if !stored.epochs.is_empty() {
        out.push_str(&format!(
            "adaptation trajectory: {} epoch(s), {} confirmed drift(s)\n",
            stored.epochs.len(),
            stored.drift_events.len(),
        ));
        out.push_str(&trajectory_table(stored).render());
    }
    if job.workers.unwrap_or(1) > 1 && !stored.wave_stats.is_empty() {
        out.push_str(&wave_stats_table(&stored.wave_stats, job.workers.unwrap_or(1)).render());
    }
    out
}

/// Renders a continuous session's adaptation trajectory as a [`Table`]:
/// one row per epoch with the workload phase it opened under, its
/// evaluation span, the best objective reached inside it, the stored
/// analytic oracle bound for that phase, and the relative regret against
/// it. Entirely offline — every cell derives from the persisted
/// `epoch_started` records and the evaluation history.
pub fn trajectory_table(stored: &StoredSession) -> Table {
    let mut t = Table::new(&[
        "Epoch", "Phase", "From", "Evals", "Best", "Oracle", "Regret %", "Seeded",
    ]);
    let records = &stored.records;
    let direction = stored.job.direction;
    for (i, e) in stored.epochs.iter().enumerate() {
        let start = e.first_iteration.min(records.len());
        let end = stored.epochs.get(i + 1).map_or(records.len(), |next| {
            next.first_iteration.min(records.len())
        });
        let slice = &records[start..end];
        let best = slice.iter().filter_map(|r| r.objective).reduce(|b, v| {
            if direction.better(v, b) {
                v
            } else {
                b
            }
        });
        let regret = best.map(|b| {
            let scale = e.oracle_metric.abs().max(f64::MIN_POSITIVE);
            match direction {
                wf_jobfile::Direction::Maximize => (e.oracle_metric - b) / scale * 100.0,
                wf_jobfile::Direction::Minimize => (b - e.oracle_metric) / scale * 100.0,
            }
        });
        t.row(&[
            e.epoch.to_string(),
            e.phase.clone(),
            e.first_iteration.to_string(),
            slice.len().to_string(),
            best.map_or("-".into(), |b| format!("{b:.2}")),
            format!("{:.2}", e.oracle_metric),
            regret.map_or("-".into(), |r| format!("{r:.1}")),
            if e.transfer { "transfer" } else { "cold" }.to_string(),
        ]);
    }
    t
}

/// Renders a session's per-wave scheduling metrics as a [`Table`]:
/// wave index, size, wall/busy virtual seconds, pool occupancy, and the
/// image-cache hit rate.
pub fn wave_stats_table(waves: &[WaveStats], workers: usize) -> Table {
    let mut t = Table::new(&["Wave", "Size", "Wall s", "Busy s", "Occ %", "Cache %"]);
    for w in waves {
        t.row(&[
            w.wave.to_string(),
            w.size.to_string(),
            format!("{:.0}", w.wall_s),
            format!("{:.0}", w.busy_s),
            format!("{:.0}", w.occupancy(workers) * 100.0),
            format!("{:.0}", w.cache_hit_rate() * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["App", "Perf"]);
        t.row(&["Nginx".into(), "19593".into()]);
        t.row(&["Redis".into(), "66118".into()]);
        let text = t.render();
        assert!(text.contains("App"));
        assert!(text.contains("19593"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn series_rendering() {
        let mut s = Series::new();
        s.push(0.0, 1.0);
        s.push(60.0, 2.0);
        let text = render_series("nginx", &s);
        assert!(text.starts_with("# series: nginx"));
        assert!(text.contains("60.0\t2.0000"));
    }

    #[test]
    fn wave_stats_render_occupancy() {
        let waves = [
            WaveStats {
                wave: 0,
                size: 4,
                wall_s: 80.0,
                busy_s: 240.0,
                cache_hits: 3,
                cache_misses: 1,
            },
            WaveStats {
                wave: 1,
                size: 2,
                wall_s: 70.0,
                busy_s: 130.0,
                cache_hits: 0,
                cache_misses: 2,
            },
        ];
        let text = wave_stats_table(&waves, 4).render();
        assert!(text.contains("Occ %"), "{text}");
        assert!(text.contains("75"), "wave 0 occupancy: {text}");
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn multi_series_rendering() {
        let mut a = Series::new();
        let mut b = Series::new();
        for i in 0..3 {
            a.push(i as f64, 1.0);
            b.push(i as f64, 2.0);
        }
        let text = render_multi_series(&["rand", "dt"], &[a, b]);
        assert!(text.starts_with("# t\trand\tdt"));
        assert_eq!(text.lines().count(), 4);
    }
}
