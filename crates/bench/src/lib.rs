//! `wf-bench`: the regeneration harness.
//!
//! One `run_*` function per table/figure of the paper's evaluation; each
//! prints the same rows/series the paper reports. Each function has one
//! `src/bin/` binary (`cargo run --release -p wf-bench --bin
//! fig06_search_evolution`); `wfctl experiments` lists them all. The
//! [`perf`] module is the `wfctl bench` suite of controller hot paths.
//!
//! Budgets default to the reduced scale; set `WF_FULL=1` for the paper's
//! budgets (see `wayfinder_core::Scale`).

pub mod perf;

use wayfinder_core::experiments as exp;
use wayfinder_core::report::{render_multi_series, Table};
use wayfinder_core::Scale;

/// Default seed used by all regeneration targets.
pub const SEED: u64 = 0x5eed;

fn scale_banner(scale: &Scale) -> String {
    format!(
        "# scale: runs={} search_iterations={} (WF_FULL=1 for the paper's budgets)\n",
        scale.runs, scale.search_iterations
    )
}

/// Fig. 1: Linux compile-time option growth.
pub fn run_fig01() {
    println!("== Figure 1: Linux Kconfig compile-time options over time ==");
    let mut t = Table::new(&["Version", "Compile-time options"]);
    for row in exp::fig1() {
        t.row(&[row.version.to_string(), row.options.to_string()]);
    }
    print!("{}", t.render());
}

/// Table 1: the Linux 6.0 configuration census.
pub fn run_table1() {
    println!("== Table 1: configuration space for Linux 6.0 ==");
    let c = exp::table1();
    let mut t = Table::new(&[
        "bool", "tristate", "string", "hex", "int", "boot", "runtime",
    ]);
    t.row(&[
        c.bool_.to_string(),
        c.tristate.to_string(),
        c.string.to_string(),
        c.hex.to_string(),
        c.int.to_string(),
        c.boot.to_string(),
        c.runtime.to_string(),
    ]);
    print!("{}", t.render());
    println!("compile-time total: {}", c.compile_total());
}

/// Fig. 2: Nginx throughput for random configurations.
pub fn run_fig02() {
    let scale = Scale::from_env();
    println!(
        "== Figure 2: Nginx throughput for {} random configurations ==",
        scale.fig2_samples
    );
    print!("{}", scale_banner(&scale));
    let r = exp::fig2(&scale, SEED);
    println!("# config#\treq/s (ascending)");
    for (i, v) in r.sorted_throughput.iter().enumerate() {
        println!("{i}\t{v:.0}");
    }
    println!("default configuration: {:.0} req/s", r.default_throughput);
    println!(
        "best random: {:.0} req/s ({:+.1}% vs default)",
        r.sorted_throughput.last().unwrap(),
        (r.best_ratio - 1.0) * 100.0
    );
    println!(
        "below default: {:.0}% of configurations (paper: 64%)",
        r.share_below_default * 100.0
    );
    println!(
        "crashed and re-generated: {} (~{:.0}% of raw samples; paper: ~1/3)",
        r.crashes_discarded,
        100.0 * r.crashes_discarded as f64
            / (r.crashes_discarded + r.sorted_throughput.len()) as f64
    );
}

/// Fig. 5: the cross-application similarity matrix.
pub fn run_fig05() {
    let scale = Scale::from_env();
    println!("== Figure 5: cross-similarity of parameter-importance vectors ==");
    print!("{}", scale_banner(&scale));
    let r = exp::fig5(&scale, SEED);
    let labels: Vec<&str> = r.apps.iter().map(|a| a.label()).collect();
    print!("{}", wf_forest::render(&labels, &r.matrix));
}

/// Fig. 6: search evolution for all four applications.
pub fn run_fig06() {
    let scale = Scale::from_env();
    println!("== Figure 6: search evolution (Random vs DeepTune vs DeepTune+TL) ==");
    print!("{}", scale_banner(&scale));
    for result in exp::fig6(&scale, SEED) {
        println!("\n-- {} ({}) --", result.app, result.unit);
        let labels: Vec<String> = result.curves.iter().map(|c| c.label.clone()).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        println!("# performance (smoothed mean of {} runs)", scale.runs);
        let perfs: Vec<_> = result.curves.iter().map(|c| c.perf.clone()).collect();
        print!("{}", render_multi_series(&label_refs, &perfs));
        println!("# crash rate (rolling)");
        let crashes: Vec<_> = result.curves.iter().map(|c| c.crash.clone()).collect();
        print!("{}", render_multi_series(&label_refs, &crashes));
    }
}

/// Table 2: best configurations found.
pub fn run_table2() {
    let scale = Scale::from_env();
    println!(
        "== Table 2: best configurations after {} iterations ==",
        scale.search_iterations
    );
    print!("{}", scale_banner(&scale));
    let mut t = Table::new(&[
        "App",
        "Baseline",
        "Wayfinder",
        "Unit",
        "Relative",
        "Time-to-find (s)",
        "With TL (s)",
    ]);
    for row in exp::table2(&scale, SEED) {
        let fmt_t = |v: Option<f64>| v.map(|s| format!("{s:.0}")).unwrap_or_else(|| "-".into());
        t.row(&[
            row.app.to_string(),
            format!("{:.0}", row.baseline),
            format!("{:.0}", row.wayfinder),
            row.unit.to_string(),
            format!("{:.2}x", row.relative),
            fmt_t(row.time_to_find_no_tl_s),
            fmt_t(row.time_to_find_tl_s),
        ]);
    }
    print!("{}", t.render());
}

/// Fig. 7: DeepTune vs Unicorn per-iteration cost.
pub fn run_fig07() {
    let scale = Scale::from_env();
    println!("== Figure 7: DeepTune vs Unicorn scalability ==");
    print!("{}", scale_banner(&scale));
    let r = exp::fig7(&scale, SEED);
    println!("# iter\tunicorn_s\tunicorn_bytes\tdeeptune_s\tdeeptune_bytes");
    for (u, d) in r.unicorn.iter().zip(r.deeptune.iter()) {
        println!(
            "{}\t{:.5}\t{}\t{:.5}\t{}",
            u.iteration, u.time_s, u.memory_bytes, d.time_s, d.memory_bytes
        );
    }
    let last = r.unicorn.len() - 1;
    println!(
        "unicorn growth:  time x{:.1}, memory x{:.1} (half -> full run)",
        r.unicorn[last].time_s.max(1e-9) / r.unicorn[last / 2].time_s.max(1e-9),
        r.unicorn[last].memory_bytes as f64 / r.unicorn[last / 2].memory_bytes.max(1) as f64
    );
    println!(
        "deeptune growth: memory x{:.2} (linear replay buffer only)",
        r.deeptune[last].memory_bytes as f64 / r.deeptune[last / 2].memory_bytes.max(1) as f64
    );
}

/// Fig. 8: loop-time breakdown.
pub fn run_fig08() {
    let scale = Scale::from_env();
    println!("== Figure 8: DeepTune update time vs test time ==");
    print!("{}", scale_banner(&scale));
    let r = exp::fig8(&scale, SEED);
    let mut t = Table::new(&["Component", "Seconds"]);
    t.row(&[
        "DeepTune update".into(),
        format!(
            "{:.4} ± {:.4}",
            r.deeptune_update_s, r.deeptune_update_std_s
        ),
    ]);
    for (app, s) in &r.test_time_s {
        t.row(&[format!("{app} test time"), format!("{s:.1}")]);
    }
    print!("{}", t.render());
}

/// Table 3: prediction accuracy.
pub fn run_table3() {
    let scale = Scale::from_env();
    println!("== Table 3: DeepTune prediction accuracy ==");
    print!("{}", scale_banner(&scale));
    let mut t = Table::new(&["App", "Failure acc.", "Run acc.", "Normalized MAE"]);
    for row in exp::table3(&scale, SEED) {
        t.row(&[
            row.app.to_string(),
            format!("{:.3}", row.failure_accuracy),
            format!("{:.3}", row.run_accuracy),
            format!("{:.3}", row.mae_normalized),
        ]);
    }
    print!("{}", t.render());
}

/// Fig. 9: Unikraft comparison.
pub fn run_fig09() {
    let scale = Scale::from_env();
    println!(
        "== Figure 9: Nginx on Unikraft (budget {:.0}s) ==",
        scale.unikraft_budget_s
    );
    print!("{}", scale_banner(&scale));
    let r = exp::fig9(&scale, SEED);
    let labels: Vec<String> = r.curves.iter().map(|c| c.label.clone()).collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let perfs: Vec<_> = r.curves.iter().map(|c| c.perf.clone()).collect();
    print!("{}", render_multi_series(&refs, &perfs));
    for (i, label) in labels.iter().enumerate() {
        let hit = r.time_to_3x_s[i]
            .map(|t| format!("{:.0}s ({:.0} min)", t, t / 60.0))
            .unwrap_or_else(|| "never".into());
        println!(
            "{label}: best {:.0} req/s, 3x-default reached: {hit}",
            r.best[i]
        );
    }
}

/// Fig. 10: RISC-V footprint minimization.
pub fn run_fig10() {
    let scale = Scale::from_env();
    println!(
        "== Figure 10: RISC-V Linux memory footprint (budget {:.0}s) ==",
        scale.footprint_budget_s
    );
    print!("{}", scale_banner(&scale));
    let r = exp::fig10(&scale, SEED);
    let labels: Vec<String> = r.curves.iter().map(|c| c.label.clone()).collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let series: Vec<_> = r.curves.iter().map(|c| c.perf.clone()).collect();
    println!(
        "# best-so-far footprint (MB); default = {:.0} MB",
        r.default_mb
    );
    print!("{}", render_multi_series(&refs, &series));
    for (i, label) in labels.iter().enumerate() {
        println!(
            "{label}: best {:.1} MB ({:.1}% reduction), crashes {} (late: {})",
            r.best_mb[i],
            (1.0 - r.best_mb[i] / r.default_mb) * 100.0,
            r.crashes[i],
            r.late_crashes[i],
        );
    }
}

/// Fig. 11: throughput-memory co-optimization on Cozart.
pub fn run_fig11() {
    let scale = Scale::from_env();
    println!(
        "== Figure 11: co-optimizing throughput and memory on Cozart (budget {:.0}s) ==",
        scale.cozart_budget_s
    );
    print!("{}", scale_banner(&scale));
    let r = exp::fig11(&scale, SEED);
    println!(
        "Cozart baseline: {:.0} req/s (vs ~{:.0} un-debloated; +{:.0}%)",
        r.baseline_throughput,
        r.undebloated_throughput,
        (r.baseline_throughput / r.undebloated_throughput - 1.0) * 100.0
    );
    let labels: Vec<String> = r.curves.iter().map(|c| c.label.clone()).collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    println!("# Eq. 4 score (smoothed)");
    let series: Vec<_> = r.curves.iter().map(|c| c.perf.clone()).collect();
    print!("{}", render_multi_series(&refs, &series));
    println!("# crash rate");
    let crashes: Vec<_> = r.curves.iter().map(|c| c.crash.clone()).collect();
    print!("{}", render_multi_series(&refs, &crashes));
}

/// Table 4: top-5 of the co-optimization.
pub fn run_table4() {
    let scale = Scale::from_env();
    println!("== Table 4: top-5 throughput-memory results on Cozart ==");
    print!("{}", scale_banner(&scale));
    let t4 = exp::table4(&scale, SEED);
    let mut t = Table::new(&["Rank", "Score", "Memory (MB)", "Throughput (req/s)"]);
    for (i, (score, mem, thr)) in t4.rows.iter().enumerate() {
        t.row(&[
            (i + 1).to_string(),
            format!("{score:.2}"),
            format!("{mem:.2}"),
            format!("{thr:.0}"),
        ]);
    }
    t.row(&[
        "Cozart".into(),
        "-".into(),
        format!("{:.2}", t4.baseline.0),
        format!("{:.0}", t4.baseline.1),
    ]);
    print!("{}", t.render());
}
