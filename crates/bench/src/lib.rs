//! Shared plumbing for the figure/table harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). This library provides the common sweep
//! drivers, result table formatting, and CSV output (written under
//! `target/figures/`).

#![deny(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use ido_compiler::Scheme;
use ido_nvm::{LatencyModel, PoolConfig};
use ido_vm::VmConfig;
use ido_workloads::{run_workload, RunStats, WorkloadSpec};

/// Thread counts used by the scalability sweeps (the paper's x-axis).
pub const THREAD_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Thread counts for the extended high-thread sweeps (beyond the paper's
/// 16-core testbed: where the schemes' runtime serialization, lock
/// convoys, and allocator contention dominate).
pub const HI_THREAD_SWEEP: [usize; 3] = [64, 128, 256];

/// Adapts a config for high-thread runs: a registry sized for
/// [`HI_THREAD_SWEEP`]'s maximum and the sharded allocator (the legacy
/// global-mutex allocator would serialize spawn-time log allocation and
/// drown the signal being measured).
pub fn hi_thread_config(mut cfg: VmConfig) -> VmConfig {
    cfg.max_threads = 256;
    cfg.alloc = ido_nvm::AllocPolicy::Sharded { shards: 64 };
    cfg
}

/// Returns a VM configuration sized for the harness workloads.
pub fn bench_config(pool_mib: usize, log_entries: usize) -> VmConfig {
    VmConfig {
        pool: PoolConfig { size: pool_mib << 20, ..PoolConfig::default() },
        log_entries,
        ..VmConfig::default()
    }
}

/// Applies an extra NVM delay (the Fig. 9 knob) to a config.
pub fn with_nvm_delay(mut cfg: VmConfig, delay_ns: u64) -> VmConfig {
    cfg.pool.latency = LatencyModel::with_nvm_delay(delay_ns);
    cfg
}

/// True when `IDO_BENCH_QUICK=1`: the binaries shrink their sweeps for CI
/// smoke runs. Any other value, or none, means a full run.
pub fn quick() -> bool {
    std::env::var("IDO_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Writes a `BENCH_<name>.json` file. Full runs write the committed
/// trajectory at the repo root; quick runs write under
/// `target/bench-quick/`, so smoke runs never overwrite it.
pub fn write_bench_json(name: &str, json: &str) {
    let file = format!("BENCH_{name}.json");
    let path = if quick() {
        let dir = PathBuf::from("target/bench-quick");
        fs::create_dir_all(&dir).expect("create target/bench-quick");
        dir.join(file)
    } else {
        PathBuf::from(file)
    };
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Number of operations per thread, overridable with `IDO_BENCH_OPS`.
pub fn ops_per_thread(default: u64) -> u64 {
    std::env::var("IDO_BENCH_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One measured curve: throughput per thread count for one scheme.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Scheme measured.
    pub scheme: Scheme,
    /// `(threads, Mops/s)` points.
    pub points: Vec<(usize, f64)>,
}

/// Runs a thread sweep for several schemes over one workload.
///
/// Every (scheme × thread-count) point is an independent simulation over
/// its own pool, so the cross product fans out over `ido-par`'s
/// deterministic ordered parallel map (worker count from `IDO_JOBS`,
/// default `available_parallelism`). Results are reassembled in `schemes`
/// × `threads` input order, so the returned curves — and every table or
/// CSV derived from them — are byte-identical for any job count.
pub fn sweep_threads(
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<Curve> {
    sweep_threads_jobs(ido_par::jobs(), spec, schemes, threads, ops, cfg)
}

/// [`sweep_threads`] with an explicit worker count. The determinism tests
/// use this to compare `jobs = 1` against `jobs = N` in-process without
/// racing on the `IDO_JOBS` environment variable.
pub fn sweep_threads_jobs(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<Curve> {
    let stats = sweep_stats_jobs(jobs, spec, schemes, threads, ops, cfg);
    curves_from_stats(schemes, threads, &stats)
}

/// Regroups a [`sweep_stats_jobs`] result (schemes-major order) into
/// per-scheme throughput curves.
pub fn curves_from_stats(schemes: &[Scheme], threads: &[usize], stats: &[RunStats]) -> Vec<Curve> {
    if threads.is_empty() {
        return schemes.iter().map(|&scheme| Curve { scheme, points: Vec::new() }).collect();
    }
    schemes
        .iter()
        .zip(stats.chunks(threads.len()))
        .map(|(&scheme, pts)| Curve {
            scheme,
            points: pts.iter().map(|s| (s.threads, s.mops())).collect(),
        })
        .collect()
}

/// [`sweep_stats_jobs`] with the ambient (`IDO_JOBS`) worker count.
pub fn sweep_stats(
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<RunStats> {
    sweep_stats_jobs(ido_par::jobs(), spec, schemes, threads, ops, cfg)
}

/// Runs the (scheme × threads) cross product and returns the **full**
/// [`RunStats`] for every point, in `schemes`-major input order. This is
/// the counter-CSV driver: the figure binaries pull per-point
/// [`ido_nvm::StatsSnapshot`] columns out of these instead of re-running.
pub fn sweep_stats_jobs(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<RunStats> {
    let tasks: Vec<(Scheme, usize)> = schemes
        .iter()
        .flat_map(|&scheme| threads.iter().map(move |&t| (scheme, t)))
        .collect();
    ido_par::par_map_jobs(jobs, tasks, |(scheme, t)| run_workload(scheme, spec, t, ops, cfg.clone()))
}

/// CSV header fragment for the per-point persistence counters appended by
/// [`counters_to_fields`]. Keep the two in sync.
pub const COUNTER_HEADER: &str = "loads,stores,nt_stores,clwbs,fences,lines_persisted,log_bytes";

/// Formats a snapshot as the CSV fields named by [`COUNTER_HEADER`].
pub fn counters_to_fields(s: &ido_nvm::StatsSnapshot) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        s.loads, s.stores, s.nt_stores, s.clwbs, s.fences, s.lines_persisted, s.log_bytes
    )
}

/// Runs one point and returns full stats.
pub fn run_point(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    threads: usize,
    ops: u64,
    cfg: VmConfig,
) -> RunStats {
    run_workload(scheme, spec, threads, ops, cfg)
}

/// Renders curves as an aligned text table (threads down, schemes across).
pub fn format_curves(title: &str, curves: &[Curve]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==  (Mops/s, simulated)");
    let _ = write!(out, "{:>8}", "threads");
    for c in curves {
        let _ = write!(out, "{:>12}", c.scheme.name());
    }
    let _ = writeln!(out);
    let n = curves.first().map_or(0, |c| c.points.len());
    for i in 0..n {
        let _ = write!(out, "{:>8}", curves[0].points[i].0);
        for c in curves {
            let _ = write!(out, "{:>12.3}", c.points[i].1);
        }
        let _ = writeln!(out);
    }
    out
}

/// Writes curves as CSV under `target/figures/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = PathBuf::from("target/figures");
    let _ = fs::create_dir_all(&dir);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    if fs::write(&path, body).is_ok() {
        println!("wrote {}", path.display());
    }
}

/// Converts curves to CSV rows `threads,scheme,mops`.
pub fn curves_to_rows(curves: &[Curve]) -> Vec<String> {
    let mut rows = Vec::new();
    for c in curves {
        for (t, m) in &c.points {
            rows.push(format!("{t},{},{m:.4}", c.scheme.name()));
        }
    }
    rows
}

/// The relative-throughput summary used in the shape checks: ratio of each
/// scheme's peak to Origin's peak.
pub fn peak(curve: &Curve) -> f64 {
    curve.points.iter().map(|(_, m)| *m).fold(0.0, f64::max)
}

/// Looks a curve up by scheme — the robust alternative to indexing the
/// sweep result by position, which silently reads the wrong curve when a
/// binary's scheme list is reordered or extended.
///
/// # Panics
/// Panics if `scheme` was not part of the sweep.
pub fn curve_for(curves: &[Curve], scheme: Scheme) -> &Curve {
    curves
        .iter()
        .find(|c| c.scheme == scheme)
        .unwrap_or_else(|| panic!("no curve for scheme {scheme} in sweep result"))
}

/// Throughput of `scheme` at `threads` in a sweep result (0.0 when that
/// thread count was not measured).
///
/// # Panics
/// Panics if `scheme` was not part of the sweep.
pub fn point_at(curves: &[Curve], scheme: Scheme, threads: usize) -> f64 {
    curve_for(curves, scheme).points.iter().find(|(t, _)| *t == threads).map_or(0.0, |(_, m)| *m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_workloads::micro::StackSpec;

    #[test]
    fn sweep_produces_points_for_each_scheme() {
        let curves = sweep_threads(
            &StackSpec,
            &[Scheme::Origin, Scheme::Ido],
            &[1, 2],
            20,
            bench_config(8, 2048),
        );
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].points.len(), 2);
        assert!(peak(&curves[0]) > 0.0);
        let table = format_curves("test", &curves);
        assert!(table.contains("Origin") && table.contains("iDO"));
    }

    #[test]
    fn csv_rows_match_points() {
        let curves = vec![Curve { scheme: Scheme::Ido, points: vec![(1, 2.5), (2, 3.5)] }];
        let rows = curves_to_rows(&curves);
        assert_eq!(rows, vec!["1,iDO,2.5000", "2,iDO,3.5000"]);
    }
}
