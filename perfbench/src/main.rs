//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <scenario_e2e|crash_oracle>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `corpus/map.ido` and
//! `BENCHMARK.json` there). Each workload is set up once untimed and then
//! [`SETUP_REPS`] more times (the median is `setup_s`), then its iteration
//! repeats for `--seconds` seconds on one host thread. Every iteration
//! checks the program's outputs; a panic or a failed check is caught and
//! counted in `failed`. After the window, a determinism check repeats the
//! workload's simulated work at jobs = 2 (never more than `nproc`) and
//! requires bit-identical results. The end-to-end times are in reference
//! seconds, corrected for the host's speed by the [`hostclock`] kernel.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the first half of the window runs untraced and the
//! second half records spans around every call into a workspace crate,
//! and the last line carries every per-layer metric; those the workload
//! does not produce print 0 and are named in the provenance line's
//! `not_measured`. The spans are written to
//! `perfbench/out/<workload>-seed<n>.spans.json`. The line before the
//! result records provenance: git rev, source fingerprint, rustc, seed,
//! jobs, `nproc`, pinned trace/jobs settings, the hashes of the corpus
//! files read, and the raw wall times behind `e2e_s` and `setup_s`.

mod crash_oracle;
mod hostclock;
mod metrics;
mod scenario_e2e;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use hostclock::to_ref_s;
use spans::Tracer;
use util::median;

/// How many timed set-up repetitions follow the untimed first one;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Command-line settings shared by the workloads.
pub struct Ctx {
    /// Benchmark seed: every input is a function of it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Host threads available.
    pub nproc: usize,
    /// Worker count of the post-window determinism check (2, capped at
    /// `nproc`).
    pub check_jobs: usize,
}

/// One timed unit: an iteration or a set-up repetition.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Wall seconds.
    pub wall: f64,
    /// Units of work done.
    pub units: f64,
    /// Calibration kernel seconds per repetition, measured right after.
    pub rep_s: f64,
}

/// Per-iteration wall times of the measured window.
#[derive(Default)]
pub struct Window {
    /// Iterations that together do the workload's whole repeating unit of
    /// work; each half of the window ends on a multiple of it.
    pub cycle: usize,
    /// Each untraced iteration.
    pub untraced: Vec<Sample>,
    /// Each traced iteration.
    pub traced: Vec<Sample>,
    /// Peak resident set size when the window closed, before the
    /// multi-threaded determinism check.
    pub peak_rss_mib: Option<f64>,
}

impl Window {
    /// Runs `iter` (which returns the units of work it did) until the
    /// window closes, at least one `cycle` of iterations per half. A traced
    /// run spends the first half untraced and records spans in the second.
    pub fn run(
        ctx: &Ctx,
        tr: &mut Tracer,
        cycle: usize,
        mut iter: impl FnMut(&mut Tracer) -> f64,
    ) -> Window {
        let mut w = Window {
            cycle,
            ..Window::default()
        };
        let halves: &[bool] = if ctx.traced { &[false, true] } else { &[false] };
        let span = ctx.seconds / halves.len() as f64;
        for &on in halves {
            tr.set_on(on);
            let start = Instant::now();
            for n in 1.. {
                let t0 = Instant::now();
                let depth = tr.open("iteration", "");
                let units = iter(tr);
                tr.close_to(depth);
                let wall = t0.elapsed().as_secs_f64();
                let rep_s = hostclock::sample(wall);
                let sample = Sample { wall, units, rep_s };
                if on { &mut w.traced } else { &mut w.untraced }.push(sample);
                if n % cycle == 0 && start.elapsed().as_secs_f64() >= span {
                    break;
                }
            }
        }
        tr.set_on(false);
        w.peak_rss_mib = util::peak_rss_mib();
        w
    }

    /// Median over the untraced cycles of time per unit of work, in
    /// reference seconds (`calibrated`) or wall seconds. A cycle's kernel
    /// time is the wall-weighted mean of its iterations'.
    pub fn median_per_unit(&self, calibrated: bool) -> f64 {
        let per: Vec<f64> = self
            .untraced
            .chunks_exact(self.cycle.max(1))
            .filter_map(|c| {
                let wall: f64 = c.iter().map(|s| s.wall).sum();
                let units: f64 = c.iter().map(|s| s.units).sum();
                let rep_s = c.iter().map(|s| s.wall * s.rep_s).sum::<f64>() / wall;
                let per_unit = wall / units;
                (units > 0.0).then(|| if calibrated { to_ref_s(per_unit, rep_s) } else { per_unit })
            })
            .collect();
        median(&per)
    }

    /// Median traced minus median untraced iteration wall.
    pub fn trace_overhead_s(&self) -> f64 {
        let walls = |v: &[Sample]| median(&v.iter().map(|s| s.wall).collect::<Vec<_>>());
        walls(&self.traced) - walls(&self.untraced)
    }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Units checked (pipelines, pairs, explorations, determinism checks).
    pub attempted: u64,
    /// Units whose check failed or panicked.
    pub failed: u64,
    /// Each timed set-up repetition.
    pub setups: Vec<Sample>,
    /// The measured window.
    pub window: Window,
    /// (scenario, scheme) pairs each iteration parses, instruments and
    /// verifies.
    pub compiled_pairs: usize,
    /// Per-layer values the workload computes itself (counts, anatomy).
    pub layers: BTreeMap<String, f64>,
    /// Pinned inputs and sizes, for the provenance line.
    pub inputs: Vec<(String, String)>,
}

impl Outcome {
    /// Runs `setup` once untimed (cold caches, lazy initialisation) and
    /// then [`SETUP_REPS`] times, recording the timed walls. Returns every
    /// result, the last one last.
    pub fn timed_setups<S>(
        &mut self,
        mut setup: impl FnMut(&mut Outcome) -> Result<S, String>,
    ) -> Result<Vec<S>, String> {
        let mut all = vec![setup(self)?];
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            all.push(setup(self)?);
            let wall = t0.elapsed().as_secs_f64();
            let rep_s = hostclock::sample(wall);
            self.setups.push(Sample {
                wall,
                units: 1.0,
                rep_s,
            });
        }
        Ok(all)
    }

    /// Median set-up time in reference seconds (`calibrated`) or wall
    /// seconds.
    pub fn setup_s(&self, calibrated: bool) -> f64 {
        let v: Vec<f64> = self
            .setups
            .iter()
            .map(|s| if calibrated { to_ref_s(s.wall, s.rep_s) } else { s.wall })
            .collect();
        median(&v)
    }

    /// Counts one checked unit, reporting a failure on stderr.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!(
                "perfbench: FAILED {what}: {}",
                e.lines().next().unwrap_or("")
            );
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let a = parse_args(args)?;
    metrics::check_against(&util::read_input("BENCHMARK.json")?)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        nproc,
        check_jobs: nproc.min(2),
    };
    hostclock::init();
    let mut tr = Tracer::new(false);
    let mut out = match a.workload.as_str() {
        "scenario_e2e" => scenario_e2e::run(&ctx, &mut tr)?,
        "crash_oracle" => crash_oracle::run(&ctx, &mut tr)?,
        other => return Err(format!("unknown workload `{other}`")),
    };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let catalog: Vec<(String, &str)> = if ctx.traced {
        fill_per_layer(&ctx, &a.workload, &tr, &out, &mut values)?;
        metrics::per_layer()
    } else {
        values.insert("e2e_s".into(), out.window.median_per_unit(true));
        values.insert("setup_s".into(), out.setup_s(true));
        metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };

    // A value the workload produces must be a number; one it does not
    // produce prints 0 (the result line carries every metric) and is named
    // in the provenance line.
    let mut not_measured = Vec::new();
    let body: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let v = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    out.check(&format!("metric {name}"), Err(format!("not finite: {v}")));
                    0.0
                }
                None => {
                    not_measured.push(name.as_str());
                    0.0
                }
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("{}", provenance(&a, &ctx, &out, &not_measured));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    Ok(())
}

/// Per-layer values: span self times per traced iteration, the unattributed
/// remainder as `other_s`, the trace overhead, and the workload's own
/// counters. Also writes the spans out.
fn fill_per_layer(
    ctx: &Ctx,
    workload: &str,
    tr: &Tracer,
    out: &Outcome,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let iters = out.window.traced.len().max(1) as f64;
    let st = tr.self_times();
    for (span, name) in metrics::LAYER_SPANS {
        let s = st.layer_s("iteration", span);
        if s > 0.0 {
            values.insert(name.to_string(), s / iters);
        }
    }
    let other = st.layer_s("iteration", "iteration") + st.layer_s("iteration", "scheme");
    values.insert("other_s".into(), other / iters);
    values.insert(
        "iter_s".into(),
        out.window.traced.iter().map(|s| s.wall).sum::<f64>() / iters,
    );
    values.insert("e2e_wall_s".into(), out.window.median_per_unit(false));
    values.insert("setup_wall_s".into(), out.setup_s(false));
    let reps: Vec<f64> = out
        .window
        .untraced
        .iter()
        .chain(&out.setups)
        .map(|s| s.rep_s)
        .collect();
    values.insert("host.cal_rep_s".into(), median(&reps));
    values.insert("trace_overhead_s".into(), out.window.trace_overhead_s());
    values.insert(
        "peak_rss_mib".into(),
        out.window.peak_rss_mib.ok_or("cannot read VmHWM")? - hostclock::BUFFER_MIB,
    );
    values.insert(
        "failed_share".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let compile_s: f64 = ["lang.parse", "compiler.instrument", "verify"]
        .iter()
        .map(|s| st.layer_s("iteration", s))
        .sum();
    if compile_s > 0.0 {
        values.insert(
            "compiles_per_s".into(),
            out.compiled_pairs as f64 * iters / compile_s,
        );
    }
    for (k, v) in &out.layers {
        values.insert(k.clone(), *v);
    }

    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{}.spans.json", ctx.seed));
    std::fs::write(&path, tr.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

/// The provenance line: one JSON object. It also carries the raw wall
/// times behind the calibrated end-to-end metrics.
fn provenance(a: &Args, ctx: &Ctx, out: &Outcome, not_measured: &[&str]) -> String {
    let env = |k: &str| {
        std::env::var(k).map_or("null".to_string(), |v| {
            format!("\"{}\"", v.escape_default())
        })
    };
    let inputs: Vec<String> = out
        .inputs
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let not_measured: Vec<String> = not_measured.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \"source_fnv\": \"{:#018x}\", \"rustc\": \"{}\", \"nproc\": {}, \"jobs\": 1, \"check_jobs\": {}, \"setup_reps\": {}, \"iterations\": {}, \"ido_trace\": \"off (pinned in code)\", \"ido_trace_env\": {}, \"ido_jobs\": \"explicit (ignores IDO_JOBS)\", \"ido_jobs_env\": {}, \"inputs\": {{{}}}, \"not_measured\": [{}], \"e2e_wall_s\": {}, \"setup_wall_s\": {}}}}}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.traced),
        git_rev(),
        source_fnv(),
        env!("PERFBENCH_RUSTC_VERSION"),
        ctx.nproc,
        ctx.check_jobs,
        SETUP_REPS,
        out.window.untraced.len() + out.window.traced.len(),
        env("IDO_TRACE"),
        env("IDO_JOBS"),
        inputs.join(", "),
        not_measured.join(", "),
        out.window.median_per_unit(false),
        out.setup_s(false)
    )
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every workspace manifest and Rust source under `crates/`
/// plus `Cargo.lock`, in path order: identifies the measured code where no
/// git metadata is available.
fn source_fnv() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    util::fnv64(&all)
}
