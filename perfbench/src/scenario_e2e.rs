//! `scenario_e2e`: one `.ido` scenario from parse to verified recovery.
//!
//! `corpus/map.ido`, scaled to [`THREADS`] × [`OPS`], runs under every
//! scheme it declares (the seven lock-based ones) with
//! `VmConfig::default()` — the paper's latency model — MinClock
//! scheduling, and event tracing off. Per scheme an iteration does parse →
//! instrument → verify → set up → run to a crash step → `crash_with` →
//! `recover` → `attach` → verify → `recover` again (which must resume
//! nothing). The crash steps of each scheme are drawn from the seed in the
//! second half of that scheme's reference run (see [`STRATA`]); Origin
//! makes no durability promise, so it runs to completion and is verified
//! without a crash.
//!
//! Set-up parses the file and runs every scheme to completion once (the
//! reference runs that give the crash-step range and the exact simulated
//! metrics). Once, untimed, the scenario's program must match its
//! Rust-builder twin on steps, simulated time, counters and persistent
//! image, as `ido run --compare-builder` does.

use std::collections::BTreeMap;

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_lang::{parse_scenario, Scenario};
use ido_nvm::{CrashPolicy, StatsSnapshot};
use ido_trace::TraceConfig;
use ido_verify::{verify_instrumented, RuntimeModel};
use ido_vm::{recover, RecoveryConfig, RecoveryReport, RunOutcome, SchedPolicy, Vm, VmConfig};
use ido_workloads::WorkloadSpec;

use crate::spans::Tracer;
use crate::util::{catch, fnv64, image_hash, read_input, scheme_key, splitmix64};
use crate::{Ctx, Outcome, Window};

/// The scenario file.
pub const SOURCE: &str = "corpus/map.ido";
/// Worker threads (the file's header says 2).
pub const THREADS: usize = 4;
/// Operations per thread (the file's header says 4). Atlas and NVML never
/// retire their append logs, so this stays under the 16 Ki-entry log of
/// `VmConfig::default()`: 4 × 2048 overflows it under Atlas.
pub const OPS: u64 = 1024;
/// Crash points per scheme. Iteration `k` crashes each scheme at its
/// `k mod STRATA`-th point, drawn from the seed inside the `k`-th of
/// `STRATA` equal slices of the second half of the reference run, so a
/// run's work does not hinge on one draw. The strata differ in cost, so
/// the window counts whole cycles of `STRATA` iterations.
pub const STRATA: usize = 8;

/// A scheme's full run: the observables `ido run --compare-builder`
/// compares, plus the counts after set-up.
#[derive(Debug, Clone, Default, PartialEq)]
struct RefRun {
    steps: u64,
    sim_ns: u64,
    setup_stats: StatsSnapshot,
    stats: StatsSnapshot,
    image: u64,
}

/// What one crash pipeline observed; identical in every iteration.
#[derive(Debug, Clone, PartialEq)]
struct CrashObs {
    steps: u64,
    clock_ns: u64,
    insts: usize,
    dirty: usize,
    stats: StatsSnapshot,
    recovery: Option<RecoveryReport>,
}

struct Setup {
    source: String,
    scenario: Scenario,
    cfg: VmConfig,
    model: RuntimeModel,
    reference: Vec<RefRun>,
}

fn scaled(source: &str) -> Result<Scenario, String> {
    let mut sc = parse_scenario(source).map_err(|e| e.render(SOURCE, source))?;
    sc.threads = THREADS;
    sc.ops = OPS;
    Ok(sc)
}

fn vm_config(sc: &Scenario) -> VmConfig {
    let mut cfg = VmConfig::default();
    cfg.pool.trace = TraceConfig {
        enabled: false,
        ..TraceConfig::default()
    };
    cfg.seed = sc.seed;
    cfg.tier = sc.tier;
    cfg.sched = SchedPolicy::MinClock;
    cfg
}

/// Runs `spec` under `scheme` to completion and verifies it. Counters are
/// read from the pool only after the `Vm` is dropped.
fn reference_run(spec: &dyn WorkloadSpec, scheme: Scheme, cfg: &VmConfig) -> RefRun {
    let inst = instrument_program(spec.build_program(), scheme).expect("scenario instruments");
    let mut vm = Vm::new(inst, cfg.clone());
    let base = spec.setup(&mut vm, THREADS, OPS);
    let setup_stats = vm.pool().global_stats();
    for t in 0..THREADS {
        vm.spawn("worker", &spec.worker_args(&base, t, OPS));
    }
    assert_eq!(
        vm.run(),
        RunOutcome::Completed,
        "reference run under {scheme}"
    );
    spec.verify(&vm, &base, THREADS as u64 * OPS);
    let (steps, sim_ns) = (vm.steps(), vm.max_clock_ns());
    let pool = vm.pool().clone();
    drop(vm);
    RefRun {
        steps,
        sim_ns,
        setup_stats,
        stats: pool.global_stats(),
        image: image_hash(&pool.persistent_snapshot()),
    }
}

fn setup(out: &mut Outcome) -> Result<Setup, String> {
    let source = read_input(SOURCE)?;
    let scenario = scaled(&source)?;
    let cfg = vm_config(&scenario);
    let model = RuntimeModel::from_config(&cfg);
    let spec = scenario.spec();
    let mut reference = Vec::new();
    for &scheme in &scenario.schemes {
        let r = catch(|| reference_run(&spec, scheme, &cfg));
        out.check(
            &format!("{scheme} reference run"),
            r.as_ref().map(drop).map_err(Clone::clone),
        );
        reference.push(r.unwrap_or_default());
    }
    Ok(Setup {
        source,
        scenario,
        cfg,
        model,
        reference,
    })
}

/// The `k`-th seed-drawn crash point of scheme number `i`: a step in the
/// `k`-th slice of the second half of its reference run, and the crash's
/// line-survival seed.
fn crash_plan(seed: u64, i: usize, k: usize, total_steps: u64) -> (u64, u64) {
    let half = total_steps / 2;
    let slice = ((total_steps - half) / STRATA as u64).max(1);
    let draw = splitmix64(seed ^ ((i * STRATA + k) as u64).wrapping_mul(0x9E37_79B9));
    (half + k as u64 * slice + draw % slice, splitmix64(draw))
}

/// One scheme's pipeline, every public call under its own span.
/// The verifier's findings are added to `diags_seen` and fail the pipeline.
fn pipeline(
    tr: &mut Tracer,
    s: &Setup,
    scheme: Scheme,
    plan: (u64, u64),
    diags_seen: &mut u64,
) -> CrashObs {
    let key = scheme_key(scheme);
    let scenario = tr
        .leaf("lang.parse", key, || scaled(&s.source))
        .expect("scenario parses");
    let spec = scenario.spec();
    let inst: Instrumented = tr
        .leaf("compiler.instrument", key, || {
            instrument_program(spec.build_program(), scheme)
        })
        .expect("scenario instruments");
    let insts = inst.program.functions().iter().map(|f| f.num_insts()).sum();
    let diags = tr.leaf("verify", key, || verify_instrumented(&inst, &s.model));
    *diags_seen += diags.len() as u64;
    assert!(diags.is_empty(), "verifier: {}", diags[0]);
    let total_ops = THREADS as u64 * OPS;
    let (mut vm, base) = tr.leaf("vm.setup", key, || {
        let mut vm = Vm::new(inst.clone(), s.cfg.clone());
        let base = spec.setup(&mut vm, THREADS, OPS);
        for t in 0..THREADS {
            vm.spawn("worker", &spec.worker_args(&base, t, OPS));
        }
        (vm, base)
    });
    if scheme == Scheme::Origin {
        let done = tr.leaf("vm.run", key, || vm.run());
        assert_eq!(done, RunOutcome::Completed);
        tr.leaf("workloads.verify", key, || {
            spec.verify(&vm, &base, total_ops)
        });
        let (steps, clock_ns) = (vm.steps(), vm.max_clock_ns());
        let pool = vm.pool().clone();
        drop(vm);
        let stats = pool.global_stats();
        return CrashObs {
            steps,
            clock_ns,
            insts,
            dirty: 0,
            stats,
            recovery: None,
        };
    }
    let (step, crash_seed) = plan;
    tr.leaf("vm.run", key, || vm.run_steps(step));
    let (steps, clock_ns) = (vm.steps(), vm.max_clock_ns());
    let (dirty, pool) = tr.leaf("nvm.crash", key, || {
        let dirty = vm.pool().dirty_lines().len();
        (
            dirty,
            vm.crash_with(
                crash_seed,
                &CrashPolicy::Random {
                    persist_permille: 500,
                },
            ),
        )
    });
    let stats = pool.global_stats();
    let rc = RecoveryConfig::default();
    let report = tr.leaf("recovery", key, || {
        recover(pool.clone(), inst.clone(), s.cfg.clone(), rc)
    });
    let post = tr.leaf("vm.attach", key, || {
        Vm::attach(pool.clone(), inst.clone(), s.cfg.clone())
    });
    tr.leaf("workloads.verify", key, || {
        spec.verify(&post, &base, total_ops)
    });
    drop(post);
    let second = tr.leaf("recovery", key, || recover(pool, inst, s.cfg.clone(), rc));
    assert_eq!(second.resumed, 0, "second recovery must resume nothing");
    CrashObs {
        steps,
        clock_ns,
        insts,
        dirty,
        stats,
        recovery: Some(report),
    }
}

fn per_op(count: u64) -> f64 {
    count as f64 / (THREADS as u64 * OPS) as f64
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = out.timed_setups(setup)?;
    let s = setups.pop().expect("at least one set-up");
    for (i, other) in setups.iter().enumerate() {
        let same = if other.reference == s.reference {
            Ok(())
        } else {
            Err("reference runs differ".into())
        };
        out.check(
            &format!("set-up repetition {i} is bit-identical to the last"),
            same,
        );
    }
    let schemes = s.scenario.schemes.clone();
    let native = s.scenario.kind.native_spec(s.scenario.range);
    for (i, &scheme) in schemes.iter().enumerate() {
        let twin = catch(|| reference_run(native.as_ref(), scheme, &s.cfg));
        let same = match twin {
            Ok(b) if b == s.reference[i] => Ok(()),
            Ok(b) => Err(format!("corpus {:?} differs from builder {b:?}", s.reference[i])),
            Err(e) => Err(e),
        };
        out.check(
            &format!("{scheme} reference run matches its builder twin"),
            same,
        );
    }
    let plans: Vec<Vec<(u64, u64)>> = s
        .reference
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (0..STRATA)
                .map(|k| crash_plan(ctx.seed, i, k, r.steps))
                .collect()
        })
        .collect();

    // Timed window: every iteration must reproduce the first one with the
    // same crash points exactly.
    let mut first: Vec<Vec<Option<CrashObs>>> = vec![vec![None; STRATA]; schemes.len()];
    let mut iteration = 0usize;
    let mut run_steps: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut diags_seen = 0u64;
    let window = Window::run(ctx, tr, STRATA, |tr| {
        let k = iteration % STRATA;
        iteration += 1;
        for (i, &scheme) in schemes.iter().enumerate() {
            let depth = tr.open("scheme", scheme_key(scheme));
            let obs = catch(|| pipeline(tr, &s, scheme, plans[i][k], &mut diags_seen));
            tr.close_to(depth);
            let r = obs.and_then(|o| {
                if tr.is_on() {
                    *run_steps.entry(scheme_key(scheme)).or_default() += o.steps;
                }
                match &first[i][k] {
                    None => {
                        first[i][k] = Some(o);
                        Ok(())
                    }
                    Some(f) if *f == o => Ok(()),
                    Some(f) => Err(format!("iteration differs: {o:?} vs {f:?}")),
                }
            });
            out.check(&format!("{scheme} pipeline"), r);
        }
        1.0
    });
    out.window = window;
    out.compiled_pairs = schemes.len();

    // Determinism across host threads: the reference runs and every crash
    // pipeline again at jobs = 2, untraced.
    if ctx.check_jobs > 1 {
        let spec = s.scenario.spec();
        let again = ido_par::par_map_jobs(ctx.check_jobs, schemes.clone(), |scheme| {
            catch(|| reference_run(&spec, scheme, &s.cfg)).ok()
        });
        for (i, r) in again.into_iter().enumerate() {
            let same = if r.as_ref() == Some(&s.reference[i]) {
                Ok(())
            } else {
                Err(format!("{r:?}"))
            };
            out.check(
                &format!("{} reference run at jobs={}", schemes[i], ctx.check_jobs),
                same,
            );
        }
        let cases: Vec<(usize, usize)> = (0..schemes.len())
            .flat_map(|i| (0..STRATA).map(move |k| (i, k)))
            .collect();
        let again = ido_par::par_map_jobs(ctx.check_jobs, cases.clone(), |(i, k)| {
            let mut quiet = Tracer::new(false);
            catch(|| pipeline(&mut quiet, &s, schemes[i], plans[i][k], &mut 0)).ok()
        });
        for ((i, k), o) in cases.into_iter().zip(again) {
            let same = if o.is_some() && o == first[i][k] {
                Ok(())
            } else {
                Err(format!("{o:?} vs {:?}", first[i][k]))
            };
            out.check(
                &format!("{} crash point {k} at jobs={}", schemes[i], ctx.check_jobs),
                same,
            );
        }
    }

    out.inputs.push((
        SOURCE.into(),
        format!("{:#018x}", fnv64(s.source.as_bytes())),
    ));
    out.inputs.push((
        "scale".into(),
        format!("{THREADS} threads x {OPS} ops, {} schemes", schemes.len()),
    ));
    if ctx.traced {
        out.layers
            .insert("verify.diagnostics".into(), diags_seen as f64);
        layers(&mut out, tr, &s, &schemes, &first, &run_steps);
    }
    Ok(out)
}

fn layers(
    out: &mut Outcome,
    tr: &Tracer,
    s: &Setup,
    schemes: &[Scheme],
    first: &[Vec<Option<CrashObs>>],
    run_steps: &BTreeMap<&'static str, u64>,
) {
    let st = tr.self_times();
    let iters = out.window.traced.len().max(1) as f64;
    let l = &mut out.layers;
    // Per-iteration counts are means over the crash points.
    let obs: Vec<&CrashObs> = first.iter().flatten().flatten().collect();
    let per_iter = |x: usize| x as f64 / STRATA as f64;
    l.insert(
        "lang.source_bytes".into(),
        (s.source.len() * schemes.len()) as f64,
    );
    l.insert(
        "compiler.insts_out".into(),
        per_iter(obs.iter().map(|o| o.insts).sum()),
    );
    l.insert(
        "vm.steps".into(),
        run_steps.values().sum::<u64>() as f64 / iters,
    );
    l.insert(
        "nvm.dirty_lines_at_crash".into(),
        per_iter(obs.iter().map(|o| o.dirty).sum()),
    );
    let crashed = per_iter(obs.iter().filter(|o| o.recovery.is_some()).count());
    l.insert("crash_states".into(), crashed);
    let wall: f64 = out.window.traced.iter().map(|s| s.wall).sum();
    l.insert("crash_states_per_s".into(), crashed * iters / wall);
    for &scheme in schemes {
        let key = scheme_key(scheme);
        let ns = st.tagged_s("iteration", "vm.run", key) * 1e9;
        if let Some(&steps) = run_steps.get(key) {
            l.insert(format!("vm.ns_per_step.{key}"), ns / steps as f64);
        }
    }
    let mut baselines = Vec::new();
    for (i, &scheme) in schemes.iter().enumerate() {
        let key = scheme_key(scheme);
        let r = &s.reference[i];
        let d = |f: fn(&StatsSnapshot) -> u64| f(&r.stats) - f(&r.setup_stats);
        if scheme != Scheme::Origin {
            l.insert(format!("nvm.clwbs.{key}"), d(|x| x.clwbs) as f64);
            l.insert(format!("nvm.fences.{key}"), d(|x| x.fences) as f64);
            l.insert(
                format!("nvm.lines_persisted.{key}"),
                d(|x| x.lines_persisted) as f64,
            );
            l.insert(format!("nvm.log_bytes.{key}"), d(|x| x.log_bytes) as f64);
        }
        let reps: Vec<RecoveryReport> = first[i]
            .iter()
            .flatten()
            .filter_map(|o| o.recovery)
            .collect();
        if !reps.is_empty() {
            let mean = |f: fn(&RecoveryReport) -> u64| {
                reps.iter().map(f).sum::<u64>() as f64 / reps.len() as f64
            };
            l.insert(
                format!("recovery.log_entries_scanned.{key}"),
                mean(|r| r.log_entries_scanned as u64),
            );
            l.insert(
                format!("recovery.resumed.{key}"),
                mean(|r| r.resumed as u64),
            );
            l.insert(
                format!("recovery.rolled_back.{key}"),
                mean(|r| r.rolled_back as u64),
            );
            l.insert(format!("recovery.sim_ns.{key}"), mean(|r| r.sim_ns));
        }
        let sim_per_op = per_op(r.sim_ns);
        match scheme {
            Scheme::Ido => {
                l.insert("sim_ns_per_op.ido".into(), sim_per_op);
                l.insert("clwb_per_op.ido".into(), per_op(d(|x| x.clwbs)));
                l.insert("fence_per_op.ido".into(), per_op(d(|x| x.fences)));
                l.insert("log_bytes_per_op.ido".into(), per_op(d(|x| x.log_bytes)));
            }
            Scheme::Origin => {}
            _ => baselines.push(sim_per_op),
        }
    }
    if !baselines.is_empty() {
        let geo = (baselines.iter().map(|x| x.ln()).sum::<f64>() / baselines.len() as f64).exp();
        l.insert("sim_ns_per_op.baselines_geomean".into(), geo);
    }
}
