//! `crash_oracle`: the crash oracle over `corpus/map.ido` under the six
//! durable schemes, as `ido crashtest` runs it, with
//! `OracleConfig::default()` scaled to [`THREADS`] × [`OPS`] and the oracle
//! seed taken from the benchmark seed. An iteration parses the file and,
//! per scheme, instruments, verifies and calls `explore_jobs` with one job.
//! `e2e_s` here is time per crash state checked, because the number of
//! states depends on the seed.
//!
//! Set-up finds each scheme's persist boundaries and replays the workload
//! to every boundary through public calls to count its dirty lines. That
//! bounds from below and above how many crash states `OracleConfig`'s
//! documented subset rules must check, so a run that checks fewer states
//! than the configuration promises fails instead of looking faster.
//!
//! The traced run also re-drives a seed-drawn sample of boundaries through
//! the same public calls the oracle makes (`Vm::new` + set-up + spawn,
//! `run_steps`, `crash_with`, `recover`, `attach`, verify, `recover`) to
//! give the anatomy of one crash state per scheme.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_crashtest::{explore_jobs, persist_boundaries, Exploration, OracleConfig, DURABLE_SCHEMES};
use ido_lang::{parse_scenario, ScenarioSpec};
use ido_nvm::CrashPolicy;
use ido_verify::{verify_instrumented, RuntimeModel};
use ido_vm::{recover, RecoveryConfig, Vm, VmConfig};
use ido_workloads::WorkloadSpec;

use crate::metrics::STATE_PARTS;
use crate::spans::Tracer;
use crate::util::{catch, fnv64, read_input, scheme_key, splitmix64};
use crate::{Ctx, Outcome, Window};

/// The scenario file.
pub const SOURCE: &str = "corpus/map.ido";
/// Worker threads.
pub const THREADS: usize = 2;
/// Operations per worker.
pub const OPS: u64 = 8;
/// Boundaries re-driven per scheme for the crash-state anatomy.
pub const ANATOMY_SAMPLES: usize = 8;

/// The parts of an [`Exploration`] that must repeat exactly.
type Summary = (u64, u64, usize, usize, bool);

fn summary(e: &Exploration) -> Summary {
    (
        e.total_steps,
        e.persist_events,
        e.boundary_steps,
        e.crash_states_explored,
        e.counterexample.is_none(),
    )
}

struct SchemeSetup {
    scheme: Scheme,
    inst: Instrumented,
    total_steps: u64,
    boundaries: Vec<u64>,
    /// Fewest and most crash states each boundary must contribute.
    states: Vec<(usize, usize)>,
}

struct Setup {
    source: String,
    spec: ScenarioSpec,
    cfg: OracleConfig,
    model: RuntimeModel,
    schemes: Vec<SchemeSetup>,
}

/// Set-up repetitions must agree on everything they measured.
impl PartialEq for SchemeSetup {
    fn eq(&self, o: &SchemeSetup) -> bool {
        (self.total_steps, &self.boundaries, &self.states)
            == (o.total_steps, &o.boundaries, &o.states)
    }
}

/// The VM configuration the oracle runs with (its `vm` with its seed).
fn oracle_vm(cfg: &OracleConfig) -> VmConfig {
    let mut vc = cfg.vm.clone();
    vc.seed = cfg.seed;
    vc
}

/// A VM at step 0 of an oracle replay: formatted, set up, workers spawned.
fn replay_vm(spec: &dyn WorkloadSpec, inst: &Instrumented, cfg: &OracleConfig) -> (Vm, Vec<u64>) {
    let mut vm = Vm::new(inst.clone(), oracle_vm(cfg));
    let base = spec.setup(&mut vm, cfg.threads, cfg.ops_per_thread);
    for t in 0..cfg.threads {
        vm.spawn("worker", &spec.worker_args(&base, t, cfg.ops_per_thread));
    }
    (vm, base)
}

/// How many lost-line subsets the oracle checks at a boundary with `n`
/// dirty lines: all `2^n` up to `exhaustive_subset_limit`, otherwise a
/// cover of the full and empty sets, every singleton and co-singleton,
/// and random fill, capped at `max_subsets_per_step`.
fn subset_bounds(n: usize, cfg: &OracleConfig) -> (usize, usize) {
    if n <= cfg.exhaustive_subset_limit {
        return (1 << n, 1 << n);
    }
    let cap = cfg.max_subsets_per_step.max(2);
    ((2 + 2 * n).min(cap), cap)
}

/// Sets up every durable scheme; a scheme whose set-up fails is counted
/// as a failure and left out of the run.
fn setup(seed: u64, out: &mut Outcome) -> Result<Setup, String> {
    let source = read_input(SOURCE)?;
    let spec = parse_scenario(&source)
        .map_err(|e| e.render(SOURCE, &source))?
        .spec();
    let cfg = OracleConfig {
        threads: THREADS,
        ops_per_thread: OPS,
        seed,
        ..OracleConfig::default()
    };
    let model = RuntimeModel::from_config(&cfg.vm);
    let mut schemes = Vec::new();
    for scheme in DURABLE_SCHEMES {
        let r = catch(|| {
            let inst =
                instrument_program(spec.build_program(), scheme).expect("scenario instruments");
            let (total_steps, _, boundaries) = persist_boundaries(&spec, &inst, &cfg);
            let states = boundaries
                .iter()
                .map(|&step| {
                    let (mut vm, _) = replay_vm(&spec, &inst, &cfg);
                    vm.run_steps(step);
                    subset_bounds(vm.pool().dirty_lines().len(), &cfg)
                })
                .collect();
            SchemeSetup {
                scheme,
                inst,
                total_steps,
                boundaries,
                states,
            }
        });
        out.check(
            &format!("set-up under {scheme}"),
            r.as_ref().map(drop).map_err(Clone::clone),
        );
        schemes.extend(r.ok());
    }
    Ok(Setup {
        source,
        spec,
        cfg,
        model,
        schemes,
    })
}

/// Checks one exploration against the set-up and the first iteration.
fn judge(ss: &SchemeSetup, e: &Exploration, first: &mut Option<Summary>) -> Result<(), String> {
    if let Some(c) = &e.counterexample {
        return Err(format!("counterexample: {c}"));
    }
    let lo: usize = ss.states.iter().map(|s| s.0).sum();
    let hi: usize = ss.states.iter().map(|s| s.1).sum();
    if e.boundary_steps != ss.boundaries.len() || e.total_steps != ss.total_steps {
        return Err(format!(
            "{} boundaries over {} steps, set-up found {} over {}",
            e.boundary_steps,
            e.total_steps,
            ss.boundaries.len(),
            ss.total_steps
        ));
    }
    if !(lo..=hi).contains(&e.crash_states_explored) {
        return Err(format!(
            "{} crash states checked, the configuration implies {lo}..={hi}",
            e.crash_states_explored
        ));
    }
    match first {
        None => *first = Some(summary(e)),
        Some(f) if *f == summary(e) => {}
        Some(f) => {
            return Err(format!(
                "exploration {:?} differs from the first {f:?}",
                summary(e)
            ))
        }
    }
    Ok(())
}

/// Re-drives one crash state (losing every dirty line, the oracle's first
/// candidate) with a span around each public call.
fn re_drive(tr: &mut Tracer, s: &Setup, ss: &SchemeSetup, step: u64) {
    let key = scheme_key(ss.scheme);
    let vc = oracle_vm(&s.cfg);
    let rc = RecoveryConfig::for_tests();
    let (mut vm, base) = tr.leaf("vm.setup", key, || replay_vm(&s.spec, &ss.inst, &s.cfg));
    tr.leaf("vm.run", key, || vm.run_steps(step));
    let pool = tr.leaf("nvm.crash", key, || {
        let lost = vm.pool().dirty_lines();
        vm.crash_with(s.cfg.seed, &CrashPolicy::losing(lost))
    });
    tr.leaf("recovery", key, || {
        recover(pool.clone(), ss.inst.clone(), vc.clone(), rc)
    });
    let post = tr.leaf("vm.attach", key, || {
        Vm::attach(pool.clone(), ss.inst.clone(), vc.clone())
    });
    let total_ops = s.cfg.threads as u64 * s.cfg.ops_per_thread;
    tr.leaf("workloads.verify", key, || {
        s.spec.verify(&post, &base, total_ops)
    });
    drop(post);
    let second = tr.leaf("recovery", key, || recover(pool, ss.inst.clone(), vc, rc));
    assert_eq!(second.resumed, 0, "second recovery must resume nothing");
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = out.timed_setups(|out| setup(ctx.seed, out))?;
    let s = setups.pop().expect("at least one set-up");
    for other in &setups {
        let same = if other.schemes == s.schemes {
            Ok(())
        } else {
            Err("boundaries or dirty-line counts differ".into())
        };
        out.check("set-up repetition is identical to the last", same);
    }

    let mut first: Vec<Option<Summary>> = vec![None; s.schemes.len()];
    let mut diags_seen = 0u64;
    let window = Window::run(ctx, tr, 1, |tr| {
        let spec = match catch(|| {
            tr.leaf("lang.parse", "", || parse_scenario(&s.source))
                .expect("parses")
                .spec()
        }) {
            Ok(spec) => spec,
            Err(e) => {
                out.check("parse", Err(e));
                return 0.0;
            }
        };
        let mut states = 0usize;
        for (i, ss) in s.schemes.iter().enumerate() {
            let key = scheme_key(ss.scheme);
            let r = catch(|| {
                let inst = tr
                    .leaf("compiler.instrument", key, || {
                        instrument_program(spec.build_program(), ss.scheme)
                    })
                    .expect("scenario instruments");
                let diags = tr.leaf("verify", key, || verify_instrumented(&inst, &s.model));
                diags_seen += diags.len() as u64;
                assert!(diags.is_empty(), "verifier: {}", diags[0]);
                tr.leaf("crashtest.explore", key, || {
                    explore_jobs(1, &spec, ss.scheme, &s.cfg)
                })
            });
            let r = r.and_then(|e| {
                states += e.crash_states_explored;
                judge(ss, &e, &mut first[i])
            });
            out.check(&format!("oracle under {}", ss.scheme), r);
        }
        states as f64
    });
    out.window = window;
    out.compiled_pairs = s.schemes.len();

    if ctx.check_jobs > 1 {
        for (i, ss) in s.schemes.iter().enumerate() {
            let r = catch(|| summary(&explore_jobs(ctx.check_jobs, &s.spec, ss.scheme, &s.cfg)));
            let same = match (r, first[i]) {
                (Ok(a), Some(b)) if a == b => Ok(()),
                (Ok(a), b) => Err(format!("{a:?} vs {b:?}")),
                (Err(e), _) => Err(e),
            };
            out.check(
                &format!("oracle under {} at jobs={}", ss.scheme, ctx.check_jobs),
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
        format!("{THREADS} threads x {OPS} ops, oracle seed {}", ctx.seed),
    ));
    if ctx.traced {
        anatomy(ctx, tr, &s, &mut out);
        layers(&mut out, tr, &s, &first, diags_seen);
    }
    Ok(out)
}

/// The traced run's extra phase: one reference pass per scheme and a
/// seed-drawn sample of re-driven crash states.
fn anatomy(ctx: &Ctx, tr: &mut Tracer, s: &Setup, out: &mut Outcome) {
    tr.set_on(true);
    for (i, ss) in s.schemes.iter().enumerate() {
        let key = scheme_key(ss.scheme);
        let depth = tr.open("reference", key);
        let r = catch(|| {
            tr.leaf("crashtest.reference_run", key, || {
                persist_boundaries(&s.spec, &ss.inst, &s.cfg)
            })
        });
        tr.close_to(depth);
        let same = match r {
            Ok((total, _, b)) if total == ss.total_steps && b == ss.boundaries => Ok(()),
            Ok(_) => Err("reference pass differs from set-up".into()),
            Err(e) => Err(e),
        };
        out.check(&format!("{} reference pass", ss.scheme), same);
        for k in 0..ANATOMY_SAMPLES {
            let draw =
                splitmix64(ctx.seed ^ ((i * ANATOMY_SAMPLES + k) as u64).wrapping_mul(0x2545_F491));
            let step = ss.boundaries[(draw % ss.boundaries.len() as u64) as usize];
            let depth = tr.open("state", key);
            let r = catch(|| re_drive(tr, s, ss, step));
            tr.close_to(depth);
            out.check(&format!("{} crash state at step {step}", ss.scheme), r);
        }
    }
    tr.set_on(false);
}

fn layers(out: &mut Outcome, tr: &Tracer, s: &Setup, first: &[Option<Summary>], diags_seen: u64) {
    let st = tr.self_times();
    let l = &mut out.layers;
    l.insert("lang.source_bytes".into(), s.source.len() as f64);
    l.insert(
        "compiler.insts_out".into(),
        s.schemes
            .iter()
            .map(|ss| {
                ss.inst
                    .program
                    .functions()
                    .iter()
                    .map(|f| f.num_insts())
                    .sum::<usize>()
            })
            .sum::<usize>() as f64,
    );
    l.insert("verify.diagnostics".into(), diags_seen as f64);
    l.insert(
        "crashtest.boundaries".into(),
        s.schemes
            .iter()
            .map(|ss| ss.boundaries.len())
            .sum::<usize>() as f64,
    );
    l.insert(
        "crash_states".into(),
        first.iter().flatten().map(|f| f.3).sum::<usize>() as f64,
    );
    let (wall, units) = out
        .window
        .traced
        .iter()
        .fold((0.0, 0.0), |(w, u), x| (w + x.wall, u + x.units));
    l.insert("crash_states_per_s".into(), units / wall);
    l.insert(
        "crashtest.reference_run_s".into(),
        st.layer_s("reference", "crashtest.reference_run"),
    );
    let (mut weighted, mut weight) = (0.0, 0.0);
    for ss in &s.schemes {
        for (&step, &(lo, _)) in ss.boundaries.iter().zip(&ss.states) {
            weighted += step as f64 * lo as f64;
            weight += lo as f64;
        }
    }
    l.insert(
        "crashtest.replayed_steps_per_state".into(),
        weighted / weight,
    );
    for (span, part) in STATE_PARTS {
        for ss in &s.schemes {
            let key = scheme_key(ss.scheme);
            let v = st.tagged_s("state", span, key) / ANATOMY_SAMPLES as f64;
            l.insert(format!("crashtest.state.{part}_s.{key}"), v);
        }
    }
}
