//! The exploration walker — one VM per chunk of boundaries, each crash
//! state checked under a pool checkpoint and rolled back — must give every
//! (boundary, lost-line subset) the verdict of the fresh-replay reference
//! [`check_crash_state`], failure text included. With an injected bug,
//! `explore` must shrink to the counterexample a fresh-replay sweep finds.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_crashtest::{
    check_crash_state, explore_jobs, persist_boundaries, walk_verdicts, OracleConfig,
    StateVerdict, DURABLE_SCHEMES,
};
use ido_vm::{ExecTier, Vm};
use ido_workloads::micro::TwinSpec;
use ido_workloads::{standard_specs, WorkloadSpec};

fn instrument(spec: &dyn WorkloadSpec, scheme: Scheme) -> Instrumented {
    instrument_program(spec.build_program(), scheme).expect("instruments")
}

/// The dirty lines of a fresh replay paused at `step`.
fn fresh_dirty(spec: &dyn WorkloadSpec, inst: &Instrumented, cfg: &OracleConfig, step: u64) -> Vec<usize> {
    let mut vc = cfg.vm.clone();
    vc.seed = cfg.seed;
    let mut vm = Vm::new(inst.clone(), vc);
    let base = spec.setup(&mut vm, cfg.threads, cfg.ops_per_thread);
    for t in 0..cfg.threads {
        vm.spawn("worker", &spec.worker_args(&base, t, cfg.ops_per_thread));
    }
    vm.run_steps(step);
    vm.pool().dirty_lines()
}

/// Walks `spec` under `scheme` and holds every state to a fresh replay:
/// each boundary is visited in order, its first subset is the full dirty
/// set of a fresh replay to that step, and every verdict equals
/// `check_crash_state`'s.
fn walk_against_reference(spec: &dyn WorkloadSpec, scheme: Scheme, cfg: &OracleConfig) -> Vec<StateVerdict> {
    let inst = instrument(spec, scheme);
    let (_, _, boundaries) = persist_boundaries(spec, &inst, cfg);
    let states = walk_verdicts(spec, scheme, cfg);
    let mut visited = Vec::new();
    for (i, (step, lost, verdict)) in states.iter().enumerate() {
        let what = format!("{}/{scheme} step {step} losing {lost:?}", spec.name());
        if i == 0 || states[i - 1].0 != *step {
            visited.push(*step);
            assert_eq!(*lost, fresh_dirty(spec, &inst, cfg, *step), "{what}: first subset");
        }
        assert_eq!(*verdict, check_crash_state(spec, &inst, cfg, *step, lost), "{what}");
    }
    assert_eq!(visited, boundaries, "{}/{scheme}: boundaries walked", spec.name());
    states
}

#[test]
fn walker_verdicts_equal_fresh_replays_for_every_standard_workload_and_scheme() {
    let cfg = OracleConfig::default();
    for spec in standard_specs() {
        for scheme in DURABLE_SCHEMES {
            let states = walk_against_reference(spec.as_ref(), scheme, &cfg);
            assert!(states.iter().all(|s| s.2.is_ok()), "{}/{scheme} is clean", spec.name());
        }
    }
}

/// Tier 2 executes whole segments per scheduler pick, so a walker that
/// advances boundary by boundary splits the run into different segments
/// than one `run_steps` call would; the states must still match.
#[test]
fn walker_verdicts_equal_fresh_replays_on_tier2() {
    let mut cfg = OracleConfig::default();
    cfg.vm.tier = ExecTier::Tier2;
    for spec in [Box::new(TwinSpec) as Box<dyn WorkloadSpec>, standard_specs().remove(3)] {
        for scheme in DURABLE_SCHEMES {
            walk_against_reference(spec.as_ref(), scheme, &cfg);
        }
    }
}

/// The fresh-replay sweep `explore` replaced: boundary by boundary, subset
/// by subset, `check_crash_state` until the first failure, then the same
/// greedy shrink (drop lines, then move to the earliest failing boundary).
/// Returns (states explored, shrink attempts, step, lost lines, failure).
fn reference_explore(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    states: &[StateVerdict],
) -> (usize, usize, u64, Vec<usize>, String) {
    let (_, _, boundaries) = persist_boundaries(spec, inst, cfg);
    let first = states
        .iter()
        .position(|(step, lost, _)| check_crash_state(spec, inst, cfg, *step, lost).is_err())
        .expect("the injected bug is caught");
    let (mut step, mut lost, _) = states[first].clone();
    let mut failure = check_crash_state(spec, inst, cfg, step, &lost).unwrap_err();
    let mut attempts = 0;
    'drop: loop {
        for i in 0..lost.len() {
            let mut cand = lost.clone();
            cand.remove(i);
            attempts += 1;
            if let Err(f) = check_crash_state(spec, inst, cfg, step, &cand) {
                (lost, failure) = (cand, f);
                continue 'drop;
            }
        }
        break;
    }
    for &s in boundaries.iter().filter(|&&s| s < step) {
        attempts += 1;
        if let Err(f) = check_crash_state(spec, inst, cfg, s, &lost) {
            (step, failure) = (s, f);
            break;
        }
    }
    (first + 1, attempts, step, lost, failure)
}

/// Under the injected bug (which only changes iDO), verdicts still match
/// state for state, and wherever the bug is caught `explore` reports the
/// fresh-replay sweep's counterexample for any job count.
#[test]
fn injected_bug_shrinks_to_the_fresh_replay_counterexample() {
    let mut cfg = OracleConfig::default();
    cfg.vm.ido_bug_skip_store_flush = true;
    let mut specs: Vec<Box<dyn WorkloadSpec>> = vec![Box::new(TwinSpec)];
    specs.extend(standard_specs());
    let mut caught = Vec::new();
    for spec in specs {
        let spec = spec.as_ref();
        let states = walk_against_reference(spec, Scheme::Ido, &cfg);
        if states.iter().all(|s| s.2.is_ok()) {
            continue;
        }
        caught.push(spec.name());
        let inst = instrument(spec, Scheme::Ido);
        let (explored, attempts, step, lost, failure) = reference_explore(spec, &inst, &cfg, &states);
        for jobs in [1, 3] {
            let e = explore_jobs(jobs, spec, Scheme::Ido, &cfg);
            let c = e.counterexample.as_ref().expect("explore catches the injected bug");
            let what = format!("{} jobs={jobs}", spec.name());
            assert_eq!(e.crash_states_explored, explored, "{what}");
            assert_eq!(e.shrink_attempts, attempts, "{what}");
            assert_eq!((c.crash_step, &c.lost_lines, &c.failure), (step, &lost, &failure), "{what}");
            assert_eq!(c.reproduce(spec), Err(failure.clone()), "{what}");
        }
    }
    assert!(caught.contains(&TwinSpec.name()), "caught on: {caught:?}");
}
