//! The crash oracle: systematic crash-point exploration with deterministic
//! replay and minimal-counterexample reporting.
//!
//! The property tests in this workspace *sample* crash points; this crate
//! *enumerates* them. For a workload run under a scheme, the oracle:
//!
//! 1. **Reference pass** — runs the workload once with a [`Vm`] step hook
//!    installed, recording the pool's persist-event counter after every
//!    interpreter step. Two crash points with the same counter value are
//!    crash-equivalent (no store, write-back, or fence separates them), so
//!    the distinct *persist boundaries* — step 0, every step whose counter
//!    advanced, and the final step — cover every reachable NVM crash state
//!    exactly once.
//! 2. **Crash-state exploration** — the boundaries are split into
//!    contiguous chunks, and one VM *walks* each chunk: it advances with
//!    `run_steps` from boundary to boundary (the schedule is a pure
//!    function of the seed, program, and spawn order), reads the set of
//!    dirty cache lines, and crashes with `CrashPolicy::Subset` once per
//!    candidate *lost-line set*: exhaustively (all `2^n` subsets) when few
//!    lines are dirty, and with a bounded cover (everything, nothing, every
//!    singleton, every co-singleton, plus seeded random subsets) when many
//!    are. Each crash happens under a pool checkpoint
//!    ([`ido_nvm::PmemPool::checkpoint`]) and is rolled back afterwards,
//!    so the walk resumes from the exact pre-crash state and a crash state
//!    costs only the lines it touches, not a replay from step 0.
//! 3. **Verification** — after each injected crash the scheme's recovery
//!    runs, the workload's own invariants are checked, and recovery is
//!    re-run to confirm idempotence — all under `catch_unwind`.
//!    [`check_crash_state`] does the same for one state on a fresh replay;
//!    it is the reference the walker is tested against, and what shrinking
//!    and [`Counterexample::reproduce`] use.
//! 4. **Shrinking** — on failure, the lost-line set is greedily minimized
//!    (drop any line whose loss is not needed to fail), then the crash step
//!    is minimized to the earliest boundary where that set still fails. The
//!    resulting [`Counterexample`] carries everything needed to replay it —
//!    seed, VM config, crash step, lost lines — plus the persist-event
//!    journal tail leading into the crash.
//!
//! Determinism: the VM's scheduler RNG lives in the VM and never observes
//! the step hook, so a run paused at every step, a run paused once at step
//! `k`, and an uninterrupted run all execute the identical schedule. Two
//! [`explore`] calls with the same [`OracleConfig`] therefore produce the
//! same report, and [`Counterexample::reproduce`] re-triggers the same
//! failure from the recorded seed.

#![deny(missing_docs)]

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_nvm::{CrashPolicy, PersistEvent, PmemPool};
use ido_vm::{recover, recover_partial, RecoveryConfig, RunOutcome, StepControl, Vm, VmConfig};
use ido_workloads::WorkloadSpec;

/// Salt mixed into the crash seed so injected crashes are decorrelated from
/// the scheduling seed while staying deterministic.
const CRASH_SALT: u64 = 0x0bc3_5eed;

/// Salt for the *second* crash of a crash-during-recovery check, so the two
/// injected failures draw independent line-survival decisions.
const RECOVERY_CRASH_SALT: u64 = 0x7e_c0_7e_55;

/// The six durable schemes the oracle explores: iDO plus the five baseline
/// runtimes. `Origin` is excluded — it makes no durability promise, so
/// every crash state is vacuously "correct" for it.
pub const DURABLE_SCHEMES: [Scheme; 6] = [
    Scheme::Ido,
    Scheme::JustDo,
    Scheme::Atlas,
    Scheme::Mnemosyne,
    Scheme::Nvml,
    Scheme::Nvthreads,
];

/// Configuration for one exploration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Worker threads to spawn.
    pub threads: usize,
    /// Operations per worker thread. Exploration cost is one replay of
    /// the run per chunk of boundaries plus, per crash state, a crash,
    /// recovery, verification, and rollback whose cost follows the lines
    /// and live data they touch — not the pool size or the crash step.
    /// Boundaries grow linearly with `threads * ops_per_thread`, and each
    /// contributes up to `2^exhaustive_subset_limit` (or
    /// `max_subsets_per_step`) states, so the state count is what to
    /// budget: `corpus/map.ido` at 4 threads × 8 ops is ~17.5k states
    /// over the six durable schemes, a fraction of a second in release.
    pub ops_per_thread: u64,
    /// Seed for the VM scheduler; the whole exploration is a deterministic
    /// function of it (plus the workload, scheme, and config).
    pub seed: u64,
    /// When at most this many lines are dirty at a crash point, enumerate
    /// all `2^n` lost-line subsets; above it, fall back to the bounded
    /// cover. Values above ~10 make exploration explode.
    pub exhaustive_subset_limit: usize,
    /// Subset budget per crash point in bounded-cover mode.
    pub max_subsets_per_step: usize,
    /// How many persist events to retain for a counterexample's journal
    /// tail.
    pub journal_tail: usize,
    /// Base VM configuration (pool size, injected bugs, scheduler policy).
    /// The oracle overrides its `seed` with [`OracleConfig::seed`].
    pub vm: VmConfig,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            threads: 2,
            ops_per_thread: 2,
            seed: 0xD15C0,
            exhaustive_subset_limit: 5,
            max_subsets_per_step: 24,
            journal_tail: 16,
            vm: VmConfig::for_tests(),
        }
    }
}

impl OracleConfig {
    /// A minimal single-threaded configuration for CI smoke sweeps.
    pub fn smoke() -> Self {
        OracleConfig { threads: 1, ops_per_thread: 1, ..OracleConfig::default() }
    }

    /// The VM config actually used for runs: `vm` with the oracle's seed.
    fn vm_config(&self) -> VmConfig {
        let mut vc = self.vm.clone();
        vc.seed = self.seed;
        vc
    }

    /// Total operations across all workers.
    fn total_ops(&self) -> u64 {
        self.threads as u64 * self.ops_per_thread
    }
}

/// The result of exploring one (workload, scheme) pair.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Scheme explored.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Scheduling seed.
    pub seed: u64,
    /// Interpreter steps in the reference run.
    pub total_steps: u64,
    /// Persist events in the reference run.
    pub persist_events: u64,
    /// Distinct persist-boundary crash steps enumerated (the crash-state
    /// equivalence classes over all `total_steps + 1` crash points).
    pub boundary_steps: usize,
    /// Crash states actually checked: one per (boundary step, lost-line
    /// subset) pair.
    pub crash_states_explored: usize,
    /// Extra states checked while shrinking a counterexample.
    pub shrink_attempts: usize,
    /// The minimal failing crash state, if any check failed.
    pub counterexample: Option<Counterexample>,
}

impl std::fmt::Display for Exploration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} boundaries over {} steps ({} persist events), {} crash states: {}",
            self.workload,
            self.scheme,
            self.boundary_steps,
            self.total_steps,
            self.persist_events,
            self.crash_states_explored,
            match &self.counterexample {
                None => "all consistent".to_string(),
                Some(c) => format!("FAILED ({c})"),
            }
        )
    }
}

/// A minimal failing crash state, self-contained enough to replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Scheme that failed.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Scheduling seed (the replay key).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: u64,
    /// The VM configuration of the failing run (includes any injected bug
    /// flags, so the reproduction is faithful).
    pub vm: VmConfig,
    /// Minimal interpreter step at which crashing triggers the failure.
    pub crash_step: u64,
    /// Minimal set of dirty cache lines whose loss triggers the failure.
    pub lost_lines: Vec<usize>,
    /// The panic message from recovery or invariant verification.
    pub failure: String,
    /// The persist events leading into (and including) the crash.
    pub journal_tail: Vec<PersistEvent>,
}

impl Counterexample {
    /// A human-readable recipe for reproducing this failure by hand.
    pub fn replay_recipe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} on '{}': spawn {} thread(s) x {} op(s), scheduler seed {:#x}",
            self.scheme, self.workload, self.threads, self.ops_per_thread, self.seed
        );
        let _ = writeln!(
            out,
            "# run exactly {} step(s), crash losing dirty line(s) {:?}, recover, verify",
            self.crash_step, self.lost_lines
        );
        let _ = writeln!(out, "# failure: {}", first_line(&self.failure));
        let _ = writeln!(out, "# journal tail:");
        for e in &self.journal_tail {
            let _ = writeln!(out, "#   {e}");
        }
        out
    }

    /// Replays this counterexample against `spec` (which must be the same
    /// workload it was found on).
    ///
    /// # Errors
    /// `Err(failure)` with the replayed failure message if the failure still
    /// reproduces; `Ok(())` if it no longer does (i.e. the bug is fixed).
    pub fn reproduce(&self, spec: &dyn WorkloadSpec) -> Result<(), String> {
        let cfg = OracleConfig {
            threads: self.threads,
            ops_per_thread: self.ops_per_thread,
            seed: self.seed,
            vm: self.vm.clone(),
            ..OracleConfig::default()
        };
        let inst = instrument(spec, self.scheme);
        check_crash_state(spec, &inst, &cfg, self.crash_step, &self.lost_lines)
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash at step {} losing lines {:?} (seed {:#x}): {}",
            self.crash_step,
            self.lost_lines,
            self.seed,
            first_line(&self.failure)
        )
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

fn instrument(spec: &dyn WorkloadSpec, scheme: Scheme) -> Instrumented {
    instrument_program(spec.build_program(), scheme).expect("workload instruments cleanly")
}

/// Builds a VM at step 0: pool formatted, workload set up, workers spawned.
/// Everything downstream of this call is deterministic in `cfg.seed`.
fn make_vm(spec: &dyn WorkloadSpec, inst: &Instrumented, cfg: &OracleConfig) -> (Vm, Vec<u64>) {
    let mut vm = Vm::new(inst.clone(), cfg.vm_config());
    let base = spec.setup(&mut vm, cfg.threads, cfg.ops_per_thread);
    for t in 0..cfg.threads {
        let args = spec.worker_args(&base, t, cfg.ops_per_thread);
        vm.spawn("worker", &args);
    }
    (vm, base)
}

/// The reference pass: runs the workload to completion once and returns
/// `(total_steps, persist_events, boundaries)` where `boundaries` is the
/// ascending list of crash-distinct steps — step 0 (post-setup), every step
/// whose persist-event count advanced, and the final step.
///
/// # Panics
/// Panics if the workload does not run to completion.
pub fn persist_boundaries(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
) -> (u64, u64, Vec<u64>) {
    let (mut vm, _) = make_vm(spec, inst, cfg);
    let setup_events = vm.pool().persist_event_count();
    let trace: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&trace);
    vm.set_step_hook(Box::new(move |info| {
        sink.borrow_mut().push((info.step, info.persist_events));
        StepControl::Continue
    }));
    assert_eq!(vm.run(), RunOutcome::Completed, "reference run must complete");
    let total = vm.steps();
    let events = vm.pool().persist_event_count();
    let mut boundaries = vec![0u64];
    let mut prev = setup_events;
    for &(step, after) in trace.borrow().iter() {
        if after != prev {
            boundaries.push(step);
            prev = after;
        }
    }
    if *boundaries.last().unwrap() != total {
        boundaries.push(total);
    }
    (total, events, boundaries)
}

/// Checks one crash state: replay to `step`, crash losing exactly
/// `lost_lines` of the dirty lines, recover, verify the workload's
/// invariants on a re-attached VM, and recover again to confirm idempotence.
///
/// # Errors
/// The panic message of whichever stage failed.
pub fn check_crash_state(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost_lines: &[usize],
) -> Result<(), String> {
    let (mut vm, base) = make_vm(spec, inst, cfg);
    vm.run_steps(step);
    let pool = vm.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost_lines.iter().copied()));
    verify_recovery(spec, inst, cfg, &pool, &base)
}

/// Recovers a crashed `pool`, verifies the workload's invariants on a
/// re-attached VM, and recovers again to confirm idempotence, all under
/// `catch_unwind`. `base` is the workload's set-up result.
fn verify_recovery(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    pool: &PmemPool,
    base: &[u64],
) -> Result<(), String> {
    let vc = cfg.vm_config();
    quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let _ = recover(pool.clone(), inst.clone(), vc.clone(), RecoveryConfig::for_tests());
            let post = Vm::attach(pool.clone(), inst.clone(), vc.clone());
            spec.verify(&post, base, cfg.total_ops());
            drop(post);
            let second = recover(pool.clone(), inst.clone(), vc, RecoveryConfig::for_tests());
            assert_eq!(second.resumed, 0, "second recovery must find nothing to resume");
        }))
    })
    .map_err(panic_text)
}

/// One checked crash state: boundary step, lost lines, verdict.
pub type StateVerdict = (u64, Vec<usize>, Result<(), String>);

/// Walks an ascending run of boundary `steps` with a single VM and returns
/// every checked state in order, stopping after the first failure if
/// `stop_at_failure`. At each boundary every candidate subset is checked
/// under a pool checkpoint — crash, [`verify_recovery`], rollback — so the
/// VM resumes from the untouched pre-crash state; its threads and handles
/// are never used in between. Each verdict equals [`check_crash_state`]'s
/// for the same (step, subset).
fn walk(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    steps: &[u64],
    stop_at_failure: bool,
) -> Vec<StateVerdict> {
    let (mut vm, base) = make_vm(spec, inst, cfg);
    let pool = vm.pool().clone();
    let mut at = 0;
    let mut out = Vec::new();
    for &step in steps {
        vm.run_steps(step - at);
        at = step;
        for lost in candidate_subsets(&pool.dirty_lines(), cfg, step) {
            pool.checkpoint();
            pool.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost.iter().copied()));
            let verdict = verify_recovery(spec, inst, cfg, &pool, &base);
            pool.rollback();
            let failed = verdict.is_err();
            out.push((step, lost, verdict));
            if failed && stop_at_failure {
                return out;
            }
        }
    }
    out
}

/// Every crash state [`explore`] would check for `spec` under `scheme`, in
/// (boundary, subset) order, with its verdict — without stopping at
/// failures. Lets tests hold the walker to [`check_crash_state`].
pub fn walk_verdicts(spec: &dyn WorkloadSpec, scheme: Scheme, cfg: &OracleConfig) -> Vec<StateVerdict> {
    let inst = instrument(spec, scheme);
    let (_, _, boundaries) = persist_boundaries(spec, &inst, cfg);
    walk(spec, &inst, cfg, &boundaries, false)
}

/// Checks one crash-**during-recovery** state: replay to `step`, crash
/// losing `lost_lines`, run recovery with a work budget of
/// `recovery_budget` (interpreter steps for resumption schemes, persist
/// operations for the log-processing baselines), and — if the budget
/// interrupts it — crash *again* losing exactly `recovery_lost` of the
/// lines the interrupted recovery left dirty. A full recovery must then
/// restore the workload's invariants, and a third recovery must find
/// nothing left to do.
///
/// # Errors
/// The panic message of whichever stage failed.
pub fn check_recovery_crash_state(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost_lines: &[usize],
    recovery_budget: u64,
    recovery_lost: &[usize],
) -> Result<(), String> {
    let (mut vm, base) = make_vm(spec, inst, cfg);
    vm.run_steps(step);
    let pool = vm.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost_lines.iter().copied()));
    let vc = cfg.vm_config();
    let total_ops = cfg.total_ops();
    quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let complete =
                recover_partial(pool.clone(), inst.clone(), vc.clone(), recovery_budget);
            if !complete {
                pool.crash_with(
                    cfg.seed ^ RECOVERY_CRASH_SALT,
                    &CrashPolicy::losing(recovery_lost.iter().copied()),
                );
                let _ =
                    recover(pool.clone(), inst.clone(), vc.clone(), RecoveryConfig::for_tests());
            }
            let post = Vm::attach(pool.clone(), inst.clone(), vc.clone());
            spec.verify(&post, &base, total_ops);
            drop(post);
            let second = recover(pool, inst.clone(), vc, RecoveryConfig::for_tests());
            assert_eq!(second.resumed, 0, "final recovery must find nothing to resume");
        }))
    })
    .map_err(panic_text)
}

/// The dirty-line set an interrupted recovery leaves behind: replay to
/// `step`, crash losing `lost_lines`, run recovery under `recovery_budget`.
/// `None` when the recovery completes within the budget (nothing left to
/// crash).
fn interrupted_recovery_dirty(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost_lines: &[usize],
    recovery_budget: u64,
) -> Option<Vec<usize>> {
    let (mut vm, _) = make_vm(spec, inst, cfg);
    vm.run_steps(step);
    let pool = vm.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost_lines.iter().copied()));
    let complete = quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            recover_partial(pool.clone(), inst.clone(), cfg.vm_config(), recovery_budget)
        }))
    })
    .unwrap_or(true); // a panicking recovery is caught by the checker proper
    if complete {
        None
    } else {
        Some(pool.dirty_lines())
    }
}

/// A minimal failing crash-during-recovery state.
#[derive(Debug, Clone)]
pub struct RecoveryCounterexample {
    /// Scheme that failed.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Scheduling seed.
    pub seed: u64,
    /// Step of the first (application) crash.
    pub crash_step: u64,
    /// Lines lost by the first crash.
    pub lost_lines: Vec<usize>,
    /// Recovery work budget at which the second crash hit.
    pub recovery_budget: u64,
    /// Lines lost by the crash *during recovery*.
    pub recovery_lost_lines: Vec<usize>,
    /// The panic message of the failing stage.
    pub failure: String,
}

impl std::fmt::Display for RecoveryCounterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash at step {} losing {:?}, then crash after {} recovery unit(s) losing {:?} (seed {:#x}): {}",
            self.crash_step,
            self.lost_lines,
            self.recovery_budget,
            self.recovery_lost_lines,
            self.seed,
            first_line(&self.failure)
        )
    }
}

/// The result of a crash-during-recovery exploration.
#[derive(Debug, Clone)]
pub struct RecoveryExploration {
    /// Scheme explored.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Persist-boundary crash steps swept.
    pub boundary_steps: usize,
    /// (boundary, budget) pairs at which recovery was actually interrupted
    /// mid-protocol (budgets larger than the recovery's total work never
    /// interrupt and are skipped).
    pub interruptions: usize,
    /// Crash-during-recovery states checked: one per (boundary, budget,
    /// recovery-lost-subset) triple.
    pub crash_states_explored: usize,
    /// The first failing state, minimized over its recovery-lost set.
    pub counterexample: Option<RecoveryCounterexample>,
}

impl std::fmt::Display for RecoveryExploration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} recovery-crash: {} boundaries, {} interruptions, {} states: {}",
            self.workload,
            self.scheme,
            self.boundary_steps,
            self.interruptions,
            self.crash_states_explored,
            match &self.counterexample {
                None => "all consistent".to_string(),
                Some(c) => format!("FAILED ({c})"),
            }
        )
    }
}

/// Sweeps crash-**during-recovery** states: for every persist-boundary
/// crash step, crash losing all dirty lines, interrupt the subsequent
/// recovery at each work budget in `budgets`, and crash again over
/// lost-line subsets of whatever the interrupted recovery left dirty. This
/// is the oracle's coverage of the recovery paths themselves — rollback and
/// replay writes, log retirement — which the plain [`explore`] sweep never
/// exercises mid-protocol.
pub fn explore_recovery(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
    budgets: &[u64],
) -> RecoveryExploration {
    let inst = instrument(spec, scheme);
    let (_, _, boundaries) = persist_boundaries(spec, &inst, cfg);
    let inst_ref = &inst;

    // One task per boundary: the first crash loses everything dirty (the
    // classic drop-all crash maximizes the recovery work available to
    // interrupt), then each budget that actually interrupts the recovery
    // fans out over subsets of the mid-recovery dirty set.
    type Outcome = (usize, usize, Option<(u64, Vec<usize>)>);
    let outcomes: Vec<Outcome> = ido_par::par_map_jobs(ido_par::jobs(), boundaries.clone(), |step| {
        let (mut vm, _) = make_vm(spec, inst_ref, cfg);
        vm.run_steps(step);
        let lost = vm.pool().dirty_lines();
        drop(vm);
        let mut interruptions = 0usize;
        let mut checked = 0usize;
        for &budget in budgets {
            let Some(dirty) =
                interrupted_recovery_dirty(spec, inst_ref, cfg, step, &lost, budget)
            else {
                continue;
            };
            interruptions += 1;
            for rec_lost in candidate_subsets(&dirty, cfg, step ^ budget.rotate_left(17)) {
                checked += 1;
                if check_recovery_crash_state(spec, inst_ref, cfg, step, &lost, budget, &rec_lost)
                    .is_err()
                {
                    return (interruptions, checked, Some((budget, rec_lost)));
                }
            }
        }
        (interruptions, checked, None)
    });

    let mut interruptions = 0usize;
    let mut explored = 0usize;
    let mut counterexample = None;
    for (&step, (ints, checked, fail)) in boundaries.iter().zip(outcomes) {
        interruptions += ints;
        explored += checked;
        if let Some((budget, mut rec_lost)) = fail {
            let (mut vm, _) = make_vm(spec, &inst, cfg);
            vm.run_steps(step);
            let lost = vm.pool().dirty_lines();
            drop(vm);
            // Greedily minimize the recovery-lost set.
            let mut failure = check_recovery_crash_state(
                spec, &inst, cfg, step, &lost, budget, &rec_lost,
            )
            .expect_err("failure must reproduce during shrinking");
            loop {
                let mut reduced = false;
                for i in 0..rec_lost.len() {
                    let mut cand = rec_lost.clone();
                    cand.remove(i);
                    if let Err(f) =
                        check_recovery_crash_state(spec, &inst, cfg, step, &lost, budget, &cand)
                    {
                        rec_lost = cand;
                        failure = f;
                        reduced = true;
                        break;
                    }
                }
                if !reduced {
                    break;
                }
            }
            counterexample = Some(RecoveryCounterexample {
                scheme,
                workload: spec.name(),
                seed: cfg.seed,
                crash_step: step,
                lost_lines: lost,
                recovery_budget: budget,
                recovery_lost_lines: rec_lost,
                failure,
            });
            break;
        }
    }

    RecoveryExploration {
        scheme,
        workload: spec.name(),
        boundary_steps: boundaries.len(),
        interruptions,
        crash_states_explored: explored,
        counterexample,
    }
}

/// Explores every persist-boundary crash step of `spec` under `scheme`,
/// covering lost-dirty-line subsets at each step, and shrinks the first
/// failure to a minimal [`Counterexample`].
pub fn explore(spec: &dyn WorkloadSpec, scheme: Scheme, cfg: &OracleConfig) -> Exploration {
    explore_jobs(ido_par::jobs(), spec, scheme, cfg)
}

/// [`explore`] with an explicit worker count for the per-chunk fan-out.
/// The determinism tests use this to compare `jobs = 1` against `jobs = N`
/// in-process without racing on the `IDO_JOBS` environment variable.
pub fn explore_jobs(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
) -> Exploration {
    let inst = instrument(spec, scheme);
    let (total_steps, persist_events, boundaries) = persist_boundaries(spec, &inst, cfg);

    // Fan contiguous chunks of boundaries out over ido-par's deterministic
    // ordered parallel map, one walker VM per chunk, each stopping at its
    // first failure. Chunks return in boundary order, so the states up to
    // the first failure *in input order* — and hence the count and the
    // shrunk counterexample — are identical for any job count: every
    // chunk before the failing one ran to its end. With several jobs each
    // gets a few chunks so the work balances; the extra replay of each
    // chunk's prefix is cheap next to checking its states.
    let chunks = if jobs <= 1 { 1 } else { jobs * 4 };
    let chunk_len = boundaries.len().div_ceil(chunks).max(1);
    let inst_ref = &inst;
    let mut states: Vec<StateVerdict> =
        ido_par::par_map_jobs(jobs, boundaries.chunks(chunk_len).collect(), |chunk| {
            walk(spec, inst_ref, cfg, chunk, true)
        })
        .into_iter()
        .flatten()
        .collect();

    // Serial semantics: count every state up to and including the first
    // failure; shrinking stays serial — it is a data-dependent greedy walk
    // from one failure.
    let first_failure = states.iter().position(|s| s.2.is_err());
    let explored = first_failure.map_or(states.len(), |i| i + 1);
    let mut shrinks = 0usize;
    let counterexample = first_failure.map(|i| {
        let (step, lost, verdict) = states.swap_remove(i);
        let failure = verdict.expect_err("position found a failure");
        shrink(spec, &inst, cfg, scheme, &boundaries, step, lost, failure, &mut shrinks)
    });

    Exploration {
        scheme,
        workload: spec.name(),
        seed: cfg.seed,
        total_steps,
        persist_events,
        boundary_steps: boundaries.len(),
        crash_states_explored: explored,
        shrink_attempts: shrinks,
        counterexample,
    }
}

/// Runs [`explore`] for every durable scheme (iDO + the five baselines).
pub fn explore_all(spec: &dyn WorkloadSpec, cfg: &OracleConfig) -> Vec<Exploration> {
    DURABLE_SCHEMES.iter().map(|&s| explore(spec, s, cfg)).collect()
}

/// Candidate lost-line sets for a crash point whose dirty lines are `dirty`:
/// the full powerset when `dirty` is small, a bounded deduplicated cover
/// (full set, empty set, singletons, co-singletons, seeded random subsets)
/// when it is large. The full set comes first — it is the classic
/// drop-all-dirty crash and the most likely to fail.
fn candidate_subsets(dirty: &[usize], cfg: &OracleConfig, step: u64) -> Vec<Vec<usize>> {
    let n = dirty.len();
    let pick = |mask: u64| -> Vec<usize> {
        dirty
            .iter()
            .enumerate()
            .filter(|(b, _)| mask & (1 << *b) != 0)
            .map(|(_, &l)| l)
            .collect()
    };
    if n <= cfg.exhaustive_subset_limit {
        // All 2^n subsets, descending mask so the full set is tried first.
        return (0..(1u64 << n)).rev().map(pick).collect();
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    fn push(s: Vec<usize>, seen: &mut std::collections::BTreeSet<Vec<usize>>, out: &mut Vec<Vec<usize>>) {
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    push(dirty.to_vec(), &mut seen, &mut out); // lose everything (≡ DropDirty)
    push(Vec::new(), &mut seen, &mut out); // lose nothing (≡ perfectly-timed eviction)
    for i in 0..n {
        push(vec![dirty[i]], &mut seen, &mut out); // singletons
        let mut co = dirty.to_vec();
        co.remove(i);
        push(co, &mut seen, &mut out); // co-singletons
    }
    // Seeded xorshift fills the remaining budget with random subsets;
    // deterministic in (seed, step).
    let mut x = (cfg.seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    for _ in 0..cfg.max_subsets_per_step * 4 {
        if out.len() >= cfg.max_subsets_per_step {
            break;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut mask = x;
        let s: Vec<usize> = dirty
            .iter()
            .filter(|_| {
                let keep = mask & 1 == 1;
                mask >>= 1;
                keep
            })
            .copied()
            .collect();
        push(s, &mut seen, &mut out);
    }
    out.truncate(cfg.max_subsets_per_step.max(2));
    out
}

/// Shrinks a failing `(step, lost)` pair: greedily drop lines that are not
/// needed to fail, then move the crash to the earliest boundary step where
/// the minimized set still fails. Captures the journal tail of the final
/// minimal case.
#[allow(clippy::too_many_arguments)]
fn shrink(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    scheme: Scheme,
    boundaries: &[u64],
    mut step: u64,
    mut lost: Vec<usize>,
    mut failure: String,
    attempts: &mut usize,
) -> Counterexample {
    loop {
        let mut reduced = false;
        for i in 0..lost.len() {
            let mut cand = lost.clone();
            cand.remove(i);
            *attempts += 1;
            if let Err(f) = check_crash_state(spec, inst, cfg, step, &cand) {
                lost = cand;
                failure = f;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    for &s in boundaries.iter().filter(|&&s| s < step) {
        *attempts += 1;
        if let Err(f) = check_crash_state(spec, inst, cfg, s, &lost) {
            step = s;
            failure = f;
            break;
        }
    }
    let journal_tail = capture_journal(spec, inst, cfg, step, &lost);
    Counterexample {
        scheme,
        workload: spec.name(),
        seed: cfg.seed,
        threads: cfg.threads,
        ops_per_thread: cfg.ops_per_thread,
        vm: cfg.vm.clone(),
        crash_step: step,
        lost_lines: lost,
        failure,
        journal_tail,
    }
}

/// Replays the failing case once more with journal retention enabled and
/// returns the persist events leading into (and including) the crash.
fn capture_journal(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    lost: &[usize],
) -> Vec<PersistEvent> {
    let (mut vm, _) = make_vm(spec, inst, cfg);
    vm.pool().record_journal(cfg.journal_tail.max(1));
    vm.run_steps(step);
    let pool = vm.crash_with(cfg.seed ^ CRASH_SALT, &CrashPolicy::losing(lost.iter().copied()));
    let tail = pool.journal_tail(cfg.journal_tail);
    pool.stop_journal();
    tail
}

/// Extracts a printable message from a caught panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic".to_string()
    }
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Suppresses the default panic-hook output for panics raised (and caught)
/// inside `f` on this thread. The oracle intentionally provokes panics by
/// the hundreds while probing and shrinking; printing a backtrace for each
/// would bury real output. Installed once, process-wide, forwarding to the
/// previous hook for every thread that is not currently probing — so
/// genuine test failures still print normally.
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let r = f();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_workloads::micro::TwinSpec;

    #[test]
    fn exhaustive_subsets_enumerate_the_powerset() {
        let cfg = OracleConfig::default();
        let subs = candidate_subsets(&[4, 9, 11], &cfg, 0);
        assert_eq!(subs.len(), 8);
        assert_eq!(subs[0], vec![4, 9, 11], "full set is tried first");
        assert!(subs.contains(&vec![]));
        assert!(subs.contains(&vec![9]));
        assert!(subs.contains(&vec![4, 11]));
    }

    #[test]
    fn bounded_cover_is_deduplicated_and_bounded() {
        let cfg = OracleConfig {
            exhaustive_subset_limit: 3,
            max_subsets_per_step: 30,
            ..OracleConfig::default()
        };
        let dirty: Vec<usize> = (0..10).collect();
        let subs = candidate_subsets(&dirty, &cfg, 7);
        assert!(subs.len() <= 30);
        assert_eq!(subs[0], dirty, "full set first");
        assert!(subs.contains(&vec![]));
        for i in 0..10usize {
            assert!(subs.contains(&vec![i]), "singleton {{{i}}} covered");
        }
        let unique: std::collections::BTreeSet<_> = subs.iter().cloned().collect();
        assert_eq!(unique.len(), subs.len(), "no duplicate subsets");
        // Deterministic in (seed, step); the random tail varies by step.
        assert_eq!(subs, candidate_subsets(&dirty, &cfg, 7));
        assert_ne!(subs, candidate_subsets(&dirty, &cfg, 8));
    }

    #[test]
    fn boundaries_start_at_zero_and_end_at_total() {
        let cfg = OracleConfig { threads: 1, ops_per_thread: 1, ..OracleConfig::default() };
        let inst = instrument(&TwinSpec, Scheme::Ido);
        let (total, events, bounds) = persist_boundaries(&TwinSpec, &inst, &cfg);
        assert!(total > 0 && events > 0);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), total);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(
            (bounds.len() as u64) <= total,
            "boundary compression must not exceed step count"
        );
        // Deterministic: same config, same boundaries.
        assert_eq!(persist_boundaries(&TwinSpec, &inst, &cfg), (total, events, bounds));
    }

    #[test]
    fn check_crash_state_passes_on_a_correct_scheme() {
        let cfg = OracleConfig { threads: 1, ops_per_thread: 1, ..OracleConfig::default() };
        let inst = instrument(&TwinSpec, Scheme::Ido);
        assert_eq!(check_crash_state(&TwinSpec, &inst, &cfg, 0, &[]), Ok(()));
        let (total, _, _) = persist_boundaries(&TwinSpec, &inst, &cfg);
        assert_eq!(check_crash_state(&TwinSpec, &inst, &cfg, total, &[]), Ok(()));
    }
}
