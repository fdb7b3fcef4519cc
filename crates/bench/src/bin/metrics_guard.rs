//! Metrics-off overhead guard: the CI gate that pins "disabled metrics
//! are free" as a measured number, not a code-review promise.
//!
//! Two identical store loops run under Origin with metrics disabled; one
//! brackets every iteration with `op_begin`/`op_end` markers. With
//! metrics off each marker is a single untaken branch on a
//! null-pointer-optimized `Option`, so the *per-step* wall cost of the
//! marked loop must match the unmarked one. Wall-clock noise is tamed by
//! taking the best of N runs of a deterministic workload (the minimum
//! filters scheduler interference; the work itself is identical every
//! run) and the gate still carries headroom over the expected ~1%.
//! `IDO_GUARD_TOL` overrides the tolerance (fraction, default 0.05).
//!
//! A metrics-on run is also measured and reported (informational — the
//! enabled path is priced separately by `service_bench`).

use std::time::Instant;

use ido_compiler::{instrument_program, Scheme};
use ido_ir::{BinOp, Program, ProgramBuilder};
use ido_nvm::MetricsConfig;
use ido_vm::{RunOutcome, SchedPolicy, Vm, VmConfig};

const BEST_OF: usize = 7;

/// `worker(n)`: a store-per-iteration loop, optionally bracketed by
/// op-span markers — the same distilled hot path the zero-allocation
/// test pins, here priced in wall ns/step.
fn store_loop(markers: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("worker", 1);
    let n = f.param(0);
    let i = f.new_reg();
    let base = f.new_reg();

    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();

    f.alloc(base, 64i64);
    f.mov(i, 0i64);
    f.jump(head);

    f.switch_to(head);
    let c = f.new_reg();
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);

    f.switch_to(body);
    if markers {
        f.op_begin(2i64);
    }
    f.store(base, 0, i);
    if markers {
        f.op_end(2i64);
    }
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(head);

    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("guard loop verifies");
    pb.finish()
}

/// Best-of-N wall nanoseconds per interpreter step for one configuration.
fn best_ns_per_step(markers: bool, metrics: MetricsConfig, iters: u64) -> f64 {
    let inst = instrument_program(store_loop(markers), Scheme::Origin)
        .expect("origin instrumentation is the identity");
    let mut best = f64::INFINITY;
    for _ in 0..BEST_OF {
        let mut cfg = VmConfig::for_tests();
        cfg.sched = SchedPolicy::MinClock;
        cfg.pool.metrics = metrics;
        let mut vm = Vm::new(inst.clone(), cfg);
        vm.spawn("worker", &[iters]);
        let t0 = Instant::now();
        assert_eq!(vm.run(), RunOutcome::Completed);
        let wall = t0.elapsed().as_nanos() as f64;
        best = best.min(wall / vm.steps() as f64);
    }
    best
}

fn main() {
    let quick = ido_bench::quick();
    let iters: u64 = if quick { 300_000 } else { 1_000_000 };
    let tol: f64 = std::env::var("IDO_GUARD_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);

    let plain = best_ns_per_step(false, MetricsConfig::default(), iters);
    let marked_off = best_ns_per_step(true, MetricsConfig::default(), iters);
    let marked_on = best_ns_per_step(true, MetricsConfig::with_window(1 << 40), iters);

    let off_overhead = marked_off / plain - 1.0;
    println!("== metrics_guard — {iters} iterations, best of {BEST_OF} ==");
    println!("  unmarked,    metrics off: {plain:.3} ns/step");
    println!(
        "  marked,      metrics off: {marked_off:.3} ns/step  ({:+.2}% per step)",
        off_overhead * 100.0
    );
    println!(
        "  marked,      metrics on : {marked_on:.3} ns/step  ({:+.2}% vs marked-off)",
        (marked_on / marked_off - 1.0) * 100.0
    );

    assert!(
        off_overhead <= tol,
        "disabled metrics must be free: marked loop costs {:.2}% more per step \
         (tolerance {:.0}%)",
        off_overhead * 100.0,
        tol * 100.0
    );
    println!("metrics guard OK: disabled-path overhead {:.2}% <= {:.0}%", off_overhead * 100.0, tol * 100.0);
}
