//! `crash_with` against a full-scan reference, and checkpoint/rollback
//! against the state it must restore, over seeded random operation mixes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use super::*;

/// 128 lines: the dirty bitmap spans two words.
const POOL_BYTES: usize = 128 * CACHE_LINE;

fn pool(traced: bool) -> PmemPool {
    let mut cfg = PoolConfig { size: POOL_BYTES, ..PoolConfig::small_for_tests() };
    if traced {
        cfg.trace = TraceConfig { enabled: true, buf_entries: 64 };
        cfg.metrics = MetricsConfig::with_window(1_000);
    }
    PmemPool::new(cfg)
}

/// Everything about a pool that a crash or a rollback may change.
#[derive(Debug, PartialEq, Eq)]
struct State {
    volatile: Vec<u64>,
    persistent: Vec<u64>,
    dirty: Vec<usize>,
    persist_events: u64,
    crashes: u64,
    stats: StatsSnapshot,
    trace_bufs: usize,
    metrics_bufs: usize,
}

fn state(p: &PmemPool) -> State {
    let i = &*p.inner;
    let image = |v: &[AtomicU64]| v.iter().map(|w| w.load(Ordering::Relaxed)).collect();
    State {
        volatile: image(&i.volatile),
        persistent: image(&i.persistent),
        dirty: p.dirty_lines(),
        persist_events: p.persist_event_count(),
        crashes: p.crash_count(),
        stats: p.global_stats(),
        trace_bufs: i.trace_bufs.lock().unwrap().len(),
        metrics_bufs: i.metrics_bufs.lock().unwrap().len(),
    }
}

/// The crash as a full scan: every line is tested, survivors are written
/// back, and then the whole volatile image is reloaded from the
/// persistent one. `crash_with` must be indistinguishable from it.
fn reference_crash(p: &PmemPool, seed: u64, policy: &CrashPolicy) -> CrashOutcome {
    let inner = &*p.inner;
    let mut rng = SplitMix64::new(seed ^ 0x1d0_c4a5);
    let (mut evicted, mut dropped) = (0, 0);
    for l in 0..inner.config.size / CACHE_LINE {
        if !inner.is_dirty(l) {
            continue;
        }
        let survive = match policy {
            CrashPolicy::DropDirty => false,
            CrashPolicy::EvictAll => true,
            CrashPolicy::Random { persist_permille } => (rng.next() % 1000) < *persist_permille as u64,
            CrashPolicy::Subset { lost } => !lost.contains(&l),
        };
        if survive {
            inner.writeback_line(l);
            evicted += 1;
        } else {
            dropped += 1;
        }
        inner.clear_dirty(l);
    }
    for (v, p) in inner.volatile.iter().zip(inner.persistent.iter()) {
        v.store(p.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    inner.crashes.fetch_add(1, Ordering::Relaxed);
    inner.journal.record(
        || PersistEventKind::Crash { policy: policy.name(), evicted, dropped },
        || {},
    );
    CrashOutcome { lines_evicted: evicted, lines_dropped: dropped }
}

/// `n` random persistence operations: every store variant, `clwb` of
/// dirty and clean lines, and fences (so some lines stay written back
/// but unfenced in `h`'s queue).
fn random_ops(h: &mut PmemHandle, rng: &mut SplitMix64, n: usize) {
    let words = POOL_BYTES as u64 / 8;
    for _ in 0..n {
        let addr = (rng.next() % words) as usize * 8;
        let v = rng.next();
        match rng.next() % 10 {
            0 | 1 => h.write_u64(addr, v),
            2 => h.log_write_u64(addr, v),
            3 => {
                let len = (v % 150) as usize;
                let start = (rng.next() as usize) % (POOL_BYTES - len);
                h.write_bytes(start, &v.to_le_bytes().repeat(len.div_ceil(8))[..len]);
            }
            4 => h.nt_store_u64(addr, v),
            5 => {
                h.fetch_or_u64(addr, v);
                h.fetch_and_u64(addr, !v >> 3);
            }
            6 => {
                let cur = if v.is_multiple_of(2) { h.read_u64(addr) } else { v };
                let _ = h.compare_exchange_u64(addr, cur, v.rotate_left(7));
            }
            7 | 8 => h.clwb(addr),
            _ => h.sfence(),
        }
    }
}

fn random_policy(p: &PmemPool, rng: &mut SplitMix64) -> CrashPolicy {
    match rng.next() % 4 {
        0 => CrashPolicy::DropDirty,
        1 => CrashPolicy::EvictAll,
        2 => CrashPolicy::Random { persist_permille: (rng.next() % 1001) as u16 },
        _ => {
            // Some dirty lines plus one line that may be clean (ignored).
            let mut lost: Vec<usize> =
                p.dirty_lines().into_iter().filter(|_| rng.next().is_multiple_of(2)).collect();
            lost.push((rng.next() % 128) as usize);
            CrashPolicy::losing(lost)
        }
    }
}

/// Builds the same random pool twice: some handles dropped (stats folded
/// in), one kept alive with write-backs still pending.
fn twin_pools(seed: u64, traced: bool) -> [(PmemPool, PmemHandle); 2] {
    [(); 2].map(|_| {
        let p = pool(traced);
        let mut rng = SplitMix64::new(seed);
        let mut done = p.handle();
        random_ops(&mut done, &mut rng, 60);
        drop(done);
        let mut live = p.handle();
        random_ops(&mut live, &mut rng, 60);
        for i in 0..4 {
            live.clwb(i * 3 * CACHE_LINE);
        }
        (p, live)
    })
}

#[test]
fn crash_with_matches_the_full_scan_reference() {
    let mut policies_seen = [false; 4];
    for seed in 0..200u64 {
        let [(a, ha), (b, hb)] = twin_pools(seed, false);
        drop((ha, hb));
        assert_eq!(state(&a), state(&b), "seed {seed}: twins diverged before the crash");
        let policy = random_policy(&a, &mut SplitMix64::new(seed ^ 0x5eed));
        policies_seen[match policy {
            CrashPolicy::DropDirty => 0,
            CrashPolicy::EvictAll => 1,
            CrashPolicy::Random { .. } => 2,
            CrashPolicy::Subset { .. } => 3,
        }] = true;
        let dirty_before = a.dirty_lines();
        let got = a.crash_with(seed, &policy);
        let want = reference_crash(&b, seed, &policy);
        assert_eq!(got, want, "seed {seed}: {policy:?}");
        assert_eq!(got.lines_evicted + got.lines_dropped, dirty_before.len());
        assert_eq!(state(&a), state(&b), "seed {seed}: {policy:?}");
        assert!(a.dirty_lines().is_empty());
    }
    assert_eq!(policies_seen, [true; 4]);
}

/// Post-checkpoint chaos: a new handle's random ops (some left pending),
/// a crash, a recovery whose handle panics half the time, sometimes a
/// second crash.
fn chaos(p: &PmemPool, rng: &mut SplitMix64) {
    let mut h = p.handle();
    random_ops(&mut h, rng, 80);
    drop(h);
    let policy = random_policy(p, rng);
    p.crash_with(rng.next(), &policy);
    let panics = rng.next().is_multiple_of(2);
    let seed = rng.next();
    let r = catch_unwind(AssertUnwindSafe(|| {
        let mut rec = p.handle();
        let mut rng = SplitMix64::new(seed);
        random_ops(&mut rec, &mut rng, 40);
        if panics {
            // Fails its bounds check before writing anything.
            rec.write_bytes(POOL_BYTES - 8, &[1; 16]);
        }
        random_ops(&mut rec, &mut rng, 40);
    }));
    assert_eq!(r.is_err(), panics);
    if rng.next().is_multiple_of(3) {
        p.crash_with(rng.next(), &CrashPolicy::DropDirty);
    }
}

#[test]
fn rollback_restores_the_checkpointed_state() {
    for seed in 0..120u64 {
        let [(p, live), _] = twin_pools(seed, seed % 2 == 1);
        let before = state(&p);
        let mut rng = SplitMix64::new(seed.wrapping_mul(31));
        for _ in 0..3 {
            // The checkpoint's undo log is reused across rounds.
            p.checkpoint();
            chaos(&p, &mut rng);
            p.rollback();
            assert_eq!(state(&p), before, "seed {seed}");
        }
        drop(live);
    }
}

#[test]
fn a_run_resumed_after_rollback_matches_an_uninterrupted_twin() {
    for seed in 0..120u64 {
        let [(a, mut ha), (b, mut hb)] = twin_pools(seed, seed.is_multiple_of(2));
        a.checkpoint();
        chaos(&a, &mut SplitMix64::new(seed ^ 0xc4a05));
        a.rollback();
        // The paused handle resumes on both; its pending write-backs,
        // fenced now, must land on the restored images.
        for (p, h) in [(&a, &mut ha), (&b, &mut hb)] {
            let mut rng = SplitMix64::new(seed ^ 0x7e57);
            random_ops(h, &mut rng, 60);
            h.sfence();
            let policy = random_policy(p, &mut rng);
            p.crash_with(seed, &policy);
        }
        drop((ha, hb));
        assert_eq!(state(&a), state(&b), "seed {seed}");
    }
}

#[test]
fn stores_under_a_checkpoint_capture_each_line_once() {
    let p = pool(false);
    let mut h = p.handle();
    h.write_u64(64, 1); // dirty at the checkpoint
    p.checkpoint();
    h.write_u64(64, 2);
    h.write_u64(72, 3);
    h.write_bytes(120, &[9; 16]); // lines 1 and 2
    h.nt_store_u64(512, 4);
    h.nt_store_u64(520, 5);
    let captured = p.inner.lock_undo().drain().map(|s| (s.line, s.dirty)).collect::<Vec<_>>();
    assert_eq!(captured, [(1, true), (2, false), (8, false)]);
}

#[test]
#[should_panic(expected = "checkpoint already open")]
fn nested_checkpoints_are_refused() {
    let p = pool(false);
    p.checkpoint();
    p.checkpoint();
}

#[test]
#[should_panic(expected = "rollback without a checkpoint")]
fn rollback_needs_a_checkpoint() {
    pool(false).rollback();
}
