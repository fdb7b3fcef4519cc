//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts: other tenants
//! contend for the cores' caches and for memory bandwidth, and a run that
//! happens to land in a busy stretch reads slower although the program did
//! not change. Right after each timed unit (a set-up repetition or a window
//! iteration) the benchmark runs a fixed kernel of its own for a small share
//! of that unit's wall time and records the kernel's time per repetition.
//! The end-to-end times are then reported in *reference seconds*: wall ×
//! [`REF_REP_S`] / the kernel's time per repetition measured alongside.
//! The kernel touches no workspace crate, so a change to the program moves
//! the wall and not the kernel; the raw walls are reported too, as
//! per-layer metrics.
//!
//! The kernel mixes the two kinds of work the measured pipeline does: a
//! small register-machine interpreter (the VM's dispatch loop: indirect
//! jumps, data-dependent branches, loads and stores spread over a few MiB)
//! and a copy streamed through a buffer larger than the last-level cache
//! (pool formatting, crash images and recovery move whole pools). A plain
//! dependent hash chain was tried first; it did not slow down when the
//! pipeline did, so it could not track the host.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use crate::util::splitmix64;

/// Kernel time per repetition on the 2-vCPU host the benchmark was tuned
/// on, as the median of many samples: on that host a reference second is
/// about a wall second.
pub const REF_REP_S: f64 = 7.7e-4;
/// Calibration time as a share of the timed unit it follows.
pub const SHARE: f64 = 0.05;
/// Fewest kernel repetitions per sample.
const MIN_REPS: u32 = 4;
/// The kernel's buffer: 40 MiB, larger than a last-level cache. It is one
/// allocation above glibc's largest dynamic mmap threshold (32 MiB), made
/// once and never freed, so it leaves the allocator's thresholds — and with
/// them how the measured program's own allocations are served — untouched.
pub const BUFFER_MIB: f64 = 40.0;
const WORDS: usize = 5 << 20;
/// Words copied per repetition (1 MiB).
const CHUNK_WORDS: usize = 128 << 10;
/// Words of the buffer the interpreter's loads and stores reach (4 MiB).
const DATA_MASK: usize = (512 << 10) - 1;
/// Interpreter instructions.
const PROG_LEN: usize = 256;
/// Interpreter steps per repetition.
const STEPS: usize = 200_000;

/// One interpreter instruction: opcode, two register numbers, immediate.
type Inst = (u8, usize, usize, u64);

/// The calibration kernel and its buffer.
struct HostClock {
    buf: Vec<u64>,
    prog: Vec<Inst>,
    regs: [u64; 16],
    pc: usize,
    next: usize,
}

thread_local! {
    static CLOCK: RefCell<Option<HostClock>> = const { RefCell::new(None) };
}

impl HostClock {
    fn rep(&mut self) {
        let chunks = WORDS / CHUNK_WORDS;
        let from = self.next * CHUNK_WORDS;
        let to = (self.next + chunks / 2) % chunks * CHUNK_WORDS;
        self.next = (self.next + 1) % chunks;
        self.buf.copy_within(from..from + CHUNK_WORDS, to);
        let (r, mem) = (&mut self.regs, &mut self.buf[..=DATA_MASK]);
        let mut pc = self.pc;
        for _ in 0..STEPS {
            let (op, a, b, imm) = self.prog[pc];
            pc = (pc + 1) % PROG_LEN;
            match op {
                0 => r[a] = r[b].wrapping_add(imm),
                1 => r[a] ^= r[b].rotate_left(imm as u32 & 63),
                2 => r[a] = r[a].wrapping_mul(r[b] | 1),
                3 => r[a] = mem[(r[b] ^ imm) as usize & DATA_MASK],
                4 => mem[(r[b].wrapping_add(imm)) as usize & DATA_MASK] = r[a],
                5 if r[a] & 1 == 0 => pc = imm as usize % PROG_LEN,
                _ => r[a] = r[a].wrapping_sub(r[b] >> 3),
            }
        }
        self.pc = black_box(pc);
    }
}

/// Allocates and fills the kernel's buffer (not timed). Call once, before
/// the first timed unit.
pub fn init() {
    CLOCK.with(|c| {
        c.borrow_mut().get_or_insert_with(|| HostClock {
            buf: (0..WORDS as u64).map(splitmix64).collect(),
            prog: (0..PROG_LEN as u64)
                .map(|i| {
                    let x = splitmix64(!i);
                    (
                        (x % 7) as u8,
                        (x >> 8) as usize % 16,
                        (x >> 16) as usize % 16,
                        x >> 24,
                    )
                })
                .collect(),
            regs: std::array::from_fn(|i| splitmix64(i as u64)),
            pc: 0,
            next: 0,
        });
    });
}

/// Runs the kernel for [`SHARE`] of `unit_wall_s` (at least [`MIN_REPS`]
/// repetitions) and returns its seconds per repetition.
pub fn sample(unit_wall_s: f64) -> f64 {
    init();
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        let clock = c.as_mut().expect("initialised");
        let t0 = Instant::now();
        let mut reps = 0u32;
        while reps < MIN_REPS || t0.elapsed().as_secs_f64() < SHARE * unit_wall_s {
            clock.rep();
            reps += 1;
        }
        t0.elapsed().as_secs_f64() / reps as f64
    })
}

/// `wall_s` in reference seconds, given the kernel's time per repetition
/// measured alongside.
pub fn to_ref_s(wall_s: f64, rep_s: f64) -> f64 {
    wall_s * REF_REP_S / rep_s
}
