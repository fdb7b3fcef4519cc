//! The line-granular undo log behind [`crate::PmemPool::checkpoint`] and
//! [`crate::PmemPool::rollback`].
//!
//! The log only does bookkeeping: which lines have been saved since the
//! checkpoint, their saved images, and the pool-wide counters to restore.
//! The pool decides what a line's pre-image is (see `PmemPool::checkpoint`
//! for the clean-line invariant that makes first-touch capture exact).

use crate::line::WORDS_PER_LINE;
use crate::stats::StatsSnapshot;

/// One line's contents as they were at the checkpoint.
pub(crate) struct SavedLine {
    pub line: usize,
    pub volatile: [u64; WORDS_PER_LINE],
    pub persistent: [u64; WORDS_PER_LINE],
    pub dirty: bool,
}

/// Pool-wide state outside the line images, as it was at the checkpoint.
#[derive(Default, Clone, Copy)]
pub(crate) struct Marks {
    pub seq: u64,
    pub crashes: u64,
    pub stats: StatsSnapshot,
    pub trace_bufs: usize,
    pub trace_next_tid: u64,
    pub metrics_bufs: usize,
    pub metrics_next_tid: u64,
}

/// The undo log of the open checkpoint (empty when none is open).
#[derive(Default)]
pub(crate) struct UndoLog {
    /// One bit per pool line: set once the line is in `saved`. Allocated
    /// at the first checkpoint and reused; rollback clears only the bits
    /// it set, so its cost follows the lines touched, not the pool size.
    captured: Vec<u64>,
    saved: Vec<SavedLine>,
    pub marks: Marks,
}

impl UndoLog {
    /// Starts a log over a pool of `lines` lines.
    pub fn open(&mut self, lines: usize, marks: Marks) {
        self.captured.resize(lines.div_ceil(64), 0);
        self.marks = marks;
    }

    /// Marks `line` captured; true the first time since [`UndoLog::open`].
    #[inline]
    pub fn first_touch(&mut self, line: usize) -> bool {
        let (w, bit) = (line / 64, 1u64 << (line % 64));
        let fresh = self.captured[w] & bit == 0;
        self.captured[w] |= bit;
        fresh
    }

    /// True if `line` has been saved since [`UndoLog::open`].
    pub fn is_captured(&self, line: usize) -> bool {
        self.captured.get(line / 64).is_some_and(|w| w & (1 << (line % 64)) != 0)
    }

    /// Records a line's pre-image (call once, after `first_touch`).
    pub fn save(&mut self, saved: SavedLine) {
        self.saved.push(saved);
    }

    /// Empties the log, yielding every saved line; the capacity of both
    /// buffers is kept for the next checkpoint.
    pub fn drain(&mut self) -> impl Iterator<Item = SavedLine> + '_ {
        let captured = &mut self.captured;
        self.saved.drain(..).inspect(move |s| captured[s.line / 64] &= !(1u64 << (s.line % 64)))
    }
}
