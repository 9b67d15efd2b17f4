//! The iterative-improvement engine: Sanchis-style multi-way FM passes
//! with the paper's solution selection, feasible-move regions, and dual
//! solution-stack restarts.
//!
//! One [`improve`] call corresponds to one `Improve(...)` invocation in
//! the paper's Algorithm 1: a first series of FM passes over the given
//! active blocks, then (when enabled) restart series from every solution
//! retained in the semi-feasible and infeasible stacks, keeping the
//! overall best solution under the lexicographic key of §3.4.
//!
//! One `PassEngine` serves every pass of a call. Its buffers (gain
//! buckets, locks, scratch, gain caches) are sized by the call's cell
//! list and indexed by position in it, and a pass resets what the last
//! one touched instead of reallocating. Gains survive the pass that
//! computed them: a move stamps the cells sharing a net with it, the
//! next bucket build recomputes level-1 gains only for stamped cells,
//! and tie-break gains are reused within a pass until a pin of one of
//! the cell's nets moves. Results are bit-identical to recomputing every
//! gain; debug builds check every reused value against the gain
//! functions of [`crate::gain`].
//!
//! A pass is a function of the cells' assignment when it starts, and the
//! restart series often reach an assignment an earlier pass of the call
//! started from (the call's best solution, for one, whose confirming pass
//! the first series already ran). The engine therefore keeps
//! a memo of the call's passes, keyed by that assignment: a restart
//! pass that finds its start there applies the recorded kept moves
//! instead of searching again. Debug builds run every replayed pass as
//! well and compare its outcome and end assignment with the memo.

use std::hash::{Hash as _, Hasher as _};

use fpart_hypergraph::NodeId;

use crate::bucket::GainBucket;
use crate::config::{FpartConfig, GainObjective};
use crate::constraints::{MoveRegions, PassKind};
use crate::cost::{CostEvaluator, KeyTracker, SolutionKey};
use crate::gain::{deltas_for_move, io_gain, io_gain_net, level1_gain, level2_gain, level_gain};
use crate::obs::{Counter, Metrics};
use crate::stack::DualStacks;
use crate::state::PartitionState;

/// Maximum cells inspected per gain level when selecting a move; bounds
/// the lazy second-level-gain tie-break work per selection.
const SELECTION_SCAN_CAP: usize = 64;

/// Highest tie-break gain level the engine supports
/// (`FpartConfig::validate` caps `gain_levels` at 4, so levels 2..=4 fill
/// at most three slots of the fixed tie array).
const MAX_TIE_LEVELS: usize = 3;

/// Sentinel for [`ImproveContext::remainder`] meaning "no remainder".
pub const NO_REMAINDER: usize = usize::MAX;

/// The remainder as an `Option`, guarding the sentinel and stale indices.
fn remainder_opt(ctx: &ImproveContext<'_>, state: &PartitionState<'_>) -> Option<usize> {
    (ctx.remainder < state.block_count()).then_some(ctx.remainder)
}

/// Shared context of one improvement call.
#[derive(Debug)]
pub struct ImproveContext<'c> {
    /// Solution-quality evaluator (device, λ weights, M, |Y₀|).
    pub evaluator: &'c CostEvaluator,
    /// Algorithm configuration.
    pub config: &'c FpartConfig,
    /// Index of the block currently designated the remainder `R_k`.
    /// Pass [`NO_REMAINDER`] when no block is distinguished (e.g. during
    /// multilevel refinement): no block is then exempt from the move
    /// regions and the `d_k^R` penalty is skipped.
    pub remainder: usize,
    /// `true` once the iteration count has exceeded the lower bound `M`
    /// (disables size-violating moves, §3.5).
    pub minimum_reached: bool,
    /// Execution budget for this run, checked at every pass boundary
    /// (including before the first pass) and before each stack-restart
    /// series. `None` means unlimited and costs one branch per boundary.
    pub budget: Option<&'c crate::budget::BudgetTracker>,
}

/// Statistics of one improvement call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImproveStats {
    /// FM passes executed (including restart series and passes replayed
    /// from the pass memo).
    pub passes: usize,
    /// Cell moves retained across all passes.
    pub moves: usize,
    /// Restart series launched from stacked solutions.
    pub restarts: usize,
    /// Solution key before the call.
    pub initial_key: SolutionKey,
    /// Solution key after the call (never worse than `initial_key`).
    pub final_key: SolutionKey,
}

/// Scratch buffers of the move loop, reserved once per improvement call.
///
/// All capacities are reserved when the pass engine is built, so the
/// per-move hot path (`select_move` + `apply_move`) performs **no heap
/// allocation**; debug builds assert the capacities never grow. Per-cell
/// buffers are indexed by position in the call's cell list.
struct PassScratch {
    /// Pre-move `(pins_in(from), pins_in(to))` per net of the moved cell.
    pre: Vec<(u32, u32)>,
    /// Enabled directions with their optimistic max gains (`select_move`).
    dir_max: Vec<(usize, usize, i32)>,
    /// Epoch stamps per cell position: `visited[p] == epoch` ⇔ cell `p`
    /// was already seen while processing the current move.
    visited: Vec<u32>,
    /// Positions of the unique unlocked neighbours of the current move
    /// (I/O objective).
    touched: Vec<u32>,
    /// Per-(position, target-slot) accumulated I/O gain deltas; rows are
    /// lazily zeroed when a neighbour is first stamped.
    io_delta: Vec<i32>,
    /// Current epoch for `visited` (0 means "never stamped").
    epoch: u32,
}

impl PassScratch {
    fn new(cells: usize, max_degree: usize, slots: usize, io_pins: bool) -> Self {
        PassScratch {
            pre: Vec::with_capacity(max_degree),
            dir_max: Vec::with_capacity(slots * slots),
            // The I/O-pin buffers are only touched by `update_io_gains`;
            // keep them empty under the cut-net objective.
            visited: if io_pins { vec![0; cells] } else { Vec::new() },
            touched: if io_pins { Vec::with_capacity(cells) } else { Vec::new() },
            io_delta: if io_pins { vec![0; cells * slots] } else { Vec::new() },
            epoch: 0,
        }
    }

    /// Starts a new move: advances the visited epoch (clearing the stamp
    /// array only on the once-in-4-billion wraparound).
    #[inline]
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Index of target slot `ts` among the `slots − 1` targets of a cell in
/// slot `fs` (the own slot is skipped).
#[inline]
fn target(fs: usize, ts: usize) -> usize {
    debug_assert_ne!(fs, ts, "a cell never targets its own block");
    ts - usize::from(ts > fs)
}

/// Gains that outlive the pass that computed them.
///
/// A move can change a gain only of a cell that shares a net with the
/// moved cell, so every move stamps the pins of the moved cell's nets
/// with a logical clock. A level-1 gain is recomputed at the next bucket
/// build only for a cell stamped since the previous build; any other
/// cell keeps the gain its bucket last held, which no move adjusted. A
/// tie-break gain (levels 2..=L) is reused within its pass until one of
/// the cell's nets has a pin move; tie entries are indexed by
/// `position · (slots − 1) + target`. Debug builds compare every reused
/// value with the from-scratch gain function.
#[derive(Clone)]
struct GainCache {
    /// Logical time, advanced by every move, every restore and every
    /// pass start.
    clock: u32,
    /// Per position: when a pin of one of the cell's nets last moved.
    changed: Vec<u32>,
    /// When the buckets were last built.
    built_at: u32,
    /// When the current pass started: tie gains of earlier passes saw
    /// other locks.
    pass_start: u32,
    /// Per entry: when `ties` was computed (0 = never).
    tie_at: Vec<u32>,
    /// Per entry: the gains of levels 2..=L, `tie_levels` values each.
    ties: Vec<i32>,
    tie_levels: usize,
}

impl GainCache {
    fn new(cells: usize, targets: usize, gain_levels: u8) -> Self {
        let tie_levels = usize::from(gain_levels) - 1;
        let tie_entries = if tie_levels > 0 { cells * targets } else { 0 };
        GainCache {
            clock: 1,
            // Stamped after `built_at`: the first build computes everything.
            changed: vec![1; cells],
            built_at: 0,
            pass_start: 1,
            tie_at: vec![0; tie_entries],
            ties: vec![0; tie_entries * tie_levels],
            tie_levels,
        }
    }

    /// Advances the clock and returns the new time. On the (4-billion
    /// event) wraparound every cached gain is declared stale.
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.changed.fill(1);
            self.tie_at.fill(0);
            self.built_at = 0;
            self.pass_start = 1;
            self.clock = 1;
        }
        self.clock += 1;
        self.clock
    }

    /// Whether the level-1 gains of cell `p` may have changed since the
    /// last bucket build.
    #[inline]
    fn level1_stale(&self, p: usize) -> bool {
        self.changed[p] > self.built_at
    }

    /// The tie-break gains of entry `e` (cell `p`), from the cache when
    /// no pin of the cell's nets moved since they were computed in this
    /// pass, else from `fresh`.
    #[inline]
    fn ties(
        &mut self,
        p: usize,
        e: usize,
        fresh: impl FnOnce() -> [i32; MAX_TIE_LEVELS],
    ) -> [i32; MAX_TIE_LEVELS] {
        let row = e * self.tie_levels..(e + 1) * self.tie_levels;
        let at = self.tie_at[e];
        if at >= self.pass_start && at >= self.changed[p] {
            let mut tie = [0i32; MAX_TIE_LEVELS];
            tie[..self.tie_levels].copy_from_slice(&self.ties[row]);
            debug_assert_eq!(tie, fresh(), "stale tie-break gains for cell position {p}");
            return tie;
        }
        let tie = fresh();
        self.ties[row].copy_from_slice(&tie[..self.tie_levels]);
        self.tie_at[e] = self.clock;
        tie
    }
}

/// The gains of levels 2..=`levels` of a move, from scratch (the tie
/// array's unused slots stay 0).
fn tie_gains(
    state: &PartitionState<'_>,
    node: NodeId,
    to: usize,
    locked: &[bool],
    levels: u8,
) -> [i32; MAX_TIE_LEVELS] {
    let mut tie = [0i32; MAX_TIE_LEVELS];
    for level in 2..=levels {
        tie[usize::from(level) - 2] = if level == 2 {
            level2_gain(state, node, to, locked)
        } else {
            level_gain(state, node, to, locked, level)
        };
    }
    tie
}

/// The outcome of a pass: whether it improved the key, how many moves
/// it kept and the best key it reached.
type PassOutcome = (bool, usize, SolutionKey);

/// One pass recorded in a [`PassMemo`].
struct PassEntry {
    /// Hash of the start assignment.
    hash: u64,
    /// The pass's kept moves, as a range of [`PassMemo::moves`].
    moves: std::ops::Range<usize>,
    improved: bool,
    best_key: SolutionKey,
}

/// The outcomes of the passes of one improvement call, keyed by the
/// cells' assignment when each pass started.
///
/// A pass depends on nothing else: its buckets are rebuilt in `cells`
/// order from exact gains, its locks and tie-break gains start empty,
/// and cells outside the call never move. A hit compares the whole start
/// assignment, so a hash collision costs a comparison, never a wrong
/// replay. The memo holds one start assignment (one slot index per cell)
/// and the kept moves per pass of the call, and is dropped with it.
struct PassMemo {
    /// Bytes per slot index: 1, 2 or 4, by the number of active blocks.
    width: usize,
    /// The start assignment of the pass about to run.
    probe: Vec<u8>,
    /// The start assignments of the recorded passes, concatenated.
    starts: Vec<u8>,
    /// The kept moves of the recorded passes, concatenated: the cell and
    /// its target block.
    moves: Vec<(NodeId, u32)>,
    entries: Vec<PassEntry>,
}

impl PassMemo {
    fn new(slots: usize) -> Self {
        let width = if slots <= 1 << 8 {
            1
        } else if slots <= 1 << 16 {
            2
        } else {
            4
        };
        PassMemo {
            width,
            probe: Vec::new(),
            starts: Vec::new(),
            moves: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The recorded pass that started from the assignment in `probe`.
    fn lookup(&self, hash: u64) -> Option<usize> {
        let len = self.probe.len();
        self.entries.iter().enumerate().position(|(i, e)| {
            e.hash == hash && self.starts[i * len..(i + 1) * len] == self.probe[..]
        })
    }

    /// Records a pass that started from the assignment in `probe`.
    fn record(&mut self, hash: u64, outcome: PassOutcome, kept: &[(NodeId, usize, usize)]) {
        let (improved, _, best_key) = outcome;
        self.starts.extend_from_slice(&self.probe);
        let first = self.moves.len();
        self.moves.extend(kept.iter().map(|&(v, _, to)| (v, to as u32)));
        self.entries.push(PassEntry { hash, moves: first..self.moves.len(), improved, best_key });
    }

    /// Forgets every recorded pass.
    #[cfg(test)]
    fn clear(&mut self) {
        self.starts.clear();
        self.moves.clear();
        self.entries.clear();
    }
}

#[cfg(test)]
thread_local! {
    /// Set by tests to clear the pass memo before every pass: the same
    /// improvement call without replays.
    static FORGET_PASSES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The FM engine of one improvement call: the buffers and gain caches
/// every pass of the call shares.
///
/// Everything is sized by the call's cell list, apart from `position`
/// and `locked` (one zeroed entry per graph node): a pass resets what
/// the previous one touched instead of reallocating.
struct PassEngine<'s, 'g, 'c> {
    state: &'s mut PartitionState<'g>,
    ctx: &'c ImproveContext<'c>,
    /// The cells allowed to move, in caller order.
    cells: &'c [NodeId],
    /// Blocks participating in this improvement call.
    active: &'c [usize],
    /// `block_to_slot[block]` = index into `active`, or `usize::MAX`.
    block_to_slot: Vec<usize>,
    /// `position[node]` = the node's index in `cells` plus one (0: the
    /// node is not a cell of this call).
    position: Vec<u32>,
    /// One bucket per direction `(from-slot, target)` over cell
    /// positions, at index `from_slot · (slots − 1) + target`.
    buckets: Vec<GainBucket>,
    /// Per node: moved in the current pass (the gain functions' form).
    locked: Vec<bool>,
    regions: MoveRegions,
    /// Gains live in `[-gain_bound, gain_bound]` (depends on objective).
    gain_bound: i32,
    /// Zero-allocation scratch for the move loop.
    scratch: PassScratch,
    cache: GainCache,
    tracker: KeyTracker,
    /// The moves of the current (or last) pass that ran.
    move_log: Vec<(NodeId, usize, usize)>,
    memo: PassMemo,
}

impl<'s, 'g, 'c> PassEngine<'s, 'g, 'c> {
    fn new(
        state: &'s mut PartitionState<'g>,
        active: &'c [usize],
        cells: &'c [NodeId],
        ctx: &'c ImproveContext<'c>,
    ) -> Self {
        let kind = if active.len() == 2 { PassKind::TwoBlock } else { PassKind::MultiBlock };
        let regions = MoveRegions::new(
            ctx.config,
            ctx.evaluator.constraints(),
            kind,
            ctx.remainder,
            ctx.minimum_reached,
        );
        let mut block_to_slot = vec![usize::MAX; state.block_count()];
        for (slot, &b) in active.iter().enumerate() {
            block_to_slot[b] = slot;
        }
        let graph = state.graph();
        let mut position = vec![0u32; graph.node_count()];
        for (p, &v) in cells.iter().enumerate() {
            debug_assert!(
                position[v.index()] == 0 && block_to_slot[state.block_of(v)] != usize::MAX,
                "cells must be unique and live in active blocks"
            );
            position[v.index()] = p as u32 + 1;
        }
        // A cell's gain is bounded by its degree: a cut gain by one per
        // net, an I/O gain (two blocks' counts) by two.
        let max_degree = cells.iter().map(|&v| graph.nets(v).len()).max().unwrap_or(0);
        let p_max = match ctx.config.gain_objective {
            GainObjective::CutNets => max_degree,
            GainObjective::IoPins => 2 * max_degree,
        };
        let slots = active.len();
        let buckets =
            (0..slots * (slots - 1)).map(|_| GainBucket::new(cells.len(), p_max)).collect();
        let scratch = PassScratch::new(
            cells.len(),
            max_degree,
            slots,
            ctx.config.gain_objective == GainObjective::IoPins,
        );
        let tracker = KeyTracker::new(ctx.evaluator, state);
        PassEngine {
            locked: vec![false; graph.node_count()],
            cache: GainCache::new(cells.len(), slots - 1, ctx.config.gain_levels),
            state,
            ctx,
            cells,
            active,
            block_to_slot,
            position,
            buckets,
            regions,
            gain_bound: p_max as i32,
            scratch,
            tracker,
            move_log: Vec::new(),
            memo: PassMemo::new(slots),
        }
    }

    /// Bucket index of the direction from slot `fs` to slot `ts`.
    #[inline]
    fn dir(&self, fs: usize, ts: usize) -> usize {
        fs * (self.active.len() - 1) + target(fs, ts)
    }

    /// The configured first-level gain of a move.
    #[inline]
    fn move_gain(&self, node: NodeId, to: usize) -> i32 {
        match self.ctx.config.gain_objective {
            GainObjective::CutNets => level1_gain(self.state, node, to),
            GainObjective::IoPins => io_gain(self.state, node, to),
        }
    }

    /// Stamps every cell sharing a net with `node` (itself included) as
    /// changed at `now`.
    fn stamp_neighbours(&mut self, node: NodeId, now: u32) {
        let graph = self.state.graph();
        for &net in graph.nets(node) {
            for &u in graph.pins(net) {
                let pos = self.position[u.index()];
                if pos != 0 {
                    self.cache.changed[pos as usize - 1] = now;
                }
            }
        }
    }

    /// Starts a pass: empties the buckets, unlocks the cells the previous
    /// pass moved and invalidates the tie-break gains.
    fn start_pass(&mut self) {
        for bucket in &mut self.buckets {
            bucket.reset();
        }
        for &(v, _, _) in &self.move_log {
            self.locked[v.index()] = false;
        }
        self.move_log.clear();
        self.cache.pass_start = self.cache.tick();
    }

    /// Fills the buckets with the level-1 gains of every cell, in `cells`
    /// order, recomputing only the gains a move may have changed.
    fn build_buckets(&mut self) {
        let slots = self.active.len();
        for (p, &v) in self.cells.iter().enumerate() {
            let fs = self.block_to_slot[self.state.block_of(v)];
            debug_assert_ne!(fs, usize::MAX, "active cell in inactive block");
            let stale = self.cache.level1_stale(p);
            for ts in (0..slots).filter(|&ts| ts != fs) {
                let d = self.dir(fs, ts);
                let gain = if stale {
                    self.move_gain(v, self.active[ts])
                } else {
                    let kept = self.buckets[d].last_gain(p as u32);
                    debug_assert_eq!(
                        kept,
                        self.move_gain(v, self.active[ts]),
                        "stale level-1 gain for cell {v:?} direction {fs}->{ts}"
                    );
                    kept
                };
                self.buckets[d].insert(p as u32, gain);
            }
        }
        self.cache.built_at = self.cache.clock;
    }

    /// Selects the best legal move: maximum level-1 gain, ties broken by
    /// level-2 gain (when configured), then by size balance
    /// `MAX(S_FROM − S_TO)`, then by cell id.
    fn select_move(&mut self, metrics: &mut Metrics) -> Option<(NodeId, usize, usize)> {
        let slots = self.active.len();
        // Enabled directions with their optimistic max gains, collected
        // into a reused scratch vector (no allocation per selection).
        let mut dir_max = std::mem::take(&mut self.scratch.dir_max);
        dir_max.clear();
        #[cfg(debug_assertions)]
        let dir_max_cap = dir_max.capacity();
        let mut g_star = i32::MIN;
        for fs in 0..slots {
            if !self.regions.can_donate(self.state, self.active[fs]) {
                continue;
            }
            for ts in 0..slots {
                if ts == fs || !self.regions.can_receive(self.state, self.active[ts]) {
                    continue;
                }
                let d = self.dir(fs, ts);
                if let Some(g) = self.buckets[d].max_gain() {
                    dir_max.push((fs, ts, g));
                    g_star = g_star.max(g);
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(dir_max.capacity(), dir_max_cap, "dir_max scratch reallocated");
        let selected =
            if dir_max.is_empty() { None } else { self.scan_directions(&dir_max, g_star, metrics) };
        self.scratch.dir_max = dir_max;
        selected
    }

    /// Scans the enabled directions from gain `g_star` downward for the
    /// best legal move (the allocation-free body of [`Self::select_move`]).
    fn scan_directions(
        &mut self,
        dir_max: &[(usize, usize, i32)],
        g_star: i32,
        metrics: &mut Metrics,
    ) -> Option<(NodeId, usize, usize)> {
        let levels = self.ctx.config.gain_levels;
        let targets = self.active.len() - 1;
        // Bucket cells inspected over the whole selection, flushed to the
        // metrics registry once per call (not once per cell).
        let mut popped = 0u64;
        let mut g = g_star;
        while g >= -self.gain_bound {
            // Fixed-size tie arrays (levels 2..=4): unused slots stay 0 on
            // both sides of the comparison, so the ordering matches the
            // former per-candidate `Vec<i32>` without allocating.
            let mut best: Option<(NodeId, usize, usize, [i32; MAX_TIE_LEVELS], i64)> = None;
            let mut scanned = 0usize;
            for &(fs, ts, dmax) in dir_max {
                if dmax < g {
                    continue;
                }
                let from = self.active[fs];
                let to = self.active[ts];
                let d = self.dir(fs, ts);
                // LIFO: most recently inserted cells first.
                for &cell in self.buckets[d].cells_at(g).iter().rev() {
                    if scanned >= SELECTION_SCAN_CAP {
                        break;
                    }
                    scanned += 1;
                    popped += 1;
                    let p = cell as usize;
                    let node = self.cells[p];
                    let size = u64::from(self.state.graph().node_size(node));
                    if !self.regions.move_allowed(self.state, size, from, to) {
                        continue;
                    }
                    // Higher-level gains (levels 2..=L) for tie-breaking
                    // among equal first-level gains, cached per pass.
                    let tie = if levels >= 2 {
                        let (state, locked) = (&*self.state, &self.locked[..]);
                        self.cache.ties(p, p * targets + target(fs, ts), || {
                            tie_gains(state, node, to, locked, levels)
                        })
                    } else {
                        [0; MAX_TIE_LEVELS]
                    };
                    let balance =
                        self.state.block_size(from) as i64 - self.state.block_size(to) as i64;
                    let better = match &best {
                        None => true,
                        Some((bn, _, _, btie, bbal)) => {
                            (&tie, balance, std::cmp::Reverse(node.index()))
                                > (btie, *bbal, std::cmp::Reverse(bn.index()))
                        }
                    };
                    if better {
                        best = Some((node, from, to, tie, balance));
                    }
                }
            }
            if let Some((node, from, to, _, _)) = best {
                metrics.add(Counter::GainBucketPops, popped);
                return Some((node, from, to));
            }
            g -= 1;
        }
        metrics.add(Counter::GainBucketPops, popped);
        None
    }

    /// Applies a selected move: updates the state, locks the cell, stamps
    /// its neighbours and fixes their gains. Allocation-free: the `pre`
    /// pin counts live in a scratch buffer reserved to the maximum degree.
    fn apply_move(&mut self, node: NodeId, from: usize, to: usize) {
        // Remove the cell's own entries and lock it.
        let p = self.position[node.index()] - 1;
        let from_slot = self.block_to_slot[from];
        for ts in 0..self.active.len() {
            if ts != from_slot {
                let d = self.dir(from_slot, ts);
                self.buckets[d].remove(p);
            }
        }
        self.locked[node.index()] = true;

        let mut pre = std::mem::take(&mut self.scratch.pre);
        pre.clear();
        #[cfg(debug_assertions)]
        let pre_cap = pre.capacity();
        self.state.move_node_reporting(node, to, |counts| pre.push(counts));
        #[cfg(debug_assertions)]
        assert_eq!(pre.capacity(), pre_cap, "pre scratch reallocated");
        let now = self.cache.tick();
        self.stamp_neighbours(node, now);

        match self.ctx.config.gain_objective {
            GainObjective::CutNets => {
                // Correct the stored gains via exact delta updates.
                let (state, buckets, locked) = (&*self.state, &mut self.buckets, &self.locked);
                let (position, block_to_slot) = (&self.position, &self.block_to_slot);
                let targets = self.active.len() - 1;
                deltas_for_move(state, node, from, to, &pre, self.active, locked, |delta| {
                    let fs = block_to_slot[delta.from];
                    let ts = block_to_slot[delta.to];
                    let pos = position[delta.cell.index()];
                    if fs == usize::MAX || ts == usize::MAX || pos == 0 {
                        return; // direction not under improvement, or not a cell
                    }
                    let d = fs * targets + target(fs, ts);
                    if buckets[d].contains(pos - 1) {
                        buckets[d].adjust(pos - 1, delta.delta);
                    }
                });
            }
            GainObjective::IoPins => self.update_io_gains(node, from, to, &pre),
        }
        self.scratch.pre = pre;
    }

    /// Applies exact per-net I/O-gain deltas to every unlocked neighbour
    /// of `moved` after it went from block `a` to block `b`.
    ///
    /// Only nets of `moved` can change a neighbour's stored gain, and for
    /// a given net only the directions touching `a` or `b` — or any
    /// direction when the net's block span changed (exposure flips affect
    /// every direction). Fresh directions are skipped entirely instead of
    /// recomputing a full [`io_gain`] per neighbour per direction.
    ///
    /// Deltas are accumulated per (neighbour, target slot) in an
    /// epoch-stamped scratch table (no allocation, no sort+dedup) and
    /// applied to the buckets once per pair.
    fn update_io_gains(&mut self, moved: NodeId, a: usize, b: usize, pre: &[(u32, u32)]) {
        let graph = self.state.graph();
        let slots = self.active.len();
        let epoch = self.scratch.next_epoch();
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.clear();
        #[cfg(debug_assertions)]
        let touched_cap = touched.capacity();

        for (i, &net) in graph.nets(moved).iter().enumerate() {
            let (da0, db0) = pre[i];
            let span1 = self.state.net_span(net);
            // `span0` reconstructed from the post-move span and the
            // pre-move counts (`a` emptied ⇒ span shrank; `b` newly
            // occupied ⇒ span grew).
            let span0 = span1 + u32::from(da0 == 1) - u32::from(db0 == 0);
            let span_changed = span0 != span1;
            let has_term = graph.net_has_terminal(net);
            for &u in graph.pins(net) {
                let pos = self.position[u.index()];
                // Only unlocked cells of this call carry bucket entries.
                if pos == 0 || self.locked[u.index()] {
                    continue;
                }
                let cell = pos as usize - 1;
                let c = self.state.block_of(u);
                let row = cell * slots;
                if self.scratch.visited[cell] != epoch {
                    self.scratch.visited[cell] = epoch;
                    touched.push(cell as u32);
                    self.scratch.io_delta[row..row + slots].fill(0);
                }
                // Post- and pre-move pin counts of `u`'s own block.
                let dc1 = self.state.net_pins_in(net, c);
                let dc0 = dc1 + u32::from(c == a) - u32::from(c == b);
                for ts in 0..slots {
                    let t = self.active[ts];
                    if t == c {
                        continue;
                    }
                    // Fresh direction: neither endpoint's pin count nor
                    // the net's exposure changed ⇒ contribution intact.
                    if !span_changed && c != a && c != b && t != a && t != b {
                        continue;
                    }
                    let dt1 = self.state.net_pins_in(net, t);
                    let dt0 = dt1 + u32::from(t == a) - u32::from(t == b);
                    self.scratch.io_delta[row + ts] += io_gain_net(dc1, dt1, span1, has_term)
                        - io_gain_net(dc0, dt0, span0, has_term);
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(touched.capacity(), touched_cap, "touched scratch reallocated");

        for &cell in &touched {
            let u = self.cells[cell as usize];
            let fs = self.block_to_slot[self.state.block_of(u)];
            let row = cell as usize * slots;
            for ts in 0..slots {
                if ts == fs {
                    continue;
                }
                let delta = self.scratch.io_delta[row + ts];
                let d = self.dir(fs, ts);
                if delta != 0 && self.buckets[d].contains(cell) {
                    self.buckets[d].adjust(cell, delta);
                }
                // The maintained gain must equal a fresh recomputation.
                #[cfg(debug_assertions)]
                if self.buckets[d].contains(cell) {
                    assert_eq!(
                        self.buckets[d].gain_of(cell),
                        self.move_gain(u, self.active[ts]),
                        "stale I/O gain for cell {u:?} direction {fs}->{ts}"
                    );
                }
            }
        }
        self.scratch.touched = touched;
    }

    /// Runs a single FM pass over the cells.
    ///
    /// Returns `(improved, moves_kept, best_key)`. The state is left at
    /// the best prefix of the move sequence (classical FM rollback).
    fn run_pass(&mut self, stacks: Option<&mut DualStacks>, metrics: &mut Metrics) -> PassOutcome {
        let ctx = self.ctx;
        metrics.bump(Counter::Passes);
        let initial_key = ctx.evaluator.key(self.state, remainder_opt(ctx, self.state));
        metrics.bump(Counter::KeyEvaluations);
        self.start_pass();
        self.build_buckets();

        // Incremental key maintenance: one O(k) scan here, then O(1)
        // updates per applied move (bit-identical to the from-scratch
        // evaluation — asserted per move in debug builds).
        self.tracker.rebuild(ctx.evaluator, self.state);
        let mut move_log = std::mem::take(&mut self.move_log);
        let mut best_key = initial_key;
        let mut best_len = 0usize;
        // Copy-on-accept stacking: during the move loop only the move-log
        // *prefix length* is stacked; the retained snapshots (at most
        // 2·D_stack of them) are materialized once, after the loop. The
        // retained set equals what per-move materialization would have
        // kept: a bounded best-first stack holds the top-D distinct keys
        // of its offers regardless of offer order.
        let mut prefix_stacks: Option<DualStacks<usize>> =
            stacks.is_some().then(|| DualStacks::new(ctx.config.stack_depth));
        let patience = ctx.config.early_stop_patience;

        while let Some((node, from, to)) = self.select_move(metrics) {
            self.apply_move(node, from, to);
            metrics.bump(Counter::MovesApplied);
            self.tracker.apply_move(ctx.evaluator, self.state, from, to);
            move_log.push((node, from, to));
            let key = self.tracker.key(ctx.evaluator, self.state, remainder_opt(ctx, self.state));
            metrics.bump(Counter::KeyEvaluations);
            debug_assert_eq!(
                key,
                ctx.evaluator.key(self.state, remainder_opt(ctx, self.state)),
                "incremental key diverged from the from-scratch evaluation"
            );
            if key.better_than(&best_key) {
                best_key = key;
                best_len = move_log.len();
            } else if let Some(patience) = patience {
                // §5 future work: give up on a pass drifting away from the
                // feasible region instead of exhausting every move.
                if move_log.len() - best_len >= patience {
                    break;
                }
            }
            if let Some(prefix_stacks) = prefix_stacks.as_mut() {
                let len = move_log.len();
                prefix_stacks.offer(key, || len);
            }
        }

        metrics.add(Counter::MovesReverted, (move_log.len() - best_len) as u64);
        match (prefix_stacks, stacks) {
            (Some(prefix_stacks), Some(stacks)) => {
                let materialized = materialize_snapshots(
                    self.state,
                    self.cells,
                    &prefix_stacks,
                    stacks,
                    &move_log,
                    best_len,
                );
                metrics.add(Counter::SnapshotsMaterialized, materialized as u64);
            }
            _ => {
                // Roll back to the best prefix.
                walk_to(self.state, &move_log, move_log.len(), best_len);
            }
        }
        // The rolled-back moves were stamped when applied; the next build
        // recomputes their neighbours.
        self.move_log = move_log;
        (best_key.better_than(&initial_key), best_len, best_key)
    }

    /// Runs FM passes until a pass fails to improve or `max_passes` is
    /// hit. Returns `(passes, moves)`.
    ///
    /// Every pass is recorded in the memo. Without `stacks` (a restart
    /// series) a pass whose start assignment is recorded is replayed;
    /// with them it runs, because its offers feed the stacks (and a first
    /// series never repeats a start: it goes on only while the key
    /// strictly improves).
    fn run_series(
        &mut self,
        mut stacks: Option<&mut DualStacks>,
        metrics: &mut Metrics,
    ) -> (usize, usize) {
        let ctx = self.ctx;
        let mut passes = 0usize;
        let mut moves = 0usize;
        loop {
            // Budget boundary: checked before *every* pass (including the
            // first and replayed ones), so a stopped run performs no
            // further passes and a deadline overruns by at most the pass
            // already in flight.
            if ctx.budget.is_some_and(super::budget::BudgetTracker::before_pass) {
                return (passes, moves);
            }
            #[cfg(test)]
            if FORGET_PASSES.with(std::cell::Cell::get) {
                self.memo.clear();
            }
            let hash = self.probe_start();
            let hit = if stacks.is_none() { self.memo.lookup(hash) } else { None };
            let (improved, pass_moves, _) = if let Some(entry) = hit {
                self.replay(entry, metrics)
            } else {
                let outcome = self.run_pass(stacks.as_deref_mut(), metrics);
                self.memo.record(hash, outcome, &self.move_log[..outcome.1]);
                outcome
            };
            passes += 1;
            moves += pass_moves;
            if let Some(budget) = ctx.budget {
                budget.add_moves(pass_moves as u64);
            }
            if !improved || passes >= ctx.config.max_passes {
                return (passes, moves);
            }
        }
    }

    /// The current block of every cell, in `cells` order.
    fn snapshot(&self) -> Vec<u32> {
        self.cells.iter().map(|&v| self.state.block_of(v) as u32).collect()
    }

    /// Restores a snapshot of block assignments over the cells, stamping
    /// the neighbours of every cell it actually moves.
    fn restore(&mut self, snapshot: &[u32]) {
        debug_assert_eq!(self.cells.len(), snapshot.len());
        let now = self.cache.tick();
        for (&v, &b) in self.cells.iter().zip(snapshot) {
            if self.state.block_of(v) != b as usize {
                self.move_stamped(v, b as usize, now);
            }
        }
    }

    /// Moves `v` to block `b` outside a pass, stamping its neighbours at
    /// `now` so the next bucket build recomputes their gains.
    fn move_stamped(&mut self, v: NodeId, b: usize, now: u32) {
        self.state.move_node(v, b);
        self.stamp_neighbours(v, now);
    }

    /// Encodes the cells' current assignment (their slots) into the
    /// memo's probe and returns its hash.
    fn probe_start(&mut self) -> u64 {
        let width = self.memo.width;
        let probe = &mut self.memo.probe;
        probe.clear();
        for &v in self.cells {
            let slot = self.block_to_slot[self.state.block_of(v)] as u32;
            probe.extend_from_slice(&slot.to_le_bytes()[..width]);
        }
        let mut hasher = std::hash::DefaultHasher::new();
        probe.hash(&mut hasher);
        hasher.finish()
    }

    /// Replays recorded pass `entry`, whose start assignment the cells
    /// hold: applies its kept moves, stamped as [`Self::restore`] stamps,
    /// and returns its outcome.
    fn replay(&mut self, entry: usize, metrics: &mut Metrics) -> PassOutcome {
        #[cfg(debug_assertions)]
        let oracle = self.oracle_pass();
        let e = &self.memo.entries[entry];
        let (moves, outcome) = (e.moves.clone(), (e.improved, e.moves.len(), e.best_key));
        let now = self.cache.tick();
        for i in moves {
            let (v, b) = self.memo.moves[i];
            self.move_stamped(v, b as usize, now);
        }
        metrics.bump(Counter::PassReplays);
        metrics.add(Counter::MovesApplied, outcome.1 as u64);
        #[cfg(debug_assertions)]
        assert_eq!(
            oracle,
            (outcome, self.snapshot()),
            "a replayed pass diverged from running it: outcome, end assignment"
        );
        outcome
    }

    /// The oracle of a replay (debug builds): runs the pass from the
    /// current assignment and returns its outcome and end assignment,
    /// then puts the state and every buffer back as they were, so the
    /// replay is checked on the path release builds take.
    #[cfg(debug_assertions)]
    fn oracle_pass(&mut self) -> (PassOutcome, Vec<u32>) {
        let saved =
            (self.buckets.clone(), self.cache.clone(), self.locked.clone(), self.move_log.clone());
        let outcome = self.run_pass(None, &mut Metrics::disabled());
        let end = self.snapshot();
        walk_to(self.state, &self.move_log, outcome.1, 0);
        (self.buckets, self.cache, self.locked, self.move_log) = saved;
        (outcome, end)
    }
}

/// Replays the move log to take the state from prefix length `from_len`
/// to `to_len` (backward or forward).
fn walk_to(
    state: &mut PartitionState<'_>,
    move_log: &[(NodeId, usize, usize)],
    from_len: usize,
    to_len: usize,
) -> usize {
    let mut cur = from_len;
    while cur > to_len {
        let (node, from, _) = move_log[cur - 1];
        state.move_node(node, from);
        cur -= 1;
    }
    while cur < to_len {
        let (node, _, to) = move_log[cur];
        state.move_node(node, to);
        cur += 1;
    }
    cur
}

/// Materializes the retained prefix-length snapshots into the caller's
/// assignment stacks, then leaves the state at the best prefix.
///
/// Prefixes are visited in descending length order so the state walks
/// monotonically backward through the move log before settling on
/// `best_len`.
fn materialize_snapshots(
    state: &mut PartitionState<'_>,
    cells: &[NodeId],
    prefix_stacks: &DualStacks<usize>,
    stacks: &mut DualStacks,
    move_log: &[(NodeId, usize, usize)],
    best_len: usize,
) -> usize {
    let mut retained: Vec<(SolutionKey, usize)> =
        prefix_stacks.iter().map(|(k, &len)| (*k, len)).collect();
    retained.sort_unstable_by_key(|r| std::cmp::Reverse(r.1));
    let materialized = retained.len();
    let mut cursor = move_log.len();
    for (key, len) in retained {
        cursor = walk_to(state, move_log, cursor, len);
        let snapshot_state = &*state;
        stacks.offer(key, || cells.iter().map(|&v| snapshot_state.block_of(v) as u32).collect());
    }
    walk_to(state, move_log, cursor, best_len);
    materialized
}

/// One `Improve(...)` call of Algorithm 1 over the given active blocks.
///
/// The state is left at the best solution found; the returned
/// [`ImproveStats::final_key`] is never worse than
/// [`ImproveStats::initial_key`].
///
/// # Panics
///
/// Panics if `active` lists fewer than two blocks or contains an index
/// `≥ state.block_count()`.
pub fn improve(
    state: &mut PartitionState<'_>,
    active: &[usize],
    ctx: &ImproveContext<'_>,
) -> ImproveStats {
    improve_metered(state, active, ctx, &mut Metrics::disabled())
}

/// [`improve`] with engine metrics recorded into `metrics`.
///
/// The registry never influences control flow: a metered run and an
/// unmetered run produce bit-identical partitions and [`ImproveStats`]
/// (proven by the `observability` property tests). A disabled registry
/// costs one predictable branch per recorded event.
pub fn improve_metered(
    state: &mut PartitionState<'_>,
    active: &[usize],
    ctx: &ImproveContext<'_>,
    metrics: &mut Metrics,
) -> ImproveStats {
    // Cells eligible to move: everything currently in an active block.
    let mut in_active = vec![false; state.block_count()];
    for &b in active {
        in_active[b] = true;
    }
    let cells: Vec<NodeId> =
        state.graph().node_ids().filter(|&v| in_active[state.block_of(v)]).collect();
    improve_cells_metered(state, active, &cells, ctx, metrics)
}

/// [`improve_metered`] over an explicit cell set instead of every cell of
/// the active blocks.
///
/// This is the boundary-refinement entry point of the n-level multilevel
/// flow: the caller passes only the cells incident to nets crossing the
/// active blocks, so each per-level FM pass builds gain buckets for the
/// boundary rather than the whole level. Cells not listed keep their
/// blocks (they are never inserted into a bucket and never moved); block
/// sizes, move regions, and the solution key still account for them.
///
/// # Panics
///
/// Panics if `active` lists fewer than two blocks, contains an index
/// `≥ state.block_count()`, or (debug builds) `cells` contains a cell
/// outside the active blocks or a duplicate.
pub fn improve_cells_metered(
    state: &mut PartitionState<'_>,
    active: &[usize],
    cells: &[NodeId],
    ctx: &ImproveContext<'_>,
    metrics: &mut Metrics,
) -> ImproveStats {
    assert!(active.len() >= 2, "improvement needs at least two blocks");
    assert!(active.iter().all(|&b| b < state.block_count()), "active block out of range");
    metrics.bump(Counter::ImproveCalls);
    metrics.span_open(crate::obs::SpanKind::Improve, 0);
    let initial_key = ctx.evaluator.key(state, remainder_opt(ctx, state));
    metrics.bump(Counter::KeyEvaluations);

    if cells.is_empty() {
        metrics.span_close(crate::obs::SpanStats::default());
        return ImproveStats {
            passes: 0,
            moves: 0,
            restarts: 0,
            initial_key,
            final_key: initial_key,
        };
    }

    let mut stacks =
        ctx.config.use_solution_stacks.then(|| DualStacks::new(ctx.config.stack_depth));
    let mut engine = PassEngine::new(state, active, cells, ctx);

    // First execution (records the stacks).
    let (mut passes, mut moves) = engine.run_series(stacks.as_mut(), metrics);

    let mut best_key = ctx.evaluator.key(engine.state, remainder_opt(ctx, engine.state));
    metrics.bump(Counter::KeyEvaluations);
    let mut best_snapshot = engine.snapshot();
    let mut restarts = 0usize;

    for (_, snapshot) in stacks.iter().flat_map(DualStacks::iter) {
        // Budget boundary: a stopped run restarts no further stack
        // candidates (the best solution so far is kept below).
        if ctx.budget.is_some_and(crate::budget::BudgetTracker::check) {
            break;
        }
        engine.restore(snapshot);
        let (p, m) = engine.run_series(None, metrics);
        passes += p;
        moves += m;
        restarts += 1;
        metrics.bump(Counter::StackRestarts);
        let key = ctx.evaluator.key(engine.state, remainder_opt(ctx, engine.state));
        metrics.bump(Counter::KeyEvaluations);
        if key.better_than(&best_key) {
            best_key = key;
            best_snapshot = engine.snapshot();
        }
    }

    engine.restore(&best_snapshot);
    debug_assert!(!initial_key.better_than(&best_key), "improve made things worse");
    metrics.span_close(crate::obs::SpanStats {
        nodes: cells.len() as u64,
        moves: moves as u64,
        gain: initial_key.cut as i64 - best_key.cut as i64,
        ..crate::obs::SpanStats::default()
    });
    ImproveStats { passes, moves, restarts, initial_key, final_key: best_key }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_device::DeviceConstraints;
    use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};
    use fpart_hypergraph::{Hypergraph, HypergraphBuilder};

    fn ctx<'c>(
        evaluator: &'c CostEvaluator,
        config: &'c FpartConfig,
        remainder: usize,
    ) -> ImproveContext<'c> {
        ImproveContext { evaluator, config, remainder, minimum_reached: false, budget: None }
    }

    /// Two dense 4-cliques joined by one net; a bad split should be fixed.
    fn two_cliques() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..8).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        let cliques = [&n[0..4], &n[4..8]];
        let mut e = 0;
        for c in cliques {
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    b.add_net(format!("e{e}"), [c[i], c[j]]).unwrap();
                    e += 1;
                }
            }
        }
        b.add_net("bridge", [n[3], n[4]]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn improve_pulls_stray_cell_out_of_remainder() {
        let g = two_cliques();
        // Remainder (block 0) holds clique A plus stray cell 4 of clique B.
        let mut state = PartitionState::from_assignment(&g, vec![0, 0, 0, 0, 0, 1, 1, 1], 2);
        // Cut: nets (4,5),(4,6),(4,7) → 3 (the bridge {3,4} is inside 0).
        assert_eq!(state.cut_count(), 3);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(8, 64), &config, 2, 0);
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(stats.final_key.cut <= stats.initial_key.cut);
        // The whole 8-cell circuit fits the device, so the best solution
        // under the paper's key absorbs the remainder entirely into block
        // 1 (T^SUM drops to 0). The strict ε²_min only freezes donations
        // *from* the non-remainder block, which is exactly the direction
        // not needed here.
        assert_eq!(state.cut_count(), 0, "stats: {stats:?}");
        assert_eq!(state.block_size(0), 0);
        assert_eq!(state.block_size(1), 8);
    }

    #[test]
    fn improve_never_worsens_key() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 3, 12), 7);
        // arbitrary stripes
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 3).collect();
        let mut state = PartitionState::from_assignment(&g, assignment, 3);
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(14, 30), &config, 3, g.terminal_count());
        let c = ctx(&evaluator, &config, 2);
        let before = evaluator.key(&state, Some(2));
        let stats = improve(&mut state, &[0, 1, 2], &c);
        state.assert_consistent();
        assert!(!before.better_than(&stats.final_key));
        assert_eq!(stats.final_key, evaluator.key(&state, Some(2)));
    }

    #[test]
    fn improve_respects_move_regions() {
        // Remainder (block 0) huge, block 1 exactly full at S_MAX = 4:
        // no cell may enter block 1 beyond ε_max·S_MAX = 4 (4·1.05 ⌊⌋ = 4).
        let g = two_cliques();
        let mut state = PartitionState::from_assignment(&g, vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(4, 64), &config, 2, 0);
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        // Both blocks sit exactly at S_MAX = 4 with zero slack: the move
        // regions freeze every direction, so the pass must terminate with
        // no moves and the (already optimal) solution untouched.
        assert_eq!(stats.moves, 0);
        assert_eq!(state.block_size(1), 4);
        assert_eq!(stats.final_key.cut, 1);
    }

    #[test]
    fn improve_with_stacks_disabled_is_deterministic_and_sane() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 16), 3);
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 2).collect();
        let config = FpartConfig { use_solution_stacks: false, ..FpartConfig::default() };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(20, 40), &config, 2, g.terminal_count());
        let mut s1 = PartitionState::from_assignment(&g, assignment.clone(), 2);
        let mut s2 = PartitionState::from_assignment(&g, assignment, 2);
        let c = ctx(&evaluator, &config, 1);
        let r1 = improve(&mut s1, &[0, 1], &c);
        let r2 = improve(&mut s2, &[0, 1], &c);
        assert_eq!(r1, r2);
        assert_eq!(s1.assignment(), s2.assignment());
        assert_eq!(r1.restarts, 0);
    }

    #[test]
    fn improve_reduces_planted_cut_to_planted_level() {
        let cfg = ClusteredConfig::new("cl", 2, 24);
        let (g, planted) = clustered_circuit(&cfg, 11);
        // Start from a noisy version of the planted partition.
        let mut assignment: Vec<u32> = planted.clone();
        for i in (0..assignment.len()).step_by(5) {
            assignment[i] = 1 - assignment[i];
        }
        let mut state = PartitionState::from_assignment(&g, assignment, 2);
        // Repairing noise needs moves in both directions; disable the
        // asymmetric regions (pure-FM behaviour) for this check.
        let config = FpartConfig { use_move_regions: false, ..FpartConfig::default() };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(30, 200), &config, 2, g.terminal_count());
        improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(
            state.cut_count() <= cfg.inter_nets + 2,
            "cut {} vs planted {}",
            state.cut_count(),
            cfg.inter_nets
        );
    }

    #[test]
    fn improve_with_io_gain_objective_reduces_terminals() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 20), 21);
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 2).collect();
        let mut state = PartitionState::from_assignment(&g, assignment, 2);
        let config = FpartConfig {
            gain_objective: crate::config::GainObjective::IoPins,
            use_move_regions: false,
            ..FpartConfig::default()
        };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 60), &config, 2, g.terminal_count());
        let before = state.terminal_sum();
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(state.terminal_sum() <= before, "stats: {stats:?}");
        assert!(!stats.initial_key.better_than(&stats.final_key));
    }

    #[test]
    fn early_stop_patience_still_yields_valid_improvement() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 16), 31);
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 2).collect();
        let config = FpartConfig { early_stop_patience: Some(4), ..FpartConfig::default() };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(20, 60), &config, 2, g.terminal_count());
        let mut state = PartitionState::from_assignment(&g, assignment, 2);
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(!stats.initial_key.better_than(&stats.final_key));
    }

    /// One metered improve call over blocks `0..k` of a striped start,
    /// with the pass memo's replays or (`replay` false) with the memo
    /// cleared before every pass.
    fn striped_call(
        g: &Hypergraph,
        k: usize,
        evaluator: &CostEvaluator,
        config: &FpartConfig,
        budget: Option<&crate::budget::BudgetTracker>,
        replay: bool,
    ) -> (ImproveStats, Vec<u32>, Metrics) {
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % k as u32).collect();
        let mut state = PartitionState::from_assignment(g, assignment, k);
        let ctx = ImproveContext { budget, ..ctx(evaluator, config, k - 1) };
        let active: Vec<usize> = (0..k).collect();
        let mut metrics = Metrics::enabled();
        FORGET_PASSES.with(|f| f.set(!replay));
        let stats = improve_metered(&mut state, &active, &ctx, &mut metrics);
        FORGET_PASSES.with(|f| f.set(false));
        state.assert_consistent();
        (stats, state.assignment().to_vec(), metrics)
    }

    #[test]
    fn replayed_passes_match_running_them() {
        let mut replays = 0;
        for (k, seed) in [(2, 3), (2, 17), (3, 7), (3, 29), (4, 5)] {
            let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", k, 14), seed);
            let config = FpartConfig::default();
            let evaluator =
                CostEvaluator::new(DeviceConstraints::new(16, 30), &config, k, g.terminal_count());
            let (stats, assignment, with) = striped_call(&g, k, &evaluator, &config, None, true);
            let (forgot, forgot_assignment, without) =
                striped_call(&g, k, &evaluator, &config, None, false);
            assert_eq!(stats, forgot, "k {k} seed {seed}");
            assert_eq!(assignment, forgot_assignment, "k {k} seed {seed}");
            assert_eq!(without.get(Counter::PassReplays), 0);
            assert_eq!(
                with.get(Counter::Passes) + with.get(Counter::PassReplays),
                without.get(Counter::Passes),
                "k {k} seed {seed}"
            );
            assert_eq!(with.fm_passes(), stats.passes as u64);
            // A replay applies exactly the moves it keeps.
            let retained =
                |m: &Metrics| m.get(Counter::MovesApplied) - m.get(Counter::MovesReverted);
            assert_eq!(retained(&with), stats.moves as u64);
            assert_eq!(retained(&without), stats.moves as u64);
            replays += with.get(Counter::PassReplays);
        }
        assert!(replays > 0, "the workloads must repeat a pass start");
    }

    #[test]
    fn pass_budget_stops_at_the_same_logical_pass_with_replays() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 3, 14), 7);
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(16, 30), &config, 3, g.terminal_count());
        let (free, ..) = striped_call(&g, 3, &evaluator, &config, None, true);
        let mut capped_replays = 0;
        for cap in 1..free.passes as u64 {
            let budget = crate::budget::RunBudget { max_passes: Some(cap), ..Default::default() };
            let run = |replay| {
                let tracker = crate::budget::BudgetTracker::new(&budget, None);
                let (stats, assignment, metrics) =
                    striped_call(&g, 3, &evaluator, &config, Some(&tracker), replay);
                (stats, assignment, metrics, tracker.passes(), tracker.stopped())
            };
            let (stats, assignment, with, boundaries, stopped) = run(true);
            let (forgot, forgot_assignment, without, forgot_boundaries, forgot_stopped) =
                run(false);
            assert_eq!(stats, forgot, "cap {cap}");
            assert_eq!(assignment, forgot_assignment, "cap {cap}");
            assert_eq!((boundaries, stopped), (forgot_boundaries, forgot_stopped), "cap {cap}");
            assert!(stopped && stats.passes as u64 == cap, "cap {cap}: {stats:?}");
            assert_eq!(with.fm_passes(), without.get(Counter::Passes), "cap {cap}");
            capped_replays += with.get(Counter::PassReplays);
        }
        assert!(capped_replays > 0, "some cap must stop a call after a replay");
    }

    #[test]
    fn gain_cache_serves_fresh_entries_and_forgets_at_clock_wraparound() {
        let mut cache = GainCache::new(2, 1, 3);
        cache.pass_start = cache.tick();
        cache.built_at = cache.clock;
        assert!(!cache.level1_stale(0) && !cache.level1_stale(1));
        assert_eq!(cache.ties(0, 0, || [7, -1, 0]), [7, -1, 0]);
        // Served from the cache (debug builds compare with `fresh`).
        assert_eq!(cache.ties(0, 0, || [7, -1, 0]), [7, -1, 0]);
        // A pin of cell 0's nets moves: its entries go stale, cell 1's
        // stay.
        let now = cache.tick();
        cache.changed[0] = now;
        assert!(cache.level1_stale(0) && !cache.level1_stale(1));
        assert_eq!(cache.ties(0, 0, || [2, 2, 0]), [2, 2, 0]);
        // A new pass invalidates every tie entry.
        cache.pass_start = cache.tick();
        assert_eq!(cache.ties(0, 0, || [3, 0, 0]), [3, 0, 0]);
        // At the wraparound every entry is declared stale.
        cache.built_at = cache.clock;
        cache.clock = u32::MAX;
        let now = cache.tick();
        assert!(now > cache.built_at && now >= cache.pass_start);
        assert!(cache.level1_stale(0) && cache.level1_stale(1));
        assert_eq!(cache.ties(0, 0, || [9, 0, 0]), [9, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least two blocks")]
    fn improve_requires_two_blocks() {
        let g = two_cliques();
        let mut state = PartitionState::single_block(&g);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(4, 4), &config, 1, 0);
        let _ = improve(&mut state, &[0], &ctx(&evaluator, &config, 0));
    }
}
