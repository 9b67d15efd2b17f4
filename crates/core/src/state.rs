//! Incremental partition state: block sizes, pin counts, and cut metrics
//! maintained under single-cell moves.
//!
//! # Pin accounting model
//!
//! A net is *exposed* to block `j` when it has a pin in `j` and either
//! spans more than one block or is attached to a primary terminal of the
//! circuit (an off-chip signal always consumes an IOB on every device it
//! enters). The block terminal count `T_j` is the number of nets exposed
//! to `j`; the external count `T_j^E` is the number of primary terminals
//! whose net touches `j` (used by the paper's external-I/O balancing
//! factor `d_k^E`).
//!
//! # Sparse pin distribution
//!
//! Each net keeps one *run* of `(block, pins)` entries, one per block
//! it touches, sorted by block. A net with `d` pins touches at most `d`
//! blocks, so its run fits in the slot the graph already reserves for
//! its pins ([`Hypergraph::pin_range`]); the run's length is the net's
//! span. The distribution therefore costs 8 B per pin whatever the
//! block count: adding a block is O(1), a rebuild
//! ([`PartitionState::recount`]) is O(pins + k), and a clone — which
//! every boundary-refinement pair job takes of its round-start
//! snapshot — is O(nodes + pins). A lookup scans the net's run and a
//! move costs O(Σ span) over the moved cell's nets. The gain functions
//! read a candidate move's two pin counts through `net_pins_from_to`,
//! which answers nets of span one or two without a search.

use fpart_device::BlockUsage;
use fpart_hypergraph::{Hypergraph, NetId, NodeId};

/// One entry of a net's run: `pins` of the net lie in `block`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BlockPins {
    block: u32,
    pins: u32,
}

/// Position of `block` in a block-sorted run: the number of entries
/// below it, found by a branch-free linear count. The block is present
/// when the entry at that position is the block itself ([`pins_at`]).
#[inline]
fn rank(run: &[BlockPins], block: u32) -> usize {
    run.iter().map(|e| usize::from(e.block < block)).sum()
}

/// Pins of `block` given its position `at` in a run (0 when absent).
#[inline]
fn pins_at(run: &[BlockPins], at: usize, block: u32) -> u32 {
    match run.get(at) {
        Some(e) if e.block == block => e.pins,
        _ => 0,
    }
}

/// Restores block order after the entry at `at` changed its block, by
/// swapping it towards its place (runs are short, so only a few entries
/// move).
#[inline]
fn resettle(run: &mut [BlockPins], mut at: usize) {
    while at > 0 && run[at - 1].block > run[at].block {
        run.swap(at - 1, at);
        at -= 1;
    }
    while at + 1 < run.len() && run[at + 1].block < run[at].block {
        run.swap(at, at + 1);
        at += 1;
    }
}

/// Mutable k-way partition of a hypergraph with O(deg) single-cell moves.
///
/// All counters (`block_size`, `block_terminals`, `block_externals`, net
/// spans, cut count) are maintained incrementally by [`Self::move_node`];
/// [`Self::recount`] recomputes them from scratch and is used by tests and
/// debug assertions to verify the incremental bookkeeping.
#[derive(Debug, Clone)]
pub struct PartitionState<'a> {
    graph: &'a Hypergraph,
    assignment: Vec<u32>,
    block_sizes: Vec<u64>,
    block_terminals: Vec<usize>,
    block_externals: Vec<usize>,
    /// Per-net block-sorted runs, laid out like the graph's pins: net
    /// `e`'s run is the first `span[e]` entries of `runs[pin_range(e)]`;
    /// the rest of the slot is unused.
    runs: Vec<BlockPins>,
    span: Vec<u32>,
    cut_nets: usize,
    /// Running `Σ T_i`, kept in lockstep with `block_terminals` so
    /// [`Self::terminal_sum`] is O(1) in the move loop.
    terminal_total: usize,
    k: usize,
}

impl<'a> PartitionState<'a> {
    /// Creates a single-block partition holding the whole circuit.
    #[must_use]
    pub fn single_block(graph: &'a Hypergraph) -> Self {
        Self::from_assignment(graph, vec![0; graph.node_count()], 1)
    }

    /// Creates a partition from an explicit per-node block assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != graph.node_count()`, `k == 0` while
    /// the graph is non-empty, or any entry is `≥ k`.
    #[must_use]
    pub fn from_assignment(graph: &'a Hypergraph, assignment: Vec<u32>, k: usize) -> Self {
        assert_eq!(assignment.len(), graph.node_count(), "assignment must cover every node");
        assert!(graph.node_count() == 0 || k > 0, "non-empty graph needs at least one block");
        assert!(assignment.iter().all(|&b| (b as usize) < k), "assignment references a block >= k");
        let mut state = PartitionState {
            graph,
            assignment,
            block_sizes: vec![0; k],
            block_terminals: vec![0; k],
            block_externals: vec![0; k],
            runs: vec![BlockPins::default(); graph.pin_count()],
            span: vec![0; graph.net_count()],
            cut_nets: 0,
            terminal_total: 0,
            k,
        };
        state.recount();
        state
    }

    /// Returns the underlying hypergraph.
    #[must_use]
    pub fn graph(&self) -> &'a Hypergraph {
        self.graph
    }

    /// Returns the number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.k
    }

    /// Returns the block a node currently belongs to.
    #[inline]
    #[must_use]
    pub fn block_of(&self, node: NodeId) -> usize {
        self.assignment[node.index()] as usize
    }

    /// Returns the total size `S_i` of a block.
    #[inline]
    #[must_use]
    pub fn block_size(&self, block: usize) -> u64 {
        self.block_sizes[block]
    }

    /// Returns the terminal (IOB) count `T_i` of a block.
    #[inline]
    #[must_use]
    pub fn block_terminals(&self, block: usize) -> usize {
        self.block_terminals[block]
    }

    /// Returns the external primary-I/O count `T_i^E` of a block.
    #[inline]
    #[must_use]
    pub fn block_externals(&self, block: usize) -> usize {
        self.block_externals[block]
    }

    /// Returns a block's occupancy point `(S_i, T_i)`.
    #[must_use]
    pub fn block_usage(&self, block: usize) -> BlockUsage {
        BlockUsage::new(self.block_sizes[block], self.block_terminals[block])
    }

    /// Returns the number of nets spanning more than one block (the
    /// classical cut size that FM gains optimize).
    #[must_use]
    pub fn cut_count(&self) -> usize {
        self.cut_nets
    }

    /// Returns the total terminal count `T^SUM = Σ T_i` (O(1); maintained
    /// incrementally by [`Self::move_node`]).
    #[must_use]
    pub fn terminal_sum(&self) -> usize {
        self.terminal_total
    }

    /// The run of `net`: one entry per block it touches, block-sorted.
    #[inline]
    fn run(&self, net: NetId) -> &[BlockPins] {
        let lo = self.graph.pin_range(net).start;
        &self.runs[lo..lo + self.span[net.index()] as usize]
    }

    /// Returns how many pins of `net` lie in `block`.
    #[inline]
    #[must_use]
    pub fn net_pins_in(&self, net: NetId, block: usize) -> u32 {
        let run = self.run(net);
        pins_at(run, rank(run, block as u32), block as u32)
    }

    /// Returns the pin counts `(d_from, d_to)` of `net` in `from`, a block
    /// it touches (the block of one of its cells), and in another block
    /// `to`.
    ///
    /// Equal to `(net_pins_in(net, from), net_pins_in(net, to))`, but
    /// faster on the gain paths, where most nets span one or two
    /// blocks: a net of span 1 lies wholly in `from`, so its pin
    /// count answers without reading its run, and a run of two entries
    /// holds `from` in one of them.
    // With a plain `#[inline]` the compiler keeps this out of line in the
    // gain functions, which costs the flat engine several percent.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    #[must_use]
    pub(crate) fn net_pins_from_to(&self, net: NetId, from: usize, to: usize) -> (u32, u32) {
        debug_assert_ne!(from, to, "the pin counts of a move between two blocks");
        debug_assert!(self.net_pins_in(net, from) > 0, "`from` must touch the net");
        match self.span[net.index()] {
            1 => (self.graph.pin_range(net).len() as u32, 0),
            2 => {
                let run = self.run(net);
                let f = usize::from(run[1].block == from as u32);
                let other = run[1 - f];
                (run[f].pins, if other.block == to as u32 { other.pins } else { 0 })
            }
            _ => self.net_pins_from_to_wide(net, from, to),
        }
    }

    /// [`Self::net_pins_from_to`] of a net spanning three or more blocks,
    /// kept out of line so the common cases inline.
    #[inline(never)]
    fn net_pins_from_to_wide(&self, net: NetId, from: usize, to: usize) -> (u32, u32) {
        (self.net_pins_in(net, from), self.net_pins_in(net, to))
    }

    /// Returns the number of blocks `net` touches.
    #[inline]
    #[must_use]
    pub fn net_span(&self, net: NetId) -> u32 {
        self.span[net.index()]
    }

    /// Returns the blocks `net` touches, in increasing block order, each
    /// with the number of the net's pins it holds (never 0). O(span).
    pub(crate) fn net_blocks(
        &self,
        net: NetId,
    ) -> impl ExactSizeIterator<Item = (usize, u32)> + Clone + '_ {
        self.run(net).iter().map(|e| (e.block as usize, e.pins))
    }

    /// Returns the full per-node assignment as raw block indices.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Consumes the state and returns the assignment vector without
    /// copying, for flows (multilevel uncoarsening) that rebuild a
    /// fresh state per level from the same buffer.
    #[must_use]
    pub fn into_assignment(self) -> Vec<u32> {
        self.assignment
    }

    /// Estimated heap footprint of this state in bytes: the per-node
    /// assignment, the per-net runs and spans, and the per-block
    /// counters. Mirrors [`Hypergraph::approx_bytes`] (the borrowed
    /// graph is not counted); an estimate, not an allocator measurement.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        fn slice<T>(v: &[T]) -> u64 {
            std::mem::size_of_val(v) as u64
        }
        slice(&self.assignment)
            + slice(&self.runs)
            + slice(&self.span)
            + slice(&self.block_sizes)
            + slice(&self.block_terminals)
            + slice(&self.block_externals)
    }

    /// Collects the nodes of one block (O(n) scan).
    #[must_use]
    pub fn nodes_in_block(&self, block: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes_in_block_into(block, &mut out);
        out
    }

    /// Collects the nodes of one block into a caller-owned buffer
    /// (cleared first), so hot paths can reuse one allocation.
    pub fn nodes_in_block_into(&self, block: usize, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.graph.node_ids().filter(|&v| self.block_of(v) == block));
    }

    /// Appends a new empty block and returns its index. O(1): no net
    /// touches the new block yet, so no run changes.
    pub fn add_block(&mut self) -> usize {
        let b = self.k;
        self.k += 1;
        self.block_sizes.push(0);
        self.block_terminals.push(0);
        self.block_externals.push(0);
        b
    }

    /// Moves one pin of `net` from block `from` to block `to` in the
    /// net's run, returning the pre-move pin counts `(d_from, d_to)`.
    /// Entries that drop to zero leave the run and new blocks enter it
    /// at their sorted position, so the run stays canonical; the span
    /// follows the run's length.
    #[inline]
    fn shift_pin(&mut self, net: NetId, from: u32, to: u32) -> (u32, u32) {
        let len = self.span[net.index()] as usize;
        // At most one entry per pin: the slot always has room for `to`.
        let run = &mut self.runs[self.graph.pin_range(net)];
        let (i, j) = (rank(&run[..len], from), rank(&run[..len], to));
        debug_assert!(run[i].block == from, "node must be counted in its source block");
        let to_present = j < len && run[j].block == to;
        let da0 = run[i].pins;
        let db0 = if to_present { run[j].pins } else { 0 };
        let len1 = match (da0 > 1, to_present) {
            (true, true) => {
                run[i].pins -= 1;
                run[j].pins += 1;
                len
            }
            (true, false) => {
                run[i].pins -= 1;
                run[len] = BlockPins { block: to, pins: 1 };
                resettle(&mut run[..=len], len);
                len + 1
            }
            (false, true) => {
                run[j].pins += 1;
                // Sink the emptied entry past the end of the run.
                run[i].block = u32::MAX;
                resettle(&mut run[..len], i);
                len - 1
            }
            (false, false) => {
                // `from` leaves and `to` enters: reuse the entry.
                run[i].block = to;
                resettle(&mut run[..len], i);
                len
            }
        };
        self.span[net.index()] = len1 as u32;
        (da0, db0)
    }

    /// Moves a node to another block, updating every counter in
    /// `O(Σ span)` over the node's nets.
    ///
    /// Moving a node to the block it already occupies is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `to >= block_count()`.
    pub fn move_node(&mut self, node: NodeId, to: usize) {
        self.move_node_reporting(node, to, |_| {});
    }

    /// [`Self::move_node`] that also reports, for each net of `node` in
    /// [`Hypergraph::nets`] order, the pin counts `(d_from, d_to)` the
    /// net had in the source and target blocks before the move — the
    /// counts a gain update needs, without a second lookup per net.
    /// Nothing is reported for a no-op move.
    ///
    /// # Panics
    ///
    /// Panics if `to >= block_count()`.
    #[inline]
    pub(crate) fn move_node_reporting(
        &mut self,
        node: NodeId,
        to: usize,
        mut report: impl FnMut((u32, u32)),
    ) {
        assert!(to < self.k, "target block {to} out of range");
        let from = self.assignment[node.index()] as usize;
        if from == to {
            return;
        }
        self.assignment[node.index()] = to as u32;
        let size = u64::from(self.graph.node_size(node));
        self.block_sizes[from] -= size;
        self.block_sizes[to] += size;

        let graph = self.graph;
        for &net in graph.nets(node) {
            let span0 = self.span[net.index()];
            let (da0, db0) = self.shift_pin(net, from as u32, to as u32);
            report((da0, db0));
            let span1 = self.span[net.index()];

            if span0 >= 2 && span1 < 2 {
                self.cut_nets -= 1;
            } else if span0 < 2 && span1 >= 2 {
                self.cut_nets += 1;
            }

            let term_count = graph.net_terminal_count(net);
            let has_term = term_count > 0;
            let exposed0 = span0 >= 2 || has_term;
            let exposed1 = span1 >= 2 || has_term;

            // `from` always touched the net before the move.
            let from_counts_before = exposed0;
            let from_counts_after = da0 > 1 && exposed1;
            match (from_counts_before, from_counts_after) {
                (true, false) => {
                    self.block_terminals[from] -= 1;
                    self.terminal_total -= 1;
                }
                (false, true) => {
                    self.block_terminals[from] += 1;
                    self.terminal_total += 1;
                }
                _ => {}
            }
            // `to` always touches the net after the move.
            let to_counts_before = db0 > 0 && exposed0;
            let to_counts_after = exposed1;
            match (to_counts_before, to_counts_after) {
                (true, false) => {
                    self.block_terminals[to] -= 1;
                    self.terminal_total -= 1;
                }
                (false, true) => {
                    self.block_terminals[to] += 1;
                    self.terminal_total += 1;
                }
                _ => {}
            }

            if has_term {
                if da0 == 1 {
                    self.block_externals[from] -= term_count;
                }
                if db0 == 0 {
                    self.block_externals[to] += term_count;
                }
            }
        }
    }

    /// Applies a saved `(node, block)` assignment list (used to restore
    /// stacked solutions).
    pub fn apply(&mut self, moves: impl IntoIterator<Item = (NodeId, usize)>) {
        for (node, block) in moves {
            self.move_node(node, block);
        }
    }

    /// Recomputes every counter from the assignment in O(pins + k),
    /// using a k-entry pin-count scratch that is reset per net. Used at
    /// construction and by [`Self::assert_consistent`].
    pub fn recount(&mut self) {
        self.block_sizes.iter_mut().for_each(|s| *s = 0);
        self.block_terminals.iter_mut().for_each(|t| *t = 0);
        self.block_externals.iter_mut().for_each(|t| *t = 0);
        self.cut_nets = 0;

        for v in self.graph.node_ids() {
            self.block_sizes[self.assignment[v.index()] as usize] +=
                u64::from(self.graph.node_size(v));
        }
        let mut count = vec![0u32; self.k];
        for e in self.graph.net_ids() {
            let lo = self.graph.pin_range(e).start;
            let mut len = 0usize;
            for &p in self.graph.pins(e) {
                let b = self.assignment[p.index()];
                if count[b as usize] == 0 {
                    self.runs[lo + len].block = b;
                    len += 1;
                }
                count[b as usize] += 1;
            }
            let run = &mut self.runs[lo..lo + len];
            run.sort_unstable_by_key(|r| r.block);
            let term_count = self.graph.net_terminal_count(e);
            let exposed = len >= 2 || term_count > 0;
            for r in run {
                let b = r.block as usize;
                r.pins = std::mem::take(&mut count[b]);
                if exposed {
                    self.block_terminals[b] += 1;
                }
                self.block_externals[b] += term_count;
            }
            self.span[e.index()] = len as u32;
            if len >= 2 {
                self.cut_nets += 1;
            }
        }
        self.terminal_total = self.block_terminals.iter().sum();
    }

    /// Verifies the incremental counters against a fresh recount.
    ///
    /// # Panics
    ///
    /// Panics (with a description of the first mismatch) when any counter
    /// diverged — which would indicate a bookkeeping bug.
    pub fn assert_consistent(&self) {
        let mut fresh = self.clone();
        fresh.recount();
        assert_eq!(self.block_sizes, fresh.block_sizes, "block sizes diverged");
        assert_eq!(self.block_terminals, fresh.block_terminals, "terminal counts diverged");
        assert_eq!(self.block_externals, fresh.block_externals, "external counts diverged");
        assert_eq!(self.span, fresh.span, "net spans diverged");
        assert_eq!(self.cut_nets, fresh.cut_nets, "cut count diverged");
        assert_eq!(self.terminal_total, fresh.terminal_total, "terminal sum diverged");
        for e in self.graph.net_ids() {
            assert_eq!(self.run(e), fresh.run(e), "pin distribution of net {e:?} diverged");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::HypergraphBuilder;

    /// 4 nodes, nets: {0,1}, {1,2,3}, {0,3}+terminal.
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"), (i + 1) as u32)).collect();
        b.add_net("e0", [n[0], n[1]]).unwrap();
        b.add_net("e1", [n[1], n[2], n[3]]).unwrap();
        let e2 = b.add_net("e2", [n[0], n[3]]).unwrap();
        b.add_terminal("t0", e2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn single_block_counts() {
        let g = sample();
        let s = PartitionState::single_block(&g);
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.block_size(0), 1 + 2 + 3 + 4);
        assert_eq!(s.cut_count(), 0);
        // only the terminal net e2 is exposed
        assert_eq!(s.block_terminals(0), 1);
        assert_eq!(s.block_externals(0), 1);
    }

    #[test]
    fn bipartition_counts() {
        let g = sample();
        // nodes 0,1 in block 0; nodes 2,3 in block 1
        let s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        assert_eq!(s.block_size(0), 3);
        assert_eq!(s.block_size(1), 7);
        // e1 spans both (cut), e2 spans both (cut + terminal), e0 internal.
        assert_eq!(s.cut_count(), 2);
        assert_eq!(s.block_terminals(0), 2);
        assert_eq!(s.block_terminals(1), 2);
        assert_eq!(s.terminal_sum(), 4);
        // terminal net e2 touches both blocks
        assert_eq!(s.block_externals(0), 1);
        assert_eq!(s.block_externals(1), 1);
        assert_eq!(s.net_span(NetId::from_index(1)), 2);
        assert_eq!(s.net_pins_in(NetId::from_index(1), 1), 2);
    }

    #[test]
    fn move_updates_all_counters() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        s.move_node(NodeId::from_index(1), 1);
        s.assert_consistent();
        // now block 0 = {0}, block 1 = {1,2,3}
        assert_eq!(s.block_size(0), 1);
        assert_eq!(s.block_size(1), 9);
        // e0 cut, e1 internal to 1, e2 cut(+term)
        assert_eq!(s.cut_count(), 2);
        assert_eq!(s.block_terminals(0), 2);
        assert_eq!(s.block_terminals(1), 2);
    }

    #[test]
    fn move_back_restores_counters() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let before = (s.block_size(0), s.block_terminals(0), s.block_externals(1), s.cut_count());
        s.move_node(NodeId::from_index(2), 0);
        s.move_node(NodeId::from_index(2), 1);
        s.assert_consistent();
        let after = (s.block_size(0), s.block_terminals(0), s.block_externals(1), s.cut_count());
        assert_eq!(before, after);
    }

    #[test]
    fn noop_move_changes_nothing() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        s.move_node(NodeId::from_index(0), 0);
        s.assert_consistent();
        assert_eq!(s.block_size(0), 3);
    }

    #[test]
    fn add_block_and_grow() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 0, 0], 1);
        let b1 = s.add_block();
        let b2 = s.add_block();
        assert_eq!((b1, b2), (1, 2));
        s.move_node(NodeId::from_index(3), b2);
        s.assert_consistent();
        assert_eq!(s.block_size(b2), 4);
        assert_eq!(s.block_count(), 3);
    }

    #[test]
    fn emptying_a_block_is_consistent() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        s.move_node(NodeId::from_index(2), 0);
        s.move_node(NodeId::from_index(3), 0);
        s.assert_consistent();
        assert_eq!(s.block_size(1), 0);
        assert_eq!(s.block_terminals(1), 0);
        assert_eq!(s.block_externals(1), 0);
        assert_eq!(s.cut_count(), 0);
    }

    #[test]
    fn terminal_net_exposure_without_cut() {
        // A terminal net fully inside one block still consumes an IOB.
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        let e = b.add_net("e", [x, y]).unwrap();
        b.add_terminal("t1", e).unwrap();
        b.add_terminal("t2", e).unwrap(); // a 2-terminal net
        let g = b.finish().unwrap();
        let s = PartitionState::single_block(&g);
        assert_eq!(s.block_terminals(0), 1); // one net → one IOB
        assert_eq!(s.block_externals(0), 2); // but two primary I/Os
        assert_eq!(s.cut_count(), 0);
    }

    #[test]
    fn apply_restores_assignment_list() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let snapshot: Vec<(NodeId, usize)> = g.node_ids().map(|v| (v, s.block_of(v))).collect();
        s.move_node(NodeId::from_index(0), 1);
        s.move_node(NodeId::from_index(3), 0);
        s.apply(snapshot);
        s.assert_consistent();
        assert_eq!(s.assignment(), &[0, 0, 1, 1]);
    }

    /// One net over 40 cells, spread over many blocks in the test, and a
    /// few small nets, with a terminal on the wide net.
    fn wide_net() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..40).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        let wide = b.add_net("wide", n.iter().copied()).unwrap();
        b.add_terminal("t", wide).unwrap();
        for i in 0..10 {
            b.add_net(format!("e{i}"), [n[i], n[i + 20]]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn runs_stay_sorted_and_exact_on_a_wide_net() {
        let g = wide_net();
        let wide = NetId::from_index(0);
        let mut s = PartitionState::from_assignment(&g, (0..40).map(|i| i % 13).collect(), 13);
        assert_eq!(s.net_span(wide), 13);
        // Empty blocks from the middle, fill fresh ones, then collapse.
        for v in 0..40 {
            s.move_node(NodeId::from_index(v), (v * 7 + 3) % 29 % 13);
            s.assert_consistent();
        }
        for _ in 0..20 {
            s.add_block();
        }
        for v in (0..40).rev() {
            s.move_node(NodeId::from_index(v), 32 - v % 5);
            s.assert_consistent();
        }
        let blocks: Vec<(usize, u32)> = s.net_blocks(wide).collect();
        assert_eq!(blocks, vec![(28, 8), (29, 8), (30, 8), (31, 8), (32, 8)]);
        for b in 0..s.block_count() {
            let expect = blocks.iter().find(|&&(c, _)| c == b).map_or(0, |&(_, p)| p);
            assert_eq!(s.net_pins_in(wide, b), expect);
        }
        assert_eq!(s.net_pins_from_to(wide, 28, 0), (8, 0));
        assert_eq!(s.net_pins_from_to(wide, 30, 32), (8, 8));
    }

    #[test]
    fn net_pins_from_to_matches_single_lookups() {
        let g = sample();
        // Spans 1, 2 and 3 (net e1 over blocks 0, 1, 2 in the last one).
        for assignment in [vec![0, 0, 0, 0], vec![0, 0, 1, 1], vec![2, 0, 1, 1], vec![2, 0, 1, 2]] {
            let s = PartitionState::from_assignment(&g, assignment, 3);
            for e in g.net_ids() {
                for &v in g.pins(e) {
                    let from = s.block_of(v);
                    for to in (0..3).filter(|&to| to != from) {
                        let pair = (s.net_pins_in(e, from), s.net_pins_in(e, to));
                        assert_eq!(s.net_pins_from_to(e, from, to), pair);
                    }
                }
            }
        }
    }

    #[test]
    fn state_bytes_do_not_depend_on_the_block_count() {
        let g = wide_net();
        let bytes = |k: usize| {
            let s = PartitionState::from_assignment(&g, (0..40).map(|i| i % 2).collect(), k);
            s.approx_bytes()
        };
        // Only the three per-block counters grow with k; the per-net and
        // per-pin storage is the same at k = 2 and k = 512.
        let per_block = (std::mem::size_of::<u64>() + 2 * std::mem::size_of::<usize>()) as u64;
        assert_eq!(bytes(512) - 512 * per_block, bytes(2) - 2 * per_block);
        // At most 12 B per pin, 4 B per node and 4 B per net beyond that.
        let (nodes, nets, pins) = (g.node_count(), g.net_count(), g.pin_count());
        let budget = 12 * pins + 4 * nodes + 4 * nets;
        assert!(bytes(2) - 2 * per_block <= budget as u64, "{} > {budget}", bytes(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn move_to_missing_block_panics() {
        let g = sample();
        let mut s = PartitionState::single_block(&g);
        s.move_node(NodeId::from_index(0), 3);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn wrong_assignment_length_panics() {
        let g = sample();
        let _ = PartitionState::from_assignment(&g, vec![0, 0], 1);
    }
}
