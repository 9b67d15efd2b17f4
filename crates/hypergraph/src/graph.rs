//! The immutable hypergraph netlist.

use std::collections::HashMap;
use std::fmt;

use crate::ids::{NetId, NodeId, TerminalId};

/// An immutable circuit hypergraph `H = ({X, Y}, E)`.
///
/// * `X` — interior nodes (logic cells or clusters), each with a positive
///   size in target-technology cells;
/// * `Y` — primary terminals (the circuit's external I/Os), each attached to
///   exactly one net;
/// * `E` — nets (hyperedges) over interior nodes.
///
/// The structure is stored in flat compressed adjacency (net → pins and
/// node → incident nets), which is what the FM/Sanchis gain-update inner
/// loops iterate over. Construct instances with
/// [`HypergraphBuilder`](crate::HypergraphBuilder); the graph itself is
/// immutable so partitioners can share it freely.
///
/// # Example
///
/// ```
/// use fpart_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), fpart_hypergraph::BuildError> {
/// let mut b = HypergraphBuilder::new();
/// let a = b.add_node("a", 1);
/// let c = b.add_node("c", 3);
/// let n = b.add_net("n", [a, c])?;
/// let h = b.finish()?;
/// assert_eq!(h.pins(n), [a, c]);
/// assert_eq!(h.nets(c), [n]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Hypergraph {
    pub(crate) node_names: Vec<String>,
    pub(crate) node_sizes: Vec<u32>,
    pub(crate) net_names: Vec<String>,
    /// CSR offsets into `net_pins`; length `net_count() + 1`.
    pub(crate) net_pin_offsets: Vec<u32>,
    pub(crate) net_pins: Vec<NodeId>,
    /// CSR offsets into `node_nets`; length `node_count() + 1`.
    pub(crate) node_net_offsets: Vec<u32>,
    pub(crate) node_nets: Vec<NetId>,
    pub(crate) terminal_names: Vec<String>,
    pub(crate) terminal_nets: Vec<NetId>,
    /// CSR offsets into `net_terminals`; length `net_count() + 1`.
    pub(crate) net_terminal_offsets: Vec<u32>,
    pub(crate) net_terminals: Vec<TerminalId>,
    pub(crate) total_size: u64,
    pub(crate) name: String,
}

impl Hypergraph {
    /// Returns the circuit name (empty if none was set).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of interior nodes `|X|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_sizes.len()
    }

    /// Returns the number of nets `|E|`.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Returns the number of primary terminals `|Y|`.
    #[must_use]
    pub fn terminal_count(&self) -> usize {
        self.terminal_nets.len()
    }

    /// Returns the total circuit size `S₀ = Σ S(xᵢ)`.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Estimated heap footprint of this graph in bytes: the flat
    /// adjacency arrays plus name storage (`String` buffers counted at
    /// their length plus the struct header). Used by memory budgets to
    /// bound hierarchy construction; an estimate, not an allocator
    /// measurement.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        fn strings(v: &[String]) -> u64 {
            v.iter().map(|s| s.len() as u64 + std::mem::size_of::<String>() as u64).sum()
        }
        fn slice<T>(v: &[T]) -> u64 {
            std::mem::size_of_val(v) as u64
        }
        strings(&self.node_names)
            + strings(&self.net_names)
            + strings(&self.terminal_names)
            + self.name.len() as u64
            + slice(&self.node_sizes)
            + slice(&self.net_pin_offsets)
            + slice(&self.net_pins)
            + slice(&self.node_net_offsets)
            + slice(&self.node_nets)
            + slice(&self.terminal_nets)
            + slice(&self.net_terminal_offsets)
            + slice(&self.net_terminals)
    }

    /// Returns the size `S(x)` of an interior node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn node_size(&self, node: NodeId) -> u32 {
        self.node_sizes[node.index()]
    }

    /// Returns the name of an interior node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.index()]
    }

    /// Returns the name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Returns the name of a terminal.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range for this graph.
    #[must_use]
    pub fn terminal_name(&self, terminal: TerminalId) -> &str {
        &self.terminal_names[terminal.index()]
    }

    /// Returns the interior-node pins of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn pins(&self, net: NetId) -> &[NodeId] {
        &self.net_pins[self.pin_range(net)]
    }

    /// Returns the slot a net's pins occupy in the flat pin array:
    /// `pins(e)` is that range of it. Per-net side tables of at most one
    /// entry per pin can share this layout instead of keeping their own
    /// offsets.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn pin_range(&self, net: NetId) -> std::ops::Range<usize> {
        let i = net.index();
        self.net_pin_offsets[i] as usize..self.net_pin_offsets[i + 1] as usize
    }

    /// Returns the nets incident to an interior node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn nets(&self, node: NodeId) -> &[NetId] {
        let i = node.index();
        let lo = self.node_net_offsets[i] as usize;
        let hi = self.node_net_offsets[i + 1] as usize;
        &self.node_nets[lo..hi]
    }

    /// Returns the terminals attached to a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn net_terminals(&self, net: NetId) -> &[TerminalId] {
        let i = net.index();
        let lo = self.net_terminal_offsets[i] as usize;
        let hi = self.net_terminal_offsets[i + 1] as usize;
        &self.net_terminals[lo..hi]
    }

    /// Returns the number of terminals attached to a net without
    /// materializing the slice.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn net_terminal_count(&self, net: NetId) -> usize {
        self.net_terminals(net).len()
    }

    /// Returns `true` if the net is attached to at least one primary
    /// terminal. Such nets always require an I/O block on every device they
    /// touch, regardless of how the interior nodes are partitioned.
    #[inline]
    #[must_use]
    pub fn net_has_terminal(&self, net: NetId) -> bool {
        self.net_terminal_count(net) > 0
    }

    /// Returns the net a terminal is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range for this graph.
    #[inline]
    #[must_use]
    pub fn terminal_net(&self, terminal: TerminalId) -> NetId {
        self.terminal_nets[terminal.index()]
    }

    /// Iterates over all interior node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl ExactSizeIterator<Item = NetId> + Clone {
        (0..self.net_count()).map(NetId::from_index)
    }

    /// Iterates over all terminal ids.
    pub fn terminal_ids(&self) -> impl ExactSizeIterator<Item = TerminalId> + Clone {
        (0..self.terminal_count()).map(TerminalId::from_index)
    }

    /// Returns the maximum number of nets incident to any single node.
    ///
    /// FM gain values are bounded by this quantity, so gain-bucket arrays
    /// are dimensioned from it.
    #[must_use]
    pub fn max_node_degree(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.node_net_offsets[i + 1] as usize - self.node_net_offsets[i] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Returns the maximum number of interior pins on any single net.
    #[must_use]
    pub fn max_net_degree(&self) -> usize {
        (0..self.net_count())
            .map(|i| self.net_pin_offsets[i + 1] as usize - self.net_pin_offsets[i] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Returns the total number of (net, node) pin pairs.
    #[must_use]
    pub fn pin_count(&self) -> usize {
        self.net_pins.len()
    }

    /// Looks up an interior node by name.
    ///
    /// This is a linear scan intended for tests and small examples; index
    /// the names yourself if you need repeated lookups.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(NodeId::from_index)
    }

    /// Looks up a net by name (linear scan; see [`Self::find_node`]).
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.iter().position(|n| n == name).map(NetId::from_index)
    }

    /// Builds a name → node index for repeated lookups.
    #[must_use]
    pub fn node_index_by_name(&self) -> HashMap<&str, NodeId> {
        self.node_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), NodeId::from_index(i)))
            .collect()
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypergraph")
            .field("name", &self.name)
            .field("nodes", &self.node_count())
            .field("nets", &self.net_count())
            .field("terminals", &self.terminal_count())
            .field("pins", &self.pin_count())
            .field("total_size", &self.total_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::HypergraphBuilder;

    fn tiny() -> crate::Hypergraph {
        let mut b = HypergraphBuilder::named("tiny");
        let a = b.add_node("a", 1);
        let c = b.add_node("c", 2);
        let d = b.add_node("d", 3);
        let n0 = b.add_net("n0", [a, c]).unwrap();
        let _n1 = b.add_net("n1", [a, c, d]).unwrap();
        b.add_terminal("t0", n0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_sizes() {
        let h = tiny();
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.net_count(), 2);
        assert_eq!(h.terminal_count(), 1);
        assert_eq!(h.total_size(), 6);
        assert_eq!(h.pin_count(), 5);
        assert_eq!(h.name(), "tiny");
    }

    #[test]
    fn adjacency_is_consistent_both_ways() {
        let h = tiny();
        for net in h.net_ids() {
            for &pin in h.pins(net) {
                assert!(h.nets(pin).contains(&net));
            }
        }
        for node in h.node_ids() {
            for &net in h.nets(node) {
                assert!(h.pins(net).contains(&node));
            }
        }
    }

    #[test]
    fn terminals_attach_to_their_net() {
        let h = tiny();
        let t = h.terminal_ids().next().unwrap();
        let net = h.terminal_net(t);
        assert!(h.net_has_terminal(net));
        assert_eq!(h.net_terminals(net), [t]);
        assert_eq!(h.terminal_name(t), "t0");
    }

    #[test]
    fn degrees() {
        let h = tiny();
        assert_eq!(h.max_node_degree(), 2); // a and c are on two nets
        assert_eq!(h.max_net_degree(), 3); // n1 has three pins
    }

    #[test]
    fn name_lookups() {
        let h = tiny();
        assert_eq!(h.find_node("d").map(|n| n.index()), Some(2));
        assert_eq!(h.find_node("zz"), None);
        assert!(h.find_net("n1").is_some());
        let idx = h.node_index_by_name();
        assert_eq!(idx["a"].index(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let h = tiny();
        let s = format!("{h:?}");
        assert!(s.contains("Hypergraph"));
        assert!(s.contains("tiny"));
    }

    #[test]
    fn graph_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Hypergraph>();
    }
}
