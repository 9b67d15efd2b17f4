//! Pairwise refinement of an existing k-way partition.
//!
//! Shared by the multilevel flow and the direct k-way mode: repeatedly
//! run two-block improvement passes on the most cut-connected block
//! pairs. Unlike the driver's schedule there is no remainder — every
//! block obeys the same move window.
//!
//! Boundary refinement rounds run their pair passes as independent
//! *jobs*: [`top_crossing_pairs`] returns block-disjoint pairs, every
//! pair's boundary is extracted once per round from the cut nets' pins,
//! every job refines a private clone of the round-start snapshot, and
//! the surviving moves are committed to the master state in pair-index
//! order. Because each job's input is the snapshot (never a sibling's
//! output) and the commit order is fixed, the result is bit-identical
//! whether the jobs run on one worker or many
//! ([`RefineConfig::workers`]). The state's pin distribution is sparse
//! (O(pins), independent of the block count), so the per-job clone and
//! the per-round boundary extraction both scale with the graph's pins,
//! never with nets × k.

use fpart_hypergraph::NodeId;

use crate::budget::BudgetTracker;
use crate::config::FpartConfig;
use crate::cost::CostEvaluator;
use crate::engine::{improve, improve_cells_metered, ImproveContext, NO_REMAINDER};
use crate::obs::{Counter, Metrics};
use crate::parallel::run_indexed_caught_metered;
use crate::state::PartitionState;
use crate::trace::ImproveKind;

/// Options of the pairwise refiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineConfig {
    /// Maximum refinement rounds.
    pub rounds: usize,
    /// Block pairs refined per round (each block at most once a round).
    pub pairs_per_round: usize,
    /// Worker threads for the boundary pair jobs of one round. The
    /// result is bit-identical for every value (jobs read the
    /// round-start snapshot and commit in pair order); values are
    /// clamped to at least 1.
    pub workers: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { rounds: 4, pairs_per_round: 8, workers: crate::parallel::default_threads() }
    }
}

/// Refines `state` with two-block improvement passes over the most
/// cut-connected block pairs until a round stops improving. Returns the
/// number of pair passes that improved the solution key.
pub fn refine_pairs(
    state: &mut PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
    refine: &RefineConfig,
) -> usize {
    let k = state.block_count();
    let mut improved_total = 0usize;
    if k < 2 {
        return 0;
    }
    // The strict two-block ε²_min exists to protect the remainder during
    // the recursive flow; refinement has no remainder, so both blocks of
    // a pair get the loose multi-block coefficient.
    let config = FpartConfig { eps_min_two: config.eps_min_multi, ..config.clone() };
    let config = &config;
    for _ in 0..refine.rounds {
        let pairs = top_crossing_pairs(state, refine.pairs_per_round);
        if pairs.is_empty() {
            break;
        }
        let mut improved = false;
        for (a, b) in pairs {
            let ctx = ImproveContext {
                evaluator,
                config,
                remainder: NO_REMAINDER,
                minimum_reached: true, // strict S_MAX cap during refinement
                budget: None,
            };
            let stats = improve(state, &[a, b], &ctx);
            if stats.final_key.better_than(&stats.initial_key) {
                improved = true;
                improved_total += 1;
            }
        }
        if !improved {
            break;
        }
    }
    improved_total
}

/// Boundary-only refinement of one uncoarsening level of the n-level
/// multilevel flow.
///
/// Like [`refine_pairs`], but each pair pass runs the full FM machinery
/// (gain buckets, infeasibility-distance key, feasible-move regions)
/// over **boundary cells only** — the cells of the pair incident to a
/// net crossing the pair — so the per-level cost scales with the cut,
/// not the level's node count. The boundary buffer is reused across
/// pairs and rounds; the move loop inside each pass stays
/// zero-allocation (engine scratch).
///
/// `budget` is checked at every round boundary and threaded into each
/// improve call (pass boundaries), so a deadline expiring mid-level
/// stops refinement promptly while the state stays a valid partition.
/// Each pair pass is timed under [`ImproveKind::Boundary`] and counted
/// as [`Counter::BoundaryRefinements`] in `metrics`.
///
/// Returns the aggregated [`BoundaryRefineStats`] of the level.
pub fn refine_boundary_metered(
    state: &mut PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
    refine: &RefineConfig,
    budget: Option<&BudgetTracker>,
    metrics: &mut Metrics,
) -> BoundaryRefineStats {
    refine_boundary_inner(state, evaluator, config, refine, budget, metrics, None)
}

/// [`refine_boundary_metered`] restricted to *dirty* blocks: only block
/// pairs where at least one side is marked dirty in `dirty` are
/// refined. This is the repair step of the ECO flow — blocks untouched
/// by a netlist edit keep their cells in place, so the cost of a repair
/// scales with the edit, not the design.
///
/// `dirty` must have one entry per block. A pair's pass may move cells
/// of its clean side (the boundary spans both blocks); that is
/// intentional — a repair that could not rebalance against a clean
/// neighbour would be unable to restore feasibility.
pub fn refine_boundary_dirty_metered(
    state: &mut PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
    refine: &RefineConfig,
    budget: Option<&BudgetTracker>,
    metrics: &mut Metrics,
    dirty: &[bool],
) -> BoundaryRefineStats {
    assert_eq!(dirty.len(), state.block_count(), "one dirty flag per block");
    refine_boundary_inner(state, evaluator, config, refine, budget, metrics, Some(dirty))
}

/// One pair job's contribution to a boundary round: the moves to commit
/// (boundary cells whose block changed in the job's private snapshot),
/// plus its stats delta.
struct PairOutcome {
    moved: Vec<(NodeId, usize)>,
    stats: BoundaryRefineStats,
    improved: bool,
}

#[allow(clippy::too_many_arguments)]
fn refine_boundary_inner(
    state: &mut PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
    refine: &RefineConfig,
    budget: Option<&BudgetTracker>,
    metrics: &mut Metrics,
    dirty: Option<&[bool]>,
) -> BoundaryRefineStats {
    let k = state.block_count();
    let mut stats_total = BoundaryRefineStats::default();
    if k < 2 {
        return stats_total;
    }
    // Same loosening as `refine_pairs`: no remainder to protect, so the
    // strict two-block ε²_min gives way to the multi-block coefficient.
    let config = FpartConfig { eps_min_two: config.eps_min_multi, ..config.clone() };
    let config = &config;
    let workers = refine.workers.max(1);
    // Global pair-job counter across rounds: the index a worker-targeted
    // [`crate::FaultPlan`] matches on, and the budget fork identity.
    let mut next_job = 0usize;
    for _ in 0..refine.rounds {
        if budget.is_some_and(BudgetTracker::check) {
            break;
        }
        let mut pairs = top_crossing_pairs(state, refine.pairs_per_round);
        if let Some(dirty) = dirty {
            pairs.retain(|&(a, b)| dirty[a] || dirty[b]);
        }
        if pairs.is_empty() {
            break;
        }
        // Fork every job's budget before the fan-out, in pair order, so
        // all jobs of a round see the same remaining-budget snapshot no
        // matter how many workers execute them.
        let forks: Option<Vec<BudgetTracker>> =
            budget.map(|t| (0..pairs.len()).map(|i| t.fork_worker(next_job + i)).collect());
        let forks_ref = forks.as_deref();
        let pairs_ref = &pairs[..];
        let boundaries = pair_boundaries(state, &pairs);
        let boundaries_ref = &boundaries[..];
        let snapshot: &PartitionState<'_> = state;
        // Chrome-trace lane of each job: mirror `run_indexed`'s chunked
        // worker layout (lane 0 stays the enclosing flow). Lanes are
        // cosmetic — span *records* never depend on them.
        let lane_chunk = pairs.len().div_ceil(workers.min(pairs.len()));
        let results = run_indexed_caught_metered(pairs.len(), workers, metrics, &|i, child| {
            let (a, b) = pairs_ref[i];
            child.bump(Counter::PairJobs);
            child.set_span_lane(1 + (i / lane_chunk) as u32);
            child.span_open(crate::obs::SpanKind::PairJob, 0);
            let boundary = &boundaries_ref[i][..];
            if boundary.is_empty() {
                child.span_close(crate::obs::SpanStats::default());
                return PairOutcome {
                    moved: Vec::new(),
                    stats: BoundaryRefineStats::default(),
                    improved: false,
                };
            }
            let ctx = ImproveContext {
                evaluator,
                config,
                remainder: NO_REMAINDER,
                minimum_reached: true, // strict S_MAX cap during refinement
                budget: forks_ref.map(|f| &f[i]),
            };
            let mut local = snapshot.clone();
            let started = child.start();
            let stats = improve_cells_metered(&mut local, &[a, b], boundary, &ctx, child);
            child.stop_improve(ImproveKind::Boundary, started);
            child.bump(Counter::BoundaryRefinements);
            child.span_close(crate::obs::SpanStats {
                boundary: boundary.len() as u64,
                moves: stats.moves as u64,
                gain: stats.initial_key.cut as i64 - stats.final_key.cut as i64,
                ..crate::obs::SpanStats::default()
            });
            let moved: Vec<(NodeId, usize)> = boundary
                .iter()
                .copied()
                .filter_map(|v| {
                    let to = local.block_of(v);
                    (to != snapshot.block_of(v)).then_some((v, to))
                })
                .collect();
            PairOutcome {
                moved,
                stats: BoundaryRefineStats {
                    calls: 1,
                    moves: stats.moves,
                    improved: usize::from(stats.final_key.better_than(&stats.initial_key)),
                    boundary: boundary.len(),
                },
                improved: stats.final_key.better_than(&stats.initial_key),
            }
        });
        next_job += pairs.len();
        // Commit in pair-index order: absorb every job's budget
        // consumption (even a panicked job's — its fault counts), apply
        // surviving moves, drop a panicked pair's moves deterministically.
        let mut improved = false;
        for (i, result) in results.into_iter().enumerate() {
            if let (Some(t), Some(forks)) = (budget, &forks) {
                t.absorb(&forks[i]);
            }
            match result {
                Ok(outcome) => {
                    stats_total.calls += outcome.stats.calls;
                    stats_total.moves += outcome.stats.moves;
                    stats_total.improved += outcome.stats.improved;
                    stats_total.boundary += outcome.stats.boundary;
                    state.apply(outcome.moved);
                    improved |= outcome.improved;
                }
                Err(_panic) => {
                    metrics.bump(Counter::PairPanics);
                }
            }
        }
        if !improved {
            break;
        }
    }
    stats_total
}

/// Aggregated result of one [`refine_boundary_metered`] level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryRefineStats {
    /// Boundary improve calls executed.
    pub calls: usize,
    /// Cell moves retained across all calls.
    pub moves: usize,
    /// Calls that improved the solution key.
    pub improved: usize,
    /// Boundary cells examined, summed over all calls.
    pub boundary: usize,
}

/// Extracts the boundary of every pair of `pairs` (block-disjoint, as
/// [`top_crossing_pairs`] returns them): the cells of the pair's two
/// blocks incident to at least one net with pins in both — the cells
/// whose moves can change the pair's cut. Entry `i` belongs to
/// `pairs[i]` and lists each cell once, in node-id order.
///
/// One pass over the cut nets serves the whole round: a net with pins
/// in both blocks of a pair puts its pins in those blocks on that
/// pair's boundary. The cost is O(nets + Σ pins of cut nets), never a
/// scan of every node per pair.
fn pair_boundaries(state: &PartitionState<'_>, pairs: &[(usize, usize)]) -> Vec<Vec<NodeId>> {
    const NO_PAIR: usize = usize::MAX;
    let graph = state.graph();
    // `pair_of[c]` is the pair holding block `c`, `partner[c]` the
    // pair's other block.
    let mut pair_of = vec![NO_PAIR; state.block_count()];
    let mut partner = vec![0usize; state.block_count()];
    for (p, &(a, b)) in pairs.iter().enumerate() {
        pair_of[a] = p;
        pair_of[b] = p;
        partner[a] = b;
        partner[b] = a;
    }
    let mut out = vec![Vec::new(); pairs.len()];
    for net in graph.net_ids() {
        if state.net_span(net) < 2 {
            continue;
        }
        let crosses = |c: usize| pair_of[c] != NO_PAIR && state.net_pins_in(net, partner[c]) > 0;
        if !state.net_blocks(net).any(|(c, _)| crosses(c)) {
            continue;
        }
        for &v in graph.pins(net) {
            let c = state.block_of(v);
            if crosses(c) {
                out[pair_of[c]].push(v);
            }
        }
    }
    for cells in &mut out {
        cells.sort_unstable();
        cells.dedup();
    }
    out
}

/// The block pairs with the most crossing nets, each block used at most
/// once (so one round touches many regions).
#[must_use]
pub fn top_crossing_pairs(state: &PartitionState<'_>, limit: usize) -> Vec<(usize, usize)> {
    let k = state.block_count();
    let graph = state.graph();
    let mut crossings = std::collections::HashMap::<(usize, usize), usize>::new();
    for net in graph.net_ids() {
        if state.net_span(net) < 2 {
            continue;
        }
        // The run is block-sorted, so every pair comes out as (low, high).
        let mut blocks = state.net_blocks(net);
        while let Some((a, _)) = blocks.next() {
            for (b, _) in blocks.clone() {
                *crossings.entry((a, b)).or_default() += 1;
            }
        }
    }
    let mut pairs: Vec<((usize, usize), usize)> = crossings.into_iter().collect();
    pairs.sort_by_key(|&((a, b), c)| (std::cmp::Reverse(c), a, b));
    let mut used = vec![false; k];
    let mut out = Vec::new();
    for ((a, b), _) in pairs {
        if out.len() >= limit {
            break;
        }
        if !used[a] && !used[b] {
            used[a] = true;
            used[b] = true;
            out.push((a, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_device::DeviceConstraints;
    use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};

    #[test]
    fn top_pairs_orders_by_crossings() {
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 3, 10), 3);
        let state = PartitionState::from_assignment(&g, planted, 3);
        let pairs = top_crossing_pairs(&state, 3);
        assert!(!pairs.is_empty());
        // Each block appears at most once.
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(seen.insert(*a));
            assert!(seen.insert(*b));
        }
    }

    #[test]
    fn refine_improves_a_scrambled_partition() {
        let cfg = ClusteredConfig::new("cl", 3, 20);
        let (g, planted) = clustered_circuit(&cfg, 7);
        // Scramble: swap every 4th node's cluster.
        let mut assignment = planted.clone();
        for i in (0..assignment.len()).step_by(4) {
            assignment[i] = (assignment[i] + 1) % 3;
        }
        let mut state = PartitionState::from_assignment(&g, assignment, 3);
        let before = state.cut_count();
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 100), &config, 3, g.terminal_count());
        let improved = refine_pairs(&mut state, &evaluator, &config, &RefineConfig::default());
        state.assert_consistent();
        assert!(improved > 0);
        assert!(state.cut_count() < before);
    }

    #[test]
    fn boundary_refine_improves_a_scrambled_partition() {
        let cfg = ClusteredConfig::new("cl", 3, 20);
        let (g, planted) = clustered_circuit(&cfg, 7);
        let mut assignment = planted.clone();
        for i in (0..assignment.len()).step_by(4) {
            assignment[i] = (assignment[i] + 1) % 3;
        }
        let mut state = PartitionState::from_assignment(&g, assignment, 3);
        let before = state.cut_count();
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 100), &config, 3, g.terminal_count());
        let mut metrics = Metrics::enabled();
        let improved = refine_boundary_metered(
            &mut state,
            &evaluator,
            &config,
            &RefineConfig::default(),
            None,
            &mut metrics,
        );
        state.assert_consistent();
        assert!(improved.improved > 0);
        assert!(improved.calls >= improved.improved);
        assert!(improved.moves > 0);
        assert!(state.cut_count() < before);
        assert_eq!(metrics.get(Counter::BoundaryRefinements), improved.calls as u64);
        assert_eq!(metrics.improve_time(ImproveKind::Boundary).count, improved.calls as u64);
    }

    /// Brute-force boundary oracle: scans every node and keeps the cells
    /// of blocks `a` and `b` incident to at least one net with pins in
    /// both, in node-id order.
    fn boundary_cells(state: &PartitionState<'_>, a: usize, b: usize) -> Vec<NodeId> {
        let graph = state.graph();
        graph
            .node_ids()
            .filter(|&v| {
                let c = state.block_of(v);
                let other = if c == a { b } else { a };
                (c == a || c == b)
                    && graph.nets(v).iter().any(|&net| state.net_pins_in(net, other) > 0)
            })
            .collect()
    }

    #[test]
    fn boundary_cells_touch_crossing_nets_only() {
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 3, 10), 3);
        let state = PartitionState::from_assignment(&g, planted, 3);
        let cells = boundary_cells(&state, 0, 1);
        for &v in &cells {
            let c = state.block_of(v);
            assert!(c == 0 || c == 1);
            let other = usize::from(c == 0);
            assert!(g.nets(v).iter().any(|&e| state.net_pins_in(e, other) > 0));
        }
        // Completeness: every pair cell with a crossing net is listed.
        let listed: std::collections::HashSet<_> = cells.iter().copied().collect();
        for v in g.node_ids() {
            let c = state.block_of(v);
            if c != 0 && c != 1 {
                continue;
            }
            let other = usize::from(c == 0);
            if g.nets(v).iter().any(|&e| state.net_pins_in(e, other) > 0) {
                assert!(listed.contains(&v), "missing boundary cell {v:?}");
            }
        }
    }

    #[test]
    fn pair_boundaries_match_the_node_scan() {
        use fpart_hypergraph::gen::{rent_circuit, RentConfig};
        use fpart_hypergraph::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(11);
        for (trial, k) in [2usize, 3, 5, 8, 13, 24, 40, 64].into_iter().enumerate() {
            let g = rent_circuit(&RentConfig::new("rent", 600, 40), trial as u64);
            // Half the trials scatter cells uniformly (almost every net
            // cut); the rest keep runs of consecutive ids together, so
            // pairs cross only some nets.
            let assignment: Vec<u32> = if trial % 2 == 0 {
                (0..g.node_count()).map(|_| rng.gen_range(0..k as u32)).collect()
            } else {
                (0..g.node_count()).map(|i| (i * k / g.node_count()) as u32).collect()
            };
            let state = PartitionState::from_assignment(&g, assignment, k);
            for limit in [1, 4, k] {
                let pairs = top_crossing_pairs(&state, limit);
                assert!(!pairs.is_empty(), "k={k}: no crossing pairs");
                let boundaries = pair_boundaries(&state, &pairs);
                assert_eq!(boundaries.len(), pairs.len());
                for (&(a, b), cells) in pairs.iter().zip(&boundaries) {
                    assert_eq!(cells, &boundary_cells(&state, a, b), "k={k} pair ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn boundary_refine_with_expired_budget_is_a_noop() {
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 3, 12), 5);
        let mut assignment = planted;
        for i in (0..assignment.len()).step_by(3) {
            assignment[i] = (assignment[i] + 1) % 3;
        }
        let mut state = PartitionState::from_assignment(&g, assignment.clone(), 3);
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 100), &config, 3, g.terminal_count());
        let budget = crate::budget::RunBudget { max_passes: Some(0), ..Default::default() };
        let tracker = BudgetTracker::new(&budget, None);
        assert!(tracker.before_pass());
        let improved = refine_boundary_metered(
            &mut state,
            &evaluator,
            &config,
            &RefineConfig::default(),
            Some(&tracker),
            &mut Metrics::disabled(),
        );
        assert_eq!(improved, BoundaryRefineStats::default());
        assert_eq!(state.assignment(), &assignment[..], "stopped refinement moved cells");
    }

    #[test]
    fn single_block_is_a_noop() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 8), 1);
        let mut state = PartitionState::single_block(&g);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(100, 100), &config, 1, 0);
        assert_eq!(refine_pairs(&mut state, &evaluator, &config, &RefineConfig::default()), 0);
    }
}
