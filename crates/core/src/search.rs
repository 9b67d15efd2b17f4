//! One entry point for every run: [`run`] executes the FPART peel, the
//! multilevel V-cycle or an ECO repair as a panic-isolated restart
//! search, observed or not, optionally checkpointed or resumed.
//!
//! Every front end (the CLI, the server, the benches) describes its run
//! as a [`RunSpec`] and hands [`run`] an [`Observer`]; the observer
//! decides what is recorded, never what is computed. One search and one
//! per-restart job body serve all three methods:
//!
//! * restart `i` runs under a diversified seed (driver seed and, for the
//!   V-cycle, matching seed both offset by `i`), on its own span lane,
//!   inside one [`SpanKind::Restart`] span with one [`Counter::Runs`]
//!   count;
//! * restarts are reduced in restart-index order — feasible over
//!   infeasible, then fewest devices, then smallest cut — so the result
//!   is **bit-identical at every thread count**;
//! * a restart that panics is dropped and reported in
//!   [`RestartsReport::failed`]; the search errors only when every
//!   restart fails;
//! * a resumed checkpoint pre-fills its completed restarts' slots, so
//!   only the missing indices run and the merged report is bit-identical
//!   to an uninterrupted run.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Mutex;

use fpart_device::DeviceConstraints;
use fpart_hypergraph::{Hypergraph, NodeId};

use crate::budget::Completion;
use crate::checkpoint::{fingerprint_run, Checkpoint, CheckpointWriter, SavedRestart};
use crate::config::FpartConfig;
use crate::driver::{partition_observed, PartitionError, PartitionOutcome};
use crate::eco::{repartition_eco_observed, EcoConfig, EcoSummary};
use crate::multilevel::{
    memoized_multilevel, run_graph_key, split_thread_budget, MultilevelConfig,
};
use crate::obs::{Counter, Metrics, Observer, SpanKind, SpanStats, SCHEMA_VERSION};
use crate::parallel::{catch_job, run_indexed_caught, JobPanic};

/// The algorithm a [`RunSpec`] runs.
#[derive(Debug, Clone)]
pub enum RunMethod<'a> {
    /// The paper's flat FPART peel (Algorithm 1).
    Flat,
    /// The n-level V-cycle around the peel. The spec's thread budget
    /// overrides [`MultilevelConfig::threads`].
    Multilevel(MultilevelConfig),
    /// ECO repair of `previous`, a partition of the graph an edit script
    /// was applied to, onto the edited graph; see
    /// [`crate::repartition_eco_observed`]. The spec's thread budget
    /// overrides the fallback engine's [`MultilevelConfig::threads`].
    Eco {
        /// Repair options.
        eco: EcoConfig,
        /// Block index per node of the pre-edit graph.
        previous: &'a [u32],
        /// Each pre-edit node's id in the edited graph (`None` when the
        /// edit removed it), as [`fpart_hypergraph::apply_script`]
        /// reports it.
        node_map: &'a [Option<NodeId>],
    },
}

/// Everything [`run`] needs besides the graph, the device and the
/// observer.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// The algorithm.
    pub method: RunMethod<'a>,
    /// Engine configuration of restart 0; restart `i` runs with the
    /// seed offset by `i`.
    pub config: FpartConfig,
    /// Independent restarts (at least 1). Seed diversity only matters
    /// for configurations with randomized choices (e.g.
    /// `use_constructive_initial: false`); under the deterministic
    /// default configuration the flat restarts coincide and the first
    /// one wins.
    pub restarts: usize,
    /// Total worker budget (at least 1), split between concurrent
    /// restarts and each restart's intra-run stages by
    /// [`split_thread_budget`] (the flat peel has no intra-run stages,
    /// so there every worker runs restarts). No value changes any
    /// result.
    pub threads: usize,
    /// A checkpoint of this run to resume: its completed restarts are
    /// restored instead of recomputed. Flat and multilevel only.
    pub resume: Option<&'a Checkpoint>,
    /// A writer that receives a snapshot after every completed restart.
    /// Flat and multilevel only.
    pub writer: Option<&'a CheckpointWriter>,
}

impl<'a> RunSpec<'a> {
    /// One restart of `method` under `config`, with the default worker
    /// budget ([`crate::parallel::default_threads`]) and no checkpoint.
    #[must_use]
    pub fn new(method: RunMethod<'a>, config: FpartConfig) -> Self {
        RunSpec {
            method,
            config,
            restarts: 1,
            threads: crate::parallel::default_threads(),
            resume: None,
            writer: None,
        }
    }
}

/// Result of [`run`]: the winning outcome plus the search's metrics.
#[derive(Debug, Clone)]
pub struct RestartsReport {
    /// The winning outcome. Its own [`PartitionOutcome::metrics`] belong
    /// to the winning restart alone; its completion is the search's.
    pub outcome: PartitionOutcome,
    /// All restarts' metrics merged in restart-index order — identical
    /// for every thread count (disabled when the observer's registry
    /// is).
    pub totals: Metrics,
    /// Each restart's metrics, indexed by restart. A restart that
    /// returned a typed error keeps the counts it accumulated before
    /// erroring out; a restart lost to a panic is represented by a
    /// registry with one `failed_restarts` count (so the totals stay the
    /// field-wise per-restart sums).
    pub per_restart: Vec<Metrics>,
    /// How the search ended: the winning restart's own completion,
    /// degraded further when any restart was lost to a panic.
    pub completion: Completion,
    /// Restarts lost to isolated panics, in restart-index order.
    pub failed: Vec<FailedRestart>,
    /// The winning restart's repair figures ([`RunMethod::Eco`] only).
    pub eco: Option<EcoSummary>,
}

/// A restart that panicked and was dropped from the reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRestart {
    /// Restart index of the lost run.
    pub restart: usize,
    /// Recovered panic payload (message).
    pub message: String,
}

/// What one restart produces: its outcome, plus the repair figures of
/// an ECO restart.
type Finished = (PartitionOutcome, Option<EcoSummary>);

/// A restart that ran to the end (successfully or not) with its metrics.
type Attempt = (Result<Finished, PartitionError>, Metrics);

/// Runs `spec` on `graph` and returns the best restart with the
/// search's metrics.
///
/// The observer's registry decides whether anything is recorded: every
/// restart records into a fork of it, so with [`Observer::none`] the
/// restarts run unmetered and with an enabled registry each one records
/// its lane, a [`SpanKind::Restart`] span and a [`Counter::Runs`] count;
/// the merged totals land in [`RestartsReport::totals`]. With one
/// restart, the observer's sink and heartbeat receive that restart's
/// events.
///
/// # Errors
///
/// [`PartitionError::InvalidConfig`] when `restarts` or `threads` is
/// zero, when an event sink is attached to more than one restart, when
/// a checkpoint is given for ECO repair, or when the resume checkpoint
/// belongs to a different run (the CLI pre-validates with
/// [`Checkpoint::verify`] for a friendlier message); otherwise the first
/// restart's typed error when every restart fails, and
/// [`PartitionError::RestartPanicked`] when every restart panicked.
///
/// # Example
///
/// ```
/// use fpart_core::{run, FpartConfig, MultilevelConfig, Observer, RunMethod, RunSpec};
/// use fpart_device::Device;
/// use fpart_hypergraph::gen::{window_circuit, WindowConfig};
///
/// # fn main() -> Result<(), fpart_core::PartitionError> {
/// let circuit = window_circuit(&WindowConfig::new("demo", 300, 24), 1);
/// let spec = RunSpec {
///     restarts: 2,
///     ..RunSpec::new(RunMethod::Multilevel(MultilevelConfig::default()), FpartConfig::default())
/// };
/// let report = run(&circuit, Device::XC3020.constraints(0.9), &spec, &mut Observer::none())?;
/// assert!(report.outcome.feasible);
/// # Ok(())
/// # }
/// ```
pub fn run(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    spec: &RunSpec<'_>,
    obs: &mut Observer<'_>,
) -> Result<RestartsReport, PartitionError> {
    let restarts = spec.restarts;
    if restarts == 0 {
        return Err(PartitionError::InvalidConfig { what: "restarts must be at least 1" });
    }
    if spec.threads == 0 {
        return Err(PartitionError::InvalidConfig { what: "threads must be at least 1" });
    }
    if restarts > 1 && obs.has_sink() {
        return Err(PartitionError::InvalidConfig {
            what: "an event sink needs restarts == 1 (events are per-run)",
        });
    }
    let durable = spec.resume.is_some() || spec.writer.is_some();
    if durable && matches!(spec.method, RunMethod::Eco { .. }) {
        return Err(PartitionError::InvalidConfig {
            what: "checkpoints apply to the flat and multilevel searches, not to ECO repair",
        });
    }
    let ml = match &spec.method {
        RunMethod::Multilevel(ml) => Some(ml),
        _ => None,
    };
    let fingerprint =
        durable.then(|| fingerprint_run(graph, constraints, &spec.config, ml, restarts));

    let mut resumed: BTreeMap<usize, SavedRestart> = BTreeMap::new();
    if let Some(snapshot) = spec.resume {
        if Some(snapshot.fingerprint) != fingerprint {
            return Err(PartitionError::InvalidConfig {
                what: "resume checkpoint was recorded for a different run (fingerprint mismatch)",
            });
        }
        if snapshot.restarts != restarts {
            return Err(PartitionError::InvalidConfig {
                what: "resume checkpoint was recorded for a different restart count",
            });
        }
        for saved in &snapshot.completed {
            // Only deterministic completions are replayable; anything
            // else (and out-of-range indices) is recomputed.
            if saved.restart < restarts && replayable(saved.completion) {
                resumed.insert(saved.restart, saved.clone());
            }
        }
    }
    let pending: Vec<usize> = (0..restarts).filter(|i| !resumed.contains_key(i)).collect();

    // The split uses the *total* restart count, so a resumed run has the
    // work shape of the uninterrupted one. The flat peel has no
    // intra-run stages: every worker runs restarts.
    let (outer, inner) = match spec.method {
        RunMethod::Flat => (spec.threads, 1),
        _ => split_thread_budget(spec.threads, restarts),
    };
    let gk = ml.and_then(|ml| run_graph_key(graph, ml));
    let banked = Mutex::new(resumed.clone());
    let job = |i: usize, obs: &mut Observer<'_>| {
        let result = run_restart(graph, constraints, spec, inner, gk.as_ref(), i, obs);
        if let (Some(writer), Some(fingerprint), Ok((outcome, _))) =
            (spec.writer, fingerprint, &result)
        {
            if replayable(outcome.completion) {
                let completed = {
                    let mut banked = banked.lock().expect("checkpoint set lock");
                    banked.insert(i, SavedRestart::from_outcome(i, outcome, &obs.metrics));
                    banked.values().cloned().collect()
                };
                writer.submit(Checkpoint {
                    schema_version: SCHEMA_VERSION,
                    fingerprint,
                    restarts,
                    completed,
                });
            }
        }
        result
    };

    // Every restart records into a fork of the observer's registry. A
    // lone pending restart runs inline on the observer itself (its
    // registry swapped for the fork), so the sink and heartbeat see its
    // events; several fan out over fresh sink-less observers.
    let seed = obs.metrics.fork();
    let fresh: Vec<Result<Attempt, JobPanic>> = if let &[i] = pending.as_slice() {
        let parent = std::mem::replace(&mut obs.metrics, seed.fork());
        let result = catch_job(i, || job(i, obs));
        let metrics = std::mem::replace(&mut obs.metrics, parent);
        vec![result.map(|result| (result, metrics))]
    } else {
        run_indexed_caught(pending.len(), outer, &|j| {
            let mut child = Observer::new(seed.fork(), None);
            let result = job(pending[j], &mut child);
            (result, child.metrics)
        })
    };

    // Merge restored and fresh restarts in restart-index order.
    let mut fresh = fresh.into_iter();
    let mut totals = seed.fork();
    let mut per_restart = Vec::with_capacity(restarts);
    let mut results = Vec::with_capacity(restarts);
    let mut failed = Vec::new();
    for i in 0..restarts {
        let (result, metrics) = match resumed.remove(&i) {
            Some(saved) => {
                let metrics = if seed.is_enabled() { saved.rebuild_metrics() } else { seed.fork() };
                (Ok((saved.to_outcome(metrics.clone()), None)), metrics)
            }
            None => match fresh.next().expect("every pending restart has a slot") {
                Ok(ran) => ran,
                Err(panic) => {
                    let mut metrics = seed.fork();
                    metrics.bump(Counter::FailedRestarts);
                    totals.merge(&metrics);
                    per_restart.push(metrics);
                    failed.push(FailedRestart { restart: i, message: panic.message });
                    continue;
                }
            },
        };
        totals.merge(&metrics);
        per_restart.push(metrics);
        results.push(result);
    }
    if results.is_empty() {
        let first = failed.into_iter().next().expect("at least one restart executes");
        return Err(PartitionError::RestartPanicked {
            restart: first.restart,
            message: first.message,
        });
    }
    let (mut outcome, eco) = best_restart(results)?;
    if !failed.is_empty() {
        outcome.completion = outcome.completion.worst(Completion::Degraded);
    }
    Ok(RestartsReport { completion: outcome.completion, outcome, totals, per_restart, failed, eco })
}

/// Restart `i` of `spec`: the diversified configs, its span lane, one
/// [`SpanKind::Restart`] span and one [`Counter::Runs`] count around the
/// method itself.
fn run_restart(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    spec: &RunSpec<'_>,
    inner: usize,
    gk: Option<&crate::multilevel::GraphKey>,
    i: usize,
    obs: &mut Observer<'_>,
) -> Result<Finished, PartitionError> {
    let cfg = FpartConfig {
        seed: spec.config.seed.wrapping_add(i as u64),
        fault_plan: spec.config.fault_plan.as_ref().and_then(|p| p.for_restart(i)),
        ..spec.config.clone()
    };
    let diversify = |ml: &MultilevelConfig| MultilevelConfig {
        seed: ml.seed.wrapping_add(i as u64),
        threads: inner,
        ..ml.clone()
    };
    obs.metrics.set_span_lane(i as u32);
    obs.metrics.span_open(SpanKind::Restart, 0);
    let result = match &spec.method {
        RunMethod::Flat => partition_observed(graph, constraints, &cfg, obs).map(|o| (o, None)),
        RunMethod::Multilevel(ml) => {
            memoized_multilevel(graph, constraints, &cfg, &diversify(ml), obs, gk)
                .map(|o| (o, None))
        }
        RunMethod::Eco { eco, previous, node_map } => {
            let eco = EcoConfig { multilevel: diversify(&eco.multilevel), ..eco.clone() };
            repartition_eco_observed(graph, constraints, &cfg, &eco, previous, node_map, obs).map(
                |report| {
                    let summary = report.summary();
                    (report.outcome, Some(summary))
                },
            )
        }
    };
    obs.metrics.bump(Counter::Runs);
    obs.metrics.span_close(match &result {
        Ok((outcome, _)) => SpanStats {
            nodes: graph.node_count() as u64,
            nets: graph.net_count() as u64,
            moves: outcome.total_moves as u64,
            ..SpanStats::default()
        },
        Err(_) => SpanStats::default(),
    });
    result
}

/// Whether a restart that ended this way is a pure function of its
/// inputs, so a checkpoint may bank and replay it (cancelled or
/// deadline-expired restarts depend on wall-clock timing).
fn replayable(completion: Completion) -> bool {
    matches!(completion, Completion::Complete | Completion::Degraded)
}

/// Picks the best restart, in restart order: feasible over infeasible,
/// then fewest devices, then smallest cut, ties broken by the lowest
/// restart index. Errors only surface when *every* restart failed (the
/// first restart's error wins).
fn best_restart(
    results: Vec<Result<Finished, PartitionError>>,
) -> Result<Finished, PartitionError> {
    let key = |o: &PartitionOutcome| (o.feasible, Reverse(o.device_count), Reverse(o.cut));
    let mut best: Option<Finished> = None;
    let mut first_error: Option<PartitionError> = None;
    for result in results {
        match result {
            Ok(finished) => {
                if best.as_ref().is_none_or(|b| key(&finished.0) > key(&b.0)) {
                    best = Some(finished);
                }
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    best.ok_or_else(|| first_error.expect("at least one restart executes"))
}
