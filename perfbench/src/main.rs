//! Helper binary of the fpart benchmark (`perfbench/run.py`).
//!
//! The timed runs of the benchmark go through the `fpart` binary; this
//! helper does the work around them that needs the library:
//!
//! * `verify` re-checks an assignment file with
//!   [`verify_assignment`], after applying any edit scripts to the
//!   netlist, and recomputes devices, cut and an assignment hash;
//! * `trace-batch` and `trace-serve` are the traced runs.
//!   They call the library's public functions in process, record one
//!   span (name, start, end, parent, run id) around each call, keep the
//!   spans in memory, and write them out at the end together with the
//!   per-layer metrics.
//!
//! Every subcommand prints one JSON object on stdout.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use fpart_core::refine::{refine_boundary_metered, RefineConfig};
use fpart_core::{
    partition_observed, read_assignment, verify_assignment, CostEvaluator, Counter, FpartConfig,
    ImproveKind, Json, MemoConfig, MemoStore, Metrics, MultilevelConfig, Observer, PartitionState,
    Server, ServerConfig, SpanKind,
};
use fpart_device::{lower_bound, Device, DeviceConstraints};
use fpart_hypergraph::coarsen::coarsen_to_floor_threaded;
use fpart_hypergraph::io::read_netlist_limited;
use fpart_hypergraph::{apply_script, EditScript, Hypergraph, ParseLimits};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => Opts::parse(rest).and_then(|o| match cmd.as_str() {
            "verify" => verify(&o),
            "trace-batch" => trace_batch(&o),
            "trace-serve" => trace_serve(&o),
            other => Err(format!("unknown subcommand `{other}`")),
        }),
        None => Err("usage: perfbench-helper <verify|trace-batch|trace-serve> ...".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-helper: {e}");
            std::process::exit(1);
        }
    }
}

/// `--key value` options; a key may repeat.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_owned(), value.clone()));
        }
        Ok(Opts(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn all(&self, key: &str) -> Vec<&str> {
        self.0.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.req(key)?.parse().map_err(|_| format!("--{key}: not a number"))
    }

    /// `--device NAME --delta D`, or `--s-max S --t-max T`.
    fn constraints(&self) -> Result<DeviceConstraints, String> {
        match self.get("device") {
            Some(name) => {
                let device =
                    Device::by_name(name).ok_or_else(|| format!("unknown device {name}"))?;
                Ok(device.constraints(self.num("delta")?))
            }
            None => Ok(DeviceConstraints::new(self.num("s-max")?, self.num("t-max")?)),
        }
    }
}

/// One recorded call into the library.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

/// In-memory span recorder; spans are written out once, at the end.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in milliseconds.
    fn exit(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = end;
        (end - self.spans[id].start_ns) as f64 / 1e6
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.run
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Per-layer metrics by name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Books the engine counters and phase timings of one library
    /// metrics registry.
    fn add_engine(&mut self, m: &Metrics) {
        let c = |counter| m.get(counter) as f64;
        self.add("engine.passes", c(Counter::Passes));
        self.add("engine.moves_applied", c(Counter::MovesApplied));
        self.add("engine.moves_reverted", c(Counter::MovesReverted));
        self.add("engine.gain_bucket_pops", c(Counter::GainBucketPops));
        self.add("engine.key_evaluations", c(Counter::KeyEvaluations));
        self.add("stack.restarts", c(Counter::StackRestarts));
        for r in m.spans().records() {
            let ms = r.total_ns as f64 / 1e6;
            match r.kind {
                SpanKind::Improve => self.add("engine.improve_ms", ms),
                SpanKind::Bipartition => self.add("initial.bipartition_ms", ms),
                _ => {}
            }
        }
        for (kind, name) in [
            (ImproveKind::LastPair, "schedule.last_pair_ms"),
            (ImproveKind::AllBlocks, "schedule.all_blocks_ms"),
            (ImproveKind::MinSize, "schedule.min_size_ms"),
            (ImproveKind::MinIo, "schedule.min_io_ms"),
            (ImproveKind::MaxFree, "schedule.max_free_ms"),
            (ImproveKind::FinalSweep, "schedule.final_sweep_ms"),
        ] {
            self.add(name, m.improve_time(kind).total_ns as f64 / 1e6);
        }
    }

    fn finish_engine(&mut self) {
        let applied = self.get("engine.moves_applied");
        let kept = applied - self.get("engine.moves_reverted");
        self.set("engine.kept_move_ratio", if applied > 0.0 { kept / applied } else { 0.0 });
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn read_graph(path: &str) -> Result<Hypergraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_netlist_limited(BufReader::new(file), &ParseLimits::default())
        .map_err(|e| format!("{path}: {e}"))
}

fn read_script(path: &str) -> Result<EditScript, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    EditScript::read(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn read_assignment_file(path: &str, graph: &Hypergraph) -> Result<Vec<u32>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_assignment(file, graph).map(|(a, _)| a).map_err(|e| format!("{path}: {e}"))
}

/// FNV-1a over the block ids in node order.
fn assignment_hash(assignment: &[u32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in assignment {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Devices (non-empty blocks) and cut of an assignment, recomputed from
/// first principles; `None` when it is not a feasible partition.
fn check(graph: &Hypergraph, assignment: &[u32], c: DeviceConstraints) -> Option<(usize, usize)> {
    let k = assignment.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
    let v = verify_assignment(graph, assignment, k, c);
    let mut used = vec![false; k];
    for &b in assignment {
        used[b as usize] = true;
    }
    v.is_feasible().then(|| (used.iter().filter(|&&u| u).count(), v.cut))
}

fn job_json(graph: &Hypergraph, assignment: &[u32], c: DeviceConstraints) -> String {
    match check(graph, assignment, c) {
        Some((devices, cut)) => format!(
            "{{\"feasible\": true, \"devices\": {devices}, \"cut\": {cut}, \"hash\": \"{}\"}}",
            assignment_hash(assignment)
        ),
        None => "{\"feasible\": false}".to_owned(),
    }
}

/// `verify --netlist F [--edits E]... --assignment A <device>`.
fn verify(o: &Opts) -> Result<String, String> {
    let mut graph = read_graph(o.req("netlist")?)?;
    for path in o.all("edits") {
        let script = read_script(path)?;
        graph = apply_script(&graph, &script).map_err(|e| format!("{path}: {e}"))?.graph;
    }
    let assignment = read_assignment_file(o.req("assignment")?, &graph)?;
    Ok(job_json(&graph, &assignment, o.constraints()?))
}

/// Renumbers blocks densely in block order, dropping empty ones — the
/// numbering every driver's outcome uses.
fn compact(assignment: &[u32], k: usize) -> Vec<u32> {
    let mut used = vec![false; k];
    for &b in assignment {
        used[b as usize] = true;
    }
    let mut dense = vec![u32::MAX; k];
    for (next, (slot, _)) in dense.iter_mut().zip(&used).filter(|(_, &u)| u).enumerate() {
        *slot = next as u32;
    }
    assignment.iter().map(|&b| dense[b as usize]).collect()
}

/// Replays the `fpart partition --multilevel` V-cycle from public
/// pieces: coarsen, FPART on the coarsest graph, then per level project,
/// rebuild the state and refine the boundary. Books every layer into
/// `layers` and returns the final assignment, numbered like a driver's.
fn replay_vcycle(
    t: &mut Tracer,
    layers: &mut Layers,
    graph: &Hypergraph,
    c: DeviceConstraints,
    threads: usize,
) -> Result<Vec<u32>, String> {
    let cfg = FpartConfig::default();
    let ml = MultilevelConfig { threads, ..MultilevelConfig::default() };
    let cap = ((c.s_max as f64 * ml.cluster_cap_fraction) as u64).max(2);
    let id = t.enter("coarsen.coarsen_to_floor_threaded");
    let hierarchy =
        coarsen_to_floor_threaded(graph, cap, ml.coarsen_floor, ml.max_levels, ml.seed, threads);
    layers.add("coarsen.ms", t.exit(id));
    let coarsest = hierarchy.coarsest().unwrap_or(graph);
    layers.add("coarsen.levels", hierarchy.level_count() as f64);
    layers.add("coarsen.coarsest_nodes", coarsest.node_count() as f64);

    let mut driver = Observer::new(Metrics::enabled(), None);
    let id = t.enter("driver.partition_observed");
    let coarse = partition_observed(coarsest, c, &cfg, &mut driver).map_err(|e| e.to_string())?;
    layers.add("driver.coarse_ms", t.exit(id));
    layers.add("driver.bipartitions", driver.metrics.get(Counter::Bipartitions) as f64);
    layers.add("driver.improve_calls", coarse.improve_calls as f64);
    layers.add("driver.moves", coarse.total_moves as f64);
    layers.add_engine(&driver.metrics);

    let evaluator = CostEvaluator::new(c, &cfg, lower_bound(graph, c), graph.terminal_count());
    let refine = RefineConfig {
        rounds: ml.refine_rounds,
        pairs_per_round: ml.pairs_per_round,
        workers: threads,
    };
    let mut metrics = Metrics::enabled();
    let mut assignment = coarse.assignment;
    let mut k = coarse.device_count.max(1);
    let mut next = Vec::with_capacity(graph.node_count());
    for i in (0..hierarchy.level_count()).rev() {
        let id = t.enter("coarsen.project_into");
        hierarchy.levels[i].project_into(&assignment, &mut next);
        layers.add("project.ms", t.exit(id));
        std::mem::swap(&mut assignment, &mut next);
        let fine = if i == 0 { graph } else { &hierarchy.levels[i - 1].coarse };
        if i == 0 {
            // Computed, not measured: the dense pin-distribution matrix
            // is nets × next_pow2(k) u32 counters.
            let bytes = fine.net_count() * k.next_power_of_two() * 4;
            layers.add("state.dist_bytes_l0", bytes as f64);
        }
        let id = t.enter("state.from_assignment");
        let mut state = PartitionState::from_assignment(fine, std::mem::take(&mut assignment), k);
        layers.add("state.build_ms", t.exit(id));
        let id = t.enter("refine.refine_boundary_metered");
        let stats =
            refine_boundary_metered(&mut state, &evaluator, &cfg, &refine, None, &mut metrics);
        let ms = t.exit(id);
        layers.add("refine.ms", ms);
        if i == 0 {
            layers.add("refine.l0_ms", ms);
        }
        layers.add("refine.moves", stats.moves as f64);
        layers.add("refine.boundary_cells", stats.boundary as f64);
        k = state.block_count();
        assignment = state.into_assignment();
    }
    layers.add_engine(&metrics);
    layers.add("refine.pair_jobs", metrics.get(Counter::PairJobs) as f64);
    for r in metrics.spans().records() {
        if r.kind == SpanKind::PairJob {
            layers.add("refine.pair_job_self_ms", r.self_ns as f64 / 1e6);
        } else if r.kind == SpanKind::Improve && r.parent == Some(SpanKind::PairJob) {
            layers.add("refine.pair_improve_ms", r.total_ns as f64 / 1e6);
        }
    }
    Ok(compact(&assignment, k))
}

/// `trace-batch --jobs FILE --threads N`: the batch workloads' partition
/// jobs, replayed in process, one per line: `NETLIST DEVICE METHOD
/// EXPECT`. DEVICE is `--device,NAME,--delta,D` or `--s-max,S,--t-max,T`;
/// METHOD is `flat` (the paper's driver, [`partition_observed`]) or
/// `multilevel` (the V-cycle replay). Every result must equal the timed
/// run's assignment file EXPECT bit for bit.
fn trace_batch(o: &Opts) -> Result<String, String> {
    let jobs = std::fs::read_to_string(o.req("jobs")?).map_err(|e| e.to_string())?;
    let threads: usize = o.num("threads")?;
    let mut t = Tracer::new();
    let mut layers = Layers::default();
    let mut identical = true;
    let mut json = Vec::new();
    let root = t.enter("batch.round");
    for (i, line) in jobs.lines().enumerate() {
        t.run = i as u32;
        let [netlist, device, method, expect] = line.split_whitespace().collect::<Vec<_>>()[..]
        else {
            return Err(format!("job line {}: cannot parse `{line}`", i + 1));
        };
        let dev: Vec<String> = device.split(',').map(str::to_owned).collect();
        let c = Opts::parse(&dev)?.constraints()?;
        let id = t.enter("io.read_netlist");
        let graph = read_graph(netlist)?;
        layers.add("io.parse_ms", t.exit(id));
        let assignment = if method == "multilevel" {
            replay_vcycle(&mut t, &mut layers, &graph, c, threads)?
        } else {
            let mut obs = Observer::new(Metrics::enabled(), None);
            let cfg = FpartConfig::default();
            let id = t.enter("driver.partition_observed");
            let outcome =
                partition_observed(&graph, c, &cfg, &mut obs).map_err(|e| e.to_string())?;
            t.exit(id);
            layers.add("driver.bipartitions", obs.metrics.get(Counter::Bipartitions) as f64);
            layers.add("driver.improve_calls", outcome.improve_calls as f64);
            layers.add("driver.moves", outcome.total_moves as f64);
            layers.add_engine(&obs.metrics);
            outcome.assignment
        };
        identical &= read_assignment_file(expect, &graph)? == assignment;
        json.push(job_json(&graph, &assignment, c));
    }
    let wall_ms = t.exit(root);
    layers.finish_engine();
    let pair_jobs = layers.get("refine.pair_jobs");
    if pair_jobs > 0.0 {
        layers.set("refine.moves_per_pair_job", layers.get("refine.moves") / pair_jobs);
    }
    t.write(o.req("spans-out")?)?;
    Ok(format!(
        "{{\"identical\": {identical}, \"wall_s\": {}, \"spans\": {}, \"jobs\": [{}], \"metrics\": {}}}",
        wall_ms / 1e3,
        t.spans.len(),
        json.join(", "),
        layers.to_json()
    ))
}

/// `trace-serve --requests FILE`: drives [`Server::handle`] in process
/// with a [`MemoStore`] this helper holds, over the request lines the
/// timed session sent.
fn trace_serve(o: &Opts) -> Result<String, String> {
    let requests = std::fs::read_to_string(o.req("requests")?).map_err(|e| e.to_string())?;
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    let server = Server::new(ServerConfig {
        threads: 1,
        memo: Some(Arc::clone(&memo)),
        ..ServerConfig::default()
    });
    let mut t = Tracer::new();
    let mut layers = Layers::default();
    let mut replies = Vec::new();
    let mut overhead = Vec::new();
    let mut eco_engine = Vec::new();
    let root = t.enter("serve_eco.session");
    for line in requests.lines() {
        let cmd = Json::parse(line).map_err(|e| format!("bad request line: {e:?}"))?;
        let name = match cmd.get("cmd").and_then(Json::as_str) {
            Some("load") => "server.load",
            Some("eco") => "server.eco",
            Some("partition") => "server.partition",
            _ => "server.other",
        };
        let mut out = Vec::new();
        let id = t.enter(name);
        server.handle(line, &mut out);
        let ms = t.exit(id);
        let text = String::from_utf8(out).map_err(|e| e.to_string())?;
        let last = text.lines().last().ok_or("no reply")?;
        let reply = Json::parse(last).map_err(|e| format!("bad reply: {e:?}"))?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("request failed: {last}"));
        }
        let result = reply.get("result").ok_or("reply without result")?;
        let num = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
        if name == "server.load" {
            continue;
        }
        let complete = result.get("completion").and_then(Json::as_str) == Some("complete");
        let feasible = result.get("feasible") == Some(&Json::Bool(true));
        if !(complete && feasible) {
            return Err(format!("incomplete or infeasible result: {last}"));
        }
        let elapsed = num("elapsed_ms") as f64;
        overhead.push(ms - elapsed);
        if name == "server.eco" {
            eco_engine.push(elapsed);
            layers.add("eco.moves", num("total_moves") as f64);
        }
        if let Some(counters) = result.get("counters") {
            let count = |key: &str| counters.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
            layers.add("engine.passes", count("passes"));
            layers.add("engine.moves_applied", count("moves_applied"));
        }
        replies.push(format!("[{}, {}]", num("devices"), num("cut")));
    }
    let wall_ms = t.exit(root);
    let stats = memo.stats();
    layers.set("server.load_ms", t.total_ms("server.load"));
    layers.set("server.overhead_ms_p50", median(overhead));
    layers.set("memo.hierarchy_hits", stats.hierarchy_hits as f64);
    layers.set("memo.hierarchy_misses", stats.hierarchy_misses as f64);
    layers.set("memo.solution_hits", stats.solution_hits as f64);
    layers.set("memo.solution_misses", stats.solution_misses as f64);
    layers.set("memo.bytes", stats.hierarchy_bytes as f64);
    layers.set("eco.engine_ms_p50", median(eco_engine));
    t.write(o.req("spans-out")?)?;
    Ok(format!(
        "{{\"identical\": true, \"wall_s\": {}, \"spans\": {}, \"replies\": [{}], \"metrics\": {}}}",
        wall_ms / 1e3,
        t.spans.len(),
        replies.join(", "),
        layers.to_json()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_drops_empty_blocks_in_order() {
        assert_eq!(compact(&[3, 0, 3, 5], 6), vec![1, 0, 1, 2]);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
