//! `fpart report` — renders a `--metrics` document (and optionally a
//! `--trace-json` stream) as a human-readable phase-time report.
//!
//! The span records written under `totals.spans` form a forest: each
//! record carries its parent phase kind, so the report reconstructs the
//! phase tree, attributes self time against the run's wall clock
//! (`elapsed_ms`), and lists the hottest phases. Because span *wall
//! times* are excluded from the engine's determinism contract, this
//! command is purely diagnostic — two runs of the same partition can
//! legitimately report different milliseconds over an identical tree
//! shape.

use std::io::Read as _;

use crate::args::{Args, Spec};
use crate::error::CliError;
use fpart_core::json::Json;

/// One span record row from `totals.spans`.
struct Row {
    kind: String,
    level: u64,
    parent: Option<String>,
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

impl Row {
    /// Label shown in the tree: the kind, plus ` L<level>` when the
    /// document distinguishes levels for this kind.
    fn label(&self, leveled: bool) -> String {
        if leveled {
            format!("{} L{}", self.kind, self.level)
        } else {
            self.kind.clone()
        }
    }
}

/// `fpart report --metrics <FILE|-> [--trace-json FILE] [--top N]`
pub fn report(raw: &[String]) -> Result<(), CliError> {
    let spec = Spec { valued: &["metrics", "trace-json", "top"], switches: &[] };
    let args = Args::parse(raw, spec).map_err(CliError::Usage)?;
    let metrics_file = args.option("metrics").or_else(|| args.positional(0)).ok_or_else(|| {
        CliError::Usage("report needs --metrics <FILE|-> (or a positional)".into())
    })?;
    let top: usize = args.option_parsed("top", 5).map_err(CliError::Usage)?;

    let text = read_input(metrics_file)?;
    // Files must parse exactly; stdin tolerates trailing text so a
    // piped `fpart partition --metrics -` (whose human summary follows
    // the JSON on the same stream) reads back directly.
    let doc = if metrics_file == "-" { Json::parse_prefix(&text) } else { Json::parse(&text) }
        .map_err(|e| CliError::Input(format!("{metrics_file}: invalid JSON: {e}")))?;
    let schema = doc.get("schema_version").and_then(Json::as_u64);
    if schema != Some(u64::from(fpart_core::SCHEMA_VERSION)) {
        return Err(CliError::Input(format!(
            "{metrics_file}: unsupported schema_version {} (this build reads {})",
            schema.map_or_else(|| "<missing>".to_owned(), |v| v.to_string()),
            fpart_core::SCHEMA_VERSION
        )));
    }

    print!("{}", render(&doc, top));

    if let Some(trace_file) = args.option("trace-json") {
        print!("{}", render_trace_summary(trace_file)?);
    }
    Ok(())
}

/// Reads a report input: stdin for `-`, a file otherwise.
fn read_input(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| CliError::Input(format!("cannot read stdin: {e}")))?;
        return Ok(text);
    }
    std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))
}

/// Renders the whole report for a parsed metrics document. Split from
/// the command so tests can pin the exact output for a fixed document.
fn render(doc: &Json, top: usize) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let restarts = doc.get("restarts").and_then(Json::as_u64).unwrap_or(0);
    let threads = doc.get("threads").and_then(Json::as_u64).unwrap_or(0);
    let completion = doc.get("completion").and_then(Json::as_str).unwrap_or("<unknown>").to_owned();
    let wall_ms = doc.get("elapsed_ms").and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "run: {restarts} restart(s) x {threads} thread(s), completion {completion}, \
         wall {wall_ms} ms"
    );
    if let Some(q) = doc.get("quality") {
        let field = |k: &str| q.get(k).and_then(Json::as_u64);
        if let (Some(devices), Some(lb), Some(cut)) =
            (field("device_count"), field("lower_bound"), field("cut"))
        {
            let feasible = matches!(q.get("feasible"), Some(Json::Bool(true)));
            let _ = writeln!(
                out,
                "quality: {devices} device(s) (lower bound {lb}), feasible {feasible}, \
                 cut {cut}"
            );
        }
    }
    // Fingerprint-keyed memoization activity (schema 10); omitted
    // entirely for runs without a memo store, so old-style reports are
    // byte-identical.
    if let Some(c) = doc.get("totals").and_then(|t| t.get("counters")) {
        let count = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
        let hits = count("hierarchy_cache_hits");
        let misses = count("hierarchy_cache_misses");
        let evictions = count("hierarchy_cache_evictions");
        let warm = count("memo_warm_starts");
        if hits + misses + evictions + warm > 0 {
            let _ = writeln!(
                out,
                "cache: hierarchy {hits} hit(s) / {misses} miss(es) / {evictions} \
                 eviction(s), {warm} warm-started restart(s)"
            );
        }
        // FM passes run and replayed from the per-call pass memo
        // (schema 11).
        let (passes, replays) = (count("passes"), count("pass_replays"));
        if passes + replays > 0 {
            let _ = writeln!(out, "fm passes: {passes} run, {replays} replayed from the pass memo");
        }
    }

    let rows = span_rows(doc);
    if rows.is_empty() {
        out.push_str("no span records (run with --metrics on an instrumented build)\n");
        return out;
    }

    // Self-time coverage: pair jobs run on worker lanes whose wall time
    // overlaps the refine level that spawned them, so both the pair-job
    // rows and their children are excluded from the coverage sum to
    // avoid double counting.
    let covered_ns: u64 = rows
        .iter()
        .filter(|r| r.kind != "pair_job" && r.parent.as_deref() != Some("pair_job"))
        .map(|r| r.self_ns)
        .sum();
    let covered_ms = covered_ns as f64 / 1e6;
    let coverage = percent(covered_ms, wall_ms as f64);
    let _ = writeln!(
        out,
        "self-time coverage: {coverage:.1}% of wall ({covered_ms:.3} ms attributed, \
         pair-job lanes excluded)"
    );

    // Kinds that appear with more than one level get an L<level> suffix.
    let leveled: Vec<String> = rows
        .iter()
        .filter(|r| r.level > 0 || rows.iter().any(|o| o.kind == r.kind && o.level != r.level))
        .map(|r| r.kind.clone())
        .collect();
    let is_leveled = |kind: &str| leveled.iter().any(|k| k == kind);

    out.push_str("\nphase tree (self time, % of wall):\n");
    let mut visited = vec![false; rows.len()];
    let mut path: Vec<String> = Vec::new();
    render_children(&rows, None, 1, &mut visited, &mut path, wall_ms as f64, &is_leveled, &mut out);
    // Records whose parent kind never reached the roots (defensive:
    // should not happen with the engine's own documents).
    if visited.iter().any(|v| !v) {
        out.push_str("  (detached)\n");
        for (i, row) in rows.iter().enumerate() {
            if !visited[i] {
                push_row(row, 2, wall_ms as f64, &is_leveled, &mut out);
            }
        }
    }

    let mut hottest: Vec<&Row> = rows.iter().collect();
    hottest.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.kind.cmp(&b.kind)));
    let shown = top.min(hottest.len());
    let _ = writeln!(out, "\nhot phases (top {shown} by self time):");
    for (i, row) in hottest.iter().take(shown).enumerate() {
        let label = row.label(is_leveled(&row.kind));
        let self_ms = row.self_ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "  {:>2}. {label:<24} self {self_ms:>10.3} ms  {:>5.1}%",
            i + 1,
            percent(self_ms, wall_ms as f64)
        );
    }
    out
}

/// Extracts the span rows from `totals.spans`.
fn span_rows(doc: &Json) -> Vec<Row> {
    let Some(spans) = doc.get("totals").and_then(|t| t.get("spans")).and_then(Json::as_array)
    else {
        return Vec::new();
    };
    spans
        .iter()
        .filter_map(|s| {
            Some(Row {
                kind: s.get("kind")?.as_str()?.to_owned(),
                level: s.get("level").and_then(Json::as_u64).unwrap_or(0),
                parent: s.get("parent").and_then(Json::as_str).map(str::to_owned),
                count: s.get("count").and_then(Json::as_u64).unwrap_or(0),
                total_ns: s.get("total_ns").and_then(Json::as_u64).unwrap_or(0),
                self_ns: s.get("self_ns").and_then(Json::as_u64).unwrap_or(0),
            })
        })
        .collect()
}

/// Prints every not-yet-visited row whose parent is `parent`, grouped by
/// kind in first-seen order, then recurses into each kind's children.
/// `path` guards against parent cycles in hostile documents.
#[allow(clippy::too_many_arguments)]
fn render_children(
    rows: &[Row],
    parent: Option<&str>,
    depth: usize,
    visited: &mut [bool],
    path: &mut Vec<String>,
    wall_ms: f64,
    is_leveled: &dyn Fn(&str) -> bool,
    out: &mut String,
) {
    let mut kinds: Vec<&str> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if !visited[i] && row.parent.as_deref() == parent && !kinds.contains(&row.kind.as_str()) {
            kinds.push(&row.kind);
        }
    }
    for kind in kinds {
        let kind = kind.to_owned();
        for (i, row) in rows.iter().enumerate() {
            if !visited[i] && row.kind == kind && row.parent.as_deref() == parent {
                visited[i] = true;
                push_row(row, depth, wall_ms, is_leveled, out);
            }
        }
        if path.contains(&kind) {
            continue;
        }
        path.push(kind.clone());
        render_children(rows, Some(&kind), depth + 1, visited, path, wall_ms, is_leveled, out);
        path.pop();
    }
}

/// Appends one formatted tree row.
fn push_row(
    row: &Row,
    depth: usize,
    wall_ms: f64,
    is_leveled: &dyn Fn(&str) -> bool,
    out: &mut String,
) {
    use std::fmt::Write as _;

    let label = format!("{}{}", "  ".repeat(depth), row.label(is_leveled(&row.kind)));
    let total_ms = row.total_ns as f64 / 1e6;
    let self_ms = row.self_ns as f64 / 1e6;
    let _ = writeln!(
        out,
        "{label:<28} count {:>6}  total {total_ms:>10.3} ms  self {self_ms:>10.3} ms  {:>5.1}%",
        row.count,
        percent(self_ms, wall_ms)
    );
}

/// `part` as a percentage of `whole_ms`, 0 when the wall time is zero.
fn percent(part_ms: f64, whole_ms: f64) -> f64 {
    if whole_ms > 0.0 {
        part_ms / whole_ms * 100.0
    } else {
        0.0
    }
}

/// Summarizes a `--trace-json` JSON-Lines stream: total events plus a
/// per-class breakdown in first-seen order.
fn render_trace_summary(path: &str) -> Result<String, CliError> {
    use std::fmt::Write as _;

    let text = read_input(path)?;
    let mut total = 0u64;
    let mut by_class: Vec<(String, u64)> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Json::parse(line)
            .map_err(|e| CliError::Input(format!("{path}:{}: invalid JSON: {e}", n + 1)))?;
        let class = event.get("event").and_then(Json::as_str).unwrap_or("<unknown>").to_owned();
        match by_class.iter_mut().find(|(k, _)| *k == class) {
            Some((_, count)) => *count += 1,
            None => by_class.push((class, 1)),
        }
        total += 1;
    }
    let mut out = format!("\ntrace: {total} event(s)");
    for (class, count) in &by_class {
        let _ = write!(out, ", {class} {count}");
    }
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pinned metrics document exercising nesting, leveled kinds, the
    /// pair-job coverage exclusion, and the hot-phase table.
    const FIXTURE: &str = r#"{"schema_version": 8, "restarts": 1, "threads": 2,
        "elapsed_ms": 100, "completion": "complete",
        "quality": {"device_count": 3, "lower_bound": 3, "feasible": true, "cut": 17},
        "totals": {"spans": [
            {"kind": "coarsen_level", "level": 0, "parent": null, "count": 1,
             "total_ns": 20000000, "self_ns": 20000000},
            {"kind": "coarsen_level", "level": 1, "parent": null, "count": 1,
             "total_ns": 10000000, "self_ns": 10000000},
            {"kind": "initial", "level": 0, "parent": null, "count": 1,
             "total_ns": 30000000, "self_ns": 25000000},
            {"kind": "improve", "level": 0, "parent": "initial", "count": 4,
             "total_ns": 5000000, "self_ns": 5000000},
            {"kind": "refine_level", "level": 1, "parent": null, "count": 1,
             "total_ns": 40000000, "self_ns": 40000000},
            {"kind": "pair_job", "level": 0, "parent": "refine_level", "count": 6,
             "total_ns": 35000000, "self_ns": 30000000},
            {"kind": "improve", "level": 0, "parent": "pair_job", "count": 6,
             "total_ns": 5000000, "self_ns": 5000000}
        ]}}"#;

    #[test]
    fn golden_report_for_pinned_document() {
        let doc = Json::parse(FIXTURE).unwrap();
        let text = render(&doc, 3);
        let expected = "\
run: 1 restart(s) x 2 thread(s), completion complete, wall 100 ms
quality: 3 device(s) (lower bound 3), feasible true, cut 17
self-time coverage: 100.0% of wall (100.000 ms attributed, pair-job lanes excluded)

phase tree (self time, % of wall):
  coarsen_level L0           count      1  total     20.000 ms  self     20.000 ms   20.0%
  coarsen_level L1           count      1  total     10.000 ms  self     10.000 ms   10.0%
  initial                    count      1  total     30.000 ms  self     25.000 ms   25.0%
    improve                  count      4  total      5.000 ms  self      5.000 ms    5.0%
  refine_level L1            count      1  total     40.000 ms  self     40.000 ms   40.0%
    pair_job                 count      6  total     35.000 ms  self     30.000 ms   30.0%
      improve                count      6  total      5.000 ms  self      5.000 ms    5.0%

hot phases (top 3 by self time):
   1. refine_level L1          self     40.000 ms   40.0%
   2. pair_job                 self     30.000 ms   30.0%
   3. initial                  self     25.000 ms   25.0%
";
        assert_eq!(text, expected);
    }

    #[test]
    fn coverage_excludes_pair_job_lanes() {
        let doc = Json::parse(FIXTURE).unwrap();
        let text = render(&doc, 1);
        // 20 + 10 + 25 + 5 (improve under initial) + 40 = 100 ms; the
        // 30 ms pair_job self and its 5 ms improve child are excluded.
        assert!(text.contains("self-time coverage: 100.0%"), "{text}");
    }

    #[test]
    fn cache_line_renders_only_when_counters_are_live() {
        // The pinned fixture has no counters object: no cache line.
        let doc = Json::parse(FIXTURE).unwrap();
        assert!(!render(&doc, 3).contains("cache:"));
        let doc = Json::parse(
            r#"{"schema_version": 10, "elapsed_ms": 10, "totals": {
                "counters": {"hierarchy_cache_hits": 3, "hierarchy_cache_misses": 1,
                             "hierarchy_cache_evictions": 0, "memo_warm_starts": 2},
                "spans": []}}"#,
        )
        .unwrap();
        let text = render(&doc, 3);
        assert!(
            text.contains(
                "cache: hierarchy 3 hit(s) / 1 miss(es) / 0 eviction(s), \
                 2 warm-started restart(s)"
            ),
            "{text}"
        );
        // All-zero counters (cache off) also stay silent.
        let doc = Json::parse(
            r#"{"schema_version": 10, "elapsed_ms": 10, "totals": {
                "counters": {"hierarchy_cache_hits": 0, "moves_applied": 9}, "spans": []}}"#,
        )
        .unwrap();
        assert!(!render(&doc, 3).contains("cache:"));
    }

    #[test]
    fn pass_line_counts_run_and_replayed_passes() {
        let doc = Json::parse(FIXTURE).unwrap();
        assert!(!render(&doc, 3).contains("fm passes:"));
        let doc = Json::parse(
            r#"{"schema_version": 11, "elapsed_ms": 10, "totals": {
                "counters": {"passes": 12, "pass_replays": 5}, "spans": []}}"#,
        )
        .unwrap();
        let text = render(&doc, 3);
        assert!(text.contains("fm passes: 12 run, 5 replayed from the pass memo"), "{text}");
    }

    #[test]
    fn missing_spans_degrade_gracefully() {
        let doc = Json::parse(r#"{"schema_version": 8, "totals": {"spans": []}}"#).unwrap();
        let text = render(&doc, 5);
        assert!(text.contains("no span records"), "{text}");
    }

    #[test]
    fn cyclic_parents_terminate() {
        // Hostile document: a <-> b parent cycle must not recurse
        // forever; both rows still appear (one as detached or nested).
        let doc = Json::parse(
            r#"{"schema_version": 8, "elapsed_ms": 10, "totals": {"spans": [
                {"kind": "a", "level": 0, "parent": "b", "count": 1,
                 "total_ns": 1000000, "self_ns": 1000000},
                {"kind": "b", "level": 0, "parent": "a", "count": 1,
                 "total_ns": 1000000, "self_ns": 1000000}
            ]}}"#,
        )
        .unwrap();
        let text = render(&doc, 5);
        assert!(text.contains(" a "), "{text}");
        assert!(text.contains(" b "), "{text}");
    }
}
