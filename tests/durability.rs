//! Durability integration tests: crash-safe checkpoint/resume
//! bit-identity, torn-file atomicity, and typed rejection of hostile
//! or stale inputs — the cross-crate contracts behind `--checkpoint`,
//! `--resume`, and the `--max-*` limits.

use std::path::PathBuf;

use fpart_core::{
    fingerprint_run, read_checkpoint, run, write_checkpoint, AtomicFile, Checkpoint,
    CheckpointWriter, Counter, FpartConfig, Metrics, MultilevelConfig, Observer, PartitionError,
    ReadCheckpointError, RestartsReport, RunMethod, RunSpec, SCHEMA_VERSION,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{window_circuit, WindowConfig};
use fpart_hypergraph::io::parse_netlist_limited;
use fpart_hypergraph::{Hypergraph, ParseLimits, ParseNetlistError};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpart-durability-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn device() -> DeviceConstraints {
    DeviceConstraints::new(20, 24)
}

/// Runs a metered restart search on [`device`] through [`run`],
/// optionally resumed and checkpointed.
fn durable(
    graph: &Hypergraph,
    config: &FpartConfig,
    ml: Option<&MultilevelConfig>,
    restarts: usize,
    threads: usize,
    resume: Option<&Checkpoint>,
    writer: Option<&CheckpointWriter>,
) -> Result<RestartsReport, PartitionError> {
    let method = ml.map_or(RunMethod::Flat, |ml| RunMethod::Multilevel(ml.clone()));
    let spec =
        RunSpec { restarts, threads, resume, writer, ..RunSpec::new(method, config.clone()) };
    run(graph, device(), &spec, &mut Observer::new(Metrics::enabled(), None))
}

/// Runs the durable search end to end with a live [`CheckpointWriter`]
/// and returns the final on-disk checkpoint (every restart completed).
fn full_checkpoint(
    graph: &Hypergraph,
    config: &FpartConfig,
    ml: Option<&MultilevelConfig>,
    restarts: usize,
    dir: &std::path::Path,
) -> Checkpoint {
    let path = dir.join("full.ckpt");
    let writer = CheckpointWriter::spawn(path.clone(), std::time::Duration::ZERO);
    durable(graph, config, ml, restarts, 1, None, Some(&writer)).expect("search succeeds");
    let writes = writer.finish().expect("writer flushes");
    assert!(writes >= 1, "at least the final snapshot must hit disk");
    let checkpoint = read_checkpoint(&path).expect("final checkpoint parses");
    assert_eq!(checkpoint.completed.len(), restarts, "final snapshot covers every restart");
    checkpoint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SIGKILL at any restart boundary is recoverable: resuming from a
    /// checkpoint holding any prefix subset of completed restarts
    /// reproduces the uninterrupted run bit for bit — assignment, cut,
    /// device count, feasibility — at 1 and at 4 threads, flat and
    /// multilevel.
    #[test]
    fn resume_after_kill_at_any_restart_boundary_is_bit_identical(
        nodes in 30usize..70,
        seed in 0u64..500,
        restarts in 2usize..4,
        kill_after in 0usize..3,
        multilevel in any::<bool>(),
    ) {
        let kill_after = kill_after.min(restarts - 1); // 0..restarts-1 completed
        let graph = window_circuit(&WindowConfig::new("durability", nodes, 6), seed);
        let config = FpartConfig::default();
        let ml_cfg = MultilevelConfig { coarsen_floor: 16, ..MultilevelConfig::default() };
        let ml = multilevel.then_some(&ml_cfg);

        let baseline =
            durable(&graph, &config, ml, restarts, 1, None, None)
                .expect("baseline search succeeds");

        let dir = temp_dir("kill-resume");
        let full = full_checkpoint(&graph, &config, ml, restarts, &dir);
        // A kill after `kill_after` completions leaves exactly that
        // prefix in the last atomically-written snapshot.
        let torn = Checkpoint {
            completed: full.completed.into_iter().take(kill_after).collect(),
            ..full
        };
        let path = dir.join("torn.ckpt");
        write_checkpoint(&path, &torn).expect("write");
        let saved = read_checkpoint(&path).expect("round-trips");

        for threads in [1usize, 4] {
            let resumed = durable(&graph, &config, ml, restarts, threads, Some(&saved), None)
            .expect("resumed search succeeds");
            prop_assert_eq!(&resumed.outcome.assignment, &baseline.outcome.assignment);
            prop_assert_eq!(resumed.outcome.cut, baseline.outcome.cut);
            prop_assert_eq!(resumed.outcome.device_count, baseline.outcome.device_count);
            prop_assert_eq!(resumed.outcome.feasible, baseline.outcome.feasible);
            prop_assert_eq!(resumed.outcome.completion, baseline.outcome.completion);
            prop_assert_eq!(
                resumed.totals.get(Counter::RestartsResumed),
                kill_after as u64
            );
            // Totals stay the exact per-restart sum even when part of
            // the registries came off disk.
            for &counter in Counter::ALL.iter() {
                let sum: u64 =
                    resumed.per_restart.iter().map(|m| m.get(counter)).sum();
                prop_assert_eq!(resumed.totals.get(counter), sum);
            }
        }
    }

    /// `--max-name-len` violations carry the exact 1-based line and
    /// column of the offending token, wherever it sits in the file.
    #[test]
    fn name_limit_violations_report_exact_line_and_column(
        pad_nodes in 0usize..40,
        over in 1usize..30,
    ) {
        let limit = 8usize;
        let mut text = String::from("circuit prop\n");
        for i in 0..pad_nodes {
            text.push_str(&format!("node p{i} 1\n"));
        }
        let long = "x".repeat(limit + over);
        text.push_str(&format!("node {long} 1\n"));
        let limits = ParseLimits { max_name_len: limit, ..ParseLimits::unlimited() };
        let err = parse_netlist_limited(&text, &limits).unwrap_err();
        prop_assert_eq!(
            err,
            ParseNetlistError::LimitExceeded {
                line: 2 + pad_nodes, // `circuit` header + pads, 1-based
                column: 6,           // the name token after `node `
                what: "name length",
                limit,
            }
        );
    }

    /// `--max-nodes` violations point at the first record past the cap.
    #[test]
    fn node_count_violations_report_the_first_excess_record(
        cap in 1usize..20,
        extra in 1usize..10,
    ) {
        let mut text = String::new();
        for i in 0..cap + extra {
            text.push_str(&format!("node n{i} 1\n"));
        }
        let limits = ParseLimits { max_nodes: cap, ..ParseLimits::unlimited() };
        let err = parse_netlist_limited(&text, &limits).unwrap_err();
        prop_assert_eq!(
            err,
            ParseNetlistError::LimitExceeded {
                line: cap + 1,
                column: 1,
                what: "node count",
                limit: cap,
            }
        );
    }

    /// Truncating a checkpoint at any byte — the torn-file shapes a
    /// crash without atomic writes would produce — yields a typed
    /// `Malformed`/`Io` error, never a panic and never a silent
    /// partial resume.
    #[test]
    fn truncated_checkpoints_are_typed_errors(cut_permille in 0u32..1000) {
        let graph = window_circuit(&WindowConfig::new("trunc", 40, 4), 11);
        let config = FpartConfig::default();
        let dir = temp_dir("trunc");
        let full = full_checkpoint(&graph, &config, None, 2, &dir);
        let text = full.to_text();
        let cut = (text.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        // Walk down to a char boundary (the text is ASCII, but keep
        // the test honest about the contract).
        let mut cut = cut.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        match Checkpoint::parse(&text[..cut]) {
            // Cutting only trailing whitespace after the `end` sentinel
            // still parses — but then it must parse to the *same*
            // snapshot, never a silently shortened one.
            Ok(parsed) => prop_assert_eq!(parsed, full),
            Err(err) => prop_assert!(
                matches!(
                    err,
                    ReadCheckpointError::Malformed { .. }
                        | ReadCheckpointError::SchemaVersionMismatch { .. }
                ),
                "typed error, got {err:?}"
            ),
        }
    }
}

/// A checkpoint from another schema generation is rejected with the
/// typed mismatch error — not a parse failure deeper in the file.
#[test]
fn schema_version_mismatch_is_typed() {
    let text = format!(
        "#%fpart-checkpoint v{}\nfingerprint 1\nrestarts 1\ncompleted 0\nend\n",
        SCHEMA_VERSION - 1
    );
    let err = Checkpoint::parse(&text).unwrap_err();
    assert_eq!(
        err,
        ReadCheckpointError::SchemaVersionMismatch {
            found: SCHEMA_VERSION - 1,
            expected: SCHEMA_VERSION,
        }
    );
}

/// A checkpoint recorded for a different run (graph, device, config, or
/// restart count) refuses to merge.
#[test]
fn fingerprint_mismatch_refuses_to_merge() {
    let graph = window_circuit(&WindowConfig::new("fp", 40, 4), 3);
    let other = window_circuit(&WindowConfig::new("fp", 44, 4), 3);
    let config = FpartConfig::default();
    let fp = fingerprint_run(&graph, device(), &config, None, 2);
    let fp_other = fingerprint_run(&other, device(), &config, None, 2);
    assert_ne!(fp, fp_other, "different graphs must fingerprint differently");

    let dir = temp_dir("fp");
    let full = full_checkpoint(&graph, &config, None, 2, &dir);
    assert!(full.verify(fp).is_ok());
    assert_eq!(
        full.verify(fp_other),
        Err(ReadCheckpointError::FingerprintMismatch { found: fp, expected: fp_other })
    );
    let err = durable(&other, &config, None, 2, 1, Some(&full), None).unwrap_err();
    assert!(err.to_string().contains("fingerprint"), "{err}");
}

/// A writer killed mid-write (simulated by dropping an [`AtomicFile`]
/// without commit) leaves the previous checkpoint intact and readable —
/// resume picks up from the older-but-consistent snapshot.
#[test]
fn kill_mid_checkpoint_write_preserves_the_previous_snapshot() {
    use std::io::Write as _;

    let graph = window_circuit(&WindowConfig::new("torn", 40, 4), 5);
    let config = FpartConfig::default();
    let dir = temp_dir("torn-write");
    let full = full_checkpoint(&graph, &config, None, 2, &dir);
    let path = dir.join("live.ckpt");
    write_checkpoint(&path, &full).expect("write");

    {
        let mut torn = AtomicFile::create(&path).expect("temp opens");
        torn.write_all(b"#%fpart-checkpoint v8\nfingerprint 99\nrest").expect("partial write");
        // Dropped without commit: the crash point.
    }
    let back = read_checkpoint(&path).expect("previous snapshot survives the torn write");
    assert_eq!(back, full);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "no temp litter: {leftovers:?}");

    let resumed = durable(&graph, &config, None, 2, 1, Some(&back), None)
        .expect("resume from the surviving snapshot");
    assert_eq!(resumed.totals.get(Counter::RestartsResumed), 2);
}
