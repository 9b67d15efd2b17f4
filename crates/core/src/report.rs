//! Human-readable quality reports for finished partitions.
//!
//! Summarizes what the paper's tables measure — device count vs lower
//! bound — plus the per-block resource picture (logic fill and IOB
//! utilization) that explains *why* a result lands where it does: the
//! recursive paradigm's characteristic failure mode is late blocks
//! saturating IOBs while logic sits empty (paper §3).

use std::fmt;

use fpart_device::DeviceConstraints;

use crate::driver::PartitionOutcome;

/// Aggregated quality metrics of a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Devices used.
    pub device_count: usize,
    /// Theoretical lower bound `M`.
    pub lower_bound: usize,
    /// Whether all blocks meet the constraints.
    pub feasible: bool,
    /// Nets spanning devices.
    pub cut: usize,
    /// Mean logic fill `S_i / S_MAX` over blocks.
    pub mean_fill: f64,
    /// Smallest block fill.
    pub min_fill: f64,
    /// Mean IOB utilization `T_i / T_MAX` over blocks.
    pub mean_io: f64,
    /// Blocks whose IOBs are ≥ 95 % used while logic is ≤ 70 % used —
    /// the "I/O-saturated, logic-starved" blocks of the paper's §3
    /// discussion.
    pub io_starved_blocks: usize,
    /// Fill histogram over deciles: `fill_histogram[d]` counts blocks
    /// with `d·10 % ≤ fill < (d+1)·10 %` (the last bucket includes 100 %).
    pub fill_histogram: [usize; 10],
}

impl QualityReport {
    /// Builds the report for an outcome under the device it was
    /// partitioned for.
    ///
    /// # Example
    ///
    /// ```
    /// use fpart_core::{partition, FpartConfig, QualityReport};
    /// use fpart_device::Device;
    /// use fpart_hypergraph::gen::{window_circuit, WindowConfig};
    ///
    /// # fn main() -> Result<(), fpart_core::PartitionError> {
    /// let circuit = window_circuit(&WindowConfig::new("demo", 200, 16), 1);
    /// let constraints = Device::XC3020.constraints(0.9);
    /// let outcome = partition(&circuit, constraints, &FpartConfig::default())?;
    /// let report = QualityReport::new(&outcome, constraints);
    /// println!("{report}"); // devices, fill, IOB use, histogram
    /// assert!(report.efficiency() > 0.5);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn new(outcome: &PartitionOutcome, constraints: DeviceConstraints) -> Self {
        let k = outcome.blocks.len();
        let s_max = constraints.s_max.max(1) as f64;
        let t_max = constraints.t_max.max(1) as f64;
        let mut mean_fill = 0.0;
        let mut min_fill = f64::INFINITY;
        let mut mean_io = 0.0;
        let mut io_starved = 0usize;
        let mut hist = [0usize; 10];
        for b in &outcome.blocks {
            let fill = b.size as f64 / s_max;
            let io = b.terminals as f64 / t_max;
            mean_fill += fill;
            mean_io += io;
            min_fill = min_fill.min(fill);
            if io >= 0.95 && fill <= 0.70 {
                io_starved += 1;
            }
            let bucket = ((fill * 10.0) as usize).min(9);
            hist[bucket] += 1;
        }
        if k > 0 {
            mean_fill /= k as f64;
            mean_io /= k as f64;
        } else {
            min_fill = 0.0;
        }
        QualityReport {
            device_count: k,
            lower_bound: outcome.lower_bound,
            feasible: outcome.feasible,
            cut: outcome.cut,
            mean_fill,
            min_fill,
            mean_io,
            io_starved_blocks: io_starved,
            fill_histogram: hist,
        }
    }

    /// `M / k` — 1.0 means the theoretical optimum was reached.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.device_count == 0 {
            return 1.0;
        }
        self.lower_bound as f64 / self.device_count as f64
    }

    /// Serializes the report as a single JSON object (dependency-free,
    /// hand-rolled like the rest of [`crate::obs`]). Field names match
    /// the struct fields plus a derived `"efficiency"`; the format is
    /// covered by [`crate::obs::SCHEMA_VERSION`].
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;

        use crate::obs::push_json_f64;

        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"device_count\": {}, \"lower_bound\": {}, \"feasible\": {}, \"cut\": {}, ",
            self.device_count, self.lower_bound, self.feasible, self.cut
        );
        out.push_str("\"efficiency\": ");
        push_json_f64(&mut out, self.efficiency());
        out.push_str(", \"mean_fill\": ");
        push_json_f64(&mut out, self.mean_fill);
        out.push_str(", \"min_fill\": ");
        push_json_f64(&mut out, self.min_fill);
        out.push_str(", \"mean_io\": ");
        push_json_f64(&mut out, self.mean_io);
        let _ = write!(
            out,
            ", \"io_starved_blocks\": {}, \"fill_histogram\": [",
            self.io_starved_blocks
        );
        for (d, count) in self.fill_histogram.iter().enumerate() {
            if d > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{count}");
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "devices: {} (lower bound {}, efficiency {:.0}%), feasible: {}, cut nets: {}",
            self.device_count,
            self.lower_bound,
            self.efficiency() * 100.0,
            self.feasible,
            self.cut
        )?;
        writeln!(
            f,
            "logic fill: mean {:.0}%, min {:.0}%; IOB use: mean {:.0}%; I/O-starved blocks: {}",
            self.mean_fill * 100.0,
            self.min_fill * 100.0,
            self.mean_io * 100.0,
            self.io_starved_blocks
        )?;
        write!(f, "fill histogram (deciles): ")?;
        for (d, count) in self.fill_histogram.iter().enumerate() {
            if *count > 0 {
                write!(f, "{d}0s:{count} ")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, FpartConfig};
    use fpart_device::Device;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};

    fn sample_report() -> QualityReport {
        let g = window_circuit(&WindowConfig::new("w", 300, 24), 5);
        let constraints = Device::XC3020.constraints(0.9);
        let outcome = partition(&g, constraints, &FpartConfig::default()).expect("runs");
        QualityReport::new(&outcome, constraints)
    }

    #[test]
    fn report_aggregates_consistently() {
        let r = sample_report();
        assert!(r.feasible);
        assert!(r.device_count >= r.lower_bound);
        assert!(r.efficiency() > 0.0 && r.efficiency() <= 1.0);
        assert!(r.mean_fill > 0.0 && r.mean_fill <= 1.0);
        assert!(r.min_fill <= r.mean_fill);
        assert_eq!(
            r.fill_histogram.iter().sum::<usize>(),
            r.device_count,
            "every block lands in exactly one decile"
        );
    }

    #[test]
    fn display_is_nonempty_and_mentions_devices() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("devices:"));
        assert!(text.contains("fill histogram"));
    }

    /// Hand-builds an outcome whose blocks have exactly the given
    /// (size, terminals) usages, for boundary-value tests.
    fn outcome_with_blocks(
        blocks: &[(u64, usize)],
        constraints: DeviceConstraints,
    ) -> PartitionOutcome {
        let blocks: Vec<crate::BlockReport> = blocks
            .iter()
            .map(|&(size, terminals)| crate::BlockReport {
                size,
                terminals,
                externals: 0,
                feasible: constraints.fits(size, terminals),
            })
            .collect();
        PartitionOutcome {
            assignment: Vec::new(),
            device_count: blocks.len(),
            feasible: blocks.iter().all(|b| b.feasible),
            blocks,
            lower_bound: 1,
            cut: 0,
            iterations: 0,
            improve_calls: 0,
            total_moves: 0,
            elapsed: std::time::Duration::ZERO,
            metrics: crate::obs::Metrics::disabled(),
            completion: crate::budget::Completion::Complete,
        }
    }

    #[test]
    fn fill_histogram_boundaries() {
        let constraints = DeviceConstraints::new(100, 100);
        // 0 % fill lands in the first decile; exactly 100 % lands in the
        // last (not an out-of-range 11th bucket); decile edges like 10 %
        // belong to the upper bucket (d·10 % ≤ fill < (d+1)·10 %).
        let outcome =
            outcome_with_blocks(&[(0, 1), (100, 1), (10, 1), (9, 1), (99, 1)], constraints);
        let r = QualityReport::new(&outcome, constraints);
        assert_eq!(r.fill_histogram[0], 2, "0% and 9% are decile 0");
        assert_eq!(r.fill_histogram[1], 1, "exactly 10% is decile 1");
        assert_eq!(r.fill_histogram[9], 2, "99% and exactly 100% are decile 9");
        assert_eq!(r.fill_histogram.iter().sum::<usize>(), 5);
        assert_eq!(r.min_fill, 0.0);
    }

    #[test]
    fn io_starved_threshold_edges() {
        let constraints = DeviceConstraints::new(100, 100);
        let starved = |size, terminals| {
            let outcome = outcome_with_blocks(&[(size, terminals)], constraints);
            QualityReport::new(&outcome, constraints).io_starved_blocks
        };
        // Starved means IOB use ≥ 95 % while logic fill ≤ 70 %: both
        // thresholds are inclusive.
        assert_eq!(starved(70, 95), 1, "exactly on both thresholds counts");
        assert_eq!(starved(70, 94), 0, "IOB use just below 95% does not");
        assert_eq!(starved(71, 95), 0, "fill just above 70% does not");
        assert_eq!(starved(0, 100), 1, "empty logic with saturated IOBs counts");
        assert_eq!(starved(70, 100), 1);
    }

    #[test]
    fn json_report_is_complete() {
        let r = sample_report();
        let json = r.to_json();
        for field in [
            "device_count",
            "lower_bound",
            "feasible",
            "cut",
            "efficiency",
            "mean_fill",
            "min_fill",
            "mean_io",
            "io_starved_blocks",
            "fill_histogram",
        ] {
            assert!(json.contains(&format!("\"{field}\":")), "missing {field} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn empty_outcome_report() {
        let g = fpart_hypergraph::HypergraphBuilder::new().finish().unwrap();
        let constraints = Device::XC3020.constraints(0.9);
        let outcome = partition(&g, constraints, &FpartConfig::default()).expect("runs");
        let r = QualityReport::new(&outcome, constraints);
        assert_eq!(r.device_count, 0);
        assert_eq!(r.efficiency(), 1.0);
        assert_eq!(r.min_fill, 0.0);
    }
}
