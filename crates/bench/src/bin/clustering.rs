//! Clustering study (our extension; evaluates the coarsening lever the
//! paper's introduction surveys): flat FPART vs the multilevel
//! coarsen–partition–refine flow, quality and runtime.

use fpart_bench::render_table;
use fpart_bench::runner::Workload;
use fpart_core::{
    partition, partition_multilevel_observed, FpartConfig, MultilevelConfig, Observer,
};
use fpart_device::Device;
use fpart_hypergraph::gen::find_profile;

fn main() {
    let circuits = ["c3540", "s9234", "s13207", "s15850", "s38417", "s38584"];
    let header = ["circuit", "M", "flat k", "flat t", "ml k", "ml t", "speedup"];
    let mut rows = Vec::new();
    for circuit in circuits {
        let profile = find_profile(circuit).expect("known circuit");
        let workload = Workload::new(profile, Device::XC3020);

        let start = std::time::Instant::now();
        let flat = partition(&workload.graph, workload.constraints, &FpartConfig::default());
        let flat_t = start.elapsed();

        let start = std::time::Instant::now();
        let ml = partition_multilevel_observed(
            &workload.graph,
            workload.constraints,
            &FpartConfig::default(),
            &MultilevelConfig::default(),
            &mut Observer::none(),
        );
        let ml_t = start.elapsed();

        let fmt = |r: &Result<fpart_core::PartitionOutcome, _>| match r {
            Ok(o) => format!("{}{}", o.device_count, if o.feasible { "" } else { "!" }),
            Err(_) => "err".to_owned(),
        };
        rows.push(vec![
            circuit.to_owned(),
            workload.lower_bound.to_string(),
            fmt(&flat),
            format!("{:.2}s", flat_t.as_secs_f64()),
            fmt(&ml),
            format!("{:.2}s", ml_t.as_secs_f64()),
            format!("{:.1}x", flat_t.as_secs_f64() / ml_t.as_secs_f64().max(1e-9)),
        ]);
    }
    println!(
        "Clustering study: flat FPART vs multilevel (coarsen → partition → refine) on XC3020\n"
    );
    print!("{}", render_table(&header, &rows, None));
}
