//! Advanced flow: multilevel partitioning, quality reporting,
//! replication post-pass, and heterogeneous device fitting — the
//! extension features layered on the paper's core algorithm.
//!
//! ```sh
//! cargo run --release -p fpart-baselines --example advanced_flow
//! ```

use fpart_baselines::replicate;
use fpart_core::{
    partition, partition_multilevel_observed, FpartConfig, MultilevelConfig, Observer,
    QualityReport,
};
use fpart_device::fit::{default_price_list, fit_blocks};
use fpart_device::Device;
use fpart_hypergraph::gen::{find_profile, synthesize_mcnc, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = find_profile("s13207").expect("s13207 is a Table 1 circuit");
    let circuit = synthesize_mcnc(profile, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);

    // 1. Flat FPART with a quality report.
    let flat = partition(&circuit, constraints, &FpartConfig::default())?;
    println!("flat FPART ({:.2?}):", flat.elapsed);
    println!("{}\n", QualityReport::new(&flat, constraints));

    // 2. Multilevel: coarsen, partition, refine — faster, close quality.
    let start = std::time::Instant::now();
    let ml = partition_multilevel_observed(
        &circuit,
        constraints,
        &FpartConfig::default(),
        &MultilevelConfig::default(),
        &mut Observer::none(),
    )?;
    println!("multilevel FPART ({:.2?}):", start.elapsed());
    println!("{}\n", QualityReport::new(&ml, constraints));

    // 3. Replication post-pass on the flat result: convert spare CLBs
    //    into IOB savings (the "r" of the paper's r+p.0 comparison).
    let rep = replicate(&circuit, &flat.assignment, flat.device_count, constraints);
    println!(
        "replication: {} copies applied, {} IOBs saved across {} blocks\n",
        rep.copies.len(),
        rep.terminals_saved(),
        flat.device_count
    );

    // 4. Heterogeneous fitting: each block buys the cheapest part it fits.
    let list = default_price_list();
    if let Some(fit) = fit_blocks(&flat.usages(), 0.9, &list) {
        let homogeneous = list.iter().find(|p| p.device == Device::XC3020).expect("catalog").price
            * flat.device_count as f64;
        println!(
            "device fitting: {:.1} cost units heterogeneous vs {homogeneous:.1} homogeneous ({} device types)",
            fit.total_price,
            fit.distinct_devices()
        );
    }
    Ok(())
}
