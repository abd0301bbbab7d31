//! The paper's future-work tool, implemented: automatic design-space
//! exploration.  Sweeps a small architecture grid (to keep the example
//! fast — `taco-cli dse` runs the full one), evaluates each
//! instance with the simulate-then-estimate pipeline, and suggests the
//! lowest-power configuration that satisfies the constraints.
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use taco::eval::{explore, table1, Constraints, LineRate, SweepSpec};
use taco::routing::TableKind;

fn main() {
    let spec = SweepSpec {
        buses: vec![1, 3],
        replication: vec![1, 3],
        kinds: vec![TableKind::BalancedTree, TableKind::Cam],
        entries: 32,
        ..SweepSpec::default()
    };
    let constraints =
        Constraints { max_power_w: 0.5, max_area_mm2: 10.0, ..Constraints::default() };
    let rate = LineRate::TEN_GBE;

    println!(
        "sweeping {} instances against {rate}",
        spec.buses.len() * spec.replication.len() * spec.kinds.len()
    );
    println!("constraints: <= {} W, <= {} mm2", constraints.max_power_w, constraints.max_area_mm2);
    println!();

    let ex = explore(&spec, rate, &constraints);
    print!("{}", table1::render(&ex.all));
    println!();

    match ex.best() {
        Some(best) => {
            let e = best.estimate.feasible().expect("best is feasible");
            println!(
                "suggested configuration: {} at {} ({:.2} mm2, {:.3} W)",
                best.config.label(),
                table1::format_frequency(best.required_frequency_hz),
                e.area_mm2,
                e.power_w
            );
        }
        None => println!("no configuration satisfies the constraints"),
    }
}
