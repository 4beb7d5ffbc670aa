//! Ablation study over the design choices DESIGN.md calls out:
//! minimizer (heuristic / exact / multi-output) and product-term sharing.
//!
//! Usage: `cargo run --release -p nshot-bench --bin ablation`

use nshot_core::{synthesize, SynthesisOptions};

fn main() {
    let configs: Vec<(&str, SynthesisOptions)> = vec![
        (
            "heuristic+share",
            SynthesisOptions {
                share_products: true,
                ..SynthesisOptions::default()
            },
        ),
        ("heuristic", SynthesisOptions::default()),
        (
            "exact+share",
            SynthesisOptions {
                share_products: true,
                ..SynthesisOptions::exact()
            },
        ),
        ("multi-output", SynthesisOptions::multi_output()),
    ];

    println!(
        "{:<15} {:>7} | {:>16} {:>16} {:>16} {:>16}",
        "circuit", "states", "heuristic+share", "heuristic", "exact+share", "multi-output"
    );
    println!("{}", "-".repeat(105));
    let mut totals = vec![0u64; configs.len()];
    for b in nshot_benchmarks::suite() {
        if b.paper_states > 300 {
            continue;
        }
        let sg = b.build();
        let mut cells = Vec::new();
        for (i, (_, options)) in configs.iter().enumerate() {
            match synthesize(&sg, options) {
                Ok(imp) => {
                    totals[i] += u64::from(imp.area);
                    cells.push(format!("{}/{} terms", imp.area, imp.product_terms()));
                }
                Err(e) => cells.push(format!("({e})")),
            }
        }
        println!(
            "{:<15} {:>7} | {:>16} {:>16} {:>16} {:>16}",
            b.name,
            sg.reachable().len(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    println!("{}", "-".repeat(105));
    print!("{:<23} |", "total area");
    for t in &totals {
        print!(" {t:>16}");
    }
    println!();
    println!(
        "\nsharing saves {:.1}% area over no-sharing; multi-output saves {:.1}% over per-function",
        100.0 * (1.0 - totals[0] as f64 / totals[1] as f64),
        100.0 * (1.0 - totals[3] as f64 / totals[1] as f64),
    );
}
