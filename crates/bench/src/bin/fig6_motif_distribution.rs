//! Experiment F6 + S4 — reproduce **Figure 6** (labeled network motif
//! distribution by size) and the Section 4 headline statistics
//! (unlabeled motifs found, total labeled motifs extracted, meso-scale
//! share).
//!
//! ```bash
//! cargo run --release -p lamofinder-bench --bin fig6_motif_distribution [small|full]
//! ```

use lamofinder_bench::report::{bar_chart, print_table};
use lamofinder_bench::{find_motifs, label_all_namespaces, yeast, Scale};
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    println!("Figure 6 — labeled motif distribution ({scale:?} scale)\n");

    let t0 = Instant::now();
    let data = yeast(scale);
    println!(
        "interactome: {} proteins, {} interactions ({} annotated; paper: 4141 / 7095 / 3554)",
        data.network.vertex_count(),
        data.network.edge_count(),
        data.annotations.annotated_protein_count()
    );

    let t1 = Instant::now();
    let (motifs, report) = find_motifs(&data.network, scale);
    println!(
        "\nunlabeled motifs: {} (from {} frequent classes; paper: 1367) in {:.1?}",
        motifs.len(),
        report.frequent_classes,
        t1.elapsed()
    );
    if !report.truncated_levels.is_empty() || !report.truncated_levels.is_empty() {
        println!(
            "  growth caps hit: candidates at sizes {:?}",
            report.truncated_levels
        );
    }

    let t2 = Instant::now();
    let labeled = label_all_namespaces(&data.ontology, &data.annotations, &motifs, scale);
    println!(
        "labeled motifs: {} (paper: 3842) in {:.1?}",
        labeled.len(),
        t2.elapsed()
    );

    // Size distribution.
    let max_size = labeled.iter().map(|m| m.size()).max().unwrap_or(0);
    let mut by_size = vec![0usize; max_size + 1];
    for lm in &labeled {
        by_size[lm.size()] += 1;
    }
    let total = labeled.len().max(1);
    println!();
    let chart: Vec<(String, f64)> = (3..=max_size)
        .map(|k| (format!("size {k:>2}"), by_size[k] as f64))
        .collect();
    bar_chart("labeled network motifs per size:", &chart, 50);

    let mut rows = Vec::new();
    for (k, &count) in by_size.iter().enumerate().skip(3) {
        if count > 0 {
            rows.push(vec![
                k.to_string(),
                count.to_string(),
                format!("{:.1}%", 100.0 * count as f64 / total as f64),
            ]);
        }
    }
    println!();
    print_table(&["size", "labeled motifs", "share"], &rows);

    let meso: usize = (5..=max_size.min(25)).map(|k| by_size[k]).sum();
    println!(
        "\nmeso-scale (5-25 vertices) share: {:.1}% (paper: majority; peak at sizes 16-17)",
        100.0 * meso as f64 / total as f64
    );
    println!("total wall time {:.1?}", t0.elapsed());
}
