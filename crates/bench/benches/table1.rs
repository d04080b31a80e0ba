//! Table 1 of the paper: construction time and routing time T of the
//! (ε, D, T)-decomposition across the four (Δ, ε) regimes, on simulated minor-free
//! networks. The measured table is printed before the criterion timing loop so that
//! `cargo bench` output contains it (the `report` bin's `table1` section prints the
//! same rows).

use criterion::{criterion_group, criterion_main, Criterion};
use mfd_bench::{f3, Table};
use mfd_core::edt::{build_edt, EdtConfig};
use mfd_graph::generators;

fn print_table1() {
    let mut table = Table::new(
        "Table 1 — (ε, D, T)-decomposition: construction rounds and routing rounds T",
        &[
            "regime",
            "graph",
            "n",
            "m",
            "Δ",
            "ε",
            "construction rounds",
            "routing T",
            "D",
            "ε achieved",
        ],
    );
    // Regime rows: (constant Δ, constant ε), (constant Δ, varying ε),
    // (unbounded Δ, constant ε), (unbounded Δ, varying ε).
    let bounded = [
        (
            "Δ=O(1), ε const",
            generators::triangulated_grid(24, 24),
            0.25,
        ),
        (
            "Δ=O(1), ε const",
            generators::triangulated_grid(40, 40),
            0.25,
        ),
        (
            "Δ=O(1), ε small",
            generators::triangulated_grid(24, 24),
            0.1,
        ),
        (
            "Δ=O(1), ε small",
            generators::triangulated_grid(40, 40),
            0.1,
        ),
    ];
    let unbounded = [
        (
            "Δ unbounded, ε const",
            generators::random_apollonian(600, 0xA11),
            0.25,
        ),
        ("Δ unbounded, ε const", generators::wheel(800), 0.25),
        (
            "Δ unbounded, ε small",
            generators::random_apollonian(600, 0xA11),
            0.1,
        ),
        ("Δ unbounded, ε small", generators::wheel(800), 0.1),
    ];
    for (regime, g, eps) in bounded.into_iter().chain(unbounded) {
        let (d, _) = build_edt(&g, &EdtConfig::new(eps));
        table.row(vec![
            regime.to_string(),
            format!("{}v", g.n()),
            g.n().to_string(),
            g.m().to_string(),
            g.max_degree().to_string(),
            f3(eps),
            d.construction_rounds.to_string(),
            d.routing_rounds.to_string(),
            d.diameter.to_string(),
            f3(d.epsilon_achieved),
        ]);
    }
    table.print();
}

fn bench_table1(c: &mut Criterion) {
    print_table1();
    let g = generators::triangulated_grid(16, 16);
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("build_edt_trigrid16_eps0.25", |b| {
        b.iter(|| build_edt(&g, &EdtConfig::new(0.25)))
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
