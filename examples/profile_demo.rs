//! Demo of the `mfd-prof` wall-clock profiling overlay: one sharded LDD run
//! measured per shard and per phase, with the perturbation-freedom contract
//! checked live — the profiled run is asserted bit-identical (states,
//! meters, digest chains) to an unprofiled twin before any numbers are
//! shown. Prints the straggler summary, the busiest traffic-matrix rows,
//! and a `localize` self-test that calibrates a regression threshold from
//! same-build noise and then pinpoints a synthetic slowdown.
//!
//! Run with: `cargo run --release --example profile_demo`

use mfd_bench::profiling::{
    csv_phase_series, parse_rounds_csv, profile_sharded_algo, rounds_csv, Algo,
};
use mfd_graph::gen;
use mfd_prof::{calibrate_threshold, chrome_profile, first_regression};
use mfd_runtime::profile::PHASE_STEP;

fn main() {
    let g = gen::mesh(200, 200);
    println!(
        "graph: mesh-200x200 (n = {}, m = {}), program: voronoi-ldd-64, 16 shards\n",
        g.n(),
        g.m()
    );

    // 1. A profiled, verified run. The harness double-runs the workload and
    //    asserts the profiled execution bit-identical to the plain one —
    //    instrumentation lives outside every sequential commit point.
    let run = profile_sharded_algo(&g, Algo::Ldd(64), 16, 0, "profile_demo");
    print!("{}", run.profile.summary());
    println!(
        "verified: digest head {:016x} identical with and without the profiler\n",
        run.digest_head
    );

    // 2. Attribution: the overlay accounts where the wall time went, and
    //    publishes what it could not attribute instead of hiding it.
    let attribution = run.profile.attribution();
    println!(
        "attribution: {:.1}% of {:.1} ms wall attributed to named phases ({:.2} ms other)",
        attribution * 100.0,
        run.profile.total_ns as f64 / 1e6,
        run.profile.unattributed_ns() as f64 / 1e6
    );
    assert!(
        attribution >= 0.95,
        "the overlay must attribute at least 95% of wall time"
    );

    // 3. The traffic matrix: who talks to whom, exactly (its total is the
    //    run's message count — asserted in the harness).
    let matrix = run.profile.traffic_totals();
    let sent = run.profile.sent_totals();
    let k = run.profile.shards;
    let busiest = (0..k).max_by_key(|&s| sent[s]).expect("non-empty");
    let row: Vec<u64> = (0..k).map(|d| matrix[busiest * k + d]).collect();
    println!(
        "\nbusiest sender: shard {busiest} ({} messages), row: {row:?}",
        sent[busiest]
    );

    // 4. Chrome trace export on the wall clock: one track per shard.
    let trace = chrome_profile(&run.profile);
    println!(
        "chrome trace: {} bytes (load in chrome://tracing or Perfetto)",
        trace.len()
    );

    // 5. Localize: calibrate the noise threshold from a second run of the
    //    same build, then binary-search a synthetic step-phase slowdown
    //    injected from round 5 onward. The injected factor scales with the
    //    calibrated threshold (twice it, plus 1 ms so even short rounds
    //    clear the noise floor) — on a noisy machine the threshold is
    //    loose, and a slowdown below it is indistinguishable from jitter
    //    by design.
    let rows = |r: &mfd_bench::profiling::ProfiledRun| {
        parse_rounds_csv(&rounds_csv(&r.profile)).expect("own CSV parses")
    };
    let base_rows = rows(&run);
    let base = csv_phase_series(&base_rows, PHASE_STEP);
    let twin = csv_phase_series(
        &rows(&profile_sharded_algo(
            &g,
            Algo::Ldd(64),
            16,
            0,
            "profile_demo_twin",
        )),
        PHASE_STEP,
    );
    let threshold = calibrate_threshold(&base, &twin);
    let factor = (threshold * 2.0).ceil() as u64;
    let slowed: Vec<u64> = base_rows
        .iter()
        .zip(&base)
        .map(|(&(round, _), &v)| {
            if round >= 5 {
                v.max(1) * factor + 1_000_000
            } else {
                v
            }
        })
        .collect();
    // The localizer returns an index into the series; the CSV names its round.
    let onset = first_regression(&base, &slowed, threshold).map(|i| base_rows[i].0);
    println!(
        "\nlocalize: calibrated threshold {threshold:.3}; injected {factor}x+1ms slowdown \
         from round 5 localized at {onset:?}"
    );
    assert_eq!(onset, Some(5), "the localizer must name the onset round");
    println!("profile_demo: all checks passed");
}
