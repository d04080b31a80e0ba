//! The metric tables: every name the benchmark prints, with its unit and
//! direction, declared once. `BENCHMARK.json` is generated from these tables
//! (`perf manifest`; a unit test compares the two). A later change may append
//! to them but must not rename an entry, or the recorded history stops being
//! comparable.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the reference value by which an
/// end-to-end metric may worsen before it counts as a regression; per-layer
/// metrics are diagnostics and carry none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports all of them from
/// the untraced pass.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("mmsg_per_s", "Mmsg/s", Higher, 0.25),
    e2e("congest_rounds", "rounds", Lower, 0.01),
    e2e("messages", "msgs", Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// One layer each (layer = crate), from the traced pass. A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Metric] = &[
    layer("graph.gen_s", "s", Lower),
    layer("graph.to_graph_s", "s", Lower),
    layer("graph.n", "count", Lower),
    layer("graph.m", "count", Lower),
    layer("graph.csr_mb", "MiB", Lower),
    layer("runtime.init_s", "s", Lower),
    layer("runtime.scan_s", "s", Lower),
    layer("runtime.step_s", "s", Lower),
    layer("runtime.route_s", "s", Lower),
    layer("runtime.exchange_s", "s", Lower),
    layer("runtime.deliver_s", "s", Lower),
    layer("runtime.commit_s", "s", Lower),
    layer("runtime.ns_per_round", "ns", Lower),
    layer("runtime.ns_per_msg", "ns", Lower),
    layer("runtime.ns_per_vertex_step", "ns", Lower),
    layer("runtime.frontier_total", "count", Lower),
    layer("runtime.step_occupancy", "ratio", Higher),
    layer("runtime.step_imbalance", "ratio", Lower),
    layer("runtime.deliver_imbalance", "ratio", Lower),
    layer("runtime.attributed_frac", "ratio", Higher),
    layer("runtime.mailbox_slots_hwm", "count", Lower),
    layer("runtime.route_slots_hwm", "count", Lower),
    layer("trace.seal_s", "s", Lower),
    layer("trace.ns_per_sealed_round", "ns", Lower),
    layer("trace.digest_tax_frac", "ratio", Lower),
    layer("prof.tax_frac", "ratio", Lower),
    layer("core.metered_s", "s", Lower),
    layer("core.merge_s", "s", Lower),
    layer("core.refine_s", "s", Lower),
    layer("core.routing_s", "s", Lower),
    layer("core.merge_iters", "count", Lower),
    layer("core.clusters", "count", Lower),
    layer("core.eps_achieved", "ratio", Lower),
    layer("routing.exec_s", "s", Lower),
    layer("routing.cluster_runs", "count", Lower),
    layer("routing.max_cluster_rounds", "rounds", Lower),
    layer("routing.cluster_messages", "msgs", Lower),
    layer("congest.charged_rounds", "rounds", Lower),
    layer("sim.packets", "count", Lower),
    layer("sim.pure_pulses", "count", Lower),
    layer("sim.payload_messages", "msgs", Lower),
    layer("sim.makespan", "ticks", Lower),
    layer("sim.ns_per_packet", "ns", Lower),
    layer("sim.sync_overhead", "ratio", Lower),
    layer("harness.iters", "count", Higher),
    layer("harness.warmup_s", "s", Lower),
    layer("harness.wall_min_s", "s", Lower),
    layer("harness.wall_max_s", "s", Lower),
    layer("harness.wall_iqr_frac", "ratio", Lower),
    layer("harness.check_s", "s", Lower),
];

/// One value per entry of a metric table, in table order; unset entries
/// read 0.
#[derive(Debug, Clone)]
pub struct Values {
    table: &'static [Metric],
    values: Vec<f64>,
}

impl Values {
    pub fn new(table: &'static [Metric]) -> Self {
        Values {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// # Panics
    ///
    /// Panics if `name` is not in the table — a typo in this package, never
    /// a property of the measured run.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.values[at] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.table.iter().zip(self.values.iter().copied())
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad metric name {:?}",
                m.name
            );
            assert!(m.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?}",
                m.unit
            );
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
