//! [`MetricsSink`]: deterministic counters and histograms over a trace.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{Event, TraceSink};

/// Number of log₂ buckets in the inbox-size histogram (bucket `i` counts
/// inboxes with `2^i - 1 <= size < 2^{i+1} - 1`; the last bucket absorbs the
/// tail).
pub const INBOX_BUCKETS: usize = 16;

/// Accounting of one closed phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanMetrics {
    /// Span name (e.g. `"merge"`, `"routing"`).
    pub name: &'static str,
    /// Rounds charged between open and close.
    pub rounds: u64,
    /// Messages charged between open and close.
    pub messages: u64,
    /// Wall-clock duration, only when the sink was built
    /// [`MetricsSink::with_wall_clock`] — never part of the deterministic
    /// snapshot.
    pub wall_nanos: Option<u128>,
}

/// Aggregates a run's trace into deterministic counters: events by kind,
/// messages sent, a log₂ inbox-size histogram, retransmission/excuse tallies,
/// per-cluster sub-runs and phase spans.
///
/// Optionally also measures wall-clock span durations
/// ([`MetricsSink::with_wall_clock`]); these are kept out of
/// [`MetricsSink::snapshot`] so the deterministic record stays
/// timing-independent (see the crate docs' determinism contract).
#[derive(Debug, Default)]
pub struct MetricsSink {
    /// Event counts keyed by `Event::kind`.
    pub events_by_kind: BTreeMap<&'static str, u64>,
    /// Program messages sent (summed over vertex steps).
    pub messages: u64,
    /// log₂ histogram of per-step inbox sizes.
    pub inbox_hist: [u64; INBOX_BUCKETS],
    /// Frames retransmitted by the reliable adapter.
    pub retransmits: u64,
    /// Peers excused as crashed by the reliable adapter.
    pub excused: u64,
    /// `(cluster, rounds, messages)` of completed cluster sub-runs.
    pub cluster_runs: Vec<(usize, u64, u64)>,
    /// Closed spans in close order.
    pub spans: Vec<SpanMetrics>,
    open: Vec<(&'static str, Option<Instant>)>,
    wall_clock: bool,
}

impl MetricsSink {
    /// A sink recording deterministic counters only.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Also measure wall-clock span durations (for flamegraphs; excluded
    /// from [`MetricsSink::snapshot`]).
    pub fn with_wall_clock() -> Self {
        MetricsSink {
            wall_clock: true,
            ..MetricsSink::default()
        }
    }

    /// Total events observed.
    pub fn total_events(&self) -> u64 {
        self.events_by_kind.values().sum()
    }

    /// Count of one event kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.events_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// The largest per-cluster round count observed (0 without cluster runs).
    pub fn max_cluster_rounds(&self) -> u64 {
        self.cluster_runs
            .iter()
            .map(|&(_, r, _)| r)
            .max()
            .unwrap_or(0)
    }

    /// Summed messages across cluster sub-runs.
    pub fn cluster_messages(&self) -> u64 {
        self.cluster_runs.iter().map(|&(_, _, m)| m).sum()
    }

    /// The deterministic part of the aggregate — everything except wall
    /// clocks. Two traced runs of the same `(graph, program, seed, engine)`
    /// produce equal snapshots; the repo tests rely on it.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events_by_kind: self.events_by_kind.clone(),
            messages: self.messages,
            inbox_hist: self.inbox_hist,
            retransmits: self.retransmits,
            excused: self.excused,
            cluster_runs: self.cluster_runs.clone(),
            spans: self
                .spans
                .iter()
                .map(|s| (s.name, s.rounds, s.messages))
                .collect(),
        }
    }
}

/// The deterministic aggregate of a [`MetricsSink`] (no wall clocks), built
/// by [`MetricsSink::snapshot`] and compared with `==` in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Event counts keyed by kind.
    pub events_by_kind: BTreeMap<&'static str, u64>,
    /// Program messages sent.
    pub messages: u64,
    /// log₂ inbox-size histogram.
    pub inbox_hist: [u64; INBOX_BUCKETS],
    /// Reliable-adapter retransmissions.
    pub retransmits: u64,
    /// Reliable-adapter excusals.
    pub excused: u64,
    /// Per-cluster sub-runs.
    pub cluster_runs: Vec<(usize, u64, u64)>,
    /// `(name, rounds, messages)` of closed spans.
    pub spans: Vec<(&'static str, u64, u64)>,
}

impl TraceSink for MetricsSink {
    fn event(&mut self, event: &Event) {
        *self.events_by_kind.entry(event.kind()).or_insert(0) += 1;
        match *event {
            Event::VertexStep { inbox, sent, .. } => {
                self.messages += sent as u64;
                let bucket = (usize::BITS - (inbox + 1).leading_zeros() - 1) as usize;
                self.inbox_hist[bucket.min(INBOX_BUCKETS - 1)] += 1;
            }
            Event::Retransmit { count, .. } => self.retransmits += count,
            Event::Excuse { .. } => self.excused += 1,
            Event::ClusterRun {
                cluster,
                rounds,
                messages,
            } => self.cluster_runs.push((cluster, rounds, messages)),
            _ => {}
        }
    }

    fn span_open(&mut self, name: &'static str) {
        let started = self.wall_clock.then(Instant::now);
        self.open.push((name, started));
    }

    fn span_close(&mut self, name: &'static str, rounds: u64, messages: u64) {
        // Tolerate unbalanced closes (a panicking phase unwinds past its
        // close): match the innermost open span of this name, or record a
        // bare span when none is open.
        let at = self.open.iter().rposition(|&(n, _)| n == name);
        let wall_nanos = match at {
            Some(i) => {
                let (_, started) = self.open.remove(i);
                started.map(|t| t.elapsed().as_nanos())
            }
            None => None,
        };
        self.spans.push(SpanMetrics {
            name,
            rounds,
            messages,
            wall_nanos,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;

    #[test]
    fn counts_and_histograms() {
        let mut m = MetricsSink::new();
        for (inbox, sent) in [(0usize, 2usize), (1, 0), (3, 1), (100, 0)] {
            m.event(&Event::VertexStep {
                engine: EngineKind::Executor,
                round: 1,
                vertex: 0,
                inbox,
                sent,
            });
        }
        m.event(&Event::Retransmit {
            vertex: 0,
            peer: 1,
            round: 3,
            count: 4,
        });
        m.event(&Event::Excuse {
            vertex: 0,
            peer: 2,
            round: 9,
        });
        m.event(&Event::ClusterRun {
            cluster: 0,
            rounds: 7,
            messages: 20,
        });
        m.event(&Event::ClusterRun {
            cluster: 1,
            rounds: 5,
            messages: 22,
        });
        assert_eq!(m.count("vertex_step"), 4);
        assert_eq!(m.messages, 3);
        // inbox 0 -> bucket 0; 1 -> bucket 1; 3 -> bucket 2; 100 -> bucket 6.
        assert_eq!(m.inbox_hist[0], 1);
        assert_eq!(m.inbox_hist[1], 1);
        assert_eq!(m.inbox_hist[2], 1);
        assert_eq!(m.inbox_hist[6], 1);
        assert_eq!(m.retransmits, 4);
        assert_eq!(m.excused, 1);
        assert_eq!(m.max_cluster_rounds(), 7);
        assert_eq!(m.cluster_messages(), 42);
        assert_eq!(m.total_events(), 8);
    }

    #[test]
    fn spans_nest_and_snapshot_is_deterministic() {
        let mut m = MetricsSink::with_wall_clock();
        m.span_open("outer");
        m.span_open("inner");
        m.span_close("inner", 3, 10);
        m.span_close("outer", 8, 30);
        assert_eq!(m.spans.len(), 2);
        assert_eq!(m.spans[0].name, "inner");
        assert!(m.spans[0].wall_nanos.is_some());
        // Wall clocks never reach the snapshot.
        assert_eq!(m.snapshot().spans, vec![("inner", 3, 10), ("outer", 8, 30)]);
        assert_eq!(m.snapshot(), m.snapshot());
    }
}
