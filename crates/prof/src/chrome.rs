//! Wall-clock Chrome-trace export: one track per shard, real microseconds.
//!
//! `mfd_trace::jsonl::chrome_trace` renders the *deterministic* span record
//! on the virtual event clock. This exporter renders a [`Profile`]'s
//! wall-clock timeline instead — same trace-event format, same shared
//! rendering helpers ([`mfd_trace::jsonl::chrome_complete_event`]), but the
//! axis is real time: load the output in `chrome://tracing` or Perfetto and
//! the gaps between shard tracks *are* the stragglers.
//!
//! Track layout (`pid` 0 throughout):
//!
//! * `tid = 0..shards` — one track per shard, carrying that shard's busy
//!   spans of every phase with a per-shard series (`scan`/`step`/`deliver`),
//!   placed at the owning phase's start offset.
//! * `tid = shards` — the engine track: `init`, one `round N` umbrella span
//!   per round, and the sequential phases (`route`/`exchange`/`commit`)
//!   that run while the shard tracks are idle.

use mfd_runtime::profile::{PHASE_NAMES, PHASE_SCAN, PHASE_STEP};
use mfd_trace::jsonl::{chrome_complete_event, chrome_document, chrome_metadata_event};

use crate::{tally, Profile};

/// Nanosecond offset → trace microseconds (the trace-event time unit),
/// keeping sub-microsecond precision.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders the profile as a complete Chrome trace document (wall clock,
/// one track per shard plus an engine track — see the module docs).
pub fn chrome_profile(profile: &Profile) -> String {
    let engine_tid = profile.shards as u64;
    let mut events: Vec<String> = Vec::new();
    for shard in 0..profile.shards {
        events.push(chrome_metadata_event(
            "thread_name",
            0,
            shard as u64,
            &format!("shard {shard}"),
        ));
    }
    events.push(chrome_metadata_event(
        "thread_name",
        0,
        engine_tid,
        "engine",
    ));
    if profile.init_ns > 0 {
        events.push(chrome_complete_event(
            "init",
            0,
            engine_tid,
            0.0,
            us(profile.init_ns),
            &format!("{{\"threads\":{}}}", profile.threads),
        ));
    }
    for r in &profile.rounds {
        let sent = tally(profile.shards, r.traffic.iter().map(|&(s, _, c)| (s, c)));
        let delivered = tally(profile.shards, r.traffic.iter().map(|&(_, d, c)| (d, c)));
        events.push(chrome_complete_event(
            &format!("round {}", r.round),
            0,
            engine_tid,
            us(r.start_ns),
            us(r.wall_ns.max(1)),
            &format!(
                "{{\"frontier\":{},\"messages\":{}}}",
                r.frontier.iter().map(|&f| f as u64).sum::<u64>(),
                sent.iter().sum::<u64>(),
            ),
        ));
        for (phase, name) in PHASE_NAMES.into_iter().enumerate() {
            let (start, busy) = (us(r.phase_start_ns[phase]), &r.shard_busy_ns[phase]);
            if busy.is_empty() {
                // A sequential phase runs on the engine track.
                if r.phase_wall_ns[phase] > 0 {
                    let wall = us(r.phase_wall_ns[phase]);
                    events.push(chrome_complete_event(
                        name, 0, engine_tid, start, wall, "{}",
                    ));
                }
                continue;
            }
            for (shard, &ns) in busy.iter().enumerate().filter(|&(_, &ns)| ns > 0) {
                // Busy spans are placed at the parallel phase's start: the
                // engine records how long each shard was busy, not when its
                // worker picked it up, so spans on one track may overlap
                // the phase window rather than tile it.
                let (key, count) = match phase {
                    PHASE_SCAN => ("frontier", r.frontier.get(shard).map_or(0, |&f| f as u64)),
                    PHASE_STEP => ("sent", sent[shard]),
                    _ => ("delivered", delivered[shard]),
                };
                let args = format!("{{\"{key}\":{count}}}");
                events.push(chrome_complete_event(
                    name,
                    0,
                    shard as u64,
                    start,
                    us(ns),
                    &args,
                ));
            }
        }
    }
    chrome_document(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_runtime::profile::{Profiler, RoundSample, PHASE_DELIVER};

    #[test]
    fn exporter_emits_one_track_per_shard_plus_engine() {
        let mut p = Profile::new();
        p.begin(2, 2, 500);
        let mut r = RoundSample {
            round: 1,
            start_ns: 500,
            wall_ns: 4_000,
            frontier: vec![3, 4],
            traffic: vec![(0, 0, 2), (0, 1, 3), (1, 0, 4), (1, 1, 2)],
            ..RoundSample::default()
        };
        r.shard_busy_ns[PHASE_SCAN] = vec![100, 200];
        r.shard_busy_ns[PHASE_STEP] = vec![1_000, 900];
        r.shard_busy_ns[PHASE_DELIVER] = vec![50, 0];
        r.phase_start_ns = [500, 800, 2_000, 2_100, 2_200, 2_400];
        r.phase_wall_ns = [300, 1_100, 80, 90, 100, 1_500];
        p.record_round(&r);
        p.finish(5_000);

        let doc = chrome_profile(&p);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("]}\n"));
        // Named tracks: two shards + the engine.
        assert!(doc.contains("\"args\":{\"name\":\"shard 0\"}"));
        assert!(doc.contains("\"args\":{\"name\":\"shard 1\"}"));
        assert!(doc.contains("\"args\":{\"name\":\"engine\"}"));
        // The engine track holds init, the round umbrella, and sequential
        // phases; shard tracks hold busy spans.
        assert!(doc.contains("\"name\":\"init\""));
        assert!(doc.contains("\"name\":\"round 1\""));
        assert!(doc.contains("\"name\":\"commit\""));
        assert!(doc.contains("\"name\":\"step\",\"ph\":\"X\",\"pid\":0,\"tid\":1"));
        // A zero-length busy span (shard 1 deliver) is elided.
        assert!(!doc.contains("\"name\":\"deliver\",\"ph\":\"X\",\"pid\":0,\"tid\":1"));
        // Timestamps are microseconds: 2_400 ns commit start renders as 2.4.
        assert!(doc.contains("\"ts\":2.4"));
        // The message counts derive from the traffic: shard 0 sent 2 + 3 and
        // received 2 + 4, of 11 in all.
        assert!(doc.contains("\"tid\":0,\"ts\":0.8,\"dur\":1,\"args\":{\"sent\":5}"));
        assert!(doc.contains("\"tid\":0,\"ts\":2.2,\"dur\":0.05,\"args\":{\"delivered\":6}"));
        assert!(doc.contains("\"messages\":11}"));
        // Deterministic given the same profile.
        assert_eq!(doc, chrome_profile(&p));
    }
}
