//! [`JsonlSink`]: structured JSON-lines event logs and a Chrome-trace span
//! exporter.

use std::io::Write;

use crate::{Event, TraceSink};

/// One closed span on the sink's deterministic virtual clock (the event
/// counter), ready for [`chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedSpan {
    /// Span name.
    pub name: &'static str,
    /// Virtual open time (events seen before the open).
    pub start: u64,
    /// Virtual close time.
    pub end: u64,
    /// Rounds charged inside the span.
    pub rounds: u64,
    /// Messages charged inside the span.
    pub messages: u64,
}

/// Streams every event as one JSON object per line and records spans on a
/// deterministic virtual clock.
///
/// The log is part of the deterministic record: same run, same bytes — CI
/// byte-diffs two logs the way it byte-diffs two `BENCH_*.json` files.
/// Timestamps are event counts, never wall clocks (see the crate docs).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    clock: u64,
    open: Vec<(&'static str, u64)>,
    /// Closed spans in close order.
    pub spans: Vec<CompletedSpan>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSON lines to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            clock: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Unwraps the writer (flushing is the writer's business).
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn emit(&mut self, line: &str) {
        // An observability layer must not kill the run it observes: IO
        // errors surface at flush/close, not as engine panics.
        let _ = writeln!(self.writer, "{line}");
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, event: &Event) {
        self.clock += 1;
        let line = event_json(event);
        self.emit(&line);
    }

    fn span_open(&mut self, name: &'static str) {
        self.open.push((name, self.clock));
        self.emit(&format!(
            "{{\"type\":\"span_open\",\"name\":\"{name}\",\"ts\":{}}}",
            self.clock
        ));
    }

    fn span_close(&mut self, name: &'static str, rounds: u64, messages: u64) {
        let start = match self.open.iter().rposition(|&(n, _)| n == name) {
            Some(i) => self.open.remove(i).1,
            None => self.clock,
        };
        self.spans.push(CompletedSpan {
            name,
            start,
            end: self.clock,
            rounds,
            messages,
        });
        self.emit(&format!(
            "{{\"type\":\"span_close\",\"name\":\"{name}\",\"ts\":{},\"rounds\":{rounds},\"messages\":{messages}}}",
            self.clock
        ));
    }

    fn round_sealed(&mut self, engine: crate::EngineKind, round: u64) {
        self.emit(&format!(
            "{{\"type\":\"round_sealed\",\"engine\":\"{}\",\"round\":{round}}}",
            engine.name()
        ));
    }
}

/// Renders one [`Event`] as a single-line JSON object (stable field order).
pub(crate) fn event_json(event: &Event) -> String {
    let kind = event.kind();
    match *event {
        Event::RoundOpen {
            engine,
            round,
            active,
        } => format!(
            "{{\"type\":\"{kind}\",\"engine\":\"{}\",\"round\":{round},\"active\":{active}}}",
            engine.name()
        ),
        Event::VertexStep {
            engine,
            round,
            vertex,
            inbox,
            sent,
        } => format!(
            "{{\"type\":\"{kind}\",\"engine\":\"{}\",\"round\":{round},\"vertex\":{vertex},\"inbox\":{inbox},\"sent\":{sent}}}",
            engine.name()
        ),
        Event::RoundClose {
            engine,
            round,
            messages,
        } => format!(
            "{{\"type\":\"{kind}\",\"engine\":\"{}\",\"round\":{round},\"messages\":{messages}}}",
            engine.name()
        ),
        Event::Pulse {
            time,
            src,
            dst,
            payload,
            halt,
        } => format!(
            "{{\"type\":\"{kind}\",\"time\":{time},\"src\":{src},\"dst\":{dst},\"payload\":{payload},\"halt\":{halt}}}"
        ),
        Event::FaultFate {
            src,
            dst,
            round,
            fate,
        } => format!(
            "{{\"type\":\"{kind}\",\"src\":{src},\"dst\":{dst},\"round\":{round},\"fate\":\"{}\"}}",
            fate.name()
        ),
        Event::Crash {
            vertex,
            round,
            time,
        } => format!("{{\"type\":\"{kind}\",\"vertex\":{vertex},\"round\":{round},\"time\":{time}}}"),
        Event::Retransmit {
            vertex,
            peer,
            round,
            count,
        } => format!(
            "{{\"type\":\"{kind}\",\"vertex\":{vertex},\"peer\":{peer},\"round\":{round},\"count\":{count}}}"
        ),
        Event::Excuse {
            vertex,
            peer,
            round,
        } => format!("{{\"type\":\"{kind}\",\"vertex\":{vertex},\"peer\":{peer},\"round\":{round}}}"),
        Event::LinkClose { vertex, round } => {
            format!("{{\"type\":\"{kind}\",\"vertex\":{vertex},\"round\":{round}}}")
        }
        Event::ClusterRun {
            cluster,
            rounds,
            messages,
        } => format!(
            "{{\"type\":\"{kind}\",\"cluster\":{cluster},\"rounds\":{rounds},\"messages\":{messages}}}"
        ),
    }
}

/// Renders one complete (`"ph":"X"`) Chrome trace event. `ts` and `dur` are
/// in the trace's microsecond axis (virtual counts for [`chrome_trace`],
/// wall-clock microseconds for `mfd-prof`'s exporter); `args` must be a
/// rendered JSON object. Shared by the virtual-clock exporter here and the
/// wall-clock exporter in `mfd-prof`.
pub fn chrome_complete_event(
    name: &str,
    pid: u64,
    tid: u64,
    ts: f64,
    dur: f64,
    args: &str,
) -> String {
    format!("{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{args}}}")
}

/// Renders a Chrome trace-event metadata event (`"ph":"M"`) — used to name
/// tracks (`thread_name`) so per-shard tracks are labelled in the viewer.
pub fn chrome_metadata_event(name: &str, pid: u64, tid: u64, label: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}}}"
    )
}

/// Wraps rendered trace events into a complete Chrome trace document
/// (load in `chrome://tracing` or Perfetto).
pub fn chrome_document(events: &[String]) -> String {
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

/// Renders closed spans in the Chrome trace-event format (one complete `"X"`
/// event per span; load the result in `chrome://tracing` or Perfetto).
///
/// Virtual timestamps (event counts) stand in for microseconds — the shape
/// of the flamegraph is deterministic; only the axis unit is virtual. For
/// wall-clock profiles, use `mfd-prof`'s `chrome_profile` exporter (built
/// on the same [`chrome_complete_event`] helper), or read
/// [`crate::MetricsSink::with_wall_clock`] span durations next to this
/// sink.
pub fn chrome_trace(spans: &[CompletedSpan]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            chrome_complete_event(
                s.name,
                0,
                0,
                s.start as f64,
                s.end.saturating_sub(s.start).max(1) as f64,
                &format!("{{\"rounds\":{},\"messages\":{}}}", s.rounds, s.messages),
            )
        })
        .collect();
    chrome_document(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;

    #[test]
    fn lines_are_deterministic_and_parseable_shape() {
        let run = || {
            let mut sink = JsonlSink::new(Vec::new());
            sink.span_open("merge");
            sink.event(&Event::RoundOpen {
                engine: EngineKind::Executor,
                round: 1,
                active: 4,
            });
            sink.event(&Event::VertexStep {
                engine: EngineKind::Executor,
                round: 1,
                vertex: 2,
                inbox: 1,
                sent: 3,
            });
            sink.span_close("merge", 5, 12);
            TraceSink::round_sealed(&mut sink, EngineKind::Executor, 1);
            (String::from_utf8(sink.writer.clone()).unwrap(), sink.spans)
        };
        let (log_a, spans_a) = run();
        let (log_b, _) = run();
        assert_eq!(log_a, log_b, "same run, same bytes");
        assert_eq!(log_a.lines().count(), 5);
        assert!(log_a
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        assert_eq!(
            spans_a,
            vec![CompletedSpan {
                name: "merge",
                start: 0,
                end: 2,
                rounds: 5,
                messages: 12
            }]
        );
        let chrome = chrome_trace(&spans_a);
        assert!(chrome.contains("\"name\":\"merge\""));
        assert!(chrome.contains("\"ph\":\"X\""));
    }
}
