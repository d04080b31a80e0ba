//! The measurement loop shared by every workload: three or more timed
//! set-ups, one discarded cold iteration, then warm iterations for the
//! requested time, every one of them output-checked.

use std::time::Instant;

use crate::metrics::{ratio, Values, END_TO_END, PER_LAYER};
use crate::workloads::{Scale, Workload};

/// The default `--seed`; at this value the instances are exactly those of
/// `report --section scale`.
pub const DEFAULT_SEED: u64 = 0x6d6664;

/// Set-ups timed per run: at least `MIN_SETUPS`; cheap ones (a 200x200 mesh
/// builds in 4 ms) are repeated until `CHEAP_SETUPS_S` have passed, so that
/// the summary of a short time rests on more than three samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const CHEAP_SETUPS_S: f64 = 0.5;

/// One execution of a workload's public call.
#[derive(Debug, Clone, Copy)]
pub struct Iter {
    /// Wall time of the call alone.
    pub wall_s: f64,
    /// Wall time of the output check that followed it.
    pub check_s: f64,
    pub rounds: u64,
    pub messages: u64,
    /// Checksum of the output (see [`crate::reference::checksum`]).
    pub checksum: u64,
    /// The call returned and its output passed the check.
    pub ok: bool,
}

impl Iter {
    /// A call that returned an error: a failed operation with no timing.
    pub fn failed(why: &dyn std::fmt::Display) -> Self {
        eprintln!("perf: operation failed: {why}");
        Iter {
            wall_s: 0.0,
            check_s: 0.0,
            rounds: 0,
            messages: 0,
            checksum: 0,
            ok: false,
        }
    }
}

/// A set-up workload. Variant 0 is the workload's one public call, untraced;
/// higher variants exist only in the traced pass and run the same work
/// through the tracing entry points, keeping what [`Instance::layers`] needs
/// from their fastest execution.
pub trait Instance {
    /// Number of variants the traced pass alternates between (≥ 1).
    fn traced_variants(&self) -> usize;
    /// Executes one variant, timed and output-checked.
    fn run(&mut self, variant: usize) -> Iter;
    /// Writes this workload's per-layer metrics; `fastest_s` is the fastest
    /// untraced execution of the same pass, the one the fastest traced
    /// execution is compared with.
    fn layers(&self, fastest_s: f64, out: &mut Values);
    /// Extra lines for the human report (digest head, cluster count …).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// What [`Workload::setup`] returns: the instance and how long building it
/// took (graph generation, program, executor), excluding the harness-side
/// reference output.
pub struct Setup {
    pub instance: Box<dyn Instance>,
    pub setup_s: f64,
    pub gen_s: f64,
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Warm iterations continue until this much time has passed …
    pub seconds: f64,
    /// … and at least this many rounds over the variants are done.
    pub min_iters: usize,
    pub traced: bool,
    pub scale: Scale,
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub traced: bool,
    /// Every operation passed and the exact counts repeated.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: Values,
    pub notes: Vec<String>,
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// What [`measure`] saw.
pub struct Measured {
    /// The discarded first iteration (its counts are the run's counts).
    pub cold: Iter,
    /// Walls of the warm untraced iterations that passed, in run order.
    pub walls: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent checking outputs, all iterations together.
    pub check_s: f64,
}

/// One cold iteration, then warm ones round-robin over `variants` — so that
/// slow stretches of the machine fall on all of them alike — until `seconds`
/// have passed and every variant ran `min_iters` times.
pub fn measure(
    instance: &mut dyn Instance,
    variants: usize,
    min_iters: usize,
    seconds: f64,
) -> Measured {
    // First-touch page faults and allocator growth make the first iteration
    // 1.3-3x a warm one; it is checked like the others but never timed.
    let cold = instance.run(0);
    let mut m = Measured {
        cold,
        walls: Vec::new(),
        attempted: 1,
        failed: u64::from(!cold.ok),
        check_s: cold.check_s,
    };
    let warm_start = Instant::now();
    let mut rounds_done = 0;
    while rounds_done < min_iters || warm_start.elapsed().as_secs_f64() < seconds {
        for variant in 0..variants {
            let it = instance.run(variant);
            m.attempted += 1;
            m.check_s += it.check_s;
            // The counts are simulated time and traffic: any two executions
            // of one instance, traced or not, must agree on them exactly.
            let same = (it.rounds, it.messages, it.checksum)
                == (cold.rounds, cold.messages, cold.checksum);
            if !(it.ok && same) {
                m.failed += 1;
            } else if variant == 0 {
                m.walls.push(it.wall_s);
            }
        }
        rounds_done += 1;
    }
    m
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Only when the process's peak memory cannot be read.
pub fn run_workload(workload: Workload, opts: &Opts) -> std::io::Result<Report> {
    // Set-up, several times over; the last instance is the one measured.
    let mut setups = Vec::new();
    let mut gen_s = f64::INFINITY;
    let mut instance = None;
    let started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < CHEAP_SETUPS_S)
    {
        drop(instance.take());
        let setup = workload.setup(opts.seed, opts.scale);
        setups.push(setup.setup_s);
        gen_s = gen_s.min(setup.gen_s);
        instance = Some(setup.instance);
    }
    setups.sort_by(f64::total_cmp);
    let mut instance = instance.expect("MIN_SETUPS > 0");
    let variants = if opts.traced {
        instance.traced_variants()
    } else {
        1
    };
    let Measured {
        cold,
        mut walls,
        attempted,
        failed,
        check_s,
    } = measure(instance.as_mut(), variants, opts.min_iters, opts.seconds);
    let correct = failed == 0 && !walls.is_empty();
    let mut notes = instance.notes();
    notes.push(format!("state checksum {:016x}", cold.checksum));
    notes.push(format!("warm walls in order {walls:.4?}"));
    walls.sort_by(f64::total_cmp);
    // Medians, not minima: see README.md, "Which number a run reports".
    let wall_s = quantile(&walls, 0.5);
    let fastest_s = walls.first().copied().unwrap_or(0.0);

    let metrics = if opts.traced {
        let mut out = Values::new(PER_LAYER);
        out.set("graph.gen_s", gen_s);
        out.set("harness.iters", walls.len() as f64);
        out.set("harness.warmup_s", cold.wall_s);
        out.set("harness.wall_min_s", fastest_s);
        out.set("harness.wall_max_s", walls.last().copied().unwrap_or(0.0));
        out.set(
            "harness.wall_iqr_frac",
            ratio(quantile(&walls, 0.75) - quantile(&walls, 0.25), wall_s),
        );
        out.set("harness.check_s", check_s);
        instance.layers(fastest_s, &mut out);
        out
    } else {
        let mut out = Values::new(END_TO_END);
        out.set("setup_s", quantile(&setups, 0.5));
        out.set("wall_s", wall_s);
        out.set("mmsg_per_s", ratio(cold.messages as f64, wall_s) / 1e6);
        out.set("congest_rounds", cold.rounds as f64);
        out.set("messages", cold.messages as f64);
        // Read after the instance is dropped would be the same number: the
        // high-water mark never falls.
        out.set("peak_rss_mb", peak_rss_mb()?);
        out
    };
    Ok(Report {
        workload,
        traced: opts.traced,
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

impl Report {
    /// The machine-readable result: one JSON object on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human table of one run.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "== {} ({}) — operations attempted {}, failed {}{}\n",
            self.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            if self.correct {
                ""
            } else {
                "  ** INCORRECT **"
            },
        );
        for (m, v) in self.metrics.iter() {
            out.push_str(&format!("  {:<28} {:>16.6} {}\n", m.name, v, m.unit));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Parses what [`Report::to_json`] printed (the parent of `perf all`
    /// reads its children's last line); `None` on any other text.
    pub fn parse_json(workload: Workload, traced: bool, line: &str) -> Option<Report> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let mut metrics = Values::new(if traced { PER_LAYER } else { END_TO_END });
        let names: Vec<&str> = metrics.iter().map(|(m, _)| m.name).collect();
        for name in names {
            let key = format!("\"{name}\": {{\"value\": ");
            let rest = &line[line.find(&key)? + key.len()..];
            metrics.set(name, rest[..rest.find(',')?].parse().ok()?);
        }
        Some(Report {
            workload,
            traced,
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
            notes: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(traced: bool) -> Opts {
        Opts {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            min_iters: 2,
            traced,
            scale: Scale::Smoke,
        }
    }

    #[test]
    fn every_workload_runs_correctly_at_smoke_size() {
        for w in Workload::ALL {
            let report = run_workload(w, &smoke(false)).expect("VmHWM is readable");
            assert!(report.correct, "{}: {}", w.name(), report.to_table());
            assert_eq!(report.failed, 0);
            assert_eq!(report.attempted, 3, "one cold and two warm iterations");
            for (m, v) in report.metrics.iter() {
                assert!(v > 0.0 && v.is_finite(), "{}: {} = {v}", w.name(), m.name);
            }
        }
    }

    #[test]
    fn every_workload_reports_its_layers_at_smoke_size() {
        for w in Workload::ALL {
            let report = run_workload(w, &smoke(true)).expect("VmHWM is readable");
            assert!(report.correct, "{}: {}", w.name(), report.to_table());
            let get = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|(m, _)| m.name == name)
                    .map(|(_, v)| v)
                    .expect("declared metric")
            };
            assert!(get("graph.n") > 0.0 && get("harness.iters") == 2.0);
            assert!(report.metrics.iter().all(|(_, v)| v.is_finite()));
        }
    }

    #[test]
    fn the_result_line_round_trips() {
        let report = run_workload(Workload::BfsMesh, &smoke(false)).expect("VmHWM is readable");
        let parsed = Report::parse_json(Workload::BfsMesh, false, &report.to_json())
            .expect("own output parses");
        assert_eq!(parsed.attempted, report.attempted);
        assert!(parsed.correct);
        for ((_, a), (_, b)) in parsed.metrics.iter().zip(report.metrics.iter()) {
            assert_eq!(a, b);
        }
        assert!(Report::parse_json(Workload::BfsMesh, false, "error: no such file").is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
