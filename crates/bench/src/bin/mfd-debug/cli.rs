//! What every subcommand shares: how a run that cannot go on ends, the flag
//! parser, the `--graph` and `--rounds` checks, and the engine a journal runs
//! on.

use std::str::FromStr;

use mfd_graph::Graph;
use mfd_runtime::ExecutorConfig;

/// How a command-line run that cannot go on ends, as its exit code.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exit {
    /// Input data that does not load or fit (a corrupt or truncated
    /// journal, an unparsable label, a checkpoint for another graph), or a
    /// run that fails the check it was asked for.
    Data = 1,
    /// A malformed command line.
    Usage = 2,
}

impl Exit {
    /// Prints `error: {msg}` to stderr and exits with this code.
    pub(crate) fn fail(self, msg: impl std::fmt::Display) -> ! {
        eprintln!("error: {msg}");
        std::process::exit(self as i32)
    }
}

/// One subcommand's command line, parsed against its usage: the flags it
/// reads, each followed by one `<placeholder>` per value it takes, as in
/// `"--journal <file> --round <n> --self"`.
pub(crate) struct Flags {
    /// `(flag, values)` in command-line order; the last of a repeated flag
    /// wins.
    given: Vec<(String, Vec<String>)>,
}

impl Flags {
    /// Parses `args` for the subcommand `cmd`, whose usage is `usage`. A flag
    /// it does not read and a missing value are usage errors.
    pub(crate) fn parse(cmd: &str, usage: &str, args: &[String]) -> Flags {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut words = usage.split(' ').skip_while(|word| word != arg);
            if !arg.starts_with("--") || words.next().is_none() {
                Exit::Usage.fail(format!("{cmd} does not read {arg:?}; it reads {usage}"));
            }
            let values = words.take_while(|word| word.starts_with('<')).map(|value| {
                let missing = || Exit::Usage.fail(format!("{arg} requires a value {value}"));
                args.next().cloned().unwrap_or_else(missing)
            });
            given.push((arg.clone(), values.collect()));
        }
        Flags { given }
    }

    /// The values given to `flag`, if it was given.
    pub(crate) fn values(&self, flag: &str) -> Option<&[String]> {
        let given = self.given.iter().rev().find(|(f, _)| *f == flag);
        given.map(|(_, values)| values.as_slice())
    }

    /// Whether the switch `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// The value of `flag`.
    pub(crate) fn text(&self, flag: &str) -> Option<&str> {
        self.values(flag)?.first().map(String::as_str)
    }

    /// The number `flag` takes; anything else is a usage error.
    pub(crate) fn num<T: FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.text(flag)?;
        match value.parse() {
            Ok(number) => Some(number),
            Err(_) => Exit::Usage.fail(format!("{flag} takes a number, not {value:?}")),
        }
    }

    /// The `A:B` pair of numbers `flag` takes, written `form` in the error.
    pub(crate) fn pair<A: FromStr, B: FromStr>(&self, flag: &str, form: &str) -> Option<(A, B)> {
        let value = self.text(flag)?;
        let (a, b) = value.split_once(':').unwrap_or((value, ""));
        match (a.parse(), b.parse()) {
            (Ok(a), Ok(b)) => Some((a, b)),
            _ => Exit::Usage.fail(format!("{flag} takes {form}, not {value:?}")),
        }
    }

    /// `--rounds`, which must fit the round budget every engine runs under.
    pub(crate) fn rounds(&self) -> Option<u64> {
        let (rounds, budget) = (self.num("--rounds")?, ExecutorConfig::default().max_rounds);
        if rounds > budget {
            Exit::Usage.fail(format!(
                "--rounds {rounds} exceeds the round budget of {budget} rounds"
            ));
        }
        Some(rounds)
    }
}

/// The graph `spec` names; an unknown or degenerate spec ends the run as
/// `unknown` — bad usage in `--graph`, bad data in a journal label.
pub(crate) fn graph(spec: &str, unknown: Exit) -> Graph {
    mfd_bench::parse_graph(spec).unwrap_or_else(|e| unknown.fail(e))
}

/// The subcommand `args` start with — one of `subs`, each paired with its
/// usage — its usage, and the arguments after it.
pub(crate) fn subcommand<'a>(
    cmd: &str,
    args: &'a [String],
    subs: &[(&str, &'static str)],
) -> (&'a str, &'static str, &'a [String]) {
    let (sub, rest) = args
        .split_first()
        .map_or(("", args), |(s, r)| (s.as_str(), r));
    match subs.iter().find(|(name, _)| *name == sub) {
        Some((_, usage)) => (sub, usage, rest),
        None => {
            let names: Vec<&str> = subs.iter().map(|(name, _)| *name).collect();
            Exit::Usage.fail(format!("{cmd} takes {}, not {sub:?}", names.join(", ")))
        }
    }
}

/// Evaluates `$body` with `$engine` and `$program` bound to what a journal of
/// engine kind `$kind` and loss `$loss` runs: `$probe` on the sharded
/// executor, on the event engine at `Uniform{1,3}` link latency, or — under
/// i.i.d. loss — `Reliable<$probe>` on the event engine with that fault
/// model. A loss on the executor is bad data.
macro_rules! on_engine {
    ($kind:expr, $loss:expr, $probe:expr, |$engine:ident, $program:ident| $body:expr) => {{
        use mfd_trace::EngineKind;
        let cfg = mfd_runtime::ExecutorConfig::default();
        let latency = mfd_sim::LatencyModel::Uniform { lo: 1, hi: 3 };
        match ($kind, $loss) {
            (EngineKind::Executor, None) => {
                let ($engine, $program) = (&mfd_bench::sync_executor(&cfg), &$probe);
                $body
            }
            (EngineKind::Sim, None) => {
                let engine = mfd_bench::sim_engine(&cfg, latency, mfd_sim::NoFaults);
                let ($engine, $program) = (&engine, &$probe);
                $body
            }
            (EngineKind::Sim, Some(p)) => {
                let faults = mfd_faults::FaultModel::iid_loss(p);
                let engine = mfd_bench::sim_engine(&cfg, latency, faults);
                let ($engine, $program) = (&engine, &mfd_faults::Reliable::new($probe));
                $body
            }
            (EngineKind::Executor, Some(_)) => $crate::cli::Exit::Data
                .fail("a faulted run is recorded on the event engine, not the executor"),
        }
    }};
}
pub(crate) use on_engine;
