//! The debugging CLI, which explains a run after the fact:
//!
//! ```text
//! mfd-debug replay <record|verify|resume|dump|diff> [flags]   # journals and time travel
//! mfd-debug divergence [flags]                                # where two runs part ways
//! mfd-debug profile <summary|rounds|matrix|chrome|localize> [flags]  # where the time went
//! ```
//!
//! Each module documents its command's flags. Every failure is one
//! `error: …` line on stderr, never a panic: exit 2 for a malformed command
//! line (a flag the subcommand does not read, a missing value, a malformed
//! number, an unknown or degenerate `--graph` spec, a `--rounds` past the
//! round budget, an `--inject` outside the run), exit 1 for input that does
//! not load or fit (a truncated or corrupt journal, a label that does not
//! parse, a checkpoint for another graph, an unwritable output) and for a
//! run that fails the check it was asked for.

mod cli;
mod divergence;
mod profile;
mod replay;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let commands = [("replay", ""), ("divergence", ""), ("profile", "")];
    match cli::subcommand("mfd-debug", &args, &commands) {
        ("replay", _, rest) => replay::main(rest),
        ("divergence", _, rest) => divergence::main(rest),
        (_, _, rest) => profile::main(rest),
    }
}
