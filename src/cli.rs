//! Argument reading, exits and signal handling shared by the `eend-cli`
//! and `eend-serve` binaries and by the figure binaries of `eend-bench`
//! (through `eend_bench::HarnessOpts`). Support code for those binaries,
//! not an API.
//!
//! Bad input has one exit: [`Usage::fail`] prints an error line and the
//! subcommand's usage text and exits 2. A failure after the input was
//! accepted has the other: [`die`] prints an error line and exits 1.

use std::fmt::Display;
use std::str::FromStr;

/// One subcommand's usage text and how it names its errors.
pub struct Usage {
    /// Prefix of every error line (`error: `).
    pub prefix: &'static str,
    /// What an unknown flag is called (`unknown campaign argument`).
    pub unknown: &'static str,
    /// The usage text printed after any error.
    pub text: &'static str,
}

impl Usage {
    /// An `eend-cli` subcommand's usage: error lines start `error: `.
    pub const fn cli(unknown: &'static str, text: &'static str) -> Usage {
        Usage { prefix: "error: ", unknown, text }
    }

    /// Prints the usage text and exits 2.
    pub fn exit(&self) -> ! {
        eprintln!("{}", self.text);
        std::process::exit(2)
    }

    /// Prints `msg` as an error line, then the usage text; exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}{msg}", self.prefix);
        self.exit()
    }
}

/// Prints `e` as an error line and exits 1.
pub fn die(e: impl Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1)
}

/// Reads one subcommand's flags; every refusal goes to its [`Usage`].
pub struct Args<I> {
    args: I,
    usage: &'static Usage,
}

impl<I: Iterator<Item = String>> Args<I> {
    /// A reader over `args` (the arguments after the subcommand).
    pub fn new(args: I, usage: &'static Usage) -> Self {
        Args { args, usage }
    }

    /// The next argument; `--help` and `-h` print the usage (exit 2).
    pub fn next_flag(&mut self) -> Option<String> {
        let a = self.args.next()?;
        if a == "--help" || a == "-h" {
            self.usage.exit()
        }
        Some(a)
    }

    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.usage.fail(format_args!("{flag} needs a value")),
        }
    }

    /// The value after `flag`, read by `parse`; its `Err` is the error
    /// line.
    pub fn value_of<T>(&mut self, flag: &str, parse: impl Fn(&str) -> Result<T, String>) -> T {
        let raw = self.value(flag);
        parse(&raw).unwrap_or_else(|e| self.usage.fail(e))
    }

    /// The number after `flag`.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> T {
        self.value_of(flag, |s| s.parse().map_err(|_| format!("{flag} needs a number")))
    }

    /// The comma list after `flag`, each element read by `parse`.
    /// Commas inside parentheses do not split (`onoff(5,5)`,
    /// `DSDVH-ODPM(5,10)-PSM`); elements are trimmed and blank ones
    /// skipped.
    pub fn list_of<T>(&mut self, flag: &str, parse: impl Fn(&str) -> Result<T, String>) -> Vec<T> {
        let raw = self.value(flag);
        split_list(&raw)
            .into_iter()
            .map(|s| parse(s).unwrap_or_else(|e| self.usage.fail(e)))
            .collect()
    }

    /// The comma list of numbers after `flag`.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Vec<T> {
        self.list_of(flag, |s| s.parse().map_err(|_| format!("bad {flag} element {s:?}")))
    }

    /// Refuses an argument no arm of the flag table knows.
    pub fn unknown(&self, arg: &str) -> ! {
        self.usage.fail(format_args!("{} {arg}", self.usage.unknown))
    }
}

/// Splits a comma list on the commas outside parentheses.
fn split_list(raw: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0usize, 0);
    for (i, c) in raw.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&raw[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&raw[start..]);
    out.into_iter().map(str::trim).filter(|s| !s.is_empty()).collect()
}

/// SIGTERM/SIGINT handling without any dependency: a C signal handler
/// flips one flag, and the binary polls it to drain cleanly.
#[cfg(unix)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGINT and SIGTERM to the flag.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the C library's, given valid signal numbers
        // and a handler that only stores to an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Whether SIGINT or SIGTERM has arrived.
    pub fn requested() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

/// Without Unix signals nothing is ever requested.
#[cfg(not(unix))]
pub mod signals {
    /// Does nothing.
    pub fn install() {}
    /// Always `false`.
    pub fn requested() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::split_list;

    #[test]
    fn lists_split_outside_parentheses_trimmed_without_blanks() {
        assert_eq!(split_list("2,4,,6"), ["2", "4", "6"]);
        assert_eq!(split_list("cbr, onoff(5,5) ,"), ["cbr", "onoff(5,5)"]);
        assert_eq!(
            split_list("DSDVH-ODPM(5,10)-PSM,TITAN-PC"),
            ["DSDVH-ODPM(5,10)-PSM", "TITAN-PC"]
        );
        assert!(split_list("").is_empty());
    }
}
