//! What every `taco-cli` subcommand shares: one declarative, testable
//! argument parser, so every subcommand speaks the same dialect —
//!
//! * `--help`/`-h` prints a generated usage page and exits 0;
//! * boolean flags (`--csv`), valued options (`--scenario NAME`) and
//!   defaulted positionals (`[entries]`) are declared up front;
//! * unknown arguments, missing option values and malformed numbers are
//!   *loud* — a one-line error plus the usage synopsis, exit code 2 —
//!   instead of the old silent fall-back-to-default behaviour.
//!
//! The parse step (`Cli::try_parse`) is pure (no process exit, no IO),
//! which is what the unit tests drive; subcommands use the
//! [`Cli::parse_args_or_exit`] wrapper.  Below the parser sit the two
//! things more than one subcommand does after parsing: the evaluation
//! cache's tally line and the Chrome trace of a request.

use std::fmt::Write as _;
use std::str::FromStr;

use taco_core::{trace_request, EvalCache, EvalRequest};
use taco_sim::ChromeTracer;

/// A declared command-line interface: name, one-line description and the
/// accepted flags/options/positionals.
pub struct Cli {
    name: &'static str,
    about: &'static str,
    flags: Vec<(&'static str, &'static str)>,
    opts: Vec<(&'static str, &'static str, &'static str)>,
    positionals: Vec<(&'static str, String, Option<String>)>,
}

/// The outcome of a successful parse: either the user asked for help, or
/// the arguments resolved against the declaration.
pub(crate) enum Parse {
    /// `--help`/`-h` was given; the caller should print [`Cli::help`].
    Help,
    /// Every argument resolved.
    Args(Parsed),
}

/// Resolved arguments.  Accessors take the *declared* name; asking for an
/// undeclared one is a programming error and panics.
pub struct Parsed {
    flags: Vec<&'static str>,
    opts: Vec<(&'static str, String)>,
    positionals: Vec<(&'static str, String)>,
}

impl Cli {
    /// A new interface declaration.
    pub fn new(name: &'static str, about: &'static str) -> Cli {
        Cli { name, about, flags: Vec::new(), opts: Vec::new(), positionals: Vec::new() }
    }

    /// Declares a boolean flag, e.g. `--csv`.
    pub fn flag(mut self, name: &'static str, help: &'static str) -> Cli {
        self.flags.push((name, help));
        self
    }

    /// Declares a valued option, e.g. `--scenario NAME`.
    pub fn opt(mut self, name: &'static str, metavar: &'static str, help: &'static str) -> Cli {
        self.opts.push((name, metavar, help));
        self
    }

    /// Declares a positional argument.  With a default it may be omitted;
    /// without one it is required.  Declaration order is argv order, and
    /// required positionals must precede defaulted ones.
    pub(crate) fn positional(
        mut self,
        name: &'static str,
        help: &str,
        default: Option<&str>,
    ) -> Cli {
        self.positionals.push((name, help.to_owned(), default.map(str::to_owned)));
        self
    }

    /// The one-line synopsis, e.g.
    /// `usage: taco-cli table1 [options] [entries] [packet_bytes]`.
    pub(crate) fn usage(&self) -> String {
        let mut s = format!("usage: {}", self.name);
        if !self.flags.is_empty() || !self.opts.is_empty() {
            s.push_str(" [options]");
        }
        for (name, _, default) in &self.positionals {
            match default {
                Some(_) => {
                    let _ = write!(s, " [{name}]");
                }
                None => {
                    let _ = write!(s, " <{name}>");
                }
            }
        }
        s
    }

    /// The full generated help page.
    pub(crate) fn help(&self) -> String {
        let mut s = format!("{} — {}\n\n{}\n", self.name, self.about, self.usage());
        if !self.positionals.is_empty() {
            s.push_str("\narguments:\n");
            let width = self.positionals.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
            for (name, help, default) in &self.positionals {
                let _ = write!(s, "  {name:<width$}  {help}");
                // An empty default is "may be left out", not a value.
                if let Some(d) = default.as_ref().filter(|d| !d.is_empty()) {
                    let _ = write!(s, " (default: {d})");
                }
                s.push('\n');
            }
        }
        s.push_str("\noptions:\n");
        let label = |name: &str, metavar: &str| {
            if metavar.is_empty() {
                name.to_owned()
            } else {
                format!("{name} {metavar}")
            }
        };
        let mut rows: Vec<(String, &'static str)> =
            self.flags.iter().map(|&(n, h)| (n.to_owned(), h)).collect();
        rows.extend(self.opts.iter().map(|&(n, m, h)| (label(n, m), h)));
        rows.push(("--help".to_owned(), "print this help"));
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (l, h) in rows {
            let _ = writeln!(s, "  {l:<width$}  {h}");
        }
        s
    }

    /// Resolves `args` (without the program name) against the declaration.
    /// Pure: errors come back as a message, help as [`Parse::Help`].
    pub(crate) fn try_parse<I>(&self, args: I) -> Result<Parse, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut flags = Vec::new();
        let mut opts: Vec<(&'static str, String)> = Vec::new();
        let mut given: Vec<String> = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(Parse::Help);
            }
            if let Some(&(name, _)) = self.flags.iter().find(|&&(n, _)| n == arg) {
                if !flags.contains(&name) {
                    flags.push(name);
                }
            } else if let Some(&(name, ..)) = self.opts.iter().find(|&&(n, ..)| n == arg) {
                let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
                if opts.iter().any(|(n, _)| *n == name) {
                    return Err(format!("{name} given twice"));
                }
                opts.push((name, value));
            } else if arg.starts_with('-')
                && arg.len() > 1
                && !arg[1..].starts_with(|c: char| c.is_ascii_digit())
            {
                return Err(format!("unknown option {arg:?}"));
            } else if given.len() < self.positionals.len() {
                given.push(arg);
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        let mut positionals = Vec::new();
        for (i, (name, _, default)) in self.positionals.iter().enumerate() {
            match given.get(i).cloned().or_else(|| default.clone()) {
                Some(value) => positionals.push((*name, value)),
                None => return Err(format!("missing required argument <{name}>")),
            }
        }
        Ok(Parse::Args(Parsed { flags, opts, positionals }))
    }

    /// `Cli::try_parse` over the arguments left once the subcommand is
    /// peeled off, with the standard exits: help → stdout + exit 0, errors →
    /// stderr + exit 2.
    pub fn parse_args_or_exit(&self, args: Vec<String>) -> Parsed {
        match self.try_parse(args) {
            Ok(Parse::Help) => {
                println!("{}", self.help());
                std::process::exit(0);
            }
            Ok(Parse::Args(parsed)) => parsed,
            Err(message) => self.fail(&message),
        }
    }

    /// Reports a usage error the standard way: message plus synopsis on
    /// stderr, exit 2.  Subcommands use it for post-parse validation too
    /// (bad numbers, unknown scenario names, …).
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.name);
        eprintln!("{}", self.usage());
        std::process::exit(2);
    }
}

impl Parsed {
    /// Was the boolean flag given?
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// The raw value of a valued option, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.opts.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The raw value of a positional (its default when omitted).
    pub(crate) fn pos(&self, name: &str) -> &str {
        self.positionals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("positional {name:?} was never declared"))
    }

    /// A positional parsed to `T`, with a readable error.
    pub(crate) fn pos_parsed<T: FromStr>(&self, name: &str) -> Result<T, String> {
        parse_value(name, self.pos(name))
    }

    /// An option parsed to `T`, with a readable error; `None` when absent.
    pub fn opt_parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.opt(name).map(|raw| parse_value(name, raw)).transpose()
    }

    /// A comma-separated option read item by item (each trimmed) with
    /// `parse`, failing on the first item it rejects; `None` when absent.
    pub(crate) fn opt_list<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, String> {
        self.opt(name)
            .map(|raw| raw.split(',').map(|item| parse(item.trim())).collect())
            .transpose()
    }
}

/// Parses `raw` as `T`, naming `what` in the error message.
pub(crate) fn parse_value<T: FromStr>(what: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{what}: cannot parse {raw:?}"))
}

/// The process-global evaluation cache's tally, on stderr.
pub(crate) fn report_cache() {
    let cache = EvalCache::global();
    eprintln!(
        "evaluation cache: {} hits, {} misses, {} points stored",
        cache.hits(),
        cache.misses(),
        cache.len()
    );
}

/// Re-runs `request`'s measurement under a Chrome tracer and writes the
/// timeline JSON (Perfetto, `chrome://tracing`) to `path`.  Through
/// [`trace_request`], not the cache: a cache hit has no simulation to
/// observe.
pub(crate) fn write_chrome_trace(request: &EvalRequest, path: &str) -> Result<(), String> {
    let mut chrome = ChromeTracer::new(request.config.machine.buses());
    let stats =
        trace_request(request, &mut chrome).map_err(|e| format!("traced replay failed: {e}"))?;
    std::fs::write(path, chrome.finish(stats.cycles))
        .map_err(|e| format!("could not write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_cli() -> Cli {
        Cli::new("table1", "regenerate the paper's Table 1")
            .flag("--csv", "emit CSV instead of the rendered table")
            .positional("entries", "routing-table size", Some("100"))
            .positional("packet_bytes", "assumed bytes per packet", Some("1040"))
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parsed(cli: &Cli, list: &[&str]) -> Parsed {
        match cli.try_parse(args(list)).expect("parse") {
            Parse::Args(p) => p,
            Parse::Help => panic!("unexpected help"),
        }
    }

    #[test]
    fn defaults_apply_when_arguments_are_omitted() {
        let p = parsed(&table1_cli(), &[]);
        assert!(!p.flag("--csv"));
        assert_eq!(p.pos_parsed::<usize>("entries"), Ok(100));
        assert_eq!(p.pos_parsed::<u32>("packet_bytes"), Ok(1040));
    }

    #[test]
    fn flags_and_positionals_mix_in_any_order() {
        let p = parsed(&table1_cli(), &["64", "--csv", "84"]);
        assert!(p.flag("--csv"));
        assert_eq!(p.pos("entries"), "64");
        assert_eq!(p.pos("packet_bytes"), "84");
    }

    #[test]
    fn help_is_recognised_anywhere_and_lists_everything() {
        let cli = table1_cli();
        for list in [&["--help"][..], &["64", "-h"][..]] {
            assert!(matches!(cli.try_parse(args(list)), Ok(Parse::Help)));
        }
        let help = cli.help();
        for needle in ["table1 —", "usage:", "[entries]", "--csv", "--help", "default: 1040"] {
            assert!(help.contains(needle), "{needle:?} missing from:\n{help}");
        }
    }

    #[test]
    fn errors_are_loud_not_silent() {
        let cli = table1_cli();
        let err = |list: &[&str]| match cli.try_parse(args(list)) {
            Err(e) => e,
            Ok(_) => panic!("{list:?} must not parse"),
        };
        assert!(err(&["--cvs"]).contains("unknown option"));
        assert!(err(&["1", "2", "3"]).contains("unexpected argument"));
        // Malformed numbers surface at the typed accessor.
        let p = parsed(&cli, &["many"]);
        assert!(p.pos_parsed::<usize>("entries").unwrap_err().contains("many"));
    }

    #[test]
    fn valued_options_require_and_keep_their_value() {
        let cli = Cli::new("dse", "design-space exploration")
            .opt("--scenario", "NAME", "replay the named workload")
            .opt("--max-drops", "N", "drop bound");
        let p = parsed(&cli, &["--scenario", "burst-overload"]);
        assert_eq!(p.opt("--scenario"), Some("burst-overload"));
        assert_eq!(p.opt_parsed::<u64>("--max-drops"), Ok(None));
        let missing = cli.try_parse(args(&["--scenario"]));
        assert!(matches!(missing, Err(e) if e.contains("needs a value")));
        let twice = cli.try_parse(args(&["--scenario", "a", "--scenario", "b"]));
        assert!(matches!(twice, Err(e) if e.contains("given twice")));
    }

    #[test]
    fn lists_are_read_item_by_item_and_fail_loudly() {
        let cli = Cli::new("loadgen", "load").opt("--clients", "LIST", "client counts");
        let number = |item: &str| parse_value::<usize>("--clients", item);
        let list = |raw: &str| parsed(&cli, &["--clients", raw]).opt_list("--clients", number);
        assert_eq!(parsed(&cli, &[]).opt_list("--clients", number), Ok(None));
        assert_eq!(list("8, 64,256"), Ok(Some(vec![8, 64, 256])));
        // An empty item, a trailing comma and a bad number all name the
        // item; none is skipped or defaulted.
        assert!(list("8,,64").unwrap_err().contains("cannot parse \"\""));
        assert!(list("8,64,").unwrap_err().contains("cannot parse \"\""));
        assert!(list("8,many").unwrap_err().contains("\"many\""));
    }

    #[test]
    fn required_positionals_are_enforced_and_negative_numbers_pass() {
        let cli = Cli::new("x", "test").positional("value", "a number", None);
        assert!(matches!(cli.try_parse(args(&[])), Err(e) if e.contains("missing required")));
        // A leading dash followed by a digit is a value, not an option.
        let p = parsed(&cli, &["-3.5"]);
        assert_eq!(p.pos_parsed::<f64>("value"), Ok(-3.5));
    }
}
