//! One flag table for every binary.
//!
//! A tool declares a [`Cli`] — its flags, operands and help prose —
//! and [`help_text!`](crate::help_text) renders the `--help` text from
//! it at compile time. [`Cli::parse`] splits a command line against the
//! table and hands the tool typed, range-checked values through
//! [`Args`]. One contract for every tool ([`exit`]): `--help` prints the
//! help on stdout and exits 0; a usage error (unknown flag, missing or
//! malformed value, stray operand) prints its message and the help on
//! stderr and exits 2.

use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// Exit status of a usage error.
pub const EXIT_USAGE: u8 = 2;

/// Column the synopsis wraps at.
const WIDTH: usize = 72;

/// One flag: its name and the placeholder of its value in the synopsis
/// (`("--scale", "N")`); an empty placeholder makes it a bare switch.
pub type Flag = (&'static str, &'static str);

/// A tool's command-line table.
#[derive(Debug)]
pub struct Cli {
    /// One line naming the tool, printed first (may be empty).
    pub about: &'static str,
    /// Synopsis head: the tool name and any fixed words.
    pub tool: &'static str,
    /// Every flag the tool accepts.
    pub flags: &'static [Flag],
    /// Operands in the synopsis (`[SECTION]...`); empty rejects them all.
    pub operands: &'static str,
    /// Hand-written text under the synopsis.
    pub prose: &'static str,
}

impl Cli {
    /// Writes the help text into `out` as far as it fits and returns its
    /// full length, so [`help_text!`](crate::help_text) can size and fill
    /// a buffer at compile time.
    pub const fn render(&self, out: &mut [u8]) -> usize {
        let mut w = Writer { out, len: 0, col: 0 };
        if !self.about.is_empty() {
            w.put(self.about);
            w.put("\n\n");
        }
        w.put("USAGE: ");
        w.put(self.tool);
        let indent = w.col + 1;
        let mut i = 0;
        while i < self.flags.len() {
            let (name, meta) = self.flags[i];
            w.gap(indent, name.len() + if meta.is_empty() { 2 } else { meta.len() + 3 });
            w.put("[");
            w.put(name);
            if !meta.is_empty() {
                w.put(" ");
                w.put(meta);
            }
            w.put("]");
            i += 1;
        }
        if !self.operands.is_empty() {
            w.gap(indent, self.operands.len());
            w.put(self.operands);
        }
        if !self.prose.is_empty() {
            w.put("\n\n");
            w.put(self.prose);
        }
        w.len
    }

    /// Splits `args` against the table and hands them to `build`.
    ///
    /// # Errors
    ///
    /// `help` itself for `--help`/`-h`; for a usage error, or an error
    /// from `build`, the message followed by `help`.
    pub fn parse<T>(
        &self,
        help: &str,
        args: impl IntoIterator<Item = String>,
        build: impl FnOnce(&Args) -> Result<T, String>,
    ) -> Result<T, String> {
        let usage = |msg: String| format!("{msg}\n{help}");
        let mut split = Args { flags: self.flags, given: Vec::new(), operands: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(help.to_owned());
            }
            if !arg.starts_with('-') && !self.operands.is_empty() {
                split.operands.push(arg);
                continue;
            }
            let Some(&(name, meta)) = self.flags.iter().find(|f| f.0 == arg) else {
                let what =
                    if arg.starts_with('-') { "unknown option" } else { "unexpected operand" };
                return Err(usage(format!("{what} {arg}")));
            };
            let value = if meta.is_empty() {
                None
            } else {
                Some(args.next().ok_or_else(|| usage(format!("{arg} needs a value")))?)
            };
            split.given.push((name, value));
        }
        build(&split).map_err(usage)
    }
}

/// Ends a tool whose command line did not parse: the help text goes to
/// stdout with exit 0, any other message to stderr with exit 2.
#[must_use]
pub fn exit(msg: &str, help: &str) -> ExitCode {
    if msg == help {
        println!("{help}");
        ExitCode::SUCCESS
    } else {
        eprintln!("{msg}");
        ExitCode::from(EXIT_USAGE)
    }
}

/// Writes a tool's report to its `--out PATH`, creating the parent
/// directories.
///
/// # Errors
///
/// A message naming `path` when a directory or the file cannot be
/// written.
pub fn write_out(path: impl AsRef<Path>, contents: &str) -> Result<(), String> {
    let path = path.as_ref();
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    std::fs::write(path, contents).map_err(fail)
}

/// Checks one `--assert-…-min` floor.
///
/// # Errors
///
/// A message naming `what` when `got` falls below a given `min`.
pub fn floor<T: PartialOrd + Display>(what: &str, got: T, min: Option<T>) -> Result<(), String> {
    match min {
        Some(min) if got < min => {
            Err(format!("assertion failed: {got} {what} < required minimum {min}"))
        }
        _ => Ok(()),
    }
}

/// A flag value type: parsed from text, ordered for range checks.
pub trait Num: FromStr<Err: Display> + PartialOrd + Display {}
impl<T: FromStr<Err: Display> + PartialOrd + Display> Num for T {}

/// A command line split by its table.
#[derive(Debug)]
pub struct Args {
    flags: &'static [Flag],
    /// Flags in the order given, with their values.
    given: Vec<(&'static str, Option<String>)>,
    /// Operands in the order given.
    pub operands: Vec<String>,
}

impl Args {
    /// Every occurrence of `name`, in order, with its value.
    fn given<'a>(&'a self, name: &'a str) -> impl Iterator<Item = Option<&'a str>> + 'a {
        debug_assert!(self.flags.iter().any(|f| f.0 == name), "{name} is not in the table");
        self.given.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_deref())
    }

    /// Whether `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.given(name).next().is_some()
    }

    /// Every value given for `name`, in order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given(name).flatten()
    }

    /// The last value given for `name`.
    #[must_use]
    pub fn get<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).last()
    }

    /// The last value of `name`, parsed and checked against `range`.
    ///
    /// # Errors
    ///
    /// A message naming the flag when the value does not parse or lies
    /// outside `range`.
    pub fn opt<T: Num>(&self, name: &str, range: impl RangeBounds<T>) -> Result<Option<T>, String> {
        self.get(name).map(|text| parse_in(name, text, &range)).transpose()
    }

    /// [`Args::opt`], or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::opt`].
    pub fn num<T: Num>(
        &self,
        name: &str,
        range: impl RangeBounds<T>,
        default: T,
    ) -> Result<T, String> {
        Ok(self.opt(name, range)?.unwrap_or(default))
    }

    /// The last value of `name` as a comma-separated list, each item
    /// parsed and checked against `range`.
    ///
    /// # Errors
    ///
    /// As [`Args::opt`], for any item.
    pub fn list<T: Num>(
        &self,
        name: &str,
        range: impl RangeBounds<T>,
    ) -> Result<Option<Vec<T>>, String> {
        self.get(name)
            .map(|text| text.split(',').map(|item| parse_in(name, item.trim(), &range)).collect())
            .transpose()
    }
}

fn parse_in<T: Num>(name: &str, text: &str, range: &impl RangeBounds<T>) -> Result<T, String> {
    let value: T = text.parse().map_err(|e| format!("{name}: {e} (got {text:?})"))?;
    if range.contains(&value) {
        return Ok(value);
    }
    let lo = match range.start_bound() {
        Bound::Included(b) => format!("[{b}"),
        Bound::Excluded(b) => format!("({b}"),
        Bound::Unbounded => "(-inf".to_owned(),
    };
    let hi = match range.end_bound() {
        Bound::Included(b) => format!("{b}]"),
        Bound::Excluded(b) => format!("{b})"),
        Bound::Unbounded => "inf)".to_owned(),
    };
    Err(format!("{name} is out of {lo}, {hi} (got {text})"))
}

/// Appends to a possibly too-short buffer, tracking length and column.
struct Writer<'a> {
    out: &'a mut [u8],
    len: usize,
    col: usize,
}

impl Writer<'_> {
    const fn put(&mut self, s: &str) {
        let mut i = 0;
        while i < s.len() {
            let b = s.as_bytes()[i];
            if self.len < self.out.len() {
                self.out[self.len] = b;
            }
            self.len += 1;
            self.col = if b == b'\n' { 0 } else { self.col + 1 };
            i += 1;
        }
    }

    /// The space before a `width`-byte word, or a break to column
    /// `indent` when the word would pass the margin.
    const fn gap(&mut self, indent: usize, width: usize) {
        if self.col + 1 + width <= WIDTH {
            self.put(" ");
            return;
        }
        self.put("\n");
        while self.col < indent {
            self.put(" ");
        }
    }
}

/// The `--help` text of a [`Cli`] constant, rendered at compile time.
#[macro_export]
macro_rules! help_text {
    ($cli:expr) => {{
        const LEN: usize = $cli.render(&mut []);
        const BYTES: [u8; LEN] = {
            let mut bytes = [0; LEN];
            $cli.render(&mut bytes);
            bytes
        };
        match ::std::str::from_utf8(&BYTES) {
            Ok(text) => text,
            Err(_) => panic!("help text is not UTF-8"),
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: Cli = Cli {
        about: "demo — a table under test",
        tool: "demo",
        flags: &[
            ("--scale", "N"),
            ("--rates", "R1,R2,..."),
            ("--quick", ""),
            ("--out-directory-with-a-long-name", "PATH"),
        ],
        operands: "[SECTION]...",
        prose: "Prose.",
    };
    const HELP: &str = crate::help_text!(DEMO);

    fn parse(words: &[&str]) -> Result<(u32, Vec<f64>, bool, Vec<String>), String> {
        DEMO.parse(HELP, words.iter().map(|w| (*w).to_owned()), |a| {
            Ok((
                a.num("--scale", 1..=100, 7)?,
                a.list("--rates", (Bound::Excluded(0.0), Bound::Excluded(f64::INFINITY)))?
                    .unwrap_or_default(),
                a.has("--quick"),
                a.operands.clone(),
            ))
        })
    }

    #[test]
    fn help_text_is_the_synopsis_wrapped_then_the_prose() {
        assert_eq!(
            HELP,
            "demo — a table under test\n\n\
             USAGE: demo [--scale N] [--rates R1,R2,...] [--quick]\n            \
             [--out-directory-with-a-long-name PATH] [SECTION]...\n\nProse."
        );
        assert_eq!(parse(&["-h"]).unwrap_err(), HELP);
    }

    #[test]
    fn values_switches_and_operands_parse() {
        let (scale, rates, quick, ops) =
            parse(&["fig9", "--scale", "3", "--quick", "--rates", "2, 4.5", "fig10"]).unwrap();
        assert_eq!((scale, rates, quick), (3, vec![2.0, 4.5], true));
        assert_eq!(ops, ["fig9", "fig10"]);
        assert_eq!(parse(&["--scale", "9", "--scale", "4"]).unwrap().0, 4, "the last one wins");
        assert_eq!(parse(&[]).unwrap().0, 7, "absent flags take the default");
    }

    #[test]
    fn usage_errors_name_the_flag_and_carry_the_help() {
        for (words, msg) in [
            (&["--frobnicate"][..], "unknown option --frobnicate"),
            (&["--scale"], "--scale needs a value"),
            (&["--scale", "nope"], "--scale: invalid digit found in string (got \"nope\")"),
            (&["--scale", "0"], "--scale is out of [1, 100] (got 0)"),
            (&["--rates", "1,0"], "--rates is out of (0, inf) (got 0)"),
            (&["--rates", "inf"], "--rates is out of (0, inf) (got inf)"),
        ] {
            assert_eq!(parse(words).unwrap_err(), format!("{msg}\n{HELP}"));
        }
    }
}
