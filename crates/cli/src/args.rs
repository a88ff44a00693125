//! Hand-rolled argument parsing (no external CLI dependency).
//!
//! Grammar: `infprop <command> [positional…] [--flag value…]`. Flags accept
//! `--flag value`; boolean flags take no value. Unknown flags and missing
//! required arguments produce descriptive errors that `main` prints with
//! the usage text. Every flag is named in one of two tables,
//! `BOOLEAN_FLAGS` and `VALUE_FLAGS`.

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: the subcommand name, positionals, and flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// Subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--flag value` pairs; boolean flags map to `"true"`.
    pub flags: HashMap<String, String>,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// A required flag is missing.
    MissingFlag(&'static str),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Wrong number of positional arguments.
    Positional(&'static str),
    /// A flag no command takes.
    UnknownFlag(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no command given"),
            ArgError::MissingFlag(flag) => write!(f, "missing required flag --{flag}"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag}: expected {expected}, got {value:?}")
            }
            ArgError::Positional(what) => write!(f, "{what}"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["exact", "frozen", "help", "layered", "metrics"];

/// Flags that take one value.
const VALUE_FLAGS: &[&str] = &[
    "batch-size",
    "batches",
    "beta",
    "clients",
    "from",
    "k",
    "method",
    "metrics-out",
    "model",
    "oracle",
    "out",
    "p",
    "profile",
    "queries",
    "rounds",
    "runs",
    "scale",
    "seed",
    "seeds",
    "slowest",
    "socket",
    "tcp",
    "threads",
    "to",
    "top",
    "trace-out",
    "units-per-day",
    "window",
    "window-pct",
];

/// Splits raw arguments (without the program name) into a [`ParsedArgs`].
pub fn parse(args: &[String]) -> Result<ParsedArgs, ArgError> {
    let mut it = args.iter();
    let command = it.next().ok_or(ArgError::NoCommand)?.clone();
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let token = rest[i];
        if let Some(name) = token.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_owned(), "true".to_owned());
                i += 1;
            } else if !VALUE_FLAGS.contains(&name) {
                return Err(ArgError::UnknownFlag(name.to_owned()));
            } else {
                let value = rest.get(i + 1).ok_or_else(|| ArgError::BadValue {
                    flag: name.to_owned(),
                    value: "<nothing>".to_owned(),
                    expected: "a value",
                })?;
                flags.insert(name.to_owned(), (*value).clone());
                i += 2;
            }
        } else {
            positional.push(token.clone());
            i += 1;
        }
    }
    Ok(ParsedArgs {
        command,
        positional,
        flags,
    })
}

impl ParsedArgs {
    /// One required positional argument (e.g. an input path).
    pub fn one_positional(&self, what: &'static str) -> Result<&str, ArgError> {
        match self.positional.as_slice() {
            [only] => Ok(only),
            _ => Err(ArgError::Positional(what)),
        }
    }

    /// Two required positional arguments (e.g. a directory and a file).
    pub fn two_positional(&self, what: &'static str) -> Result<(&str, &str), ArgError> {
        match self.positional.as_slice() {
            [first, second] => Ok((first, second)),
            _ => Err(ArgError::Positional(what)),
        }
    }

    /// A required string flag.
    pub fn required(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.flags
            .get(flag)
            .map(String::as_str)
            .ok_or(ArgError::MissingFlag(flag))
    }

    /// An optional string flag.
    pub fn optional(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A boolean flag (present = true).
    pub fn boolean(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// A parsed numeric flag with a default.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_owned(),
                value: raw.clone(),
                expected,
            }),
        }
    }

    /// A required parsed numeric flag.
    pub fn parse_required<T: std::str::FromStr>(
        &self,
        flag: &'static str,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        let raw = self.required(flag)?;
        raw.parse().map_err(|_| ArgError::BadValue {
            flag: flag.to_owned(),
            value: raw.to_owned(),
            expected,
        })
    }

    /// A comma-separated list of node ids (`--seeds 1,2,3`).
    pub fn node_list(&self, flag: &'static str) -> Result<Vec<u32>, ArgError> {
        let raw = self.required(flag)?;
        raw.split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim().parse().map_err(|_| ArgError::BadValue {
                    flag: flag.to_owned(),
                    value: s.to_owned(),
                    expected: "a comma-separated list of node ids",
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_positional_and_flags() {
        let p = parse(&args(&["topk", "net.txt", "--k", "10", "--method", "irs"])).unwrap();
        assert_eq!(p.command, "topk");
        assert_eq!(p.positional, vec!["net.txt"]);
        assert_eq!(p.required("k").unwrap(), "10");
        assert_eq!(p.parse_or("k", 0usize, "int").unwrap(), 10);
        assert_eq!(p.optional("method"), Some("irs"));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let p = parse(&args(&[
            "irs",
            "net.txt",
            "--exact",
            "--frozen",
            "--window-pct",
            "5",
        ]))
        .unwrap();
        assert!(p.boolean("exact"));
        assert!(p.boolean("frozen"));
        assert_eq!(p.required("window-pct").unwrap(), "5");
        assert_eq!(p.positional, vec!["net.txt"]);
    }

    #[test]
    fn empty_input_is_no_command() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::NoCommand);
    }

    #[test]
    fn flag_without_value_errors() {
        let err = parse(&args(&["stats", "--units-per-day"])).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
    }

    #[test]
    fn typos_and_removed_flags_are_rejected_by_name() {
        for flag in ["threds", "no-freeze"] {
            let err = parse(&args(&[
                "topk",
                "net.txt",
                &format!("--{flag}"),
                "--k",
                "2",
            ]));
            assert_eq!(err, Err(ArgError::UnknownFlag(flag.to_owned())));
            assert_eq!(
                err.unwrap_err().to_string(),
                format!("unknown flag --{flag}")
            );
        }
    }

    #[test]
    fn the_flag_tables_and_the_usage_name_the_same_flags() {
        let in_usage: std::collections::BTreeSet<&str> = crate::commands::USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        for flag in &in_usage {
            let p = parse(&args(&["cmd", &format!("--{flag}"), "v"]));
            assert!(p.is_ok(), "--{flag} is in the usage but rejected");
        }
        for flag in BOOLEAN_FLAGS.iter().chain(VALUE_FLAGS) {
            // `--help` prints the usage; it needs no line of its own.
            assert!(
                *flag == "help" || in_usage.contains(flag),
                "--{flag} is accepted but missing from the usage"
            );
        }
    }

    #[test]
    fn missing_required_flag() {
        let p = parse(&args(&["topk", "net.txt"])).unwrap();
        assert_eq!(p.required("k").unwrap_err(), ArgError::MissingFlag("k"));
        assert!(p.required("k").unwrap_err().to_string().contains("--k"));
    }

    #[test]
    fn bad_numeric_value() {
        let p = parse(&args(&["topk", "net.txt", "--k", "ten"])).unwrap();
        let err = p.parse_required::<usize>("k", "an integer").unwrap_err();
        assert!(err.to_string().contains("expected an integer"));
    }

    #[test]
    fn node_list_parses_and_rejects() {
        let p = parse(&args(&["simulate", "n.txt", "--seeds", "1,2, 3"])).unwrap();
        assert_eq!(p.node_list("seeds").unwrap(), vec![1, 2, 3]);
        let bad = parse(&args(&["simulate", "n.txt", "--seeds", "1,x"])).unwrap();
        assert!(bad.node_list("seeds").is_err());
    }

    #[test]
    fn one_positional_enforced() {
        let p = parse(&args(&["stats", "a.txt", "b.txt"])).unwrap();
        assert!(p.one_positional("expected exactly one input path").is_err());
        let ok = parse(&args(&["stats", "a.txt"])).unwrap();
        assert_eq!(ok.one_positional("x").unwrap(), "a.txt");
    }

    #[test]
    fn parse_or_defaults() {
        let p = parse(&args(&["stats", "a.txt"])).unwrap();
        assert_eq!(p.parse_or("runs", 100usize, "int").unwrap(), 100);
    }
}
