//! A tiny shared command-line argument scanner.
//!
//! The workspace's binaries (`oic`, `figures`, `oi-bench`) all hand-rolled
//! the same loop: walk the argument list, classify each token as a flag or
//! a positional, reject anything unknown with exit code 2. This module
//! centralizes the classification so every tool agrees on the details:
//!
//! - `--name` is a flag; `--name=value` is a flag with an inline value;
//! - a lone `-` is a positional (conventionally "stdin");
//! - any other token starting with `-` is malformed and reported as
//!   `unknown flag `...`` — the exact message the golden CLI tests pin;
//! - flags that take their value as a *separate* token (`--size small`)
//!   pull it with [`ArgScanner::value_for`], or with a typed reader
//!   ([`ArgScanner::positive`], [`ArgScanner::integer`],
//!   [`ArgScanner::non_negative`], [`ArgScanner::path`]) that also
//!   validates it and words the usage error.
//!
//! Tools keep their own flag tables and policies (which flags exist, which
//! commands they apply to); the scanner only handles tokenization.
//!
//! # Examples
//!
//! ```
//! use oi_support::cli::{Arg, ArgScanner};
//!
//! let mut args = ArgScanner::new(vec![
//!     "--json".into(),
//!     "--size".into(),
//!     "small".into(),
//!     "file.oi".into(),
//! ]);
//! assert_eq!(args.next(), Some(Ok(Arg::flag("json"))));
//! assert_eq!(args.next(), Some(Ok(Arg::flag("size"))));
//! assert_eq!(args.value_for("--size"), Ok("small".to_string()));
//! assert_eq!(args.next(), Some(Ok(Arg::Positional("file.oi".into()))));
//! assert_eq!(args.next(), None);
//! ```

/// One classified command-line token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Arg {
    /// `--name` (value `None`) or `--name=value` (value `Some`).
    Flag {
        /// Flag name without the leading dashes.
        name: String,
        /// Inline `=value` payload, if present.
        value: Option<String>,
    },
    /// A plain (non-flag) token.
    Positional(String),
}

impl Arg {
    /// A bare `--name` flag (test/construction convenience).
    pub fn flag(name: &str) -> Arg {
        Arg::Flag {
            name: name.to_string(),
            value: None,
        }
    }

    /// The usage error for an argument the command does not accept.
    pub fn unexpected(&self) -> String {
        match self {
            Arg::Flag { name, value: None } => format!("unknown flag `--{name}`"),
            Arg::Flag {
                name,
                value: Some(value),
            } => format!("unknown flag `--{name}={value}`"),
            Arg::Positional(p) => format!("unexpected argument `{p}`"),
        }
    }
}

/// Walks an argument list, classifying tokens on demand.
#[derive(Debug)]
pub struct ArgScanner {
    args: Vec<String>,
    pos: usize,
}

impl ArgScanner {
    /// Scans the given tokens (typically already stripped of `argv[0]`).
    pub fn new(args: Vec<String>) -> ArgScanner {
        ArgScanner { args, pos: 0 }
    }

    /// Scans the process arguments, skipping the program name.
    pub fn from_env() -> ArgScanner {
        ArgScanner::new(std::env::args().skip(1).collect())
    }

    /// Classifies the next token; `None` when exhausted. Malformed tokens
    /// (single-dash options) yield `Err` with a user-facing message.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<Arg, String>> {
        let token = self.args.get(self.pos)?.clone();
        self.pos += 1;
        Some(classify(&token))
    }

    /// Takes the next raw token as the value of `flag` (for flags whose
    /// value is a separate token, e.g. `--size small`). Errors when the
    /// list is exhausted.
    pub fn value_for(&mut self, flag: &str) -> Result<String, String> {
        match self.args.get(self.pos) {
            Some(v) => {
                self.pos += 1;
                Ok(v.clone())
            }
            None => Err(format!("`{flag}` needs a value")),
        }
    }

    /// Takes the value of `flag` as an integer greater than zero.
    pub fn positive(&mut self, flag: &str) -> Result<u64, String> {
        let v = self.value_for(flag).unwrap_or_default();
        match v.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("`{flag}` needs a positive integer, got `{v}`")),
        }
    }

    /// Takes the value of `flag` as a non-negative integer.
    pub fn integer(&mut self, flag: &str) -> Result<u64, String> {
        let v = self.value_for(flag).unwrap_or_default();
        v.parse::<u64>()
            .map_err(|_| format!("`{flag}` needs an integer, got `{v}`"))
    }

    /// Takes the value of `flag` as a finite number `>= 0`.
    pub fn non_negative(&mut self, flag: &str) -> Result<f64, String> {
        let v = self.value_for(flag).unwrap_or_default();
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(format!("`{flag}` needs a non-negative number, got `{v}`")),
        }
    }

    /// Takes the value of `flag` as a non-empty path.
    pub fn path(&mut self, flag: &str) -> Result<String, String> {
        match self.value_for(flag) {
            Ok(path) if !path.is_empty() => Ok(path),
            _ => Err(format!("`{flag}` needs a path")),
        }
    }
}

/// Classifies a single token.
fn classify(token: &str) -> Result<Arg, String> {
    if let Some(rest) = token.strip_prefix("--") {
        if rest.is_empty() {
            return Err("unknown flag `--`".to_string());
        }
        return Ok(match rest.split_once('=') {
            Some((name, value)) => Arg::Flag {
                name: name.to_string(),
                value: Some(value.to_string()),
            },
            None => Arg::Flag {
                name: rest.to_string(),
                value: None,
            },
        });
    }
    if token.starts_with('-') && token.len() > 1 {
        return Err(format!("unknown flag `{token}`"));
    }
    Ok(Arg::Positional(token.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(tokens: &[&str]) -> ArgScanner {
        ArgScanner::new(tokens.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn classifies_flags_values_and_positionals() {
        let mut args = scan(&["run", "--inline", "--trace=json", "file.oi", "-"]);
        assert_eq!(args.next(), Some(Ok(Arg::Positional("run".into()))));
        assert_eq!(args.next(), Some(Ok(Arg::flag("inline"))));
        assert_eq!(
            args.next(),
            Some(Ok(Arg::Flag {
                name: "trace".into(),
                value: Some("json".into())
            }))
        );
        assert_eq!(args.next(), Some(Ok(Arg::Positional("file.oi".into()))));
        assert_eq!(args.next(), Some(Ok(Arg::Positional("-".into()))));
        assert_eq!(args.next(), None);
    }

    #[test]
    fn rejects_single_dash_options_with_pinned_message() {
        let mut args = scan(&["-x"]);
        assert_eq!(args.next(), Some(Err("unknown flag `-x`".into())));
        let mut args = scan(&["--"]);
        assert_eq!(args.next(), Some(Err("unknown flag `--`".into())));
    }

    #[test]
    fn value_for_pulls_the_next_token() {
        let mut args = scan(&["--size", "small"]);
        assert_eq!(args.next(), Some(Ok(Arg::flag("size"))));
        assert_eq!(args.value_for("--size"), Ok("small".into()));
        assert_eq!(args.next(), None);
        assert_eq!(
            args.value_for("--out"),
            Err("`--out` needs a value".to_string())
        );
    }

    #[test]
    fn typed_readers_validate_and_word_the_error() {
        let mut args = scan(&["3", "0", "0", "x", "1.5", "-1", "out.json", ""]);
        assert_eq!(args.positive("--n"), Ok(3));
        assert_eq!(
            args.positive("--n"),
            Err("`--n` needs a positive integer, got `0`".into())
        );
        assert_eq!(args.integer("--seed"), Ok(0));
        assert_eq!(
            args.integer("--seed"),
            Err("`--seed` needs an integer, got `x`".into())
        );
        assert_eq!(args.non_negative("--s"), Ok(1.5));
        assert!(args.non_negative("--s").is_err());
        assert_eq!(args.path("--out"), Ok("out.json".into()));
        assert_eq!(args.path("--out"), Err("`--out` needs a path".into()));
        assert_eq!(args.path("--out"), Err("`--out` needs a path".into()));
    }

    #[test]
    fn unexpected_arguments_name_themselves() {
        assert_eq!(Arg::flag("wat").unexpected(), "unknown flag `--wat`");
        let inline = Arg::Flag {
            name: "json".into(),
            value: Some("1".into()),
        };
        assert_eq!(inline.unexpected(), "unknown flag `--json=1`");
        assert_eq!(
            Arg::Positional("x.oi".into()).unexpected(),
            "unexpected argument `x.oi`"
        );
    }

    #[test]
    fn empty_equals_value_is_preserved() {
        let mut args = scan(&["--trace="]);
        assert_eq!(
            args.next(),
            Some(Ok(Arg::Flag {
                name: "trace".into(),
                value: Some(String::new())
            }))
        );
    }
}
