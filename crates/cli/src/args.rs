//! Minimal flag parsing (no external dependency).

use std::collections::HashMap;
use std::fmt;

/// The flags one command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Flags that take a value (`--seed 7`).
    pub values: &'static [&'static str],
    /// Bare boolean switches that take none (`--salvage`).
    pub switches: &'static [&'static str],
}

impl Spec {
    /// Every accepted name, values first, as `--name`.
    fn accepted(&self) -> Vec<String> {
        self.values
            .iter()
            .chain(self.switches)
            .map(|name| format!("--{name}"))
            .collect()
    }
}

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// An argument that is not a `--flag`.
    NotAFlag(String),
    /// A value flag given last, without its value.
    MissingValue(String),
    /// A flag the command does not accept; `accepted` lists those it does.
    Unknown {
        /// The rejected name, without its dashes.
        name: String,
        /// Every flag the command accepts, as `--name`.
        accepted: Vec<String>,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::NotAFlag(arg) => write!(f, "expected a --flag, got `{arg}`"),
            FlagError::MissingValue(name) => write!(f, "flag --{name} is missing its value"),
            FlagError::Unknown { name, accepted } if accepted.is_empty() => {
                write!(f, "unknown flag --{name} (this command takes no flags)")
            }
            FlagError::Unknown { name, accepted } => {
                write!(f, "unknown flag --{name} (accepted: {})", accepted.join(", "))
            }
        }
    }
}

impl std::error::Error for FlagError {}

/// Parsed `--key value` flags and switches.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `args` against `spec`: `--key value` pairs for its value
    /// flags, bare `--name` for its switches (query them with
    /// [`is_set`](Flags::is_set)).
    ///
    /// # Errors
    ///
    /// A stray positional argument, a dangling value flag, or any flag
    /// `spec` does not name.
    pub fn parse(args: &[String], spec: &Spec) -> Result<Flags, FlagError> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            let Some(name) = key.strip_prefix("--") else {
                return Err(FlagError::NotAFlag(key.clone()));
            };
            if spec.switches.contains(&name) {
                values.insert(name.to_owned(), "true".to_owned());
                i += 1;
                continue;
            }
            if !spec.values.contains(&name) {
                return Err(FlagError::Unknown {
                    name: name.to_owned(),
                    accepted: spec.accepted(),
                });
            }
            let Some(value) = args.get(i + 1) else {
                return Err(FlagError::MissingValue(name.to_owned()));
            };
            values.insert(name.to_owned(), value.clone());
            i += 2;
        }
        Ok(Flags { values })
    }

    /// Whether a boolean switch was given.
    pub fn is_set(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required flag's value.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// A parsed flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        values: &["seed", "scale", "log"],
        switches: &["salvage"],
    };

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&sv(&["--seed", "7", "--scale", "paper"]), &SPEC).unwrap();
        assert_eq!(f.get("seed"), Some("7"));
        assert_eq!(f.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(f.get_parsed::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_danglers_and_positional() {
        assert_eq!(
            Flags::parse(&sv(&["--seed"]), &SPEC).unwrap_err(),
            FlagError::MissingValue("seed".into())
        );
        assert_eq!(
            Flags::parse(&sv(&["seed", "7"]), &SPEC).unwrap_err(),
            FlagError::NotAFlag("seed".into())
        );
    }

    #[test]
    fn switches_take_no_value() {
        let f = Flags::parse(&sv(&["--salvage", "--seed", "7"]), &SPEC).unwrap();
        assert!(f.is_set("salvage"));
        assert_eq!(f.get_parsed::<u64>("seed", 0).unwrap(), 7);
        let f = Flags::parse(&sv(&["--seed", "7"]), &SPEC).unwrap();
        assert!(!f.is_set("salvage"));
    }

    #[test]
    fn require_reports_missing() {
        let f = Flags::parse(&[], &SPEC).unwrap();
        assert!(f.require("log").unwrap_err().contains("--log"));
    }

    #[test]
    fn unknown_flags_are_typed_errors_listing_the_accepted_ones() {
        // A value-less unknown name is refused too, before its value is
        // looked for.
        for (args, unknown) in [
            (&["--seed", "7", "--sed", "5"][..], "sed"),
            (&["--bogus"][..], "bogus"),
        ] {
            let err = Flags::parse(&sv(args), &SPEC).unwrap_err();
            let FlagError::Unknown { name, accepted } = &err else {
                panic!("expected Unknown, got {err:?}");
            };
            assert_eq!(name, unknown);
            assert_eq!(accepted, &["--seed", "--scale", "--log", "--salvage"]);
            assert_eq!(
                err.to_string(),
                format!("unknown flag --{name} (accepted: --seed, --scale, --log, --salvage)")
            );
        }
        let none = Spec {
            values: &[],
            switches: &[],
        };
        let err = Flags::parse(&sv(&["--x"]), &none).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --x (this command takes no flags)");
    }
}
