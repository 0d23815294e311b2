//! CLI failure type.
//!
//! Commands fail for three reasons: a filesystem operation on a
//! user-named path, a write to stdout, or anything else (usage mistakes,
//! pipeline errors) that arrives already rendered. [`CliError`] keeps the
//! path attached to the first so every message names the file involved
//! instead of panicking on it.

use std::fmt;

use crate::args::FlagError;

/// Why a CLI command failed.
#[derive(Debug)]
pub enum CliError {
    /// A filesystem operation on a named path failed.
    Io {
        /// What we were doing, e.g. `"cannot create"` or `"read"`.
        op: &'static str,
        /// The path involved, exactly as the user gave it.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Writing the command's output to stdout failed. A closed pipe ends
    /// the command quietly (see `commands::exit_code`).
    Stdout(std::io::Error),
    /// Any other failure, already rendered for the user.
    Msg(String),
}

impl CliError {
    /// Builds the I/O variant; use as `.map_err(CliError::io("read", path))`.
    pub fn io<'a>(
        op: &'static str,
        path: &'a str,
    ) -> impl FnOnce(std::io::Error) -> CliError + 'a {
        move |source| CliError::Io {
            op,
            path: path.to_owned(),
            source,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io { op, path, source } => write!(f, "{op} {path}: {source}"),
            CliError::Stdout(e) => write!(f, "write stdout: {e}"),
            CliError::Msg(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } | CliError::Stdout(source) => Some(source),
            CliError::Msg(_) => None,
        }
    }
}

impl From<FlagError> for CliError {
    fn from(e: FlagError) -> CliError {
        CliError::Msg(e.to_string())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Msg(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Msg(msg.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_name_the_file() {
        let e = std::fs::File::open("/nonexistent/never.lrlog")
            .map_err(CliError::io("cannot open", "/nonexistent/never.lrlog"))
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("cannot open /nonexistent/never.lrlog"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn strings_convert() {
        let e: CliError = String::from("bad flag").into();
        assert_eq!(e.to_string(), "bad flag");
    }
}
