//! Error type for log encoding, decoding and I/O.

use std::error::Error;
use std::fmt;
use std::io;

/// Result alias for log operations.
pub type LogResult<T> = Result<T, LogError>;

/// Errors produced while reading or writing event logs.
#[derive(Debug)]
#[non_exhaustive]
pub enum LogError {
    /// The byte stream is not a valid log (or checkpoint).
    Corrupt {
        /// What was being read: `"log"`, or `"checkpoint"`.
        file: &'static str,
        /// Description of the malformation.
        reason: String,
    },
    /// The stream claims to be a versioned file but the magic bytes are
    /// wrong (e.g. a truncated header or an unrelated file).
    BadMagic {
        /// What was being read: `"log"`, or `"checkpoint"`.
        file: &'static str,
        /// The bytes found where the magic was expected.
        found: Vec<u8>,
    },
    /// The stream is a versioned file of a version this build cannot read.
    UnsupportedVersion {
        /// What was being read: `"log"`, or `"checkpoint"`.
        file: &'static str,
        /// The version byte found in the header.
        found: u8,
        /// The highest version this reader supports.
        supported: u8,
    },
    /// An underlying I/O failure.
    Io(io::Error),
    /// The background decoder thread panicked; the panic was contained and
    /// surfaced as a stream item instead of a hung channel.
    DecoderPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl LogError {
    pub(crate) fn corrupt(reason: impl Into<String>) -> LogError {
        LogError::Corrupt {
            file: "log",
            reason: reason.into(),
        }
    }

    /// The same error, naming `file` as what was being read.
    pub(crate) fn in_file(mut self, file: &'static str) -> LogError {
        if let LogError::Corrupt { file: f, .. }
        | LogError::BadMagic { file: f, .. }
        | LogError::UnsupportedVersion { file: f, .. } = &mut self
        {
            *f = file;
        }
        self
    }

    /// Stable lowercase name of this error's variant — the key used for
    /// the `log.errors.*` telemetry counters.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogError::Corrupt { .. } => "corrupt",
            LogError::BadMagic { .. } => "bad_magic",
            LogError::UnsupportedVersion { .. } => "unsupported_version",
            LogError::Io(_) => "io",
            LogError::DecoderPanicked { .. } => "decoder_panicked",
        }
    }
}

/// Bumps the telemetry counter keyed by `e`'s variant. Called at the
/// points where a read error surfaces to a consumer (iterator items and
/// stream openers), never on internal propagation, so each failure counts
/// once.
pub(crate) fn count_error(e: &LogError) {
    if literace_telemetry::enabled() {
        let m = literace_telemetry::metrics();
        match e {
            LogError::Corrupt { .. } => m.log_errors_corrupt.add(1),
            LogError::BadMagic { .. } => m.log_errors_bad_magic.add(1),
            LogError::UnsupportedVersion { .. } => m.log_errors_unsupported_version.add(1),
            LogError::Io(_) => m.log_errors_io.add(1),
            LogError::DecoderPanicked { .. } => m.log_errors_decoder_panicked.add(1),
        }
    }
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Corrupt { file, reason } => write!(f, "corrupt {file}: {reason}"),
            LogError::BadMagic { file, found } => {
                write!(f, "bad {file} magic: expected a {file} header, found {found:02X?}")
            }
            LogError::UnsupportedVersion { file, found, supported } => write!(
                f,
                "unsupported {file} version {found} (this reader supports up to v{supported})"
            ),
            LogError::Io(e) => write!(f, "log i/o error: {e}"),
            LogError::DecoderPanicked { message } => {
                write!(f, "log decoder thread panicked: {message}")
            }
        }
    }
}

impl Error for LogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            LogError::Corrupt { .. }
            | LogError::BadMagic { .. }
            | LogError::UnsupportedVersion { .. }
            | LogError::DecoderPanicked { .. } => None,
        }
    }
}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> LogError {
        LogError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_reason() {
        let e = LogError::corrupt("bad tag");
        assert_eq!(e.to_string(), "corrupt log: bad tag");
    }

    #[test]
    fn io_errors_convert() {
        let e: LogError = io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(e.source().is_some());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(LogError::corrupt("x").kind_name(), "corrupt");
        assert_eq!(
            LogError::BadMagic {
                file: "log",
                found: vec![]
            }
            .kind_name(),
            "bad_magic"
        );
        assert_eq!(
            LogError::UnsupportedVersion {
                file: "log",
                found: 9,
                supported: 2
            }
            .kind_name(),
            "unsupported_version"
        );
        assert_eq!(
            LogError::Io(io::Error::other("x")).kind_name(),
            "io"
        );
        assert_eq!(
            LogError::DecoderPanicked {
                message: "x".into()
            }
            .kind_name(),
            "decoder_panicked"
        );
    }
}
