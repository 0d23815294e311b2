//! Bounded retry with exponential backoff for transient read errors.
//!
//! Network filesystems, pipes and pseudo-files can fail a read with
//! `WouldBlock` or `TimedOut` and succeed moments later. The streaming
//! decoder thread ([`RecordStream`](crate::RecordStream)) has nothing
//! better to do than wait, so it wraps its source in a [`RetryReader`]:
//! transient errors are retried up to a bounded number of times with
//! exponential backoff, then surfaced unchanged. `Interrupted` is retried
//! immediately and indefinitely (the POSIX convention — it carries no
//! information about the device, only about signal delivery).

use std::io::{ErrorKind, Read};
use std::time::Duration;

/// Retry budget and backoff schedule for [`RetryReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Transient failures tolerated per `read` call before giving up.
    pub max_retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// Four retries starting at 200µs (≤ 3ms total sleep) — generous for
    /// scheduler hiccups, negligible against a real device failure.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_micros(200),
        }
    }
}

/// True for error kinds worth retrying after a short wait.
fn is_transient(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A `Read` adapter that absorbs transient errors per a [`RetryPolicy`].
#[derive(Debug)]
pub struct RetryReader<R> {
    inner: R,
    policy: RetryPolicy,
}

impl<R: Read> RetryReader<R> {
    /// Wraps `inner` with the given policy.
    pub fn new(inner: R, policy: RetryPolicy) -> RetryReader<R> {
        RetryReader { inner, policy }
    }
}

impl<R: Read> Read for RetryReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut retries = 0u32;
        loop {
            match self.inner.read(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_transient(e.kind()) => {
                    if retries >= self.policy.max_retries {
                        if literace_telemetry::enabled() {
                            literace_telemetry::metrics().log_retry_exhausted.add(1);
                        }
                        return Err(e);
                    }
                    if literace_telemetry::enabled() {
                        literace_telemetry::metrics().log_retry_attempts.add(1);
                    }
                    let delay = self.policy.base_delay * 2u32.saturating_pow(retries);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Error};

    /// A policy that never sleeps.
    fn immediate(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_delay: std::time::Duration::ZERO,
        }
    }

    /// Yields errors from a script before each successful read.
    struct Flaky {
        data: Cursor<Vec<u8>>,
        script: Vec<ErrorKind>,
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.script.pop() {
                Some(kind) => Err(Error::new(kind, "injected")),
                None => self.data.read(buf),
            }
        }
    }

    #[test]
    fn transient_errors_within_budget_are_absorbed() {
        let flaky = Flaky {
            data: Cursor::new(vec![1, 2, 3]),
            script: vec![
                ErrorKind::WouldBlock,
                ErrorKind::TimedOut,
                ErrorKind::Interrupted,
                ErrorKind::WouldBlock,
            ],
        };
        let mut reader = RetryReader::new(flaky, immediate(3));
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_error() {
        let flaky = Flaky {
            data: Cursor::new(vec![1]),
            script: vec![ErrorKind::WouldBlock; 5],
        };
        let mut reader = RetryReader::new(flaky, immediate(2));
        let err = reader.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn interrupted_never_consumes_the_budget() {
        let flaky = Flaky {
            data: Cursor::new(vec![7]),
            script: vec![ErrorKind::Interrupted; 50],
        };
        let mut reader = RetryReader::new(flaky, immediate(0));
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn hard_errors_pass_straight_through() {
        let flaky = Flaky {
            data: Cursor::new(vec![1]),
            script: vec![ErrorKind::UnexpectedEof],
        };
        let mut reader = RetryReader::new(flaky, immediate(9));
        let err = reader.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }
}
