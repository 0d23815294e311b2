//! Directory layout for per-thread log files.
//!
//! The paper's instrumentation writes one buffer per thread and the offline
//! detector consumes the set (§4.1, §4.4). These helpers define the on-disk
//! convention — `thread<N>.lrlog` inside a run directory — and the reader
//! that reconstructs the `(ThreadId, EventLog)` pairs the detector's merge
//! expects.

use std::fs::File;
use std::path::{Path, PathBuf};

use literace_sim::ThreadId;

use crate::error::{LogError, LogResult};
use crate::record::EventLog;
use crate::stream::read_log_auto;
use crate::writer::LogWriterV2;

/// File name for one thread's log.
fn thread_file_name(tid: ThreadId) -> String {
    format!("thread{}.lrlog", tid.index())
}

/// Writes per-thread logs into `dir` (created if missing), one v2
/// `thread<N>.lrlog` per entry. Returns the paths written.
///
/// # Errors
///
/// Propagates I/O errors; previously existing thread files in the directory
/// are overwritten.
pub fn write_thread_logs(
    dir: &Path,
    logs: &[(ThreadId, EventLog)],
) -> LogResult<Vec<PathBuf>> {
    std::fs::create_dir_all(dir).map_err(LogError::Io)?;
    let mut paths = Vec::with_capacity(logs.len());
    for (tid, log) in logs {
        let path = dir.join(thread_file_name(*tid));
        let mut w = LogWriterV2::new(File::create(&path).map_err(LogError::Io)?);
        for r in log {
            w.write_record(r)?;
        }
        w.finish()?;
        paths.push(path);
    }
    Ok(paths)
}

/// Reads every `thread<N>.lrlog` in `dir`, returning `(tid, log)` pairs
/// sorted by thread id.
///
/// # Errors
///
/// Returns [`LogError::Io`] on filesystem problems and
/// [`LogError::Corrupt`] for malformed files or file names.
pub fn read_thread_logs(dir: &Path) -> LogResult<Vec<(ThreadId, EventLog)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(LogError::Io)? {
        let entry = entry.map_err(LogError::Io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("thread").and_then(|s| s.strip_suffix(".lrlog"))
        else {
            continue;
        };
        let index: usize = stem.parse().map_err(|_| {
            LogError::corrupt(format!("bad thread log file name `{name}`"))
        })?;
        let log = read_log_auto(File::open(entry.path()).map_err(LogError::Io)?)?;
        out.push((ThreadId::from_index(index), log));
    }
    out.sort_by_key(|(tid, _)| *tid);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, SamplerMask};
    use literace_sim::{Addr, FuncId, Pc};

    fn sample_logs() -> Vec<(ThreadId, EventLog)> {
        (0..3usize)
            .map(|t| {
                let tid = ThreadId::from_index(t);
                let log: EventLog = (0..(t + 1) * 4)
                    .map(|i| Record::Mem {
                        tid,
                        pc: Pc::new(FuncId::from_index(0), i),
                        addr: Addr::global(i as u64),
                        is_write: true,
                        mask: SamplerMask::FULL,
                    })
                    .collect();
                (tid, log)
            })
            .collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("literace_log_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        let logs = sample_logs();
        let paths = write_thread_logs(&dir, &logs).unwrap();
        assert_eq!(paths.len(), 3);
        let back = read_thread_logs(&dir).unwrap();
        assert_eq!(back, logs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrelated_files_are_ignored() {
        let dir = std::env::temp_dir().join("literace_log_dir_test2");
        let _ = std::fs::remove_dir_all(&dir);
        let logs = sample_logs();
        write_thread_logs(&dir, &logs).unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a log").unwrap();
        let back = read_thread_logs(&dir).unwrap();
        assert_eq!(back.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let err = read_thread_logs(Path::new("/nonexistent/literace")).unwrap_err();
        assert!(matches!(err, LogError::Io(_)));
    }
}
