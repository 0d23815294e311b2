//! Zero-copy file ingest for the parallel decode pool.
//!
//! [`map_or_read`] produces the [`Bytes`] buffer that
//! [`RecordStream::spawn_bytes`](crate::RecordStream::spawn_bytes) slices
//! block payloads out of without copying. With the `mmap` feature enabled
//! on x86_64 Linux the buffer is a private read-only memory map made with
//! raw `mmap`/`munmap` syscalls (the workspace vendors all dependencies,
//! so no `memmap2`); the mapping is owned by the `Bytes` via
//! [`Bytes::from_owner`] and unmapped when the last slice drops. On other
//! targets — or if the map fails — the file is read into memory instead,
//! which preserves the API but costs one copy.
//!
//! Mapping a file that another process truncates mid-read is undefined
//! behaviour on every mmap implementation (`SIGBUS`); LiteRace logs are
//! written via [`AtomicFile`](crate::AtomicFile) rename-into-place, so a
//! visible log is never mutated.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use bytes::Bytes;

use crate::error::{LogError, LogResult};

/// Loads `path` as a [`Bytes`] buffer for
/// [`RecordStream::spawn_bytes`](crate::RecordStream::spawn_bytes):
/// memory-mapped when the `mmap` feature is active on a supported target,
/// read into memory otherwise.
///
/// # Errors
///
/// Returns [`LogError::Io`] when the file cannot be opened or read. A
/// failed *map* is not an error — it falls back to reading.
pub fn map_or_read(path: impl AsRef<Path>) -> LogResult<Bytes> {
    let mut file = File::open(path.as_ref()).map_err(LogError::Io)?;
    let len = file.metadata().map_err(LogError::Io)?.len();
    #[cfg(all(feature = "mmap", target_os = "linux", target_arch = "x86_64"))]
    if let Some(map) = sys::Mmap::map(&file, len) {
        return Ok(Bytes::from_owner(map));
    }
    let mut buf = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
    file.read_to_end(&mut buf).map_err(LogError::Io)?;
    Ok(Bytes::from(buf))
}

/// True when [`map_or_read`] can actually map on this build and target
/// (feature enabled, x86_64 Linux).
pub fn mmap_supported() -> bool {
    cfg!(all(feature = "mmap", target_os = "linux", target_arch = "x86_64"))
}

#[cfg(all(feature = "mmap", target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::fs::File;
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 0x1;
    const MAP_PRIVATE: usize = 0x2;
    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;

    /// A private read-only mapping of a whole file, unmapped on drop.
    pub(super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is immutable (PROT_READ, MAP_PRIVATE) and the pointer
    // is valid for `len` bytes until drop, so shared access is safe.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `file` (of size `len`); `None` when the kernel refuses or
        /// the size does not fit an `usize` (fall back to reading).
        pub(super) fn map(file: &File, len: u64) -> Option<Mmap> {
            let len = usize::try_from(len).ok()?;
            if len == 0 {
                // mmap rejects zero-length maps; an empty Bytes works.
                return Some(Mmap {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            let fd = file.as_raw_fd();
            let ret: usize;
            // SAFETY: plain mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)
            // syscall; rcx/r11 are clobbered by the syscall instruction.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MMAP => ret,
                    in("rdi") 0usize,
                    in("rsi") len,
                    in("rdx") PROT_READ,
                    in("r10") MAP_PRIVATE,
                    in("r8") fd as usize,
                    in("r9") 0usize,
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
            }
            // Errors come back as -errno in the last page of the address
            // space, a region no real mapping can occupy.
            if ret > usize::MAX - 4095 {
                return None;
            }
            Some(Mmap {
                ptr: ret as *const u8,
                len,
            })
        }
    }

    impl AsRef<[u8]> for Mmap {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: ptr is valid for len bytes for the mapping's
            // lifetime (or dangling with len == 0, a valid empty slice).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len == 0 {
                return;
            }
            // SAFETY: unmapping exactly what map() mapped. The return
            // value is ignored — there is no recovery from a failed
            // munmap, and leaking the pages is the safe direction.
            unsafe {
                let _ret: usize;
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MUNMAP => _ret,
                    in("rdi") self.ptr as usize,
                    in("rsi") self.len,
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, SamplerMask};
    use crate::writer::encode_v2;
    use literace_sim::{Addr, FuncId, Pc, ThreadId};

    fn scratch(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "literace-mmap-{}-{name}.bin",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn map_or_read_round_trips_a_log() {
        let records: Vec<Record> = (0..5000)
            .map(|i| Record::Mem {
                tid: ThreadId::from_index(i % 3),
                pc: Pc::new(FuncId::from_index(i % 5), i),
                addr: Addr::global((i % 7) as u64),
                is_write: i % 2 == 0,
                mask: SamplerMask::bit(0),
            })
            .collect();
        let bytes = encode_v2(&records);
        let path = scratch("roundtrip", &bytes);
        let buf = map_or_read(&path).unwrap();
        assert_eq!(&buf[..], &bytes[..]);
        let stream = crate::RecordStream::spawn_bytes(
            buf,
            crate::stream::DecodeOpts::with_threads(4),
        )
        .unwrap();
        let decoded: Vec<Record> = stream.flat_map(|b| b.unwrap()).collect();
        assert_eq!(decoded, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn map_or_read_handles_an_empty_file() {
        let path = scratch("empty", b"");
        let buf = map_or_read(&path).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = map_or_read("/nonexistent/literace-definitely-missing").unwrap_err();
        assert!(matches!(err, LogError::Io(_)));
    }
}
