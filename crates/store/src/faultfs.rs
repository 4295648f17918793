//! The filesystem shim every disk-store I/O call goes through.
//!
//! In a normal build each function here is a zero-cost passthrough to
//! `std::fs`. Under the `fault-injection` cargo feature the shim also
//! consults a process-global, schedule-deterministic
//! [`FaultSpec`](symclust_engine::faultplan::FaultSpec): every mediated
//! syscall increments a global operation counter, and the spec names which
//! operation misbehaves and how — a torn write (seeded prefix, then
//! `abort()`), a short read, a one-shot `EIO`/`ENOSPC`, a persistently
//! full disk, or a plain crash at the syscall boundary. Because the
//! counter advances identically on every run of the same workload, "fault
//! at operation 17" names the same syscall every time; there is no RNG and
//! no clock anywhere in the schedule (see the `cache-key-purity` lint).
//!
//! The spec is armed either programmatically ([`arm`]/[`reset`], for unit
//! tests) or from the `SYMCLUST_FAULTFS` environment variable (for child
//! daemons spawned by the `symclust chaos` harness), parsed once on first
//! use. A malformed spec aborts the process loudly — a chaos run that
//! silently injected nothing would be worse than one that failed.
//!
//! Clippy enforces (`disallowed-methods` / `disallowed-types` in
//! `crates/store/clippy.toml`) that no other file in `crates/store`
//! touches `std::fs` directly, so a fault schedule really does see *every*
//! filesystem operation the store performs.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the FaultFs shim is the single mediation point; raw calls live only here"
)]

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Whether this build can inject faults (`fault-injection` feature).
/// The chaos harness checks this and refuses to run a lying experiment.
pub const INJECTION_COMPILED: bool = cfg!(feature = "fault-injection");

/// Classifies a mediated syscall for the schedule: persistent `ENOSPC`
/// only hits mutating operations (a full disk still serves reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Mutate,
}

/// Reads a whole file (short-read injectable).
pub(crate) fn read(path: &Path) -> io::Result<Vec<u8>> {
    let verdict = gate(OpKind::Read, None)?;
    let bytes = fs::read(path)?;
    if let Some(op) = verdict {
        let keep = short_keep(op, bytes.len());
        return Ok(bytes[..keep].to_vec());
    }
    Ok(bytes)
}

/// Reads a whole file as UTF-8 (short-read injectable; the prefix is
/// clamped to a char boundary so the injected fault is "truncated", not
/// "undecodable", matching what a real short read of ASCII JSON yields).
pub(crate) fn read_to_string(path: &Path) -> io::Result<String> {
    let verdict = gate(OpKind::Read, None)?;
    let text = fs::read_to_string(path)?;
    if let Some(op) = verdict {
        let mut keep = short_keep(op, text.len());
        while keep > 0 && !text.is_char_boundary(keep) {
            keep -= 1;
        }
        return Ok(text[..keep].to_string());
    }
    Ok(text)
}

/// Creates/truncates `path` with `contents`, no fsync (torn-write
/// injectable: a crash here leaves a seeded prefix on disk).
pub(crate) fn write(path: &Path, contents: &[u8]) -> io::Result<()> {
    if let Some(keep) = gate(OpKind::Mutate, Some(contents.len()))? {
        torn_write_and_abort(path, &contents[..keep.min(contents.len())]);
    }
    fs::write(path, contents)
}

/// Creates `path`, writes `contents`, and fsyncs — the blob publication
/// write. Counts as three schedulable operations (create, write, fsync),
/// so a crash-point can land between any two of the real syscalls.
pub(crate) fn write_sync(path: &Path, contents: &[u8]) -> io::Result<()> {
    gate(OpKind::Mutate, None)?; // create
    let mut f = fs::File::create(path)?;
    if let Some(keep) = gate(OpKind::Mutate, Some(contents.len()))? {
        let _ = f.write_all(&contents[..keep.min(contents.len())]);
        let _ = f.sync_all();
        drop(f);
        std::process::abort();
    }
    f.write_all(contents)?;
    gate(OpKind::Mutate, None)?; // fsync
    f.sync_all()
}

/// Renames `from` to `to` (the atomic publication step).
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    gate(OpKind::Mutate, None)?;
    fs::rename(from, to)
}

/// Removes a file (eviction, temp sweep, quarantine fallback).
pub(crate) fn remove_file(path: &Path) -> io::Result<()> {
    gate(OpKind::Mutate, None)?;
    fs::remove_file(path)
}

/// Recursively creates a directory.
pub(crate) fn create_dir_all(path: &Path) -> io::Result<()> {
    gate(OpKind::Mutate, None)?;
    fs::create_dir_all(path)
}

/// Lists a directory.
pub(crate) fn read_dir(path: &Path) -> io::Result<fs::ReadDir> {
    gate(OpKind::Read, None)?;
    fs::read_dir(path)
}

/// Stats a file.
pub(crate) fn metadata(path: &Path) -> io::Result<fs::Metadata> {
    gate(OpKind::Read, None)?;
    fs::metadata(path)
}

/// Fsyncs a directory, making a completed rename inside it durable.
pub(crate) fn sync_dir(path: &Path) -> io::Result<()> {
    gate(OpKind::Mutate, None)?;
    fs::File::open(path)?.sync_all()
}

/// Writes `prefix` in place of the full payload, flushes it as far as the
/// OS, and aborts — the torn-write crash-point.
#[cfg(feature = "fault-injection")]
fn torn_write_and_abort(path: &Path, prefix: &[u8]) -> ! {
    let _ = fs::write(path, prefix);
    std::process::abort();
}

#[cfg(not(feature = "fault-injection"))]
fn torn_write_and_abort(_path: &Path, _prefix: &[u8]) -> ! {
    unreachable!("fault verdicts are never produced without the fault-injection feature")
}

/// Consults the armed schedule for the next operation. `Ok(None)` means
/// proceed normally; `Ok(Some(x))` means a prefix-length fault fired —
/// for mutating ops `x` is the torn-write prefix length (the caller
/// writes the prefix and aborts), for reads `x` is the operation number
/// (the caller derives the kept prefix from the actual content length via
/// [`short_keep`]); `Err` is an injected errno. Crashes without
/// associated data abort right here.
#[cfg(feature = "fault-injection")]
fn gate(kind: OpKind, data_len: Option<usize>) -> io::Result<Option<usize>> {
    injection::gate(kind, data_len)
}

#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
fn gate(_kind: OpKind, _data_len: Option<usize>) -> io::Result<Option<usize>> {
    Ok(None)
}

/// The number of bytes a short read of operation `op` keeps out of `len`.
#[cfg(feature = "fault-injection")]
fn short_keep(op: usize, len: usize) -> usize {
    injection::short_keep(op, len)
}

#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
fn short_keep(_op: usize, len: usize) -> usize {
    len
}

#[cfg(feature = "fault-injection")]
pub use injection::{arm, op_count, reset};

/// Serializes tests that arm the process-global schedule (shared with the
/// disk-store fault tests; armed schedules must never interleave).
#[cfg(all(test, feature = "fault-injection"))]
pub(crate) static FAULT_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "fault-injection")]
mod injection {
    use super::OpKind;
    use std::io;
    use std::sync::{Mutex, OnceLock, PoisonError};
    use symclust_engine::faultplan::FaultSpec;

    struct State {
        spec: Option<FaultSpec>,
        counter: u64,
    }

    fn state() -> &'static Mutex<State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE.get_or_init(|| {
            let spec = match std::env::var("SYMCLUST_FAULTFS") {
                Ok(text) => match FaultSpec::parse(&text) {
                    Ok(spec) => Some(spec),
                    Err(e) => {
                        eprintln!("symclust-store: bad SYMCLUST_FAULTFS spec {text:?}: {e}");
                        std::process::abort();
                    }
                },
                Err(_) => None,
            };
            Mutex::new(State { spec, counter: 0 })
        })
    }

    fn lock() -> std::sync::MutexGuard<'static, State> {
        state().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `spec` programmatically (unit tests), resetting the operation
    /// counter so schedules are relative to the arming point.
    pub fn arm(spec: FaultSpec) {
        let mut st = lock();
        st.spec = Some(spec);
        st.counter = 0;
    }

    /// Disarms any schedule (environment-derived or programmatic).
    pub fn reset() {
        let mut st = lock();
        st.spec = None;
        st.counter = 0;
    }

    /// The number of mediated operations seen since the last arm/reset
    /// (or process start). Lets tests discover schedule offsets instead
    /// of hard-coding them.
    pub fn op_count() -> u64 {
        lock().counter
    }

    pub(super) fn gate(kind: OpKind, data_len: Option<usize>) -> io::Result<Option<usize>> {
        let mut st = lock();
        let Some(spec) = st.spec else {
            return Ok(None);
        };
        let n = st.counter;
        st.counter += 1;
        drop(st);
        if spec.crash_at == Some(n) {
            match (kind, data_len) {
                // Torn write: the caller writes a seeded prefix, then aborts.
                (OpKind::Mutate, Some(len)) => return Ok(Some(spec.torn_prefix_len(n, len))),
                _ => std::process::abort(),
            }
        }
        if let Some((k, errno)) = spec.err_at {
            if k == n {
                return Err(io::Error::from_raw_os_error(errno.raw_os_error()));
            }
        }
        if let Some(k) = spec.enospc_after {
            if n >= k && kind == OpKind::Mutate {
                return Err(io::Error::from_raw_os_error(28));
            }
        }
        if let Some(k) = spec.short_read_at {
            if k == n && kind == OpKind::Read {
                // The caller derives the kept prefix from the actual
                // content length via `short_keep(n, len)`.
                return Ok(Some(n as usize));
            }
        }
        Ok(None)
    }

    /// Derives the kept-prefix length for a short read of operation `op`
    /// over `len` content bytes (seeded, strictly shorter when `len > 0`).
    pub(super) fn short_keep(op: usize, len: usize) -> usize {
        match lock().spec {
            Some(spec) => spec.torn_prefix_len(op as u64, len),
            None => len,
        }
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use symclust_engine::faultplan::{FaultErrno, FaultSpec};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "symclust_faultfs_test_{}_{tag}_{n}",
            std::process::id()
        ))
    }

    #[test]
    fn err_at_fails_exactly_one_operation() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let path = temp_file("err_at");
        arm(FaultSpec {
            err_at: Some((1, FaultErrno::Eio)),
            ..FaultSpec::default()
        });
        write(&path, b"one").unwrap(); // op 0
        let err = write(&path, b"two").unwrap_err(); // op 1: injected
        assert_eq!(err.raw_os_error(), Some(5));
        write(&path, b"three").unwrap(); // op 2: back to normal
        assert_eq!(read(&path).unwrap(), b"three"); // op 3
        assert_eq!(op_count(), 4);
        reset();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enospc_after_fails_mutations_but_not_reads() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let path = temp_file("enospc");
        arm(FaultSpec {
            enospc_after: Some(1),
            ..FaultSpec::default()
        });
        write(&path, b"before the disk filled").unwrap(); // op 0
        let err = write(&path, b"after").unwrap_err(); // op 1
        assert_eq!(err.raw_os_error(), Some(28));
        // Reads keep working on the full disk, and the old contents are
        // intact (the failed write never touched the file).
        assert_eq!(read(&path).unwrap(), b"before the disk filled");
        assert!(rename(&path, &temp_file("enospc2")).is_err());
        assert!(remove_file(&path).is_err());
        reset();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_read_returns_a_strict_prefix() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let path = temp_file("short_read");
        reset();
        write(&path, b"0123456789").unwrap();
        arm(FaultSpec {
            seed: 7,
            short_read_at: Some(0),
            ..FaultSpec::default()
        });
        let got = read(&path).unwrap();
        assert!(got.len() < 10, "short read not shortened: {got:?}");
        assert_eq!(&got[..], &b"0123456789"[..got.len()], "not a prefix");
        // Same schedule, same prefix: determinism.
        arm(FaultSpec {
            seed: 7,
            short_read_at: Some(0),
            ..FaultSpec::default()
        });
        assert_eq!(read(&path).unwrap(), got);
        reset();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_sync_counts_three_operations() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let path = temp_file("three_ops");
        arm(FaultSpec::default());
        write_sync(&path, b"payload").unwrap();
        assert_eq!(op_count(), 3, "create + write + fsync");
        reset();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unarmed_shim_is_a_passthrough() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        let dir = temp_file("passthrough_dir");
        create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        write_sync(&path, b"x").unwrap();
        assert!(metadata(&path).unwrap().is_file());
        assert_eq!(read_dir(&dir).unwrap().count(), 1);
        sync_dir(&dir).unwrap();
        let dest = dir.join("g");
        rename(&path, &dest).unwrap();
        assert_eq!(read_to_string(&dest).unwrap(), "x");
        remove_file(&dest).unwrap();
        assert_eq!(op_count(), 0, "unarmed operations are not counted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
