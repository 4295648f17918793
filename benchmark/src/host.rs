//! What the harness reads from, and does to, the machine it runs on:
//! process CPU time, peak RSS, core count, the scratch directory, the
//! environment scrub, and the two host-drift probes (`bench.calib_ms`,
//! `bench.wake_us`). Linux only, like the daemon's unix socket.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads /proc and calls clock_gettime with the 64-bit Linux timespec layout"
);

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The knobs that silently change option defaults inside the library
/// (`DegreeDiscountedOptions::default()` and friends read them). The
/// harness removes them at start so the caller's shell cannot change what
/// is measured; `replay` sets them, one at a time, to select kernel
/// variants the way a user would.
const SYMCLUST_ENV: [&str; 4] = [
    "SYMCLUST_THREADS",
    "SYMCLUST_ACCUM",
    "SYMCLUST_PANEL_ROWS",
    "SYMCLUST_MEMORY_BUDGET",
];

/// Removes every `SYMCLUST_*` knob from this process's environment.
/// Called first thing in `main`, before any thread exists.
pub fn scrub_env() {
    for name in SYMCLUST_ENV {
        std::env::remove_var(name);
    }
}

/// Restarts this program with `MALLOC_ARENA_MAX=1` unless it is set.
///
/// glibc gives every thread its own malloc arena, and which arena a large
/// temporary lands in decides whether its pages go back to the OS: the
/// daemon's peak RSS moved between 97 and 192 MiB from run to run on one
/// build and one seed. With one arena it repeats to ±1.5 %, and no
/// timing moved. glibc reads the variable at start-up only, hence the
/// `exec` (same pid, no child process). The setting is the same on both
/// sides of every comparison.
pub fn single_malloc_arena(args: &[String]) {
    use std::os::unix::process::CommandExt;
    const VAR: &str = "MALLOC_ARENA_MAX";
    if std::env::var_os(VAR).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let error = std::process::Command::new(exe)
        .args(args)
        .env(VAR, "1")
        .exec();
    eprintln!("symclust-benchmark: could not restart with {VAR}=1: {error}");
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) this process has consumed so far, summed
/// over all its threads, living and exited, at nanosecond resolution.
/// `/proc/self/stat` has the same figure in 10 ms ticks, which is too
/// coarse to bracket single ops.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through
    // the pointer, `ts` is a live, properly aligned value of the layout
    // 64-bit Linux uses for it (two `i64`s), and the call has no other
    // effect. std links libc, so the symbol resolves without a crate.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where this run's scratch files, daemon socket and store live.
///
/// The driver's contract confines the benchmark to its checkout, so the
/// directory sits beside the executable, under the cargo target
/// directory (`target/benchmark` or the driver's `.bench_build`), never
/// under `/dev/shm` or the OS temp dir. It is removed on drop.
pub struct Scratch {
    /// The build directory (`<target-dir>`): traces are written here.
    pub out_dir: PathBuf,
    /// `<target-dir>/scratch-<pid>`, made relative to the working
    /// directory when it lies below it, so a unix socket path inside it
    /// stays under the 108-byte `sun_path` limit in a deep checkout.
    pub dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // <target-dir>/release/symclust-benchmark
        let out_dir = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("executable has no target directory above it")?
            .to_path_buf();
        let abs = out_dir.join(format!("scratch-{}", std::process::id()));
        let dir = match std::env::current_dir() {
            Ok(cwd) => abs
                .strip_prefix(&cwd)
                .map_or(abs.clone(), Path::to_path_buf),
            Err(_) => abs,
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // The panel path's spill files go to the OS temp dir unless told
        // otherwise; keep them inside the checkout too.
        std::env::set_var("TMPDIR", std::fs::canonicalize(&dir).unwrap_or(dir.clone()));
        Ok(Scratch { out_dir, dir })
    }

    /// Filesystem type of the scratch directory, from `/proc/mounts`
    /// (longest mount point that prefixes the path), for the info line.
    pub fn fs_type(&self) -> String {
        let Ok(abs) = std::fs::canonicalize(&self.dir) else {
            return "unknown".to_string();
        };
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
                abs.starts_with(point).then_some((point.len(), fs))
            })
            .max_by_key(|&(len, _)| len)
            .map_or("unknown".to_string(), |(_, fs)| fs.to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `bench.calib_ms`: a fixed arithmetic + scatter loop (≈ 200 ms on the
/// reference host) that touches no library code. Run at the start and
/// the end of a traced run, it tells a host that got slower from a
/// program that got slower; it is reported, never used to normalise.
pub fn calib_ms() -> f64 {
    const SLOTS: usize = 1 << 22; // 32 MiB of u64: larger than L2, so the scatter misses
    const STEPS: usize = 20_000_000;
    let start = Instant::now();
    let mut table = vec![0u64; SLOTS];
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (SLOTS - 1);
        table[slot] = table[slot].wrapping_add(x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// `bench.wake_us`: median time of one token pass between two threads
/// over a unix socket pair, the same wake-up a `query-membership` round
/// trip is mostly made of. A jump here with `cli.parse_request_us` flat
/// is the host, not the program.
pub fn wake_us(passes: usize) -> f64 {
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    let echo = std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        while b.read_exact(&mut byte).is_ok() {
            if b.write_all(&byte).is_err() {
                break;
            }
        }
    });
    let mut samples = Vec::with_capacity(passes);
    let mut byte = [7u8; 1];
    for _ in 0..passes {
        let t = Instant::now();
        a.write_all(&byte).expect("wake probe write");
        a.read_exact(&mut byte).expect("wake probe read");
        // One round trip is two passes.
        samples.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    drop(a);
    echo.join().expect("wake probe echo thread");
    crate::stats::median(&samples)
}
