//! The process environment the benchmark pins and probes: CPU time, peak
//! memory, a microsecond-resolution `ppoll`, where fsync lands and what it
//! costs there.
//!
//! Direct libc declarations, the same way `recraft_net::poll` does it: the
//! offline toolchain has no `libc` crate and std already links the platform
//! libc. `ppoll` rather than that module's `poll(2)` because an open-loop
//! generator at 8 000 op/s cannot live with a 1 ms timeout granularity.

use std::fs::{self, File};
use std::io::Write;
use std::os::unix::io::RawFd;
use std::path::Path;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Blocks until one of `fds` is ready or `timeout` passes (nanosecond
/// timeout, so sub-millisecond due times are honoured). Returns how many
/// fds reported events; an interrupted wait counts as a timeout.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> usize {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd-layout records and its length is passed alongside; `ts` lives
    // across the call; a null sigmask is allowed and means "unchanged".
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    usize::try_from(rc).unwrap_or(0)
}

/// Lowers the calling thread's timer slack from the default 50 µs to 1 µs,
/// so a `poll` timeout fires when the next arrival is due, not a slack later.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer argument and touches
    // only the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// User + system CPU time this process has consumed so far.
pub fn cpu_time() -> Duration {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a correctly sized and aligned `struct rusage` for
    // 64-bit Linux that the call fills; RUSAGE_SELF is always valid.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, (t.tv_usec * 1000) as u32);
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}

/// Peak resident set size of this process (`VmHWM` of `/proc/self/status`),
/// in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type mounted at (the longest mount-point prefix of)
/// `path`, from `/proc/self/mounts`.
pub fn fs_type_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// Median cost of one 512-byte append + `fdatasync` in `dir`, over
/// `samples` probes, in microseconds — the floor under every `wal` commit.
pub fn fsync_probe_us(dir: &Path, samples: usize) -> f64 {
    let path = dir.join("fsync-probe.bin");
    let mut file = File::create(&path).expect("create fsync probe file");
    let block = [0xA5u8; 512];
    let mut costs: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            file.write_all(&block).expect("probe write");
            file.sync_data().expect("probe fdatasync");
            t.elapsed().as_nanos()
        })
        .collect();
    drop(file);
    let _ = fs::remove_file(&path);
    costs.sort_unstable();
    costs[costs.len() / 2] as f64 / 1000.0
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Pins thread `tid` (0 = the caller) to `cpu`. Best effort: placement is a
/// steadiness aid, not a correctness requirement.
pub fn pin_thread(tid: i32, cpu: usize) {
    let mut mask = [0u64; 16]; // cpu_set_t: 1024 bits
    mask[(cpu / 64) % 16] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte cpu_set_t-sized bitmap and its size
    // is passed alongside; the call only changes scheduler placement.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Pins this process's threads whose name starts with `prefix` round-robin
/// over the cpus, in (name, thread id) order — creation order for the
/// runtime's workers, whose 16-character names the kernel truncates alike.
pub fn pin_threads_named(prefix: &str, cpus: usize) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    let mut found: Vec<(String, i32)> = tasks
        .flatten()
        .filter_map(|t| {
            let name = fs::read_to_string(t.path().join("comm")).ok()?;
            let tid = t.file_name().to_string_lossy().parse().ok()?;
            name.starts_with(prefix)
                .then(|| (name.trim().to_string(), tid))
        })
        .collect();
    found.sort();
    for (i, (_, tid)) in found.iter().enumerate() {
        pin_thread(*tid, i % cpus.max(1));
    }
}
