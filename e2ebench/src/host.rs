//! Host fingerprint, peak memory, and the run's private work directory.

use mlc_telemetry::bench_report::EnvInfo;
use mlc_telemetry::json::JsonValue;
use std::path::{Path, PathBuf};

/// Where every run keeps its private state, relative to the directory the
/// benchmark is started from (the repository root).
pub const WORK_ROOT: &str = ".bench_work";

/// The run's private directory under [`WORK_ROOT`]. It is removed when the
/// guard drops, which also happens while a panic unwinds, so no exit path
/// leaves a cache directory behind.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create a fresh directory for this process.
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let path = Path::new(WORK_ROOT).join(format!("run-{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self {
            path: std::fs::canonicalize(&path)?,
        })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.path) {
            eprintln!("e2ebench: cannot remove {}: {e}", self.path.display());
        }
    }
}

/// Make the process allocate from one malloc arena. The serve workload
/// starts a fresh server, with fresh threads, every round; with per-thread
/// arenas its peak memory then depends on which arena each new thread
/// happens to get (18 MiB or 22 MiB for the same stream), with one it
/// measures the live data. Returns whether the allocator accepted.
pub fn single_malloc_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            // glibc: int mallopt(int param, int value); 1 on success.
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own settings; it runs before any thread is spawned.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Return freed heap memory to the system and restart the process's peak
/// resident set size (`VmHWM`) at its current size, so that the next
/// [`peak_rss_mb`] covers only what runs in between. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            // glibc: int malloc_trim(size_t pad);
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    // "5" resets the peak RSS counter (proc(5), /proc/pid/clear_refs).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Everything needed to tell whether two results are comparable.
/// `rss_per_round` says whether the peak memory could be reset per round;
/// when not, it is the process's peak.
pub fn fingerprint(
    workload: &str,
    seed: u64,
    (one_arena, rss_per_round): (bool, bool),
    work: &Path,
) -> JsonValue {
    let env = EnvInfo::capture();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    JsonValue::object(vec![
        ("workload", JsonValue::from(workload)),
        ("seed", JsonValue::from(seed)),
        ("threads", JsonValue::from(1u64)),
        (
            "malloc_arenas",
            JsonValue::from(if one_arena { "1" } else { "default" }),
        ),
        ("peak_rss_per_round", JsonValue::from(rss_per_round)),
        ("cores", JsonValue::from(cores)),
        ("cpu", JsonValue::from(cpu_model())),
        ("host", JsonValue::from(env.host)),
        ("rustc", JsonValue::from(env.rustc)),
        ("profile", JsonValue::from(env.profile)),
        ("commit", JsonValue::from(env.commit)),
        ("cache_fs", JsonValue::from(filesystem_of(work))),
    ])
}
