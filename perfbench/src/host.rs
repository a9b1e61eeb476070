//! The host stamp every result carries, and the process's peak memory.

use std::process::Command;

use htd_core::Json;

/// Where and with what a result was measured.
#[derive(Clone, Debug)]
pub struct Host {
    /// Commit of the measured tree: `HTD_COMMIT`, else the checkout's
    /// `git rev-parse HEAD`, else `unknown`.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Host {
        let read = |path: &str| {
            std::fs::read_to_string(path)
                .ok()
                .map(|s| s.trim().to_string())
        };
        Host {
            commit: std::env::var("HTD_COMMIT")
                .ok()
                .or_else(|| {
                    // only this checkout's own history, never an enclosing one
                    std::path::Path::new(".git")
                        .exists()
                        .then(|| command_line("git", &["rev-parse", "HEAD"]))
                        .flatten()
                })
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            kernel: read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("commit".into(), Json::Str(self.commit.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("kernel".into(), Json::Str(self.kernel.clone())),
        ])
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB; `NaN`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
