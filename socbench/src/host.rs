//! Host fingerprint (CPU model, core count, rustc version, commit) and
//! peak resident memory. The fingerprint is recorded next to every
//! result so numbers from different machines are never compared by
//! accident.

use std::process::Command;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name.
    cpu: String,
    /// Hardware threads available to this process.
    nproc: usize,
    /// `rustc --version`.
    rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    commit: String,
}

impl Fingerprint {
    /// Probes the host.
    pub fn probe() -> Self {
        Fingerprint {
            cpu: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            nproc: nproc(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cpu\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            escape(&self.cpu),
            self.nproc,
            escape(&self.rustc),
            escape(&self.commit)
        )
    }
}

/// Hardware threads available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// First stdout line of a command run in the current directory, which
/// is waited for. Git is stopped from searching above the current
/// directory, so a checkout outside any repository reports `unknown`.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_string_lossy().into_owned()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()?
        .trim()
        .to_string();
    (!line.is_empty()).then_some(line)
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); 0.0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
