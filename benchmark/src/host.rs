//! What the host tells the benchmark: process CPU time, peak resident
//! set, hardware threads, toolchain. Every reader degrades to `None`
//! off Linux so the harness still runs (the metric is then reported
//! as a failed check rather than a made-up number).

use std::process::Command;

/// `sysconf(_SC_CLK_TCK)` on every Linux ABI the repo targets; `/proc`
/// reports utime/stime in these ticks.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process from the text of
/// `/proc/self/stat`. The command name (field 2) may contain spaces
/// and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// Peak resident set in MiB from the text of `/proc/self/status`
/// (`VmHWM:   123456 kB`).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

pub fn cpu_secs() -> Option<f64> {
    parse_stat_cpu_secs(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Recorded beside every result so numbers from different hosts are
/// never compared by accident.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub hardware_threads: usize,
    pub undersized_host: bool,
    pub simd_tier: &'static str,
}

impl HostInfo {
    pub fn probe(workers: usize) -> Self {
        let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
        HostInfo {
            hardware_threads,
            undersized_host: hardware_threads < workers,
            simd_tier: medvt_motion::cost::simd::tier().name(),
        }
    }
}

/// `rustc -V` of the toolchain on the path — a child process, so only
/// asked for when a result document is written.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (e2e (x) y) R 1 4242 4242 0 -1 4194304 812 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_cpu_secs(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_secs("garbage"), None);
        assert_eq!(parse_stat_cpu_secs("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kb() {
        let status = "Name:\te2e\nVmPeak:\t  999 kB\nVmHWM:\t   52224 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(51.0));
        assert_eq!(parse_vm_hwm_mb("Name:\te2e\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn live_readers_are_none_or_positive() {
        // `None` off Linux, a real number on it — never a panic.
        assert!(cpu_secs().is_none_or(|s| s >= 0.0));
        assert!(peak_rss_mb().is_none_or(|m| m > 0.0));
    }
}
