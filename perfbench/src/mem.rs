//! Process memory from `/proc/self/status`. There is no fallback: on a
//! platform without procfs the benchmark stops rather than report 0.

/// Resident-set figures of this process, in MiB.
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    /// Peak resident set (`VmHWM`).
    pub peak_mb: f64,
    /// Current resident set (`VmRSS`).
    pub rss_mb: f64,
}

/// Reads `VmHWM` and `VmRSS`, panicking when procfs is unavailable.
pub fn read() -> Memory {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak_rss_mb needs /proc/self/status (Linux procfs); refusing to report 0");
    parse(&status).expect("/proc/self/status lacks VmHWM or VmRSS")
}

/// Parses the `VmHWM` and `VmRSS` lines (kB) of a status file.
pub fn parse(status: &str) -> Option<Memory> {
    let field = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb: f64 = line[key.len()..]
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    };
    Some(Memory {
        peak_mb: field("VmHWM:")?,
        rss_mb: field("VmRSS:")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines() {
        let m = parse("Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n").unwrap();
        assert_eq!(m.peak_mb, 200.0);
        assert_eq!(m.rss_mb, 100.0);
        assert!(parse("VmRSS: 1 kB\n").is_none());
    }

    #[test]
    fn reads_this_process() {
        let m = read();
        assert!(m.peak_mb > 0.0 && m.rss_mb > 0.0 && m.peak_mb >= m.rss_mb);
    }
}
