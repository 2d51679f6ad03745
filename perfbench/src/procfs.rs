//! The process's own CPU time and peak resident set, read from Linux
//! `/proc/self/stat` and `/proc/self/status`.

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes this
/// user-visible `USER_HZ` at 100 on every architecture it reports to.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`:
/// `state` is field 3, `utime` field 14 and `stime` field 15.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// User plus system CPU seconds this process (all its threads, live and
/// exited) has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = cpu_ticks(&text).ok_or("malformed /proc/self/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = vm_hwm_kib(&text).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (doall-perf) R 1 4242 4242 0 -1 4194560 2771 0 0 0 \
                        731 52 0 0 20 0 3 0 123456 98304000 2048 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n";

    #[test]
    fn stat_sums_utime_and_stime() {
        assert_eq!(cpu_ticks(STAT), Some(731 + 52));
    }

    #[test]
    fn stat_command_names_may_hold_spaces_and_parentheses() {
        let odd = STAT.replace("(doall-perf)", "(a) b (c d)");
        assert_eq!(cpu_ticks(&odd), Some(783));
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(cpu_ticks("4242 (x) R 1 2 3"), None);
        assert_eq!(cpu_ticks("no parenthesis at all"), None);
        assert_eq!(cpu_ticks(&STAT.replace(" 731 ", " x ")), None);
    }

    const STATUS: &str = "Name:\tdoall-perfbench\nState:\tR (running)\nVmPeak:\t  420000 kB\n\
                          VmSize:\t  410000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n\
                          Threads:\t3\n";

    #[test]
    fn status_reads_vm_hwm() {
        assert_eq!(vm_hwm_kib(STATUS), Some(123_456));
    }

    #[test]
    fn status_without_vm_hwm_or_unit_is_rejected() {
        assert_eq!(vm_hwm_kib("Name:\tx\nVmRSS:\t5 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t5\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn this_process_can_be_read() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
