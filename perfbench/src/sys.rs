//! Host metadata and process memory readings.

/// What every result records about the machine it ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `available_parallelism()`.
    pub nproc: usize,
    /// Width of the library's global worker pool in this process.
    pub pool_width: usize,
    /// The disassembler's active kernel tier (`avx2`, `sse2`, …).
    pub kernel_tier: String,
}

/// The current host.
pub fn host() -> Host {
    Host {
        nproc: nproc(),
        pool_width: funseeker_pool::global().workers(),
        kernel_tier: format!("{:?}", funseeker_disasm::KernelTier::active()).to_ascii_lowercase(),
    }
}

impl Host {
    /// The metadata as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"pool_width\": {}, \"kernel_tier\": {}}}",
            self.nproc,
            self.pool_width,
            crate::json::quote(&self.kernel_tier)
        )
    }
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process
/// for `None`, in MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Largest peak resident set among this process's waited-for children
/// (`getrusage(RUSAGE_CHILDREN).ru_maxrss`), in MiB.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn children_peak_rss_mib() -> Option<f64> {
    const SYS_GETRUSAGE: i64 = 98;
    const RUSAGE_CHILDREN: i64 = -1;
    // `struct rusage` on x86-64 Linux: two `timeval`s (four longs),
    // then fourteen longs starting with `ru_maxrss` (KiB).
    let mut usage = [0i64; 18];
    let ret: i64;
    // SAFETY: `getrusage` writes one 144-byte `struct rusage` through
    // the pointer, and `usage` is 144 writable bytes that outlive the
    // call. The `syscall` instruction clobbers only rcx and r11, both
    // declared.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_GETRUSAGE => ret,
            in("rdi") RUSAGE_CHILDREN,
            in("rsi") usage.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then(|| usage[4] as f64 / 1024.0)
}

/// Unsupported target: no reading.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn children_peak_rss_mib() -> Option<f64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_readings_are_plausible() {
        let own = vm_hwm_mib(None).expect("/proc/self/status has VmHWM");
        assert!(own > 0.1 && own < 1e6, "{own}");
        let status = std::process::Command::new("true").status().expect("run true");
        assert!(status.success());
        let child = children_peak_rss_mib().expect("getrusage");
        assert!(child > 0.0 && child < 1e6, "{child}");
        let h = host();
        assert!(h.nproc >= 1 && h.pool_width >= 1 && !h.kernel_tier.is_empty());
        assert!(crate::json::parse(&h.json()).is_ok());
    }
}
