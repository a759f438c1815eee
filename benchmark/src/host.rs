//! Host truth: what the numbers were measured on and how much of the
//! machine the run really had. Everything comes from `/proc`; a missing
//! file reads as "unknown" or 0 rather than failing the run.

use std::fs;

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let fields: Vec<u64> = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_owned))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Self {
            // user nice system idle iowait irq softirq steal; guest time is
            // already inside user.
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of the machine's CPU time since `earlier` that the hypervisor
    /// gave to someone else.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}
