//! Process and machine readings from `/proc`, a seeded generator, and
//! order statistics.

use std::time::Instant;

/// `/proc/<pid>/stat` reports CPU time in clock ticks; Linux fixes the
/// user-visible tick rate at 100 Hz on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;
const PAGE_BYTES: u64 = 4096;

/// One reading of the process and of the machine.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub at: Instant,
    /// Process user+sys CPU, in seconds.
    pub cpu_s: f64,
    /// Resident set size, in bytes.
    pub rss_bytes: u64,
    /// Machine-wide CPU jiffies: (steal, total).
    pub steal: u64,
    pub total: u64,
}

impl Reading {
    pub fn now() -> Reading {
        let (steal, total) = machine_jiffies();
        Reading {
            at: Instant::now(),
            cpu_s: process_cpu_s(),
            rss_bytes: rss_bytes(),
            steal,
            total,
        }
    }
}

fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `)`: state is field 3, so utime (14) and stime (15) sit at
    // indexes 11 and 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_SEC
}

fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * PAGE_BYTES)
}

fn machine_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let total = values.iter().take(8).sum();
    (values.get(7).copied().unwrap_or(0), total)
}

/// Writes one byte per page of a `bytes`-long buffer, then frees it.
/// On a virtual machine whose memory the hypervisor backs lazily, the
/// first touch of a guest page costs a host fault; handing the process's
/// later allocations pages that are already backed keeps that one-off
/// cost out of the measured runs.
pub fn prefault(bytes: usize) {
    let mut buf = vec![0u8; bytes];
    for i in (0..bytes).step_by(PAGE_BYTES as usize) {
        buf[i] = 1;
    }
    std::hint::black_box(&buf);
}

/// The one-minute load average.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// splitmix64: the benchmark's inputs all come from one of these,
/// seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// A value in `[-2^31, 2^31)`.
    pub fn operand(&mut self) -> i64 {
        (self.next_u64() >> 32) as i64 - (1i64 << 31)
    }
}

/// The `q`-quantile (0..=1) of sorted samples, nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a handful of readings (interpolated for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
