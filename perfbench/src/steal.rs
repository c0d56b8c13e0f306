//! Host-contention windows.
//!
//! On a shared virtual machine the hypervisor periodically runs other
//! guests on this guest's CPUs ("steal" time in `/proc/stat`). On a
//! 2-vCPU guest, bursts of steal lasted tens of seconds and slowed
//! multi-threaded ops by up to 1.7×, so they, not the program, set the
//! run-to-run spread.
//! A monitor thread samples the steal share of every `WINDOW` of a run;
//! the end-to-end metrics use the samples of the run's quieter half: the
//! windows with the least steal that together hold at least half of the
//! samples, plus every window tied with the last one taken. On a quiet
//! host most windows read no steal and tie, so little or nothing is
//! dropped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WINDOW_US: u32 = 250_000;
pub const WINDOW: Duration = Duration::from_micros(WINDOW_US as u64);

/// Microseconds since `start`, the time stamp of op and set-up records
/// (4 bytes each, so the benchmark's own records barely show in the
/// workload's peak RSS).
pub fn micros_since(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_micros()).unwrap_or(u32::MAX)
}

/// The host's cumulative CPU times from `/proc/stat` (user, nice,
/// system, idle, iowait, irq, softirq, steal, ...), in ticks.
pub fn cpu_ticks() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Share of CPU time stolen by other guests between two `cpu_ticks`
/// readings; 0 where the kernel does not report steal time.
pub fn steal_ratio(before: &[u64], after: &[u64]) -> f64 {
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = d.iter().sum();
    match d.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// Samples the steal share of consecutive windows from `origin` on.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Monitor {
    pub fn start(origin: Instant) -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut shares = Vec::new();
            let mut last = cpu_ticks();
            while !flag.load(Ordering::Relaxed) {
                let due = origin + WINDOW * (shares.len() as u32 + 1);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let now = cpu_ticks();
                shares.push(steal_ratio(&last, &now));
                last = now;
            }
            shares
        });
        Monitor { stop, thread }
    }

    /// Stop sampling; the steal share of every window so far.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap_or_default()
    }
}

/// Which windows form the quieter half of `counts` samples per window.
pub fn quiet_windows(steal: &[f64], counts: &[usize]) -> Vec<bool> {
    let total: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| share(steal, a).total_cmp(&share(steal, b)));
    let mut cut = f64::INFINITY;
    let mut held = 0;
    for &w in &order {
        if held * 2 >= total {
            break;
        }
        held += counts[w];
        cut = share(steal, w);
    }
    (0..counts.len()).map(|w| share(steal, w) <= cut).collect()
}

/// A window past the last sample (the run's tail) counts as unknown,
/// which sorts it after every sampled window.
fn share(steal: &[f64], w: usize) -> f64 {
    steal.get(w).copied().unwrap_or(f64::INFINITY)
}

/// The window a time stamp falls in.
pub fn window_of(at_us: u32) -> usize {
    (at_us / WINDOW_US) as usize
}

/// Keep the items whose time stamp falls in the quieter half of the
/// windows.
pub fn quiet<T: Copy>(steal: &[f64], items: &[(u32, T)]) -> Vec<(u32, T)> {
    let windows = items
        .iter()
        .map(|(t, _)| window_of(*t) + 1)
        .max()
        .unwrap_or(0);
    let mut counts = vec![0; windows];
    for (t, _) in items {
        counts[window_of(*t)] += 1;
    }
    let keep = quiet_windows(steal, &counts);
    items
        .iter()
        .filter(|(t, _)| keep[window_of(*t)])
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_half_drops_the_burst() {
        // windows 2 and 3 are a steal burst
        let steal = [0.0, 0.02, 0.2, 0.25, 0.0];
        let counts = [10, 10, 10, 10, 10];
        assert_eq!(
            quiet_windows(&steal, &counts),
            [true, true, false, false, true]
        );
    }

    #[test]
    fn a_quiet_host_keeps_everything() {
        let steal = [0.0; 4];
        assert_eq!(quiet_windows(&steal, &[5, 1, 7, 3]), [true; 4]);
    }

    #[test]
    fn unsampled_windows_go_last() {
        let steal = [0.1];
        assert_eq!(quiet_windows(&steal, &[3, 3]), [true, false]);
        let items = [(10_000, 1), (300_000, 2)];
        assert_eq!(quiet(&steal, &items), [items[0]]);
    }
}
