//! CPU steal: time the hypervisor gave this machine's CPUs to other
//! guests. It lengthens every wall-clock figure taken while it lasts,
//! so the benchmark measures it over each window and over each run.

use crate::stats::Ratio;

/// Most CPU steal the timings of a valid run may have seen, as a share
/// of CPU time.
pub const MAX_STEAL_SHARE: f64 = 0.10;

/// Steal and total CPU ticks so far, from the `cpu` line of `/proc/stat`
/// (`None` where it cannot be read).
fn ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Measures steal from the moment it was started.
#[derive(Clone, Copy, Debug)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> Self {
        StealMeter(ticks())
    }

    /// Steal ticks over all CPU ticks since the start (0 / 0 where
    /// `/proc/stat` cannot be read).
    pub fn since(&self) -> Ratio {
        match (self.0, ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => {
                Ratio::new(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
            }
            _ => Ratio::new(0.0, 0.0),
        }
    }
}
