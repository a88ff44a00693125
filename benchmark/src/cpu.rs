//! Runs the whole benchmark on one CPU: the fastest one it may use.
//!
//! On a 2-vCPU guest two effects make unpinned runs spread:
//! - a socket round trip between threads on different vCPUs costs 11–17 µs
//!   depending on placement, against a steady 6.5–7 µs on one;
//! - the vCPUs do not run at the same speed: a contended host core made one
//!   of them half as fast as the other for minutes at a time.
//!
//! So the process times a short spin loop on each allowed CPU and pins
//! itself, with `taskset`, to the fastest. Threads started later inherit
//! the mask, so this runs before any thread starts.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// CPUs in a `Cpus_allowed_list` such as `0-3,6`.
fn parse_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_list(
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?,
    )
}

/// Restricts this process (its threads so far, and every later one) to `cpu`.
fn pin(cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// A dependent multiply-add chain of fixed length (a few milliseconds).
fn spin() -> Duration {
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..2_000_000u64 {
        x = black_box(x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i));
    }
    black_box(x);
    t.elapsed()
}

/// Pins the process to the allowed CPU that runs [`spin`] fastest (best of
/// three) and returns it; `None` when it cannot pin.
pub fn pin_to_fastest() -> Option<usize> {
    let mut best: Option<(usize, Duration)> = None;
    for cpu in allowed_cpus()? {
        if !pin(cpu) {
            return None;
        }
        let t = (0..3).map(|_| spin()).min()?;
        if best.is_none_or(|(_, b)| t < b) {
            best = Some((cpu, t));
        }
    }
    let (cpu, _) = best?;
    pin(cpu).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_list("0,2-4,7"), Some(vec![0, 2, 3, 4, 7]));
        assert_eq!(parse_list("3"), Some(vec![3]));
        assert_eq!(parse_list("x"), None);
    }
}
