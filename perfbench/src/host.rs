//! What the run knows about its host and its own resource use, read
//! from `/proc` and the checkout.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use crate::drive::median;

/// Anonymous resident memory of this process, in kB (`RssAnon`): what
/// it allocated and touched. File-backed pages are left out: how many
/// of them fault-around maps varies by ~150 kB between identical runs.
pub fn rss_anon_kb() -> f64 {
    status_field("RssAnon:").unwrap_or(0.0)
}

fn status_field(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU seconds this process has used (user + system).
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name, which may itself hold spaces, in clock ticks of 1/100 s.
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

extern "C" {
    fn gettid() -> i32;
}

/// The calling thread's kernel id.
pub fn tid() -> i32 {
    // SAFETY: gettid takes no arguments and cannot fail.
    unsafe { gettid() }
}

/// Nanoseconds thread `tid` of this process has spent runnable but
/// waiting on a run queue for a CPU: the second field of its
/// `schedstat`. Time it spent blocked by choice is not in it.
pub fn thread_wait_ns(tid: i32) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds the host has stolen, from `/proc/stat`: element 0 over
/// every CPU, element `c + 1` from CPU `c`. The kernel counts in clock
/// ticks of 1/100 s.
pub fn steal_ns() -> Vec<u64> {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut steal = vec![0u64];
    for line in stat.lines() {
        let mut f = line.split_whitespace();
        let Some(name) = f.next().and_then(|n| n.strip_prefix("cpu")) else {
            continue;
        };
        let ns = f.nth(7).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0) * 10_000_000;
        match name.parse::<usize>() {
            Err(_) => steal[0] = ns,
            Ok(cpu) => {
                if steal.len() < cpu + 2 {
                    steal.resize(cpu + 2, 0);
                }
                steal[cpu + 1] = ns;
            }
        }
    }
    steal
}

/// The cost of one `Instant::now()`, in ns: the median of 11 batches.
pub fn clock_ns() -> f64 {
    const READS: u32 = 10_000;
    let batches: Vec<f64> = (0..11)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&batches)
}

/// The checked-out commit, if the checkout is a git repository.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => fs::read_to_string(format!(".git/{name}")).ok().or_else(|| {
            fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(name))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
        }),
    };
    match resolved.map(|c| c.trim().to_string()) {
        Some(c) if !c.is_empty() => c,
        _ => "unknown (not a git checkout)".to_string(),
    }
}

fn first_line(path: &str) -> String {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line naming the host and the build.
pub fn describe() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host={} kernel={} cpu=\"{cpu}\" nproc={nproc} commit={} profile={profile} features=none",
        first_line("/proc/sys/kernel/hostname"),
        first_line("/proc/sys/kernel/osrelease"),
        commit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(rss_anon_kb() > 0.0);
        assert!(clock_ns() > 0.0);
        let busy = Instant::now();
        while busy.elapsed().as_millis() < 50 {
            black_box(0);
        }
        assert!(cpu_seconds() > 0.0);
        let steal = steal_ns();
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(steal.len() > nproc && steal[1..].iter().all(|&c| c <= steal[0]));
        let own = format!("/proc/self/task/{}/schedstat", tid());
        assert!(fs::read_to_string(own).is_ok());
    }
}
