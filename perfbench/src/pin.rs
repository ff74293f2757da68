//! Worker pinning through the C library's affinity calls. The standard
//! library already links the C library, so declaring the two functions
//! adds no crate.

use std::io;

/// `cpu_set_t` on Linux: 1024 bits.
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread to `cpu`.
pub fn pin_current(cpu: usize) -> io::Result<()> {
    if cpu >= SET_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cpu {cpu} is outside the affinity mask"),
        ));
    }
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_pinned_to_an_allowed_cpu_reports_only_that_cpu() {
        let cpus = allowed_cpus().expect("affinity readable");
        assert!(!cpus.is_empty());
        let last = *cpus.last().expect("nonempty");
        std::thread::spawn(move || {
            pin_current(last).expect("pin to an allowed cpu");
            assert_eq!(allowed_cpus().expect("affinity readable"), vec![last]);
        })
        .join()
        .expect("pinned thread");
        assert!(pin_current(SET_WORDS * 64).is_err());
    }
}
