//! One CPU for the whole benchmark.
//!
//! The harness pins itself to a single CPU before it does anything else;
//! every child inherits the mask, and so do the server's threads inside
//! each child. On this host the two vCPUs hurt more than they help: a
//! wake-up that crosses vCPUs waits for the hypervisor to schedule the
//! other one, and how long that takes drifts by the minute. Alternating
//! unpinned and pinned repetitions of `wire_pipelined` in the same ten
//! minutes: unpinned set-up 1.42–1.80 s and measured part 1.55–2.04 s,
//! pinned 0.78–1.17 s and 0.82–1.32 s; ten-run spreads of the pinned
//! composite stay under 15 % where the unpinned one reached 31 %. What a change
//! saves in CPU work per request shows directly in a single-CPU rate; what
//! cannot show is a speed-up from true parallelism, which this host cannot
//! measure either way.

/// 64-bit words in `cpu_set_t` as glibc declares it (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling process to the highest-numbered CPU it is allowed
/// on (the lowest usually takes the interrupts). Returns that CPU.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the call is told it may fill; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rfind(|(_, bits)| **bits != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the call
    // only reads; pid 0 is the caller.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}

/// Elsewhere there is nothing to pin with; the benchmark runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Ok(0)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // Affinity is per thread; the test harness runs this on its own.
        let cpu = pin_to_one_cpu().unwrap();
        assert_eq!(pin_to_one_cpu().unwrap(), cpu, "idempotent");
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap();
        assert_eq!(allowed.trim(), cpu.to_string());
    }
}
