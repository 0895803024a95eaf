//! Which CPUs the calling thread may run on (`sched_{get,set}affinity`).
//!
//! The vCPUs of a shared virtual machine do not run at the same speed, so
//! a single-threaded call and the reference computation that scales it
//! must run on the same one; a thread spawned while its parent is pinned
//! inherits the pin, so the threaded engines run with the pair unpinned.

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in increasing order.
pub fn allowed() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|&cpu| set.0[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Lets the calling thread, and every thread it spawns from now on, run
/// only on `cpus`.
pub fn pin(cpus: &[usize]) {
    let mut set = CpuSet([0; 16]);
    for &cpu in cpus {
        set.0[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}
