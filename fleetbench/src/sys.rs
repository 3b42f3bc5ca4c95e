//! The two Linux calls the standard library does not offer.
//!
//! * Waiting for "reply bytes or the next due time", whichever comes
//!   first, at microsecond precision. A socket read timeout
//!   (`SO_RCVTIMEO`) would be the portable timer, but Linux rounds it up
//!   to whole scheduler ticks (several ms), which would make every send
//!   late by about a tick. `ppoll(2)` takes a `timespec` and sleeps on a
//!   high-resolution timer.
//! * Tying a daemon's life to the benchmark's: `PR_SET_PDEATHSIG`, so a
//!   benchmark killed from outside leaves no daemon behind.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("fleetbench assumes 64-bit Linux (ppoll, prctl, 64-bit time_t and nfds_t)");

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Block until `stream` has bytes to read (or is closed) or `timeout`
/// passes. Returns whether it is readable.
pub fn readable_within(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` points to one initialised pollfd, matching nfds = 1,
    // and `ts` to an initialised timespec; both outlive the call. A null
    // sigmask leaves the thread's signal mask unchanged. The descriptor
    // belongs to `stream`, which the borrow keeps open.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

/// Have the kernel kill the child `cmd` starts when the thread that
/// started it exits.
pub fn kill_with_parent(cmd: &mut Command) -> &mut Command {
    // SAFETY: the hook runs in the forked child before exec and only
    // makes one async-signal-safe system call, touching no memory of
    // the parent.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        })
    }
}
