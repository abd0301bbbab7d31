//! A libc-free binding to `poll(2)` — the readiness primitive behind the
//! daemon's event loop.
//!
//! The workspace's dependency policy forbids registry crates, so instead
//! of `libc`/`mio` this module declares the one syscall wrapper it needs
//! directly: `poll` is in every libc the workspace targets, its ABI is
//! stable POSIX, and `PollFd` is `#[repr(C)]`-identical to `struct
//! pollfd`.  Level-triggered readiness over a few hundred descriptors is
//! plenty for a loopback evaluation daemon; an epoll upgrade would change
//! only this module.

use std::io;

/// Data may be read without blocking.
pub(crate) const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (always polled, returned in `revents` only).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up (always polled, returned in `revents` only).
pub(crate) const POLLHUP: i16 = 0x010;
/// The descriptor is not open (always polled, returned in `revents` only).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One descriptor's interest set and readiness result — layout-compatible
/// with POSIX `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    /// The file descriptor to watch.
    pub fd: i32,
    /// Requested events ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Returned events, filled in by [`wait`].
    pub revents: i16,
}

impl PollFd {
    /// An interest entry for `fd` with `revents` cleared.
    pub(crate) fn new(fd: i32, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// `true` if any of `mask`'s bits came back in `revents`.
    pub(crate) fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// `true` if the descriptor is readable — or in an error/hangup state,
    /// which a reader must also consume (the read will report the EOF or
    /// error).
    pub(crate) fn readable(&self) -> bool {
        self.has(POLLIN | POLLERR | POLLHUP | POLLNVAL)
    }
}

extern "C" {
    /// POSIX `poll(2)`.  `nfds_t` is `unsigned long` on every Linux ABI
    /// this workspace builds for.
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Blocks until at least one entry is ready or `timeout_ms` elapses
/// (`-1` = wait forever; `0` = poll and return).  Returns the number of
/// ready entries; `EINTR` is retried internally.
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs for the duration of the call,
        // and the length is passed alongside the pointer.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_tracks_pipe_state() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing written yet: a zero-timeout poll reports no readiness.
        assert_eq!(wait(&mut fds, 0).expect("poll"), 0);
        assert!(!fds[0].readable());

        a.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, 1000).expect("poll"), 1);
        assert!(fds[0].readable());

        // A peer hangup is readable too (the read observes the EOF).
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, 1000).expect("poll"), 1);
        assert!(fds[0].readable());
    }

    #[test]
    fn writable_socket_reports_pollout() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert_eq!(wait(&mut fds, 1000).expect("poll"), 1);
        assert!(fds[0].has(POLLOUT));
    }
}
