//! Thin readiness-syscall shim for the event-loop transport: `poll(2)`
//! plus a self-pipe, declared directly against libc the same way the
//! [`crate::signal`] shim is — an `unsafe` island a few lines tall so the
//! rest of the crate stays `unsafe_code = "deny"`-clean with zero
//! dependencies.
//!
//! `poll` (not `epoll`) keeps the shim POSIX-portable and fits the
//! deployment envelope: the wait set is rebuilt per iteration, which is
//! O(connections) work per wakeup, perfectly acceptable into the tens of
//! thousands of descriptors this service targets. Swapping in `epoll_wait`
//! later only touches this module.
//!
//! Nothing here sets `O_NONBLOCK` — sockets use the std
//! `set_nonblocking`, and the pipe is deliberately left blocking: the
//! event loop keeps at most one byte waiting in a pipe (far below the
//! kernel pipe buffer), and reads happen only after `poll` reports the
//! read end ready.

#![cfg(unix)]
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// One entry in a `poll(2)` wait set (`struct pollfd`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// Descriptor to watch (negative entries are ignored by the kernel).
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Returned events (may include [`POLLERR`] / [`POLLHUP`] unrequested).
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel report any of `mask` (or an error/hangup, which
    /// always warrants a look)?
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP) != 0
    }
}

/// Readable (or a peer hangup with data pending).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: core::ffi::c_int) -> i32;
    fn pipe(fds: *mut RawFd) -> i32;
    fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
    fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    fn close(fd: RawFd) -> i32;
}

/// Wait for readiness on `fds` for at most `timeout_ms` (`-1` = forever).
/// Returns the number of ready entries; `EINTR` is retried internally so
/// signal delivery (SIGTERM during drain) never surfaces as an error.
pub fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A self-pipe: other threads write a byte to wake a poll loop out of
/// its wait; the loop drains the read end on wakeup. Closes both ends on
/// drop.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Create the pipe.
    pub fn new() -> io::Result<Self> {
        let mut fds: [RawFd; 2] = [-1, -1];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// Descriptor the poll loop watches for [`POLLIN`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// A clonable handle for waking the loop from other threads.
    pub fn waker(&self) -> Waker {
        Waker {
            write_fd: self.write_fd,
        }
    }

    /// Discard everything buffered in the pipe (called once per wakeup;
    /// the byte count carries no meaning, only the edge does). The pipe
    /// is blocking, so each read is gated on a zero-timeout poll to make
    /// sure it cannot hang on an already-empty pipe.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            let mut fds = [PollFd::new(self.read_fd, POLLIN)];
            match poll_wait(&mut fds, 0) {
                Ok(n) if n > 0 && fds[0].ready(POLLIN) => {
                    let got = unsafe { read(self.read_fd, sink.as_mut_ptr(), sink.len()) };
                    if got <= 0 {
                        return;
                    }
                }
                _ => return,
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

/// Write end of a [`WakePipe`], shared with other threads. Copyable by
/// design: the owner keeps the pipe alive until every thread that may
/// write to it is joined.
#[derive(Debug, Clone, Copy)]
pub struct Waker {
    write_fd: RawFd,
}

impl Waker {
    /// Wake the poll loop (best-effort; a failed write can only mean the
    /// loop is already gone).
    pub fn wake(&self) {
        let byte = [1u8];
        unsafe {
            let _ = write(self.write_fd, byte.as_ptr(), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_roundtrip_via_poll() {
        let pipe = WakePipe::new().unwrap();
        // Nothing pending: poll times out immediately.
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_wait(&mut fds, 0).unwrap(), 0);
        // A wake makes the read end ready; drain clears it again.
        pipe.waker().wake();
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_wait(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].ready(POLLIN));
        pipe.drain();
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_wait(&mut fds, 0).unwrap(), 0);
    }

    #[test]
    fn poll_sees_listener_readiness() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        assert_eq!(poll_wait(&mut fds, 0).unwrap(), 0, "no pending connect");
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        assert_eq!(poll_wait(&mut fds, 2000).unwrap(), 1);
        assert!(fds[0].ready(POLLIN));
    }
}
