//! A hand-rolled epoll wrapper — the readiness substrate of the
//! event-driven server ([`crate::reactor`]). The workspace deliberately
//! carries no `libc`/`mio` dependency, so the handful of syscalls the
//! reactor needs (`epoll_create1`/`epoll_ctl`/`epoll_wait`, `eventfd`
//! for cross-thread wakeups, and raw socket creation for a
//! `SO_REUSEADDR` listener) are declared here as `extern "C"` bindings
//! against the C library `std` already links. Linux-only by
//! construction, like the rest of the deployment story.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{FromRawFd, RawFd};
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = i32;
#[allow(non_camel_case_types)]
type c_uint = u32;

// `struct epoll_event` is packed on x86_64 (12 bytes); natural layout
// (16 bytes) everywhere else — mirror glibc's `__EPOLL_PACKED`.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, optname: c_int, optval: *const u8, optlen: u32)
        -> c_int;
    fn bind(fd: c_int, addr: *const SockAddrIn, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness notification, with the token the fd was registered
/// under. `hangup` covers peer close (`EPOLLHUP`/`EPOLLRDHUP`) —
/// reads still drain whatever is buffered before EOF. `error` says the
/// connection is dead, reset (`EPOLLERR`) or shut both ways
/// (`EPOLLHUP`); epoll reports it whatever the interest.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
    pub error: bool,
}

/// Level-triggered epoll instance. Level-triggered deliberately: the
/// reactor re-arms interest per state transition and never risks the
/// lost-wakeup class of edge-triggered bugs for a few spare syscalls.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(
        &self,
        op: c_int,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut ev = EpollEvent {
            // EPOLLRDHUP only with EPOLLIN: level-triggered, a half-closed
            // peer would be reported every round while reading is off
            events: if readable { EPOLLIN | EPOLLRDHUP } else { 0 }
                | if writable { EPOLLOUT } else { 0 },
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(drop)
    }

    /// Register `fd` under `token` with the given interest set.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Re-target an already-registered fd's interest set.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Deregister `fd`. Harmless if the fd is about to be closed anyway
    /// (closing deregisters implicitly); explicit so a still-open fd can
    /// be parked.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
    }

    /// Block until readiness or `timeout` (None = forever), appending
    /// into `out`. Returns the number of events delivered. EINTR is
    /// absorbed as an empty wakeup.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
        let ms: c_int = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as c_int,
        };
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in &buf[..n as usize] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLHUP | EPOLLRDHUP) != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`]: an eventfd
/// registered read-interested under a reserved token. Worker threads
/// call [`wake`](Self::wake) after publishing a completion; the reactor
/// calls [`drain`](Self::drain) when the token fires.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        poller.add(fd, token, true, false)?;
        Ok(Waker { fd })
    }

    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
    }

    /// Reset the eventfd counter so level-triggered epoll quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// IPv4 `sockaddr_in`, network byte order where the kernel wants it.
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// Bind a listening socket with `SO_REUSEADDR` — what `std`'s
/// `TcpListener::bind` does *not* set, and what lets a crash-restarted
/// peer rebind its advertised port while old connections linger in
/// TIME_WAIT (the recovery-chaos HTTP suite depends on this). IPv4
/// only; non-IPv4 binds fall back to the caller's `std` path.
pub fn listen_reuseaddr(addr: &SocketAddr) -> io::Result<TcpListener> {
    let SocketAddr::V4(v4) = addr else {
        return TcpListener::bind(addr);
    };
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    // from here the fd must be closed on any failure path
    let result = (|| {
        let on: c_int = 1;
        cvt(unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEADDR,
                &on as *const c_int as *const u8,
                std::mem::size_of::<c_int>() as u32,
            )
        })?;
        let sa = SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: v4.port().to_be(),
            sin_addr: u32::from_ne_bytes(v4.ip().octets()),
            sin_zero: [0; 8],
        };
        cvt(unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) })?;
        cvt(unsafe { listen(fd, 1024) })?;
        Ok(())
    })();
    match result {
        Ok(()) => Ok(unsafe { TcpListener::from_raw_fd(fd) }),
        Err(e) => {
            unsafe { close(fd) };
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_sees_listener_readiness() {
        let listener = listen_reuseaddr(&"127.0.0.1:0".parse().unwrap()).unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        // nothing pending: a short wait times out empty
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
    }

    #[test]
    fn connection_readiness_and_hangup() {
        let listener = listen_reuseaddr(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(server_side.as_raw_fd(), 1, true, false).unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let mut buf = [0u8; 16];
        let mut s = &server_side;
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.hangup));
    }

    #[test]
    fn waker_crosses_threads() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, 99).unwrap());
        let w = waker.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        waker.drain();
        // drained: the level-triggered fd goes quiet
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn reuseaddr_listener_rebinds_same_port() {
        let l1 = listen_reuseaddr(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let port = l1.local_addr().unwrap().port();
        // hold a connection so the port has live traffic, then drop both
        let c = std::net::TcpStream::connect(l1.local_addr().unwrap()).unwrap();
        let _ = l1.accept().unwrap();
        drop(c);
        drop(l1);
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let l2 = listen_reuseaddr(&addr).expect("rebind with SO_REUSEADDR");
        assert_eq!(l2.local_addr().unwrap().port(), port);
    }
}
