//! Per-destination keep-alive connection pool for the HTTP client.
//!
//! The paper's throughput experiment (§3.3) amortizes TCP setup over many
//! calls by keeping connections alive between XRPC messages; before this
//! module the client did `TcpStream::connect` + `Connection: close` on
//! *every* call. The pool keeps recently used sockets per `host:port`,
//! hands the freshest one back first (LIFO — it is least likely to have
//! been idle-closed by the server), and lazily reaps connections that
//! outlived the configured idle timeout at checkout/checkin time, so no
//! background thread is needed.
//!
//! The pool stores [`PooledConn`]s — the socket with what would otherwise
//! be set up again on every request; protocol-level reuse rules (only
//! pool a connection whose response was fully framed and not marked
//! `Connection: close`, retry once on a stale reused socket) live in
//! [`crate::http`].

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A client connection and what lives as long as it does: the read timeout
/// its socket is armed with (so a request re-arms it only to change it) and
/// the buffer its message heads are written to and read into.
pub struct PooledConn {
    pub(crate) stream: TcpStream,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) head: Vec<u8>,
}

impl PooledConn {
    /// Wrap a connection just made; Nagle goes off here, once.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(PooledConn {
            stream,
            read_timeout: None,
            head: Vec::new(),
        })
    }
}

/// An idle connection with the moment it was returned to the pool.
struct IdleConn {
    conn: PooledConn,
    since: Instant,
}

/// A thread-safe pool of idle keep-alive connections keyed by
/// `host:port`. `max_idle_per_host == 0` disables pooling entirely
/// (checkout always misses, checkin always drops).
pub struct ConnectionPool {
    idle: Mutex<HashMap<String, Vec<IdleConn>>>,
    max_idle_per_host: usize,
    idle_timeout: Duration,
}

impl ConnectionPool {
    pub fn new(max_idle_per_host: usize, idle_timeout: Duration) -> Self {
        ConnectionPool {
            idle: Mutex::new(HashMap::new()),
            max_idle_per_host,
            idle_timeout,
        }
    }

    /// Take the most recently returned live connection for `addr`, if
    /// any. Connections idle longer than the timeout are dropped here
    /// rather than handed out.
    pub fn checkout(&self, addr: &str) -> Option<PooledConn> {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let conns = idle.get_mut(addr)?;
        // entries are pushed in return order, so expiry reaps a prefix
        let cutoff = Instant::now().checked_sub(self.idle_timeout);
        if let Some(cutoff) = cutoff {
            let live_from = conns.partition_point(|c| c.since < cutoff);
            conns.drain(..live_from);
        }
        let conn = conns.pop();
        if conns.is_empty() {
            idle.remove(addr);
        }
        conn.map(|c| c.conn)
    }

    /// Return a connection for later reuse. Dropped instead if the
    /// per-host cap is already reached (oldest-in-pool is evicted first,
    /// keeping the freshest `max_idle_per_host` sockets).
    pub fn checkin(&self, addr: &str, conn: PooledConn) {
        if self.max_idle_per_host == 0 {
            return;
        }
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let conns = idle.entry(addr.to_string()).or_default();
        while conns.len() >= self.max_idle_per_host {
            conns.remove(0);
        }
        conns.push(IdleConn {
            conn,
            since: Instant::now(),
        });
    }

    /// Number of idle connections currently pooled for `addr`.
    pub fn idle_count(&self, addr: &str) -> usize {
        let idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.get(addr).map_or(0, Vec::len)
    }

    /// Drop every pooled connection (e.g. after a peer restart).
    pub fn clear(&self) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn conn_pair(listener: &TcpListener) -> PooledConn {
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _server_side = listener.accept().unwrap();
        PooledConn::new(client).unwrap()
    }

    #[test]
    fn checkout_from_empty_pool_misses() {
        let pool = ConnectionPool::new(4, Duration::from_secs(60));
        assert!(pool.checkout("127.0.0.1:1").is_none());
    }

    #[test]
    fn checkin_then_checkout_reuses_lifo() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ConnectionPool::new(4, Duration::from_secs(60));
        let a = conn_pair(&listener);
        let a_port = a.stream.local_addr().unwrap().port();
        let b = conn_pair(&listener);
        let b_port = b.stream.local_addr().unwrap().port();
        assert_ne!(a_port, b_port);
        pool.checkin("peer", a);
        pool.checkin("peer", b);
        assert_eq!(pool.idle_count("peer"), 2);
        // most recently returned comes back first
        let got = pool.checkout("peer").unwrap();
        assert_eq!(got.stream.local_addr().unwrap().port(), b_port);
        let got = pool.checkout("peer").unwrap();
        assert_eq!(got.stream.local_addr().unwrap().port(), a_port);
        assert!(pool.checkout("peer").is_none());
    }

    #[test]
    fn per_host_cap_evicts_oldest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ConnectionPool::new(2, Duration::from_secs(60));
        let mut ports = Vec::new();
        for _ in 0..3 {
            let c = conn_pair(&listener);
            ports.push(c.stream.local_addr().unwrap().port());
            pool.checkin("peer", c);
        }
        assert_eq!(pool.idle_count("peer"), 2);
        // oldest (first) was evicted; freshest two survive, LIFO order
        assert_eq!(
            pool.checkout("peer")
                .unwrap()
                .stream
                .local_addr()
                .unwrap()
                .port(),
            ports[2]
        );
        assert_eq!(
            pool.checkout("peer")
                .unwrap()
                .stream
                .local_addr()
                .unwrap()
                .port(),
            ports[1]
        );
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ConnectionPool::new(0, Duration::from_secs(60));
        pool.checkin("peer", conn_pair(&listener));
        assert_eq!(pool.idle_count("peer"), 0);
        assert!(pool.checkout("peer").is_none());
    }

    #[test]
    fn idle_timeout_reaps_at_checkout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ConnectionPool::new(4, Duration::from_millis(5));
        pool.checkin("peer", conn_pair(&listener));
        std::thread::sleep(Duration::from_millis(20));
        assert!(pool.checkout("peer").is_none());
        assert_eq!(pool.idle_count("peer"), 0);
    }

    #[test]
    fn hosts_are_isolated() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ConnectionPool::new(4, Duration::from_secs(60));
        pool.checkin("a", conn_pair(&listener));
        assert!(pool.checkout("b").is_none());
        assert!(pool.checkout("a").is_some());
    }

    #[test]
    fn clear_drops_everything() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ConnectionPool::new(4, Duration::from_secs(60));
        pool.checkin("a", conn_pair(&listener));
        pool.checkin("b", conn_pair(&listener));
        pool.clear();
        assert_eq!(pool.idle_count("a") + pool.idle_count("b"), 0);
    }
}
