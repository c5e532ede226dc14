//! The reactor stays idle while it waits on a worker. A client that
//! half-closes after sending its request (a FIN: it still reads the
//! answer) must not make the reactor poll the closed read side in a loop
//! for as long as the request is being evaluated. A binary of its own,
//! because it reads the whole process's CPU time from `/proc/self/stat`.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrpc_net::http::HttpServer;

/// User plus system CPU time of this process, in seconds. Linux reports it
/// in clock ticks, 100 a second on every common configuration.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // the command name may hold spaces: count fields after its `)`
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..]
        .split_whitespace()
        .collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / 100.0
}

#[test]
fn a_half_closed_client_does_not_spin_the_reactor() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(|_: &str, body: &[u8]| {
            std::thread::sleep(Duration::from_secs(1));
            (200, body.to_vec())
        }),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nping")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (cpu, started) = (cpu_seconds(), Instant::now());
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (cpu, waited) = (cpu_seconds() - cpu, started.elapsed());
    assert!(
        response.starts_with("HTTP/1.1 200") && response.ends_with("ping"),
        "a half-closed client is answered: {response:?}"
    );
    assert!(
        waited >= Duration::from_millis(900),
        "answered after {waited:?}"
    );
    assert!(
        cpu < 0.3,
        "the process used {cpu:.2} s of CPU over {waited:?} of waiting on one handler"
    );
}
