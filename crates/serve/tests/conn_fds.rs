//! A long-running server releases each connection's socket once the
//! connection closes: its open file descriptors do not grow with the
//! number of connections it has served.
//!
//! Alone in its test binary, so no other test opens descriptors while
//! this one counts them (`/proc/self/fd`; skipped where that does not
//! exist).

use rrs_serve::{serve, Client, ServeConfig};
use std::time::{Duration, Instant};

/// Connect, ping and drop cycles against one server.
const CYCLES: usize = 50;
/// Descriptors the count may sit above its start once the cycles end:
/// room for a late accept-loop or reader socket, none per connection.
const SLACK: usize = 4;

fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

#[test]
fn connections_release_their_sockets_before_shutdown() {
    let Some(_) = open_fds() else {
        eprintln!("skipped: /proc/self/fd is not available here");
        return;
    };
    let server = serve(ServeConfig::default()).expect("bind");
    // One connection first, so anything the server opens once (on its
    // first accept) is in the baseline.
    Client::connect(server.addr()).expect("connect").ping().expect("ping");
    let start = open_fds().expect("counted above");
    for i in 0..CYCLES {
        let mut client = Client::connect(server.addr()).expect("connect");
        client.ping().unwrap_or_else(|e| panic!("ping {i}: {e}"));
    }
    // Each reader sees its peer's EOF and stops on its own schedule:
    // wait for the count to settle rather than sleeping a fixed time.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = open_fds().expect("counted above");
    while now > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = open_fds().expect("counted above");
    }
    assert!(
        now <= start + SLACK,
        "{CYCLES} closed connections left {} descriptors open ({start} -> {now})",
        now - start
    );
    server.shutdown();
}
