//! `Client` framing over real loopback TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use netdag_serve::Client;

/// A request line and its `\n` leave in one write. Split into two
/// writes, Nagle's algorithm holds the `\n` until the peer ACKs the
/// first segment, and a peer that answers only complete lines delays
/// that ACK (about 40 ms on Linux): 50 round trips would take 2 s or
/// more instead of a few milliseconds.
#[test]
fn send_line_round_trips_without_a_delayed_ack_stall() {
    const ROUND_TRIPS: usize = 50;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let echo = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for _ in 0..ROUND_TRIPS {
            line.clear();
            reader.read_line(&mut line).expect("read");
            assert!(line.ends_with('\n'), "replies follow full lines only");
            writer.write_all(line.as_bytes()).expect("reply");
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    let started = Instant::now();
    for i in 0..ROUND_TRIPS {
        let line = format!("{{\"id\":{i}}}");
        let reply = client.send_line(&line).expect("round trip");
        assert_eq!(reply, format!("{line}\n"));
    }
    let elapsed = started.elapsed();
    echo.join().expect("echo server");
    assert!(
        elapsed < Duration::from_secs(1),
        "{ROUND_TRIPS} round trips took {elapsed:?}"
    );
}
