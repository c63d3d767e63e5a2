//! Shard transport: one connection abstraction over unix sockets and
//! TCP, so the coordinator, the client and the daemon's accept loop all
//! speak the same code whether a worker is a local process or a remote
//! host.
//!
//! An [`Endpoint`] is the parsed form of what operators write on the
//! command line — `unix:///run/w0.sock` (or a bare path) and
//! `tcp://host:port` — and renders back to exactly that string, so
//! manifests and placement plans can mix both freely. [`Stream`] and
//! [`Listener`] are enum wrappers (no dyn dispatch on the request hot
//! path) that carry the few capabilities the daemon needs: deadline
//! connects, read timeouts, `try_clone`. The line framing of the wire
//! lives here once: [`Stream::send_line`] writes a request and
//! half-closes, [`LineReader`] reads lines on every side of every
//! connection — timeout-safe and bounded at [`MAX_LINE_BYTES`].
//!
//! [`ShardTransport`] is the coordinator-facing trait: connect with a
//! deadline, wait for a booting worker's first connection, and
//! reconnect with jittered exponential backoff. [`NetTransport`] is the
//! production implementation; tests substitute wrapped transports
//! through the same trait.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where a shard worker (or daemon) can be reached.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A unix-domain socket path (`unix://<path>` or a bare path).
    Unix(PathBuf),
    /// A TCP `host:port` pair (`tcp://host:port`).
    Tcp(String),
}

impl Endpoint {
    /// Parse an endpoint string. `tcp://host:port` and `unix://<path>`
    /// are explicit; anything else is a bare unix socket path, so every
    /// pre-existing `--socket` value keeps working unchanged.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            let (host, port) = addr
                .rsplit_once(':')
                .ok_or_else(|| format!("tcp endpoint '{s}' needs host:port"))?;
            if host.is_empty() || port.parse::<u16>().is_err() {
                return Err(format!("tcp endpoint '{s}' needs host:port"));
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = s.strip_prefix("unix://") {
            if path.is_empty() {
                return Err(format!("unix endpoint '{s}' needs a path"));
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if s.is_empty() {
            return Err("empty endpoint".into());
        }
        Ok(Endpoint::Unix(PathBuf::from(s)))
    }

    /// One blocking connect attempt bounded by `timeout`. Unix connects
    /// are effectively instant (the kernel accepts or refuses); TCP
    /// resolves the address and uses `connect_timeout` so an
    /// unreachable host cannot hold the coordinator past its deadline.
    pub fn connect(&self, timeout: Duration) -> io::Result<Stream> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => {
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::AddrNotAvailable,
                        format!("tcp://{addr}: no addresses"),
                    )
                })?;
                TcpStream::connect_timeout(&resolved, timeout.max(Duration::from_millis(1)))
                    .map(Stream::Tcp)
            }
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
        }
    }
}

/// A connected stream over either transport. Implements [`Read`] and
/// [`Write`] so `BufReader`/`BufWriter` code is transport-blind.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain connection.
    Unix(UnixStream),
    /// TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Set (or clear) the read timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Half-close the write side (signals end-of-request to the peer).
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Close both directions: a thread blocked reading this connection
    /// (through any clone of the descriptor) returns at once.
    pub(crate) fn shutdown_both(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// Send the connection's one request: `line`, a newline, flush, then
    /// half-close so the peer sees end-of-request.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.write_all(line.as_bytes())?;
        self.write_all(b"\n")?;
        self.flush()?;
        self.shutdown_write()
    }

    /// Clone the underlying descriptor (reader/writer split).
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Longest line either end of the wire accepts, terminator excluded. The
/// largest legitimate line is a `submit` carrying one FASTA record —
/// Swiss-Prot's longest is 35 213 residues — so 4 MiB is two orders of
/// magnitude of headroom while still bounding what a peer that never
/// sends a newline can make this process buffer.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// True for the error a read returns when the stream's read timeout
/// fires (`WouldBlock` on unix sockets, `TimedOut` on some TCP stacks).
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The one line reader of the wire protocol: newline-delimited UTF-8
/// lines off a [`Stream`], bounded at [`MAX_LINE_BYTES`].
///
/// Safe under a read timeout: when [`LineReader::read_line`] fails with
/// `WouldBlock`/`TimedOut`, the bytes of the unfinished line stay
/// buffered and the next call continues the same line — a line that
/// straddles a silent gap arrives whole.
#[derive(Debug)]
pub struct LineReader {
    inner: BufReader<Stream>,
    partial: Vec<u8>,
}

impl LineReader {
    /// Read lines from `stream`.
    pub fn new(stream: Stream) -> Self {
        LineReader {
            inner: BufReader::new(stream),
            partial: Vec::new(),
        }
    }

    /// Bytes of the current, still unterminated line buffered so far.
    pub(crate) fn partial_len(&self) -> usize {
        self.partial.len()
    }

    /// The next line without its `\n` / `\r\n`; `Ok(None)` at end of
    /// stream. A final line the peer closed without terminating is
    /// yielded like any other. A line over [`MAX_LINE_BYTES`] or not
    /// valid UTF-8 is an `InvalidData` error (the connection is then
    /// out of sync and should be closed).
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        // `read_until` appends as it reads: when it fails on a read
        // timeout, the bytes so far are already in `partial`.
        let room = (MAX_LINE_BYTES + 1 - self.partial.len()) as u64;
        (&mut self.inner)
            .take(room)
            .read_until(b'\n', &mut self.partial)?;
        if self.partial.is_empty() {
            return Ok(None);
        }
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut line = std::mem::take(&mut self.partial);
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        } else if line.len() > MAX_LINE_BYTES {
            return Err(invalid(format!("line exceeds {MAX_LINE_BYTES} bytes")));
        }
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| invalid("line is not valid UTF-8".into()))
    }
}

/// A bound listener over either transport.
pub enum Listener {
    /// Unix-domain listener.
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `endpoint`. For unix endpoints a stale socket file left by
    /// a crashed daemon is removed first — but only if nobody answers
    /// on it (a live daemon is an error, not a victim).
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("{} already has a live daemon", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                UnixListener::bind(path).map(Listener::Unix)
            }
            Endpoint::Tcp(addr) => TcpListener::bind(addr).map(Listener::Tcp),
        }
    }

    /// Where a thread of this process dials to wake a blocked
    /// [`Listener::accept`]: the address actually bound (a `:0` bind
    /// has its kernel-chosen port here), with loopback standing in for
    /// a wildcard host, which cannot be dialled.
    pub fn wake_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Unix(l) => l
                .local_addr()?
                .as_pathname()
                .map(|p| Endpoint::Unix(p.to_path_buf()))
                .ok_or_else(|| io::Error::other("unix listener has no path")),
            Listener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(if addr.is_ipv4() {
                        Ipv4Addr::LOCALHOST.into()
                    } else {
                        Ipv6Addr::LOCALHOST.into()
                    });
                }
                Ok(Endpoint::Tcp(addr.to_string()))
            }
        }
    }

    /// Accept one connection (blocking).
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// Reconnect policy: bounded retries with jittered exponential backoff.
/// The jitter stream is seeded, so a drill replays the same sleep
/// schedule on every run — determinism survives the retry path.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra connect attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Base backoff before retry k sleeps `base * 2^k`, jittered.
    pub backoff_ms: u64,
    /// Jitter seed (same seed → same schedule).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff_ms: 25,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (0-based): exponential in the
    /// attempt count, multiplied by a seeded jitter factor in
    /// `[0.5, 1.0)` so a fleet of clients hammering one restarting
    /// worker desynchronises instead of thundering.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(10))
            .max(1);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ (attempt as u64).wrapping_mul(0x9e37));
        let jitter = 0.5 + 0.5 * rng.gen_range(0..1000) as f64 / 1000.0;
        Duration::from_millis((base as f64 * jitter) as u64)
    }
}

/// The coordinator's view of a shard worker's wire: connect with a
/// deadline, wait out a boot, reconnect with backoff. One implementation
/// per transport *behavior* (the production [`NetTransport`], fault
/// deciders in drills), not per socket family — family dispatch lives
/// in [`Endpoint`].
pub trait ShardTransport: Sync {
    /// One deadline-bounded connect attempt to `endpoint`.
    fn connect(&self, endpoint: &Endpoint, timeout: Duration) -> io::Result<Stream>;

    /// Connect under `policy`, sleeping the jittered backoff between
    /// attempts. Returns the stream and how many *re*tries were spent
    /// (0 = first attempt succeeded) so callers can feed the
    /// `sw_serve_net_retries_total` counter.
    fn connect_retry(
        &self,
        endpoint: &Endpoint,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> io::Result<(Stream, u32)> {
        let mut used = 0u32;
        loop {
            match self.connect(endpoint, timeout) {
                Ok(s) => return Ok((s, used)),
                Err(e) if used >= policy.retries => return Err(e),
                Err(_) => {
                    std::thread::sleep(policy.backoff(used));
                    used += 1;
                }
            }
        }
    }

    /// Connect to a worker that may still be booting (a spawn returns
    /// once the launch is underway): poll under `wait_ms` until
    /// `endpoint` accepts and hand back that first connection. The
    /// coordinator sends its identity probe on it, so the readiness
    /// check costs no connection of its own.
    fn connect_wait(&self, endpoint: &Endpoint, wait_ms: u64) -> Result<Stream, String> {
        let deadline = Instant::now() + Duration::from_millis(wait_ms);
        loop {
            match self.connect(endpoint, Duration::from_millis(250)) {
                Ok(stream) => return Ok(stream),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!(
                        "worker {endpoint} not answering after {wait_ms} ms: {e}"
                    ))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// The production transport: real sockets, no interference.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetTransport;

impl ShardTransport for NetTransport {
    fn connect(&self, endpoint: &Endpoint, timeout: Duration) -> io::Result<Stream> {
        endpoint.connect(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_display_roundtrip() {
        let cases = [
            ("tcp://127.0.0.1:7777", true),
            ("tcp://localhost:9100", true),
            ("unix:///run/sw/w0.sock", false),
            ("/tmp/w0.sock", false),
            ("relative/w1.sock", false),
        ];
        for (s, tcp) in cases {
            let ep = Endpoint::parse(s).expect(s);
            assert_eq!(matches!(ep, Endpoint::Tcp(_)), tcp, "{s}");
            let rendered = ep.to_string();
            // `unix://` prefix normalises to the bare path; all other
            // forms render back verbatim.
            let expect = s.strip_prefix("unix://").unwrap_or(s);
            assert_eq!(rendered, expect);
            assert_eq!(Endpoint::parse(&rendered).unwrap(), ep, "stable reparse");
        }
        assert!(Endpoint::parse("tcp://nohost").is_err());
        assert!(Endpoint::parse("tcp://:80").is_err());
        assert!(Endpoint::parse("tcp://h:notaport").is_err());
        assert!(Endpoint::parse("unix://").is_err());
        assert!(Endpoint::parse("").is_err());
    }

    #[test]
    fn tcp_listener_accepts_and_streams() {
        let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let addr = match &listener {
            Listener::Tcp(l) => l.local_addr().unwrap(),
            Listener::Unix(_) => unreachable!(),
        };
        let ep = Endpoint::Tcp(addr.to_string());
        let t = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 4];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(b"pong").unwrap();
        });
        let mut s = ep.connect(Duration::from_secs(5)).unwrap();
        s.write_all(b"ping").unwrap();
        s.shutdown_write().unwrap();
        let mut reply = Vec::new();
        s.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"pong");
        t.join().unwrap();
    }

    /// A connected (reader side, peer side) pair over loopback TCP.
    fn tcp_pair() -> (Stream, Stream) {
        let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let ep = listener.wake_endpoint().unwrap();
        let peer = ep.connect(Duration::from_secs(5)).unwrap();
        (listener.accept().unwrap(), peer)
    }

    #[test]
    fn line_split_across_a_read_timeout_arrives_intact() {
        // Regression: the coordinator's reply loop cleared its buffer at
        // the top of every turn, so a line straddling a read timeout lost
        // its head (`re":42,"id":7,…`) and was retried as "malformed hit
        // line". The peer's second write is gated on the reader having
        // *observed* the timeout — no sleep-and-hope.
        let (reader_side, mut peer) = tcp_pair();
        reader_side
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let hit = "{\"rank\":1,\"score\":42,\"id\":7,\"header\":\"sp|P1|caf\u{e9}\"}";
        // Split inside the two-byte `é`: a `String`-buffered reader would
        // drop the whole partial as invalid UTF-8 when the timeout hits.
        let (head, tail) = hit.as_bytes().split_at(hit.len() - 3);
        let (timed_out_tx, timed_out_rx) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            peer.write_all(head).unwrap();
            timed_out_rx.recv().unwrap();
            peer.write_all(tail).unwrap();
            peer.write_all(b"\r\n{\"end\":true}").unwrap(); // last line unterminated
        });
        let mut reader = LineReader::new(reader_side);
        let mut timeouts = 0;
        let first = loop {
            match reader.read_line() {
                Ok(line) => break line,
                Err(e) if is_timeout(&e) => {
                    assert_eq!(reader.partial_len(), head.len(), "partial kept");
                    if timeouts == 0 {
                        timed_out_tx.send(()).unwrap();
                    }
                    timeouts += 1;
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert!(timeouts >= 1, "the gap was observed as a read timeout");
        assert_eq!(first.as_deref(), Some(hit));
        writer.join().unwrap();
        let mut rest = Vec::new();
        loop {
            match reader.read_line() {
                Ok(Some(line)) => rest.push(line),
                Ok(None) => break,
                Err(e) if is_timeout(&e) => {}
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(rest, ["{\"end\":true}"], "EOF-terminated last line");
        assert_eq!(reader.read_line().unwrap(), None, "EOF is sticky");
    }

    #[test]
    fn line_reader_bounds_the_line_and_rejects_non_utf8() {
        let (reader_side, mut peer) = tcp_pair();
        let writer = std::thread::spawn(move || {
            // Exactly at the bound passes; one byte over does not. The
            // write may fail once the reader hangs up — that is the point.
            let mut ok = vec![b'a'; MAX_LINE_BYTES];
            ok.push(b'\n');
            peer.write_all(&ok).unwrap();
            peer.write_all(b"\xff\xfe\n").unwrap();
            let _ = peer.write_all(&vec![b'b'; MAX_LINE_BYTES + 1]);
        });
        let mut reader = LineReader::new(reader_side);
        assert_eq!(reader.read_line().unwrap().unwrap().len(), MAX_LINE_BYTES);
        let err = reader.read_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("UTF-8"), "{err}");
        let err = reader.read_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        drop(reader);
        writer.join().unwrap();
    }

    #[test]
    fn send_line_terminates_flushes_and_half_closes() {
        let (mut server_side, mut client_side) = tcp_pair();
        client_side.send_line("{\"op\":\"health\"}").unwrap();
        // Half-closed: the server reads the line and then EOF, while the
        // reply direction stays open.
        let mut request = String::new();
        server_side.read_to_string(&mut request).unwrap();
        assert_eq!(request, "{\"op\":\"health\"}\n");
        server_side.write_all(b"pong\n").unwrap();
        drop(server_side);
        let mut reader = LineReader::new(client_side);
        assert_eq!(reader.read_line().unwrap().as_deref(), Some("pong"));
    }

    #[test]
    fn backoff_is_jittered_exponential_and_seed_stable() {
        let p = RetryPolicy {
            retries: 5,
            backoff_ms: 40,
            seed: 9,
        };
        let q = RetryPolicy {
            seed: 10,
            ..p.clone()
        };
        for k in 0..5u32 {
            let base = 40u64 << k;
            let d = p.backoff(k).as_millis() as u64;
            assert!(d >= base / 2 && d < base, "attempt {k}: {d} vs base {base}");
            assert_eq!(p.backoff(k), p.backoff(k), "deterministic per seed");
        }
        assert_ne!(p.backoff(2), q.backoff(2), "different seeds differ");
    }

    #[test]
    fn connect_retry_survives_late_bind() {
        let dir = std::env::temp_dir().join(format!("sw-transport-retry-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("late.sock");
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path.clone());
        let binder = {
            let ep = ep.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(120));
                let l = Listener::bind(&ep).unwrap();
                let _ = l.accept();
            })
        };
        let policy = RetryPolicy {
            retries: 8,
            backoff_ms: 30,
            seed: 4,
        };
        let (_s, used) = NetTransport
            .connect_retry(&ep, Duration::from_millis(200), &policy)
            .expect("late bind");
        assert!(used >= 1, "the first attempt raced a not-yet-bound socket");
        binder.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let ep = Endpoint::Unix(PathBuf::from("/nonexistent/never.sock"));
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 1,
            seed: 0,
        };
        let t0 = Instant::now();
        assert!(NetTransport
            .connect_retry(&ep, Duration::from_millis(50), &policy)
            .is_err());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
