//! What every `swsearch` integration test needs: spawn the binary, give
//! each test a directory of its own, cut hit lists out of the output,
//! and own the daemons a test boots.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

pub(crate) fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swsearch")
}

pub(crate) fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn swsearch")
}

pub(crate) fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// Run `swsearch` and require exit 0; returns its stdout.
pub(crate) fn ok(args: &[&str]) -> String {
    let o = run(args);
    let text = stdout(&o);
    assert!(
        o.status.success(),
        "swsearch {} exited {:?}:\n{text}{}",
        args.join(" "),
        o.status.code(),
        String::from_utf8_lossy(&o.stderr)
    );
    text
}

/// `swsearch trace-check` over `args` (`--trace F`, `--metrics F`): it
/// must pass and print one `: OK (` line per file.
pub(crate) fn trace_check(args: &[&str]) {
    let mut argv = vec!["trace-check"];
    argv.extend_from_slice(args);
    let text = ok(&argv);
    assert_eq!(text.matches(": OK (").count(), args.len() / 2, "{text}");
}

/// stdout, then stderr: what a shell's `> file 2>&1` keeps.
pub(crate) fn combined(o: &Output) -> String {
    format!("{}{}", stdout(o), String::from_utf8_lossy(&o.stderr))
}

/// Start `swsearch` in the background with its output piped; `finish`
/// collects it.
pub(crate) fn spawn(args: &[&str]) -> Child {
    Command::new(bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn swsearch")
}

/// Wait for a `spawn`ed run.
pub(crate) fn finish(child: Child) -> Output {
    child.wait_with_output().expect("wait swsearch")
}

/// One fresh directory per test: the tests of a binary run at once, and
/// a file one test rewrites under another's search is read half-written.
/// The directory is removed when the test passes and kept when it fails.
pub(crate) struct WorkDir(PathBuf);

impl WorkDir {
    pub(crate) fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("swsearch-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("work dir");
        WorkDir(dir)
    }

    pub(crate) fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    pub(crate) fn read(&self, name: &str) -> String {
        std::fs::read_to_string(self.0.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
    }

    /// Write `text` to `name`; the file's path.
    pub(crate) fn write(&self, name: &str, text: &str) -> String {
        let path = self.path(name);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {name}: {e}"));
        path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A child process (daemon, coordinator) that is killed if the test
/// fails before it exits by itself.
pub(crate) struct Daemon(pub(crate) Child);

impl Daemon {
    /// Start `swsearch` with stdout and stderr appended to `log`.
    pub(crate) fn spawn(args: &[&str], log: &str) -> Self {
        let file = std::fs::File::create(log).expect("daemon log");
        let child = Command::new(bin())
            .args(args)
            .stdout(Stdio::from(file.try_clone().expect("daemon log")))
            .stderr(Stdio::from(file))
            .spawn()
            .expect("spawn swsearch");
        Daemon(child)
    }

    /// Wait for the process to exit by itself; true on exit 0.
    pub(crate) fn wait(&mut self) -> bool {
        self.0.wait().expect("wait swsearch").success()
    }

    /// SIGKILL the process and reap it.
    pub(crate) fn sigkill(&mut self) {
        self.0.kill().expect("SIGKILL swsearch");
        self.0.wait().expect("reap swsearch");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Poll `submit --health` at `endpoint` (a unix socket path or
/// `tcp://host:port`) until the daemon answers; panics after 10 s.
pub(crate) fn wait_ready(endpoint: &str) {
    for _ in 0..400 {
        if run(&submit(endpoint, &["--health"])).status.success() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon at {endpoint} never became ready");
}

/// Poll `submit --status JOB` at `endpoint` until its reply contains
/// `want`; panics after 10 s.
pub(crate) fn wait_status(endpoint: &str, job: u64, want: &str) {
    let job = job.to_string();
    for _ in 0..400 {
        let o = run(&submit(endpoint, &["--status", &job]));
        if stdout(&o).contains(want) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {job} at {endpoint} never reported {want}");
}

/// A TCP port on 127.0.0.1 that was free a moment ago, so tests that
/// run at once do not collide on fixed ports.
pub(crate) fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral port")
        .port()
}

/// The `n`-th record (1-based) of a FASTA text, header line included.
pub(crate) fn record(fasta: &str, n: usize) -> String {
    let mut seen = 0;
    fasta
        .split_inclusive('\n')
        .filter(|l| {
            seen += usize::from(l.starts_with('>'));
            seen == n
        })
        .collect()
}

/// The first `n` records of a FASTA text.
pub(crate) fn records(fasta: &str, n: usize) -> String {
    let mut seen = 0;
    fasta
        .split_inclusive('\n')
        .take_while(|l| {
            seen += usize::from(l.starts_with('>'));
            seen <= n
        })
        .collect()
}

/// The first `n` lines of a text, each with its newline.
pub(crate) fn head(text: &str, n: usize) -> String {
    text.split_inclusive('\n').take(n).collect()
}

/// From the `merged` line on: the hit list `hetero` prints.
pub(crate) fn hit_lines(text: &str) -> Vec<String> {
    text.lines()
        .skip_while(|l| !l.starts_with("merged"))
        .map(str::to_string)
        .collect()
}

/// The lines holding a tab: `search --tabular` rows.
pub(crate) fn tabular_rows(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.contains('\t')).collect()
}

/// Rank rows of a hit list: whitespace, then a digit.
pub(crate) fn rank_rows(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            let body = l.trim_start();
            body.len() < l.len() && body.starts_with(|c: char| c.is_ascii_digit())
        })
        .collect()
}

/// Everything after a `submit`'s first line (its job summary).
pub(crate) fn after_ack(text: &str) -> Vec<&str> {
    text.lines().skip(1).collect()
}

/// The lines of wire hits (`submit --json`, `search --shards --json`).
pub(crate) fn json_ranks(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.contains("\"rank\"")).collect()
}

/// Rank rows of a `search --shards` report: `^ *[0-9]+ +-?[0-9]+ `.
pub(crate) fn shard_rows(text: &str) -> Vec<&str> {
    fn digits(s: &str) -> &str {
        s.trim_start_matches(|c: char| c.is_ascii_digit())
    }
    text.lines()
        .filter(|l| {
            let rank = l.trim_start_matches(' ');
            let after_rank = digits(rank);
            let score = after_rank.trim_start_matches(' ');
            let unsigned = score.strip_prefix('-').unwrap_or(score);
            let after_score = digits(unsigned);
            after_rank.len() < rank.len()
                && score.len() < after_rank.len()
                && after_score.len() < unsigned.len()
                && after_score.starts_with(' ')
        })
        .collect()
}

/// The value of the sample line `name value` in a Prometheus scrape.
pub(crate) fn sample(scrape: &str, name: &str) -> Option<u64> {
    scrape.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok()).flatten()
    })
}

/// The argv of `swsearch submit --socket ENDPOINT ARGS...`.
pub(crate) fn submit<'a>(endpoint: &'a str, args: &[&'a str]) -> Vec<&'a str> {
    [&["submit", "--socket", endpoint][..], args].concat()
}
