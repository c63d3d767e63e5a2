//! Run hygiene: where the run happened (host fingerprint), where its
//! files go (a per-pid temp dir removed on every exit path), which TCP
//! ports it may use, and how much memory it peaked at.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Scratch root, relative to the working directory: the benchmark may
/// only write inside its checkout, and relative paths keep unix socket
/// names under the 108-byte `sun_path` limit however deep the checkout
/// sits.
pub const TMP_ROOT: &str = ".perf_tmp";

/// `.perf_tmp/<pid>/`, removed — with every socket, snapshot and
/// checkpoint in it — when dropped. `main` returns an `ExitCode`
/// instead of calling `process::exit`, so the guard runs on success,
/// failure and unwinding panic alike.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create() -> std::io::Result<TmpDir> {
        let dir = Path::new(TMP_ROOT).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A TCP port that was free a moment ago: bind `127.0.0.1:0`, read the
/// port the kernel picked, release it. Fixed ports collide as soon as
/// two runs share a host.
pub fn free_port() -> std::io::Result<u16> {
    Ok(std::net::TcpListener::bind("127.0.0.1:0")?
        .local_addr()?
        .port())
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host fingerprint as JSON members (no braces): a number is only
/// comparable to another taken on the same cores, ISA and toolchain.
pub fn fingerprint_json(seed: u64, seconds: f64, quick: bool) -> String {
    format!(
        "\"nproc\":{},\"isa\":\"{}\",\"git_sha\":\"{}\",\"rustc\":\"{}\",\
         \"seed\":{seed},\"seconds\":{seconds},\"quick\":{quick}",
        std::thread::available_parallelism().map_or(0, usize::from),
        sw_kernels::KernelIsa::detect(),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        sw_serve::json::escape(&tool_line("rustc", &["-V"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_dir_is_removed_on_drop() {
        let path = {
            let t = TmpDir::create().unwrap();
            std::fs::write(t.path().join("x.sock"), b"").unwrap();
            t.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn free_ports_and_rss_are_plausible() {
        assert!(free_port().unwrap() >= 1024);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn fingerprint_is_valid_json() {
        let v = crate::json::parse(&format!("{{{}}}", fingerprint_json(42, 25.0, false))).unwrap();
        assert!(v.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(42.0));
    }
}
