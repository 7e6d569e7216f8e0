//! The client side: launching `spiderd`, one keep-alive connection, and the
//! `/proc` readings the run record and the CPU / memory metrics come from.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::THREADS;

/// A running `spiderd` child process.
pub struct Spiderd {
    child: Child,
    pub addr: SocketAddr,
}

/// The flags every launch uses (also printed in the run record).
pub fn spiderd_flags(data_dir: Option<&Path>) -> Vec<String> {
    let mut flags = vec![
        "--addr".to_owned(),
        "127.0.0.1:0".to_owned(),
        "--threads".to_owned(),
        THREADS.to_string(),
    ];
    if let Some(dir) = data_dir {
        flags.push("--data-dir".to_owned());
        flags.push(dir.display().to_string());
    }
    flags
}

impl Spiderd {
    /// Launch `bin` and wait for its "listening on" line. Every `ROUTES_*`
    /// variable of the caller is cleared so only the defaults and
    /// `ROUTES_THREADS` apply.
    pub fn launch(bin: &Path, data_dir: Option<&Path>) -> io::Result<Spiderd> {
        let mut cmd = Command::new(bin);
        cmd.args(spiderd_flags(data_dir));
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("ROUTES_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("ROUTES_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Spiderd { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "spiderd did not report its address (stdout: {line:?})"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then wait for the process to exit (killing it if
    /// the graceful drain does not finish in time).
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.send(b"POST /shutdown HTTP/1.1\r\nhost: bench\r\n\r\n"));
        let deadline = Instant::now() + Duration::from_secs(20);
        while asked.is_ok() && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other(
            "spiderd did not exit after POST /shutdown",
        ))
    }
}

impl Drop for Spiderd {
    fn drop(&mut self) {
        // Only reached on an error path: never leave the child running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A status and body read off the connection.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Write one request and read its whole response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("response head is not UTF-8"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("malformed status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::other("response without content-length"))?;
        let total = head_end + length;
        if self.buf.len() < total {
            let have = self.buf.len();
            self.buf.resize(total, 0);
            self.stream.read_exact(&mut self.buf[have..])?;
        }
        Ok(Reply {
            status,
            body: self.buf[head_end..total].to_vec(),
        })
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Linux reports process CPU time in clock ticks of this length.
const TICK_MS: f64 = 10.0;

/// User + system CPU of a process, in milliseconds.
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((ticks(11)? + ticks(12)?) * TICK_MS)
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let values: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (values.get(7).copied().unwrap_or(0), values.iter().sum())
}

/// The filesystem type holding `path` (longest mount-point prefix in
/// `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let _device = parts.next()?;
            let point = parts.next()?;
            let kind = parts.next()?;
            path.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// The commit of the checkout, when it is a git work tree.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    if sha.is_empty() {
        "unknown (not a git checkout)".to_owned()
    } else {
        sha
    }
}
