//! Server processes: spawn on an ephemeral port, shut down over the wire,
//! and kill on every other exit path.

use lre_serve::Client;
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One running server process. Dropping it kills the process and waits
/// for it, so an error, a failed check or a panic never leaks a child.
pub struct Proc {
    name: String,
    child: Child,
    /// Held open: the server's standard output stays a live pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Proc {
    /// Start `cmd` with `--addr 127.0.0.1:0` and wait for its
    /// `listening on ADDR` line.
    pub fn spawn(name: &str, mut cmd: Command) -> Result<Proc, String> {
        let mut child = cmd
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = Proc {
            name: name.to_string(),
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = proc
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading {name}'s output: {e}"))?;
            if n == 0 {
                return Err(format!("{name} exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                proc.addr = addr
                    .parse()
                    .map_err(|e| format!("{name} printed a bad address {addr:?}: {e}"))?;
                return Ok(proc);
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading {}'s status: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM for {}", self.name))
    }

    /// Ask the server to shut down (a router passes it on to its
    /// replicas).
    fn request_shutdown(&self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutting down {}: {e}", self.name))
    }

    /// Wait for the process to exit cleanly.
    fn wait_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for {}: {e}", self.name)),
            }
        }
        Err(format!("{} did not exit after shutdown", self.name))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The processes of one workload's serving topology.
pub struct Fleet {
    /// The router first, when there is one.
    procs: Vec<Proc>,
    /// Where the load generator sends.
    pub entry: SocketAddr,
    /// A scoring server reached without the router.
    pub direct: SocketAddr,
    pub routed: bool,
}

impl Fleet {
    /// A fleet of scoring servers, optionally fronted by a router.
    pub fn new(servers: Vec<Proc>, router: Option<Proc>) -> Fleet {
        let direct = servers[0].addr;
        let entry = router.as_ref().map_or(direct, |r| r.addr);
        let routed = router.is_some();
        let procs = router.into_iter().chain(servers).collect();
        Fleet {
            procs,
            entry,
            direct,
            routed,
        }
    }

    /// Addresses of the scoring servers (not the router).
    pub fn servers(&self) -> Vec<SocketAddr> {
        self.procs[usize::from(self.routed)..]
            .iter()
            .map(|p| p.addr)
            .collect()
    }

    /// Sum of the processes' peak resident sets, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::peak_rss_mb).sum()
    }

    /// Shut the fleet down through its front (a router passes the
    /// request on) and wait for every process to exit.
    pub fn shutdown(self) -> Result<(), String> {
        if self.routed {
            self.procs[0].request_shutdown()?;
        } else {
            self.procs.iter().try_for_each(Proc::request_shutdown)?;
        }
        self.procs.into_iter().try_for_each(Proc::wait_exit)
    }
}
