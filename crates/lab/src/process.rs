//! Child-process supervision: the lab spawns real `cpms-broker` and
//! `cpms-proxy` binaries (no in-process shortcuts) and owns their
//! stdin/stdout pipes. The lifecycle contract is the daemons' stdin-EOF
//! rule: a child exits when its stdin pipe closes, so children can never
//! outlive the lab — even if the lab aborts via `std::process::exit`,
//! the OS closes the pipes and the cluster reaps itself.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a graceful shutdown (stdin EOF) may take before SIGKILL.
const REAP_DEADLINE: Duration = Duration::from_secs(3);

/// A supervised child process with piped stdin/stdout.
#[derive(Debug)]
pub struct ChildProc {
    name: String,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
}

impl ChildProc {
    /// Spawns `bin args...` with piped stdin/stdout; stderr passes
    /// through to the lab's stderr so child diagnostics stay visible.
    ///
    /// # Errors
    ///
    /// Spawn failures (missing binary, exec errors).
    pub fn spawn(name: &str, bin: &Path, args: &[String]) -> Result<ChildProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {name} ({}): {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(ChildProc {
            name: name.to_string(),
            child,
            stdin,
            stdout,
        })
    }

    /// The supervision name this child was spawned under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads one header line from the child's stdout (blocking; the
    /// lab's watchdog bounds the wait).
    ///
    /// # Errors
    ///
    /// EOF (the child died before announcing itself) or I/O failures.
    pub fn read_line(&mut self) -> Result<String, String> {
        let reader = self
            .stdout
            .as_mut()
            .ok_or_else(|| format!("{}: stdout already closed", self.name))?;
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err(format!("{}: exited before printing its header", self.name)),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(format!("{}: read header: {e}", self.name)),
        }
    }

    /// SIGKILLs the child immediately — the lab's `kill` fault. Reaps
    /// the zombie.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stdin = None;
        self.stdout = None;
    }

    /// Whether the child is still running.
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Graceful shutdown: close stdin (the daemons' EOF exit signal),
    /// wait up to `REAP_DEADLINE`, then SIGKILL as a backstop.
    pub fn shutdown(&mut self) {
        self.stdin = None; // dropping the pipe delivers EOF
        let deadline = Instant::now() + REAP_DEADLINE;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => break,
            }
        }
        self.kill();
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locates a sibling binary (`cpms-broker`, `cpms-proxy`) next to the
/// running executable in the cargo target directory.
///
/// # Errors
///
/// When the current executable's directory cannot be resolved.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe
        .parent()
        .ok_or("current_exe has no parent directory")?
        .to_path_buf();
    // Test binaries live one level down in target/<profile>/deps.
    if dir.ends_with("deps") {
        dir.pop();
    }
    let candidate = dir.join(name);
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "{name} not found at {} — build the workspace binaries first",
            candidate.display()
        ))
    }
}

/// A running `cpms-broker --http` child and its announced endpoints.
#[derive(Debug)]
pub struct BrokerProc {
    /// The supervised process.
    pub proc: ChildProc,
    /// Wire (management RPC) endpoint.
    pub wire: SocketAddr,
    /// Co-located origin HTTP endpoint.
    pub http: SocketAddr,
    /// Durable store root, when the node runs `--store`.
    pub store_dir: Option<PathBuf>,
}

/// Spawns one backend node: `cpms-broker 127.0.0.1:0 <node> <disk_mb>
/// [--store DIR] --http`, health-checked by parsing both header lines.
///
/// # Errors
///
/// Spawn failures or a malformed startup handshake.
pub fn spawn_broker(
    node: u16,
    disk_mb: u64,
    store_dir: Option<&Path>,
) -> Result<BrokerProc, String> {
    let bin = sibling_binary("cpms-broker")?;
    let mut args = vec![
        "127.0.0.1:0".to_string(),
        node.to_string(),
        disk_mb.to_string(),
    ];
    if let Some(dir) = store_dir {
        args.push("--store".to_string());
        args.push(dir.display().to_string());
    }
    args.push("--http".to_string());
    let name = format!("broker-n{node}");
    let mut proc = ChildProc::spawn(&name, &bin, &args)?;
    let wire: SocketAddr = proc
        .read_line()?
        .parse()
        .map_err(|e| format!("{name}: bad wire address: {e}"))?;
    let http_line = proc.read_line()?;
    let http: SocketAddr = http_line
        .strip_prefix("http ")
        .ok_or_else(|| format!("{name}: expected `http <addr>`, got {http_line:?}"))?
        .parse()
        .map_err(|e| format!("{name}: bad http address: {e}"))?;
    Ok(BrokerProc {
        proc,
        wire,
        http,
        store_dir: store_dir.map(Path::to_path_buf),
    })
}

/// A running `cpms-proxy` child and its announced endpoints.
#[derive(Debug)]
pub struct ProxyProc {
    /// The supervised process.
    pub proc: ChildProc,
    /// Client-facing HTTP endpoint (the distributor).
    pub http: SocketAddr,
    /// Admin endpoint: the controller's [`cpms_mgmt::admin`] wire service.
    pub admin: SocketAddr,
}

/// Spawns the front end: `cpms-proxy --admin 127.0.0.1:0 <WIRE,HTTP>...`,
/// health-checked by parsing the JSON ready line.
///
/// # Errors
///
/// Spawn failures or a malformed ready line.
pub fn spawn_proxy(backends: &[(SocketAddr, SocketAddr)]) -> Result<ProxyProc, String> {
    let bin = sibling_binary("cpms-proxy")?;
    let mut args = vec!["--admin".to_string(), "127.0.0.1:0".to_string()];
    args.extend(backends.iter().map(|(wire, http)| format!("{wire},{http}")));
    let mut proc = ChildProc::spawn("proxy", &bin, &args)?;
    let ready = proc.read_line()?;
    let parsed: serde_json::Value =
        serde_json::from_str(&ready).map_err(|e| format!("proxy: bad ready line: {e}"))?;
    let addr_field = |key: &str| -> Result<SocketAddr, String> {
        parsed
            .get(key)
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("proxy ready line missing {key:?}"))?
            .parse()
            .map_err(|e| format!("proxy: bad {key} address: {e}"))
    };
    Ok(ProxyProc {
        proc,
        http: addr_field("proxy")?,
        admin: addr_field("admin")?,
    })
}
