//! The administrator's remote console as a CLI (the paper's §3 remote
//! console, minus the Java applet).
//!
//! Usage:
//!   cpms-console \[--watch\] \[NODES\] \[DISK_MB\]
//!
//! Starts NODES broker threads (default 4) with DISK_MB disks (default
//! 256) and reads [`Shell`] commands from stdin — interactively or from
//! a script — until EOF or a `quit`/`exit` line:
//!
//!   echo "publish /a.html html 1024 0,1
//!         ls
//!         audit" | cargo run -p cpms-mgmt --bin cpms-console
//!
//! Exits 1 if any command answered `ok: false`: a command error or a
//! health command that found a problem.
//!
//! With `--watch` the console instead takes a one-shot observability
//! pass: it installs a flight recorder + SLO watchdog on the cluster's
//! registry, samples briefly, renders the merged `top` and `health`
//! views, and exits — nonzero when `health` reports a breach or an
//! unreachable node. The same views are available interactively as the
//! `top` and `health` shell commands.

use cpms_mgmt::shell::Shell;
use cpms_mgmt::{Cluster, Controller};
use cpms_obs::{MetricsRegistry, Sampler, SloRule, SloWatchdog};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// `--watch` sampling interval; the pass waits a few rounds so rates
/// and SLO windows have at least two points to difference.
const WATCH_INTERVAL: Duration = Duration::from_millis(50);

/// SLO the one-shot watch pass evaluates: the management plane should
/// not be producing op errors.
const WATCH_SLO: &str = "mgmt_op_errors_total rate <= 0 over 5s";

fn main() {
    let mut watch = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--watch" {
            watch = true;
        } else {
            positional.push(arg);
        }
    }
    let mut args = positional.into_iter();
    let nodes: usize = args
        .next()
        .map(|s| s.parse().expect("NODES must be a number"))
        .unwrap_or(4);
    let disk_mb: u64 = args
        .next()
        .map(|s| s.parse().expect("DISK_MB must be a number"))
        .unwrap_or(256);

    eprintln!("cpms-console: {nodes} broker(s), {disk_mb} MB disks. `help` for commands.");
    let controller = Controller::new(Cluster::start(nodes, disk_mb << 20));
    let registry = Arc::clone(controller.metrics());
    let mut shell = Shell::new(controller);
    if watch {
        watch_once(shell, &registry);
        return;
    }

    let mut stdout = std::io::stdout();
    let mut failures = 0u32;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if matches!(line.trim(), "quit" | "exit") {
            break;
        }
        let response = shell.execute(&line);
        failures += u32::from(!response.ok);
        if !response.output.is_empty() {
            let _ = writeln!(stdout, "{}", response.output);
        }
    }
    shell.shutdown();
    if failures > 0 {
        // Failed commands and health checks that found drift or down
        // nodes: scripts and CI must see a failed run, not a clean exit.
        eprintln!("cpms-console: {failures} command(s) failed");
        std::process::exit(1);
    }
}

/// One-shot `--watch` pass: recorder + watchdog on, a few sampling
/// rounds, then the merged `top` and `health` views on stdout.
fn watch_once(mut shell: Shell, registry: &Arc<MetricsRegistry>) {
    SloWatchdog::install(
        registry,
        vec![SloRule::parse(WATCH_SLO).expect("literal SLO rule parses")],
    );
    let mut sampler = Sampler::start(registry, WATCH_INTERVAL);
    std::thread::sleep(WATCH_INTERVAL * 4);
    let mut sick = false;
    for command in ["top", "health"] {
        let response = shell.execute(command);
        sick |= !response.ok;
        println!("{}", response.output);
    }
    sampler.stop();
    shell.shutdown();
    if sick {
        eprintln!("cpms-console: watch pass found the cluster unhealthy");
        std::process::exit(1);
    }
    eprintln!("cpms-console: watch pass clean");
}
