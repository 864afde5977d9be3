//! The `tsg serve` child process and the client connections to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a freshly spawned server may take to report its address.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `tsg serve --listen tcp:127.0.0.1:0` child. Dropping it
/// kills the process and waits until it has ended.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `tsg serve` with `threads` workers and waits until it
    /// listens.
    ///
    /// # Errors
    ///
    /// Returns spawn failures, or a server that exits or stays silent
    /// instead of reporting its address.
    pub fn spawn(tsg: &Path, threads: usize) -> io::Result<Server> {
        let mut command = Command::new(tsg);
        command
            .args(["serve", "--threads", &threads.to_string()])
            // analyze_large frames reach ~0.8 MB, close to the 1 MiB
            // default cap.
            .args(["--max-request-bytes", "8388608"])
            .args(["--listen", "tcp:127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // SAFETY: the closure runs in the forked child before exec and
        // only makes the async-signal-safe prctl(2) call.
        unsafe {
            command.pre_exec(|| {
                // The server dies with this process even when it is killed
                // before `Drop` can stop the server.
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                    Ok(())
                } else {
                    Err(io::Error::last_os_error())
                }
            });
        }
        let mut child = command.spawn()?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // The reader thread forwards the listening line and then keeps
        // draining stderr so the server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("tsg serve: listening on tcp ") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                    let _ = tx.send(addr);
                } else {
                    eprintln!("{line}");
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let addr = rx
            .recv_timeout(LISTEN_TIMEOUT)
            .map_err(|_| io::Error::other("tsg serve did not report a listening address"))?;
        server.addr = addr
            .parse()
            .map_err(|e| io::Error::other(format!("bad listening address {addr:?}: {e}")))?;
        Ok(server)
    }

    /// Opens one client connection.
    ///
    /// # Errors
    ///
    /// Returns connect failures.
    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 20, stream.try_clone()?),
            writer: stream,
        })
    }

    /// User plus system CPU time the server has used so far, in ms.
    ///
    /// # Errors
    ///
    /// Returns `/proc` read or parse failures.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name, which may itself
        // hold spaces: state is field 3, utime 14, stime 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("unreadable /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("unreadable /proc stat"))
        };
        Ok((tick(11)? + tick(12)?) * 1000.0 / clock_ticks_per_second())
    }

    /// Peak resident set size (`VmHWM`) of the server, in MB.
    ///
    /// # Errors
    ///
    /// Returns `/proc` read or parse failures.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value; any name is
    // allowed and an unknown one returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// One client connection speaking the newline-delimited protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Sends `body` (a JSON object) under `id` and reads the response
    /// line, without its newline, into `line`.
    ///
    /// # Errors
    ///
    /// Returns I/O failures, and a closed connection as `UnexpectedEof`.
    pub fn call(&mut self, id: u64, body: &str, line: &mut String) -> io::Result<()> {
        self.writer.write_all(request_line(id, body).as_bytes())?;
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(())
    }
}

/// The request line for `body` (a JSON object) under numeric `id`.
pub fn request_line(id: u64, body: &str) -> String {
    let fields = body
        .strip_prefix('{')
        .expect("a request body is a JSON object");
    format!("{{\"id\":{id},{fields}\n")
}
