//! Output plumbing of the one-shot commands against the real binary.

use std::io::Read;
use std::process::{Command, Stdio};

/// `tsg analyze FILE | head -1`: the reader closes the pipe after the
/// first line, long before a large report is written. The write must
/// end quietly — no `failed printing to stdout` panic, no backtrace.
#[test]
fn closed_stdout_pipe_ends_quietly() {
    let dir = std::env::temp_dir().join("tsg-cli-output-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("ring.g");
    let sg = tsg_gen::ring(20_000, 4, 1.5);
    std::fs::write(
        &file,
        tsg_stg::write_stg(&sg, "ring").expect("ring has no prefix"),
    )
    .expect("write ring");

    let mut child = Command::new(env!("CARGO_BIN_EXE_tsg"))
        .arg("analyze")
        .arg(&file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsg analyze");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("tsg exits");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "status {status}, stderr: {stderr}");
}
