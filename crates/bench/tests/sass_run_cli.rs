//! `sass-run` command-line handling: malformed arguments and impossible
//! launches end with a message and exit status 2, never a panic; a good
//! invocation prints the requested instruction trace and memory dump.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use std::path::PathBuf;
use std::process::{Command, Output};

const KERNEL: &str = "\
.kernel probe
    MOV R1, 0x7
    STG.32 R0, 0, R1
    EXIT
";

/// Write the probe kernel to a per-test file and return its path.
fn kernel_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sass-run-cli-{}-{tag}.sass", std::process::id()));
    std::fs::write(&path, KERNEL).unwrap();
    path
}

fn sass_run(tag: &str, args: &[&str]) -> Output {
    let path = kernel_file(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_sass-run")).arg(&path).args(args).output().unwrap();
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn bad_arguments_exit_2_with_a_message() {
    let cases: &[&[&str]] = &[
        &["--grid"],
        &["--block"],
        &["--mem"],
        &["--param"],
        &["--trace"],
        &["--dump"],
        &["--dump", "0"],
        &["--device"],
        &["--grid", "two"],
        &["--block", "-1"],
        &["--mem", "4k"],
        &["--param", "0xZZ"],
        &["--trace", "all"],
        &["--dump", "0", "many"],
        &["--mem", "64", "--dump", "60", "16"],
        &["--dump", "0xffffffff", "2"],
        &["--grid", "0"],
        &["--block", "0"],
    ];
    for (n, args) in cases.iter().enumerate() {
        let out = sass_run(&format!("bad{n}"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_and_dump_print_the_run() {
    let out = sass_run("good", &["--block", "4", "--trace", "2", "--dump", "0", "4"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let traced: Vec<&str> = stdout.lines().filter(|l| l.starts_with('[')).collect();
    assert_eq!(
        traced,
        ["[     0] b0 t0   /*0000*/ MOV R1, 0x7", "[     1] b0 t1   /*0000*/ MOV R1, 0x7"]
    );
    assert!(stdout.contains("completed: 12 dynamic instructions"), "{stdout}");
    assert!(stdout.contains("  00000000: 07 00 00 00"), "{stdout}");
}
