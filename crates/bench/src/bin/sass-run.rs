//! `sass-run` — assemble and execute a SASS-like kernel from a text file
//! on a simulated device.
//!
//! ```text
//! sass-run <file.sass> [--device kepler|volta] [--grid N] [--block N]
//!          [--mem BYTES] [--param WORD]... [--dump OFFSET LEN] [--trace N]
//!          [--trace-out FILE]
//! ```
//!
//! The kernel text uses the `gpu_arch::asm` syntax (see that module's
//! docs). Parameters become the constant bank read by `LDP`; `--dump`
//! hex-dumps a region of global memory after the run. `--trace-out`
//! streams every engine hook-point event (instruction retired, memory
//! access, barrier, branch, fault, DUE) as JSON lines to FILE; the run
//! always ends with one machine-readable `{"report":"sass-run",...}`
//! line on stdout. A missing or malformed flag value, a `--dump` range
//! past the end of memory, or a launch with no threads prints a message
//! and exits with status 2.

use std::io::Write as _;
use std::str::FromStr;

use gpu_arch::{asm, DeviceModel, Kernel, LaunchConfig};
use gpu_sim::{try_run_with_sink, ExecStatus, GlobalMemory, RunOptions};
use obs::{JsonlTraceSink, RunReport, TraceEvent, TraceSink};

const USAGE: &str = "usage: sass-run <file.sass> [--device kepler|volta] [--grid N] [--block N] \
                     [--mem BYTES] [--param WORD]... [--dump OFF LEN] [--trace N] \
                     [--trace-out FILE]";

/// Print `msg` and exit with the command-line-error status.
fn bad_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The next argument, a value of `flag`: advances `i` onto it.
fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i).map_or_else(|| bad_usage(&format!("{flag} requires a value")), String::as_str)
}

/// The next argument, a numeric value of `flag`.
fn number<T: FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    let raw = value(args, i, flag);
    raw.parse().unwrap_or_else(|_| bad_usage(&format!("bad {flag} value `{raw}`")))
}

/// The next argument, a decimal or `0x` hex word value of `flag`.
fn word(args: &[String], i: &mut usize, flag: &str) -> u32 {
    let raw = value(args, i, flag);
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u32::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    };
    parsed.unwrap_or_else(|| bad_usage(&format!("bad {flag} word `{raw}`")))
}

/// The hook-point sinks one run feeds: the first `limit` retired
/// instructions rendered as text (`--trace`), and every event as JSON
/// lines (`--trace-out`).
struct Sinks<'k, W: std::io::Write> {
    kernel: &'k Kernel,
    limit: usize,
    lines: Vec<String>,
    jsonl: Option<JsonlTraceSink<W>>,
}

impl<W: std::io::Write> TraceSink for Sinks<'_, W> {
    fn event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::InstrRetired { idx, block, warp, lane, pc, .. } = *ev {
            if self.lines.len() < self.limit {
                let ins = &self.kernel.instrs[pc as usize];
                self.lines.push(if lane == u32::MAX {
                    // Warp-wide instruction (MMA, SHFL): one line per warp.
                    format!("[{idx:>6}] warp{warp:<3} {ins}")
                } else {
                    format!("[{idx:>6}] b{block} t{lane:<3} /*{pc:04}*/ {ins}")
                });
            }
        }
        if let Some(sink) = self.jsonl.as_mut() {
            sink.event(ev);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        bad_usage(USAGE);
    }
    let path = &args[0];
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let kernel = match asm::assemble(&source) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("assembly error in {path}: {e}");
            std::process::exit(1);
        }
    };

    let mut device = DeviceModel::named("v100-sim");
    let mut grid = 1u32;
    let mut block = 32u32;
    let mut mem_bytes = 4096u32;
    let mut params = Vec::new();
    let mut dump: Option<(u32, u32)> = None;
    let mut trace = 0usize;
    let mut trace_out: Option<String> = None;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--device" => {
                device = match value(&args, &mut i, flag) {
                    "kepler" => DeviceModel::named("k40c-sim"),
                    "volta" => DeviceModel::named("v100-sim"),
                    other => bad_usage(&format!("unknown device `{other}`")),
                };
            }
            "--grid" => grid = number(&args, &mut i, flag),
            "--block" => block = number(&args, &mut i, flag),
            "--mem" => mem_bytes = number(&args, &mut i, flag),
            "--param" => params.push(word(&args, &mut i, flag)),
            "--trace" => trace = number(&args, &mut i, flag),
            "--trace-out" => trace_out = Some(value(&args, &mut i, flag).to_string()),
            "--dump" => {
                let off = word(&args, &mut i, flag);
                dump = Some((off, word(&args, &mut i, flag)));
            }
            other => bad_usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if let Some((off, len)) = dump {
        if off.checked_add(len).is_none_or(|end| end > mem_bytes) {
            bad_usage(&format!("--dump {off} {len} reaches past the {mem_bytes}-byte memory"));
        }
    }
    println!(
        "kernel `{}`: {} instructions, {} regs/thread, {} B shared",
        kernel.name,
        kernel.len(),
        kernel.regs_per_thread,
        kernel.shared_bytes
    );
    let launch = LaunchConfig::new(grid, block, params);
    let jsonl = trace_out.as_deref().map(|path| {
        let file = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        }));
        JsonlTraceSink::new(file)
    });
    let mut sinks = Sinks { kernel: &kernel, limit: trace, lines: Vec::new(), jsonl };
    let traced = trace > 0 || sinks.jsonl.is_some();
    let out = try_run_with_sink(
        &device,
        &kernel,
        &launch,
        GlobalMemory::new(mem_bytes),
        &RunOptions::golden(),
        traced.then_some(&mut sinks as &mut dyn TraceSink),
    )
    .unwrap_or_else(|e| bad_usage(&format!("cannot launch {}: {e}", kernel.name)));
    if let Some(s) = sinks.jsonl {
        s.into_inner().flush().expect("flush trace file");
    }
    for line in &sinks.lines {
        println!("{line}");
    }
    match out.status {
        ExecStatus::Completed => println!(
            "completed: {} dynamic instructions, {:.0} modeled cycles, IPC {:.2}",
            out.counts.total, out.timing.cycles, out.timing.ipc
        ),
        ExecStatus::Due(kind) => println!("DUE: {kind}"),
    }
    let mut report = RunReport::new("sass-run");
    report
        .push_str("kernel", &kernel.name)
        .push_str(
            "status",
            match out.status {
                ExecStatus::Completed => "completed",
                ExecStatus::Due(kind) => kind.name(),
            },
        )
        .push_uint("instructions", out.counts.total)
        .push_float("cycles", out.timing.cycles)
        .push_float("ipc", out.timing.ipc)
        .push_float("occupancy", out.timing.achieved_occupancy);
    if let Some(path) = &trace_out {
        report.push_str("trace_out", path);
    }
    println!("{}", report.to_json_line());
    if let Some((off, len)) = dump {
        println!("memory[{off:#x}..{:#x}]:", off + len);
        let raw = out.memory.raw();
        for row in (off..off + len).step_by(16) {
            print!("  {row:08x}:");
            for b in row..(row + 16).min(off + len) {
                print!(" {:02x}", raw[b as usize]);
            }
            println!();
        }
    }
}
