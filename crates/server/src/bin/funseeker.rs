//! `funseeker` — command-line function identification for CET binaries,
//! locally or against the analysis daemon.
//!
//! ```text
//! funseeker [--config 1|2|3|4] [--summary] [--disasm] [--callgraph] [--strict] <binary>…
//! funseeker serve  [--listen ADDR] [--cores N] [--slots N] [--queue N]
//!                  [--max-bytes N] [--max-conns N] [--max-followers N]
//!                  [--disk-cache DIR]
//! funseeker submit [--addr ADDR] [--config 1|2|3|4] [--summary] [--callgraph] <binary>…
//! funseeker stats  [--addr ADDR]
//! funseeker shutdown [--addr ADDR]
//! ```
//!
//! The first form analyzes in-process and prints one function entry
//! address per line (hex), a per-binary summary with `--summary`, or
//! the CET-constrained call graph with `--callgraph`. `serve` runs the
//! daemon; `submit` sends binaries to a running daemon and prints the
//! same default output, so the two paths diff clean. Addresses are
//! `unix:<path>` or `tcp:<host>:<port>`; the default is
//! `unix:$TMPDIR/funseeker.sock`.

use std::io::{self, BufWriter, Write};

use funseeker::{Config, FunSeeker};
use funseeker_client::{Addr, Client};
use funseeker_elf::Image;
use funseeker_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: funseeker [--config 1|2|3|4] [--summary] [--disasm] [--callgraph] [--strict] <binary>...\n\
         \x20      funseeker serve [--listen ADDR] [--cores N] [--slots N] [--queue N] [--max-bytes N] [--max-conns N] [--max-followers N] [--disk-cache DIR]\n\
         \x20      funseeker submit [--addr ADDR] [--config 1|2|3|4] [--summary] [--callgraph] <binary>...\n\
         \x20      funseeker stats [--addr ADDR]\n\
         \x20      funseeker shutdown [--addr ADDR]"
    );
    std::process::exit(2);
}

fn default_addr() -> String {
    format!("unix:{}", std::env::temp_dir().join("funseeker.sock").display())
}

fn parse_config_id(v: &str) -> u8 {
    match v {
        "1" | "2" | "3" | "4" => v.as_bytes()[0] - b'0',
        _ => usage(),
    }
}

fn config_for(id: u8) -> Config {
    match id {
        1 => Config::c1(),
        2 => Config::c2(),
        3 => Config::c3(),
        _ => Config::c4(),
    }
}

/// Exit status of a subcommand that ran to completion (0 or 1), or the
/// stdout write error that cut it short.
type Status = io::Result<i32>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every printer writes through this one buffered handle: a line per
    // `println!` would be a `write(2)` per address.
    let mut out = BufWriter::new(io::stdout().lock());
    let status = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..], &mut out),
        Some("stats") => cmd_stats(&args[1..], &mut out),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        _ => cmd_local(&args, &mut out),
    };
    let code = match status.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // The reader went away (`funseeker bin | head`): nothing left
        // to say to anyone.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("funseeker: cannot write output: {e}");
            1
        }
    };
    // `exit` skips the buffer's destructor, so a failed flush is not
    // retried on the way out.
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// Local analysis (the original CLI)
// ---------------------------------------------------------------------

fn cmd_local(args: &[String], out: &mut impl Write) -> Status {
    let mut config = Config::c4();
    let mut summary = false;
    let mut disasm = false;
    let mut callgraph = false;
    let mut strict = false;
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => {
                let v = it.next().unwrap_or_else(|| usage());
                config = config_for(parse_config_id(v));
            }
            "--summary" => summary = true,
            "--disasm" => disasm = true,
            "--callgraph" => callgraph = true,
            "--strict" => strict = true,
            "-h" | "--help" => usage(),
            _ => paths.push(arg.clone()),
        }
    }
    if paths.is_empty() {
        usage();
    }

    let seeker = FunSeeker::with_config(config).strict(strict);
    // The call graph reads the instruction stream: build it in the sweep.
    let with_stream = (callgraph && !summary) || config.reads_stream();
    let mut failed = false;
    for path in &paths {
        // Memory-maps regular files (zero-copy); pipes and special
        // files fall back to a buffered read inside `Image::load`.
        let bytes = match Image::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        // One parse and one sweep serve the analysis and every printer.
        let prepared = if with_stream {
            funseeker::prepare_with_stream(&bytes)
        } else {
            funseeker::prepare(&bytes)
        };
        let analyzed = prepared.and_then(|p| Ok((seeker.identify_checked(&p)?, p)));
        let (analysis, prepared) = match analyzed {
            Ok(done) => done,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        for warning in analysis.diagnostics.iter() {
            eprintln!("{path}: warning: {warning}");
        }
        if summary {
            print_summary(out, path, &analysis)?;
            continue;
        }
        if paths.len() > 1 {
            writeln!(out, "# {path}")?;
        }
        if callgraph {
            print_call_graph(out, &prepared, &analysis)?;
        } else if disasm {
            print_disassembly(out, &prepared.parsed, &analysis)?;
        } else {
            print_functions(out, &analysis)?;
        }
    }
    Ok(i32::from(failed))
}

/// The default output: one function entry address per line, in hex.
fn print_functions(out: &mut impl Write, analysis: &funseeker::Analysis) -> io::Result<()> {
    for addr in &analysis.functions {
        writeln!(out, "{addr:#x}")?;
    }
    Ok(())
}

fn print_summary(
    out: &mut impl Write,
    path: &str,
    analysis: &funseeker::Analysis,
) -> io::Result<()> {
    writeln!(
        out,
        "{path}: {} functions ({} endbr, {} filtered, {} call targets, {} tail targets, {} decode errors){}",
        analysis.functions.len(),
        analysis.endbr_count,
        analysis.filtered_endbrs,
        analysis.call_target_count,
        analysis.tail_target_count,
        analysis.decode_errors,
        if analysis.cet_enabled { "" } else { " [no CET property note]" }
    )
}

/// Prints the call graph over the identified entries: every resolved
/// direct/tail edge, then the CET-constrained indirect summary.
fn print_call_graph(
    out: &mut impl Write,
    prepared: &funseeker::Prepared<'_>,
    analysis: &funseeker::Analysis,
) -> io::Result<()> {
    let graph = funseeker::build_call_graph(&prepared.index, &analysis.functions);
    writeln!(
        out,
        "{} nodes, {} direct edges, {} tail edges",
        graph.nodes.len(),
        graph.direct_count(),
        graph.tail_count(),
    )?;
    for e in &graph.edges {
        let kind = match e.kind {
            funseeker::CallKind::Direct => "call",
            funseeker::CallKind::Tail => "tail",
        };
        match e.caller {
            Some(caller) => {
                writeln!(out, "{:#x}: {kind} {:#x} -> {:#x}", caller, e.site, e.callee)?
            }
            None => writeln!(out, "?: {kind} {:#x} -> {:#x}", e.site, e.callee)?,
        }
    }
    writeln!(
        out,
        "indirect: {} call sites, {} jump sites, {} notrack; {} endbr targets",
        graph.indirect_call_sites.len(),
        graph.indirect_jump_sites.len(),
        graph.notrack_sites,
        graph.indirect_targets.len(),
    )
}

/// Prints the disassembly of every code region with identified function
/// entries marked.
fn print_disassembly(
    out: &mut impl Write,
    parsed: &funseeker::parse::Parsed<'_>,
    analysis: &funseeker::Analysis,
) -> io::Result<()> {
    let mode = parsed.mode();
    for region in parsed.code.regions() {
        writeln!(out, "\nDisassembly of section {}:", region.name)?;
        let mut off = 0usize;
        while off < region.bytes.len() {
            let addr = region.addr.wrapping_add(off as u64);
            if analysis.functions.contains(&addr) {
                writeln!(out, "\n{addr:#x} <fn>:")?;
            }
            match funseeker_disasm::format_insn(&region.bytes[off..], addr, mode) {
                Ok((text, len)) => {
                    writeln!(out, "  {addr:#x}: {text}")?;
                    off += len;
                }
                Err(_) => {
                    writeln!(out, "  {addr:#x}: (bad) {:02x}", region.bytes[off])?;
                    off += 1;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Daemon subcommands
// ---------------------------------------------------------------------

fn parse_addr(s: &str) -> Addr {
    Addr::parse(s).unwrap_or_else(|e| {
        eprintln!("funseeker: {e}");
        std::process::exit(2);
    })
}

fn parse_num(v: &str) -> usize {
    v.parse().unwrap_or_else(|_| usage())
}

fn cmd_serve(args: &[String]) -> Status {
    // `--cores` must fix the pool width before anything touches the
    // global pool — including the config defaults below, which derive
    // `analyze_slots` from it — so scan for it first.
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--cores" {
            let n = parse_num(it.next().map(String::as_str).unwrap_or_else(|| usage()));
            if !funseeker_pool::configure_global(n) {
                eprintln!("funseeker serve: worker pool already running, --cores ignored");
            }
        }
    }
    let mut config = ServerConfig::unix(std::env::temp_dir().join("funseeker.sock"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--listen" => config.listen = parse_addr(value()),
            "--slots" => config.analyze_slots = parse_num(value()),
            "--queue" => config.queue_cap = parse_num(value()),
            "--max-bytes" => config.max_inflight_bytes = parse_num(value()),
            "--max-conns" => config.max_connections = parse_num(value()),
            "--max-followers" => config.max_followers = parse_num(value()),
            "--disk-cache" => config.disk_cache = Some(value().into()),
            "--cores" => {
                value(); // consumed by the pre-scan above
            }
            _ => usage(),
        }
    }
    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("funseeker serve: {e}");
        std::process::exit(1);
    });
    eprintln!("funseeker serve: listening on {}", server.addr());
    // Blocks until a client's `shutdown` request, then drains.
    server.wait();
    eprintln!("funseeker serve: drained, exiting");
    Ok(0)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("funseeker: cannot connect to {addr}: {e}");
        std::process::exit(1);
    })
}

fn cmd_submit(args: &[String], out: &mut impl Write) -> Status {
    let mut addr = default_addr();
    let mut config_id = 4u8;
    let mut summary = false;
    let mut callgraph = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--config" => config_id = parse_config_id(it.next().unwrap_or_else(|| usage())),
            "--summary" => summary = true,
            "--callgraph" => callgraph = true,
            "-h" | "--help" => usage(),
            _ => paths.push(arg.clone()),
        }
    }
    if paths.is_empty() {
        usage();
    }

    let mut client = connect(&addr);
    let mut failed = false;
    for path in &paths {
        let bytes = match Image::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        match client.analyze_retry(&bytes, config_id, callgraph, 8) {
            Ok(reply) => {
                if summary {
                    print_summary(out, path, &reply.analysis)?;
                    continue;
                }
                if paths.len() > 1 {
                    writeln!(out, "# {path}")?;
                }
                if callgraph {
                    match reply.analysis.interproc {
                        Some(ip) => writeln!(
                            out,
                            "{} cfgs, {} blocks, {} cfg edges; {} direct, {} tail; {} indirect sites -> {} targets",
                            ip.cfg_count,
                            ip.block_count,
                            ip.cfg_edge_count,
                            ip.direct_call_edges,
                            ip.tail_call_edges,
                            ip.indirect_sites,
                            ip.indirect_targets,
                        )?,
                        None => writeln!(out, "(no interprocedural summary)")?,
                    }
                } else {
                    print_functions(out, &reply.analysis)?;
                }
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    Ok(i32::from(failed))
}

fn addr_only(args: &[String]) -> String {
    let mut addr = default_addr();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    addr
}

fn cmd_stats(args: &[String], out: &mut impl Write) -> Status {
    let mut client = connect(&addr_only(args));
    match client.stats() {
        Ok(stats) => {
            for (name, value) in stats.iter() {
                writeln!(out, "{name} {value}")?;
            }
            Ok(0)
        }
        Err(e) => {
            eprintln!("funseeker stats: {e}");
            Ok(1)
        }
    }
}

fn cmd_shutdown(args: &[String]) -> Status {
    let mut client = connect(&addr_only(args));
    if let Err(e) = client.shutdown() {
        eprintln!("funseeker shutdown: {e}");
        return Ok(1);
    }
    Ok(0)
}
