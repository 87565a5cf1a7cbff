//! The paper's §III study, replayed on a real binary from your system:
//! where do the end-branch instructions live, and how many functions
//! carry one?
//!
//! ```text
//! cargo run --example inspect_system_binary [path]   # default: /bin/ls
//! ```
//!
//! On a CET-enabled distro (Debian 12+, Ubuntu 22.04+, Fedora) system
//! binaries are compiled with `-fcf-protection=full`, so this shows live
//! Table I / Figure 3 style numbers for genuine production code.

use std::collections::BTreeSet;

use funseeker::prepare;
use funseeker_elf::Elf;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "/bin/ls".to_owned());
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let prepared = match prepare(&bytes) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot analyze {path}: {e}");
            std::process::exit(1);
        }
    };
    let parsed = &prepared.parsed;
    let index = &prepared.index;

    // --- end-branch census over the code regions, straight from the
    // shared sweep index ---
    let endbrs: BTreeSet<u64> = index.endbrs.iter().copied().collect();
    let call_targets = &index.call_targets;
    let jmp_targets = index.jmp_targets();
    let mut setjmp_returns = BTreeSet::new();
    for &(after, target) in &index.call_sites {
        if let Some(name) = parsed.plt.name_at(target) {
            if funseeker::is_indirect_return_name(name) {
                setjmp_returns.insert(after);
            }
        }
    }

    println!("binary         : {path}");
    println!("mode           : {:?}", parsed.mode());
    println!(
        "code regions   : {}",
        parsed.code.regions().iter().map(|r| r.name.as_str()).collect::<Vec<_>>().join(" ")
    );
    println!("instructions   : {}", index.insns().len());
    println!("end-branches   : {}", endbrs.len());
    println!("  at landing pads        : {}", endbrs.intersection(&parsed.landing_pads).count());
    println!("  after setjmp-family    : {}", endbrs.intersection(&setjmp_returns).count());
    println!("direct call targets      : {}", call_targets.len());
    println!("direct jump targets      : {}", jmp_targets.len());

    // --- if symbols survive, compute the Figure 3 properties ---
    let elf = Elf::parse(&bytes).expect("parsed once already");
    let funcs: BTreeSet<u64> = elf
        .symbols()
        .unwrap_or_default()
        .iter()
        .filter(|s| s.is_defined_func() && !s.name.contains(".cold") && !s.name.contains(".part"))
        .map(|s| s.value)
        .collect();
    if funcs.is_empty() {
        println!("\n(stripped binary — no .symtab, skipping the Figure 3 property census)");
    } else {
        let mut with_endbr = 0;
        let mut any_property = 0;
        for f in &funcs {
            let e = endbrs.contains(f);
            let c = call_targets.contains(f);
            let j = jmp_targets.contains(f);
            if e {
                with_endbr += 1;
            }
            if e || c || j {
                any_property += 1;
            }
        }
        println!("\nsymbol functions          : {}", funcs.len());
        println!(
            "EndBrAtHead               : {} ({:.2}%)",
            with_endbr,
            with_endbr as f64 / funcs.len() as f64 * 100.0
        );
        println!(
            "≥1 syntactic property     : {} ({:.2}%)",
            any_property,
            any_property as f64 / funcs.len() as f64 * 100.0
        );
    }

    // --- FunSeeker run, reusing the same prepared index ---
    let analysis = funseeker::FunSeeker::new().identify_prepared(&prepared);
    println!("\nFunSeeker identifies      : {} functions", analysis.functions.len());
    if !funcs.is_empty() {
        let tp = analysis.functions.iter().filter(|a| funcs.contains(a)).count();
        println!(
            "vs symbol functions       : precision {:.2}%, recall {:.2}%",
            tp as f64 / analysis.functions.len().max(1) as f64 * 100.0,
            tp as f64 / funcs.len() as f64 * 100.0
        );
        println!("(symbols are an imperfect oracle on real binaries: CRT pieces like _fini lack");
        println!(" CET markers and hand-written assembly breaks the linear sweep — see §VI)");
    }
}
