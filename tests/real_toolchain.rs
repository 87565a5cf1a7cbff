//! End-to-end validation on binaries produced by the *real* system
//! compiler with `-fcf-protection=full` — no simulator involved.
//!
//! Skipped silently when GCC is not installed.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use funseeker::{Config, FunSeeker};
use funseeker_elf::Elf;

const SOURCE: &str = r#"
#include <stdio.h>
#include <stdlib.h>
#include <setjmp.h>
#include <string.h>

static jmp_buf env;

/* address-taken static: must receive an endbr */
static int callback(int x) { return x * 2 + 1; }

/* plain static: direct call target only, no endbr */
static int quiet_helper(int x) { return x - 3; }

/* exported function */
int exported_api(int x) { return quiet_helper(x) + 1; }

/* exported but never referenced inside this binary */
int exported_unused(int x) { return x ^ 0x55; }

int dispatch(int sel, int arg) {
    int (*fp)(int) = callback;            /* pointer use */
    switch (sel & 7) {                    /* jump table + notrack */
        case 0: return fp(arg);
        case 1: return exported_api(arg);
        case 2: return arg + 2;
        case 3: return arg * 3;
        case 4: return arg - 4;
        case 5: return arg / 5;
        case 6: return arg << 1;
        default: return 0;
    }
}

int main(int argc, char **argv) {
    if (setjmp(env)) return 1;            /* post-call endbr */
    int acc = 0;
    for (int i = 0; i < argc; i++) acc += dispatch(i, (int)strlen(argv[i]));
    printf("%d\n", acc);
    return acc & 1;
}
"#;

/// One test's build directory, so tests running in parallel never share
/// `prog.c` or a binary; removed when the test ends.
struct Workdir(PathBuf);

impl Workdir {
    fn new(tag: &str) -> Workdir {
        let dir = std::env::temp_dir()
            .join(format!("funseeker_real_toolchain-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Workdir(dir)
    }

    /// Compiles [`SOURCE`] at `opt`; `None` when gcc is unavailable.
    fn build(&self, opt: &str) -> Option<PathBuf> {
        std::fs::create_dir_all(&self.0).ok()?;
        let src = self.0.join("prog.c");
        let bin = self.0.join(format!("prog_{}", opt.trim_start_matches('-')));
        std::fs::write(&src, SOURCE).ok()?;
        let status = Command::new("gcc")
            .args([opt, "-fcf-protection=full", "-o"])
            .arg(&bin)
            .arg(&src)
            .status()
            .ok()?;
        status.success().then_some(bin)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Function symbols inside `.text`, excluding fragments (§V-A1).
/// `_init`/`_fini` live in their own sections, which the paper's
/// `.text`-scoped analysis never sees.
fn symbol_truth(bytes: &[u8]) -> BTreeSet<u64> {
    let elf = Elf::parse(bytes).unwrap();
    let text = elf.section_by_name(".text").unwrap();
    elf.symbols()
        .unwrap()
        .iter()
        .filter(|s| s.is_defined_func() && !s.name.contains(".cold") && !s.name.contains(".part"))
        .filter(|s| text.contains_addr(s.value))
        .map(|s| s.value)
        .collect()
}

fn our_function_addrs(bytes: &[u8], names: &[&str]) -> Vec<(String, u64)> {
    let elf = Elf::parse(bytes).unwrap();
    elf.symbols()
        .unwrap()
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(|s| (s.name.clone(), s.value))
        .collect()
}

#[test]
fn funseeker_on_real_gcc_binaries() {
    let work = Workdir::new("recall");
    let mut tested = 0;
    for opt in ["-O0", "-O1", "-O2", "-O3", "-Os"] {
        let Some(bin) = work.build(opt) else {
            eprintln!("skipping: gcc unavailable");
            return;
        };
        let bytes = std::fs::read(&bin).unwrap();
        let analysis = FunSeeker::new().identify(&bytes).unwrap();
        assert_eq!(analysis.decode_errors, 0, "{opt}: real GCC .text must sweep cleanly");

        // Every function from *our* translation unit must be found at its
        // symbol address (CRT code contains hand-written assembly the
        // paper explicitly scopes out).
        let ours = our_function_addrs(
            &bytes,
            &["main", "dispatch", "exported_api", "exported_unused", "callback", "quiet_helper"],
        );
        assert!(ours.len() >= 4, "{opt}: expected our symbols, found {ours:?}");
        for (name, addr) in &ours {
            assert!(analysis.functions.contains(addr), "{opt}: {name} at {addr:#x} not identified");
        }

        // Whole-binary recall against all in-.text symbols. The residue
        // is CRT hand-assembly (on this distro `_start` and
        // `register_tm_clones` carry no endbr and are never
        // direct-called — exactly the non-compiler-code caveat of §VI).
        let truth = symbol_truth(&bytes);
        let tp = analysis.functions.iter().filter(|a| truth.contains(a)).count();
        let recall = tp as f64 / truth.len() as f64;
        assert!(recall > 0.75, "{opt}: whole-binary recall {recall:.3}");

        // The setjmp return point must have been filtered: main contains
        // a call to a setjmp-family PLT stub.
        assert!(
            analysis.filtered_endbrs >= 1,
            "{opt}: expected the post-setjmp endbr to be filtered"
        );
        tested += 1;
    }
    assert_eq!(tested, 5);
}

#[test]
fn filtering_matters_on_real_binaries() {
    let work = Workdir::new("filtering");
    let Some(bin) = work.build("-O2") else {
        eprintln!("skipping: gcc unavailable");
        return;
    };
    let bytes = std::fs::read(&bin).unwrap();
    let c1 = FunSeeker::with_config(Config::c1()).identify(&bytes).unwrap();
    let c2 = FunSeeker::with_config(Config::c2()).identify(&bytes).unwrap();
    // FILTERENDBR strictly removes candidates and never adds.
    assert!(c2.functions.is_subset(&c1.functions));
    assert!(c2.functions.len() < c1.functions.len(), "the setjmp return point must disappear");
}

#[test]
fn stripped_binary_gives_identical_results() {
    let work = Workdir::new("stripped");
    let Some(bin) = work.build("-O2") else {
        eprintln!("skipping: gcc unavailable");
        return;
    };
    let stripped = bin.with_extension("stripped");
    let status = Command::new("strip").arg("-o").arg(&stripped).arg(&bin).status();
    match status {
        Ok(s) if s.success() => {}
        _ => {
            eprintln!("skipping: strip unavailable");
            return;
        }
    }
    let full = FunSeeker::new().identify(&std::fs::read(&bin).unwrap()).unwrap();
    let strip = FunSeeker::new().identify(&std::fs::read(&stripped).unwrap()).unwrap();
    // FunSeeker uses no symbol information: identical output (§V-A: the
    // paper evaluates on stripped binaries).
    assert_eq!(full.functions, strip.functions);
}
