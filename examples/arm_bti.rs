//! The §VI future-work demo: FunSeeker's algorithm on ARM BTI binaries.
//!
//! ```text
//! cargo run --example arm_bti [seed]
//! ```
//!
//! Generates BTI-enabled AArch64 binaries and runs the BTI-based
//! identifier, printing per-binary precision/recall.

use funseeker_aarch64::{generate, ArmParams, BtiSeeker};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2022);
    let seeker = BtiSeeker::new();

    println!(
        "{:<8} {:>6} {:>8} {:>8} {:>10} {:>8}",
        "seed", "funcs", "BTI c", "BTI j", "precision", "recall"
    );
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for s in seed..seed + 10 {
        let bin = generate(ArmParams::default(), s);
        let truth = bin.entries();
        let a = seeker.identify(&bin.bytes).expect("generated binary analyzable");
        let hit = a.functions.iter().filter(|f| truth.contains(f)).count();
        println!(
            "{:<8} {:>6} {:>8} {:>8} {:>9.2}% {:>7.2}%",
            s,
            truth.len(),
            a.landing_count,
            a.bti_j_count,
            hit as f64 / a.functions.len().max(1) as f64 * 100.0,
            hit as f64 / truth.len().max(1) as f64 * 100.0,
        );
        tp += hit;
        fp += a.functions.len() - hit;
        fn_ += truth.len() - hit;
    }
    println!(
        "\ntotal: precision {:.3}%, recall {:.3}%",
        tp as f64 / (tp + fp) as f64 * 100.0,
        tp as f64 / (tp + fn_) as f64 * 100.0
    );
    println!("\nOn ARM the jump-only landing pads are *syntactically* distinct (BTI j),");
    println!("so the LSDA-based filtering FunSeeker needs on x86 is unnecessary here.");
}
