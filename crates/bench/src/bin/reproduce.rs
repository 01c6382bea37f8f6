//! `reproduce [--full] [NAME…]`: run the named experiments of
//! [`bench::REGISTRY`] (default: all) and write one Markdown document to
//! stdout. Exit 1 when, at quick scale, a pinned claim no longer reads what
//! `OPEN_FINDINGS` says; exit 2 on a usage error.

use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = bench::REGISTRY.iter().map(|e| e.name).collect();
    eprintln!("reproduce: {problem}");
    eprintln!("usage: reproduce [--full] [NAME…]");
    eprintln!("  --full   the paper's scale (|A| = 10⁶, 100 trials, d up to 10⁵; hours)");
    eprintln!("  NAME     one of: {}", names.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with('-'));
    if let Some(unknown) = flags.iter().find(|f| *f != "--full") {
        return usage(&format!("unknown flag '{unknown}'"));
    }
    let (markdown, drift) = match bench::reproduce(&names, !flags.is_empty()) {
        Ok(reproduction) => reproduction,
        Err(problem) => return usage(&problem),
    };
    print!("{markdown}");
    for line in &drift {
        eprintln!("reproduce: {line}");
    }
    ExitCode::from(!drift.is_empty() as u8)
}
