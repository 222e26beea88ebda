//! `sxr` — command-line front end for the SchemeXerox reproduction.
//!
//! ```text
//! sxr [OPTIONS] <file.scm>       run a program
//! sxr [OPTIONS] -e '<expr>'      run an expression
//! sxr lint <file.scm>            rep-safety static analysis (no execution)
//! sxr lint --bytecode <file.scm> load-time bytecode verification of the
//!                                generated code (no execution)
//!
//! OPTIONS:
//!   --mode <abstract|traditional|noopt>   pipeline (default: abstract)
//!   --ablate <pass>                       disable one optimizer pass
//!   --counters                            print dynamic instruction counters
//!   --dis <name>                          disassemble a procedure the program
//!                                         defines or reaches, and exit
//!   --heap <words>                        initial heap size in words
//!   --fuel <n>                            stop with a timeout after n instructions
//!   --max-depth <n>                       stop with a stack overflow past n frames
//!   --verify-passes                       verify IR after every optimizer pass
//! ```

use sxr::{lint_source, Compiler, OptOptions, PipelineConfig};

fn usage() -> ! {
    eprintln!(
        "usage: sxr [--mode abstract|traditional|noopt] [--ablate PASS] \
         [--counters] [--dis NAME] [--heap WORDS] [--fuel N] [--max-depth N] [--verify-passes] \
         (FILE.scm | -e EXPR)\n       sxr lint [--bytecode] FILE.scm"
    );
    std::process::exit(2)
}

/// `sxr lint FILE.scm`: compile under the lint configuration, run the
/// rep-safety analyzer, print `file:line:col:`-prefixed findings.  Exit
/// status 0 = clean, 1 = error-severity findings (or a compile failure).
fn run_lint(mut args: impl Iterator<Item = String>) -> ! {
    let Some(mut path) = args.next() else { usage() };
    let mut bytecode = false;
    if path == "--bytecode" {
        bytecode = true;
        match args.next() {
            Some(p) => path = p,
            None => usage(),
        }
    }
    if args.next().is_some() {
        usage();
    }
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sxr: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if bytecode {
        match sxr::lint::lint_bytecode(&source) {
            Ok(report) => {
                println!("{report}");
                std::process::exit(if report.is_clean() { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("sxr: {e}");
                std::process::exit(1);
            }
        }
    }
    match lint_source(&source) {
        Ok(report) => {
            print!("{}", report.render(&path));
            let errors = report.diagnostics.iter().filter(|d| d.is_error()).count();
            let warnings = report.diagnostics.len() - errors;
            eprintln!("sxr lint: {errors} error(s), {warnings} warning(s)");
            std::process::exit(if report.has_errors() { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("sxr: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("lint") {
        args.next();
        run_lint(args);
    }
    let mut mode = "abstract".to_string();
    let mut ablate: Option<String> = None;
    let mut counters = false;
    let mut dis: Option<String> = None;
    let mut heap: Option<usize> = None;
    let mut fuel: Option<u64> = None;
    let mut max_depth: Option<usize> = None;
    let mut source: Option<String> = None;
    let mut verify_passes = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => mode = args.next().unwrap_or_else(|| usage()),
            "--ablate" => ablate = Some(args.next().unwrap_or_else(|| usage())),
            "--counters" => counters = true,
            "--verify-passes" => verify_passes = true,
            "--dis" => dis = Some(args.next().unwrap_or_else(|| usage())),
            "--heap" => {
                heap = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--fuel" => {
                fuel = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--max-depth" => {
                max_depth = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "-e" => source = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') && source.is_none() => {
                source = Some(match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("sxr: cannot read {path}: {e}");
                        std::process::exit(1);
                    }
                })
            }
            _ => usage(),
        }
    }
    let Some(source) = source else { usage() };

    let mut cfg = match mode.as_str() {
        "abstract" | "opt" => PipelineConfig::abstract_optimized(),
        "traditional" | "trad" => PipelineConfig::traditional(),
        "noopt" => PipelineConfig::abstract_unoptimized(),
        other => {
            eprintln!("sxr: unknown mode `{other}`");
            std::process::exit(2);
        }
    };
    if let Some(pass) = ablate {
        let Some(opt) = cfg.opt.without(&pass) else {
            eprintln!(
                "sxr: unknown pass `{pass}` (expected one of: {})",
                OptOptions::PASSES.join(", ")
            );
            std::process::exit(2);
        };
        cfg.opt = opt;
    }
    if let Some(words) = heap {
        cfg = cfg.with_heap_words(words);
    }
    if let Some(limit) = fuel {
        cfg = cfg.with_instruction_limit(limit);
    }
    if let Some(frames) = max_depth {
        cfg = cfg.with_max_depth(frames);
    }
    if verify_passes {
        cfg = cfg.with_verify_passes(true);
    }

    let compiled = match Compiler::new(cfg).compile(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sxr: {e}");
            std::process::exit(1);
        }
    };

    if let Some(name) = dis {
        match compiled.disassemble(&name) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("sxr: no procedure named `{name}` is defined or reached by the program");
                std::process::exit(1);
            }
        }
        return;
    }

    match compiled.run() {
        Ok(outcome) => {
            print!("{}", outcome.output);
            if outcome.value != "#<unspecified>" {
                println!("{}", outcome.value);
            }
            if counters {
                eprintln!("; {}", outcome.counters.summary());
            }
        }
        Err(e) => {
            eprintln!("sxr: {e}");
            std::process::exit(1);
        }
    }
}
