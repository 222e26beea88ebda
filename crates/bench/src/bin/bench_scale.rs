//! `bench_scale` — how compile and load cost grow with program size.
//!
//! Compiles each scaling shape (`sxr_bench::ScaleShape`) at four sizes
//! under the abstract-optimized configuration, runs it once to check its
//! value, and records per size: compile and load (verification included)
//! wall-clock times, each the minimum over three runs; the inliner's
//! node visits; the verifier's abstract steps and the register words it
//! copied or joined; and the generated code's instructions and registers.  Per shape it fits the log-log exponent of
//! every time and work count against size: 1.0 is linear.  Writes
//! `BENCH_scale.json` (schema `sxr-bench-scale/v1`).
//!
//! Regenerate the checked-in numbers with:
//!
//! ```text
//! cargo run --release -p sxr-bench --bin bench_scale -- --out BENCH_scale.json
//! ```
//!
//! Flags: `--small` (sizes 25–200, for a quick smoke run), `--out PATH`
//! (default `BENCH_scale.json`).

use std::time::{Duration, Instant};
use sxr::{Compiler, PipelineConfig};
use sxr_bench::{json_escape, ScaleShape};

/// A metric's report name and how to read it from a row.
type Metric = (&'static str, fn(&Row) -> f64);

/// The metrics an exponent is fitted for, in report order.
const METRICS: [Metric; 5] = [
    ("compile_ms", |r| ms(r.compile)),
    ("load_ms", |r| ms(r.load)),
    ("inline_visits", |r| r.inline_visits as f64),
    ("verify_steps", |r| r.verify_steps as f64),
    ("verify_words", |r| r.verify_words as f64),
];

/// Timed runs per size; each time reported is their minimum.
const REPS: usize = 3;

fn usage() -> ! {
    eprintln!("usage: bench_scale [--small] [--out PATH]");
    std::process::exit(2);
}

fn sizes(shape: ScaleShape, small: bool) -> [usize; 4] {
    match (shape, small) {
        (_, true) => [25, 50, 100, 200],
        (ScaleShape::NestedList, false) => [1500, 3000, 6000, 12000],
        (_, false) => [500, 1000, 2000, 4000],
    }
}

/// One program size's measurements.
struct Row {
    n: usize,
    compile: Duration,
    load: Duration,
    inline_visits: usize,
    verify_steps: usize,
    verify_words: usize,
    insts: usize,
    nregs: usize,
    value: String,
    ok: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The minimum wall-clock time of [`REPS`] calls of `f`, and its last
/// result.
fn min_time<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed());
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

fn measure(compiler: &Compiler, shape: ScaleShape, n: usize) -> Row {
    let source = shape.source(n);
    let (compile, compiled) = min_time(|| {
        compiler
            .compile(&source)
            .unwrap_or_else(|e| panic!("{} n={n}: compile failed: {e}", shape.name()))
    });
    let (load, machine) = min_time(|| compiled.machine());
    let value = match machine.and_then(|mut m| m.run().map(|w| m.describe(w))) {
        Ok(v) => v,
        Err(e) => format!("error: {e}"),
    };
    let verify = compiled.verify_bytecode();
    Row {
        n,
        compile,
        load,
        inline_visits: compiled.opt_report.inline_visits,
        verify_steps: verify.steps,
        verify_words: verify.state_words,
        insts: verify.insts,
        nregs: compiled.code.funs.iter().map(|f| f.nregs).sum(),
        ok: value == n.to_string(),
        value,
    }
}

/// The least-squares slope of `ln y` against `ln x`.
fn exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let k = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / k;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / k;
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

fn main() {
    let mut small = false;
    let mut out_path = String::from("BENCH_scale.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let compiler = Compiler::new(PipelineConfig::abstract_optimized());
    println!(
        "{:<12} {:>6} {:>11} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>3}",
        "shape", "n", "compile_ms", "load_ms", "visits", "steps", "words", "insts", "nregs", "ok"
    );
    let mut shapes_json = Vec::new();
    for shape in ScaleShape::ALL {
        let rows: Vec<Row> = sizes(shape, small)
            .into_iter()
            .map(|n| measure(&compiler, shape, n))
            .collect();
        for r in &rows {
            println!(
                "{:<12} {:>6} {:>11.2} {:>9.2} {:>9} {:>9} {:>9} {:>7} {:>7} {:>3}",
                shape.name(),
                r.n,
                ms(r.compile),
                ms(r.load),
                r.inline_visits,
                r.verify_steps,
                r.verify_words,
                r.insts,
                r.nregs,
                if r.ok { "yes" } else { "NO" },
            );
        }
        let exponents: Vec<String> = METRICS
            .iter()
            .map(|&(m, metric)| {
                let points: Vec<(f64, f64)> =
                    rows.iter().map(|r| (r.n as f64, metric(r))).collect();
                let e = exponent(&points);
                println!("{:<12} exponent {m}: {e:.3}", shape.name());
                format!("\"{m}\":{e:.4}")
            })
            .collect();
        let rows_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "        {{\"n\":{},\"compile_ms\":{:.3},\"load_ms\":{:.3},",
                        "\"inline_visits\":{},\"verify_steps\":{},\"verify_words\":{},",
                        "\"insts\":{},\"nregs\":{},",
                        "\"value\":\"{}\",\"ok\":{}}}"
                    ),
                    r.n,
                    ms(r.compile),
                    ms(r.load),
                    r.inline_visits,
                    r.verify_steps,
                    r.verify_words,
                    r.insts,
                    r.nregs,
                    json_escape(&r.value),
                    r.ok,
                )
            })
            .collect();
        shapes_json.push(format!(
            "    {{\"shape\":\"{}\",\"exponents\":{{{}}},\"rows\":[\n{}\n    ]}}",
            shape.name(),
            exponents.join(","),
            rows_json.join(",\n")
        ));
    }
    let json = format!(
        concat!(
            "{{\n  \"schema\": \"sxr-bench-scale/v1\",\n  \"config\": \"abstract-opt\",\n",
            "  \"small\": {},\n  \"reps\": {},\n  \"shapes\": [\n{}\n  ]\n}}\n"
        ),
        small,
        REPS,
        shapes_json.join(",\n")
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
