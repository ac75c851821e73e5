//! `skybench` command line.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run
//!   of one workload; the last line of stdout is the result JSON object.
//! * no `--workload` — the full set: every workload, end-to-end run then
//!   traced run, each in a child process of this binary, every metric
//!   printed by name with its unit.
//! * `--quick` — scaled-down payloads and 1 s windows (smoke run).
//! * `--check-repeat` — the end-to-end set twice, compared against the
//!   bounds `BENCHMARK.json` stores.

use std::process::{Command, ExitCode, Stdio};

use serde::Value;
use skybench::catalog::{Better, Workload, END_TO_END};
use skybench::host::Host;
use skybench::{run, Plan, Res};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--check-repeat" => a.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn print_stamp(h: &Host, plan: &Plan) {
    println!(
        "skybench: host nproc={} cpu=\"{}\" kernel={} undersized={} commit={}",
        h.nproc, h.cpu_model, h.kernel, h.undersized, h.commit
    );
    println!(
        "skybench: seed={} window={:.1}s warmup={:.1}s setups={} payload={:?} threads<={} (closed loop, one client)",
        plan.seed,
        plan.window.as_secs_f64(),
        plan.warmup.as_secs_f64(),
        plan.setups,
        plan.size,
        h.nproc.min(2)
    );
    if h.undersized {
        println!(
            "skybench: WARNING host.undersized = true: fewer than 2 cores, the pipelined sender shares a core with the absorber and core.pipeline.overlap_saved_ms is a scheduler figure"
        );
    }
}

/// One workload's run in a child process — the way the benchmark driver
/// runs it — so every figure of the set (allocator state and `VmHWM`
/// included) is the one a single `--workload` run reports. Echoes the
/// child's output and returns its result object and whether it passed.
fn run_child(w: Workload, args: &Args, trace: bool) -> Res<(Value, bool)> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Ok((serde_json::parse_value(line)?, out.status.success()))
}

/// Every workload's end-to-end run: result object and whether it passed.
fn end_to_end_set(args: &Args) -> Res<Vec<(Value, bool)>> {
    Workload::ALL.into_iter().map(|w| run_child(w, args, false)).collect()
}

fn metric(result: &Value, name: &str) -> f64 {
    match result.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")) {
        Some(Value::Float(v)) => *v,
        _ => 0.0,
    }
}

/// Runs the end-to-end set twice back to back and holds the second
/// against the first at each metric's bound.
fn check_repeat(args: &Args) -> Res<bool> {
    let first = end_to_end_set(args)?;
    let second = end_to_end_set(args)?;
    let mut pass = true;
    println!(
        "\n{:<18} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for (w, (a, b)) in Workload::ALL.into_iter().zip(first.iter().zip(&second)) {
        for def in END_TO_END {
            let (x, y) = (metric(&a.0, def.name), metric(&b.0, def.name));
            let diff = if x == 0.0 { 0.0 } else { (y - x) / x };
            let worse = if def.better == Better::Lower { diff } else { -diff };
            let bound = def.bound.unwrap_or(0.0);
            let ok = worse <= bound;
            pass &= ok;
            println!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>8.2} {:>7.1}  {}",
                w.name(),
                def.name,
                x,
                y,
                diff * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
        pass &= a.1 && b.1;
    }
    Ok(pass)
}

fn main_inner() -> Res<bool> {
    let args = parse_args()?;
    if args.check_repeat {
        let pass = check_repeat(&args)?;
        println!("check-repeat: {}", if pass { "PASS" } else { "FAIL" });
        return Ok(pass);
    }
    let Some(w) = args.workload else {
        // The full set: end-to-end runs, then (unless --quick) traced runs.
        let mut ok = end_to_end_set(&args)?.iter().all(|r| r.1);
        if !args.quick {
            for w in Workload::ALL {
                ok &= run_child(w, &args, true)?.1;
            }
        }
        return Ok(ok);
    };
    let plan =
        if args.quick { Plan::quick(args.seed) } else { Plan::full(args.seed, args.seconds) };
    print_stamp(&Host::probe(), &plan);
    let o = run(w, &plan, args.trace)?;
    o.print();
    println!("{}", o.json_line());
    Ok(o.failed == 0)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("skybench: output checks failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("skybench: {e}");
            ExitCode::from(2)
        }
    }
}
