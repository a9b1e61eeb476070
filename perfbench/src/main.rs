//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as its last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). The host
//! stamp, sample counts and failures go to the lines before it and to
//! `out/result-<workload>-s<seed>[-trace].json`; a traced run also writes
//! its spans and per-layer tables under `out/`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use htd_core::Json;
use htd_perfbench::host::Host;
use htd_perfbench::{run, Args, Workload};

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload answer_new_shapes|answer_repeat_shapes|solve_cold --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return None };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return None,
        }
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    Some(Args::new(workload?, seed?, seconds?, trace?, out_dir))
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let host = Host::probe();
    let output = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let suffix = if args.trace { "-trace" } else { "" };
    let stem = format!("{}-s{}{suffix}", args.workload.name(), args.seed);
    let metrics = output
        .metrics
        .iter()
        .map(|m| {
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    let result = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(output.failed == 0 && output.attempted > 0),
        ),
        ("attempted".into(), Json::Num(output.attempted as f64)),
        ("failed".into(), Json::Num(output.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    let info = Json::Obj(
        output
            .info
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
            .collect(),
    );
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host.to_json()),
        ("info".into(), info.clone()),
        (
            "failures".into(),
            Json::Arr(output.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("result".into(), result.clone()),
    ]);
    let write = |name: String, body: &str| {
        if let Err(e) = std::fs::write(args.out_dir.join(&name), body) {
            eprintln!("perfbench: writing {name}: {e}");
        }
    };
    write(format!("result-{stem}.json"), &format!("{record}\n"));
    if args.trace {
        write(
            format!("spans-{stem}.jsonl"),
            &htd_perfbench::trace::spans_jsonl(&output.spans),
        );
        let mut table = output.table.clone();
        for m in output
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("trace."))
        {
            let _ = writeln!(table, "{}: {} {}", m.name, m.value, m.unit);
        }
        write(format!("layers-{stem}.txt"), &table);
        eprint!("{table}");
    }
    for f in &output.failures {
        eprintln!("perfbench: failure: {f}");
    }
    println!("# host {}", host.to_json());
    println!("# seed {} info {info}", args.seed);
    println!("{result}");
    ExitCode::SUCCESS
}
