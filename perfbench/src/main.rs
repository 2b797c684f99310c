//! Outside-in benchmark of the Ajanta runtime.
//!
//! ```text
//! perfbench --workload <tour|uds|access|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` serves the workload through the closed-loop generator and
//! prints the end-to-end metrics. `--trace 1` prints the per-layer
//! metrics instead: counter and histogram deltas over a traced pass, the
//! hop replay, and the tracing overhead against an untraced pass; its
//! spans go to `perfbench/out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/NOTES.md` for what each workload and metric means.

mod follow;
mod load;
mod procfs;
mod replay;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use ajanta_runtime::{Counter, HistoPath};

use crate::load::{Outcome, Spec, STOPS};
use crate::stats::{median, ratio};
use crate::trace::Tracer;

/// Replayed agents per traced run.
const REPLAYED_AGENTS: usize = 200;

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && load::spec(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=120"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn m(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            // JSON has no NaN or infinity; no metric can produce one, so
            // a non-finite value is a bug in this file.
            assert!(x.value.is_finite(), "{} is not finite", x.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run bookkeeping shared by every world a run builds.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

fn window(o: &Outcome) -> &load::Window {
    o.window
        .as_ref()
        .expect("a run with timed agents has a window")
}

/// The end-to-end metrics: `Spec::worlds` worlds built one after
/// another, each serving `world_agents` timed agents. Each metric is the
/// median over the quietest third of the worlds: those whose timed window
/// saw the least hypervisor steal on the host. Steal comes in bursts of
/// seconds from other tenants and slows every layer at once (on `tour`,
/// worlds of one run served 2,400 agents/s at 3% steal and 1,260 at 32%);
/// a build that needs more CPU raises every world's steal alike, so
/// ranking worlds within a run hides no change to the program.
fn end_to_end(spec: &Spec, opts: &Opts, tally: &mut Tally) -> Vec<Metric> {
    let (worlds, timed) = (spec.worlds(opts.seconds), spec.world_agents);
    let mut tracer = Tracer::new(false);
    let mut windows = Vec::with_capacity(worlds);
    let mut setups = Vec::with_capacity(worlds);
    let mut rss_peak_mib = 0.0;
    for k in 0..worlds {
        let o = load::run_world(spec, opts.seed, timed, &mut tracer);
        if k == 0 {
            // Later worlds reuse memory the allocator kept from earlier
            // ones, so only the first world's peak is the program's own.
            rss_peak_mib = procfs::peak_rss_mib();
        }
        tally.add(&o);
        setups.push(o.setup_s);
        if let Some(w) = &o.window {
            eprintln!(
                "{}: {} agents {:.1}/s cpu {:.4} p50 {:.2} p99 {:.2} setup {:.3}; \
                 steal {:.3}; follower held {}, skipped {}, missed {}",
                spec.name,
                timed,
                w.agents_per_s(),
                w.cpu_ms_per_agent(),
                w.latency_ms(0.5),
                w.latency_ms(0.99),
                o.setup_s,
                w.host.0,
                o.follow.0,
                o.follow.1,
                o.follow.2,
            );
        }
        match o.window {
            Some(w) => windows.push(w),
            None => return Vec::new(),
        }
    }
    windows.sort_by(|a, b| a.host.0.total_cmp(&b.host.0));
    let quiet = &windows[..worlds.div_ceil(3)];
    let over = |f: fn(&load::Window) -> f64| median(&quiet.iter().map(f).collect::<Vec<_>>());
    vec![
        m("agents_per_s", over(|w| w.agents_per_s()), "1/s"),
        m("latency_p50_ms", over(|w| w.latency_ms(0.50)), "ms"),
        m("latency_p99_ms", over(|w| w.latency_ms(0.99)), "ms"),
        m("cpu_ms_per_agent", over(|w| w.cpu_ms_per_agent()), "ms"),
        m("rss_peak_mb", rss_peak_mib, "MiB"),
        m("setup_s", median(&setups), "s"),
    ]
}

/// The per-layer metrics: an untraced world for the baseline CPU cost, a
/// traced world for the counter deltas, then the hop replay. Each world
/// serves half the timed agents of an untraced run in one go, so the
/// history a world builds up (and what it costs: `runtime.cpu_drift_frac`)
/// shows at length.
fn per_layer(
    spec: &Spec,
    opts: &Opts,
    out_dir: &std::path::Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let timed = spec.world_agents * spec.worlds(opts.seconds) / 2;
    let untraced = load::run_world(spec, opts.seed, timed, &mut Tracer::new(false));
    tally.add(&untraced);
    let mut tracer = Tracer::new(true);
    let traced = load::run_world(spec, opts.seed, timed, &mut tracer);
    tally.add(&traced);
    if untraced.window.is_none() || traced.window.is_none() {
        return Vec::new();
    }
    let rep = replay::run(spec, opts.seed, REPLAYED_AGENTS, out_dir, &mut tracer);
    let spans_path = out_dir.join(format!("trace-{}-{}.jsonl", spec.name, opts.seed));
    tracer
        .write_jsonl(&spans_path)
        .expect("writing the span file");
    eprintln!(
        "{}: {} spans written to {}",
        spec.name,
        tracer.spans().len(),
        spans_path.display()
    );

    let w = window(&traced);
    let agents = w.agents as f64;
    let d = &w.layers;
    let per_agent = |c: Counter| d.counter(c) as f64 / agents;
    let (messages, bytes, writes, frames) = d.net();
    let dwell = d.histo(HistoPath::ReadyDwell);
    let slice = d.histo(HistoPath::SliceDuration);
    let bind = d.histo(HistoPath::Bind);
    let stage = |name: &str| {
        rep.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, us)| *us)
    };
    let untraced_cpu_ms = window(&untraced).cpu_ms_per_agent();
    // Each agent's ideal traffic: every leg (launch, the moves, the
    // report) once, and one ack for each.
    let ideal_frames = (2 * (STOPS + 1)) as f64 * agents;
    vec![
        m(
            "runtime.server.retries_per_agent",
            per_agent(Counter::TransfersRetried),
            "count",
        ),
        m(
            "runtime.server.rejects_per_agent",
            per_agent(Counter::Rejections),
            "count",
        ),
        m(
            "runtime.server.useful_frame_ratio",
            ratio(ideal_frames, messages as f64),
            "ratio",
        ),
        m("net.bytes_per_agent", bytes as f64 / agents, "B"),
        m(
            "net.socket.writes_per_agent",
            writes as f64 / agents,
            "count",
        ),
        m(
            "net.socket.frames_per_write",
            ratio(frames as f64, writes as f64),
            "count",
        ),
        m("runtime.sched.dwell_us_mean", dwell.mean_us(), "us"),
        m(
            "runtime.sched.dwell_over_8ms_frac",
            dwell.frac_at_least_pow2(23),
            "ratio",
        ),
        m("runtime.sched.slice_us_mean", slice.mean_us(), "us"),
        m(
            "runtime.sched.slices_per_agent",
            per_agent(Counter::SlicesRun),
            "count",
        ),
        m(
            "runtime.sched.steals_per_agent",
            per_agent(Counter::Steals),
            "count",
        ),
        m("core.registry.bind_us_mean", bind.mean_us(), "us"),
        m(
            "core.telemetry.events_per_agent",
            per_agent(Counter::EventsAppended),
            "count",
        ),
        m(
            "core.telemetry.drops_per_agent",
            per_agent(Counter::EventsDropped),
            "count",
        ),
        m("runtime.cpu_drift_frac", w.cpu_drift_frac(), "ratio"),
        m(
            "runtime.rss_growth_kib_per_agent",
            w.rss_growth_mib * 1024.0 / agents,
            "KiB",
        ),
        m("host.steal_frac", w.host.0, "ratio"),
        m("host.idle_frac", w.host.1, "ratio"),
        m("wire.encode_us", stage("wire.encode"), "us"),
        m("wire.decode_us", stage("wire.decode"), "us"),
        m("wire.datagram_codec_us", stage("wire.datagram_codec"), "us"),
        m("net.datagram.seal_us", stage("net.datagram.seal"), "us"),
        m("net.datagram.open_us", stage("net.datagram.open"), "us"),
        m("net.datagram.ack_us", stage("net.datagram.ack"), "us"),
        m(
            "net.secure.seal_open_us",
            stage("net.secure.seal_open"),
            "us",
        ),
        m("net.socket.oneway_us", stage("net.socket.oneway"), "us"),
        m("crypto.sha256_mb_per_s", rep.sha256_mb_per_s, "MB/s"),
        m(
            "core.credentials.verify_us",
            stage("core.credentials.verify"),
            "us",
        ),
        m("vm.verify_us", stage("vm.verify"), "us"),
        m(
            "core.registry.bind_replay_us",
            stage("core.registry.bind"),
            "us",
        ),
        m("core.proxy.invoke_us", stage("core.proxy.invoke"), "us"),
        m("core.telemetry.span_us", stage("core.telemetry.span"), "us"),
        m("runtime.report_leg_us", stage("runtime.report_leg"), "us"),
        m("runtime.replay_us_per_agent", rep.us_per_agent, "us"),
        m(
            "runtime.residual_frac",
            1.0 - rep.us_per_agent / (untraced_cpu_ms * 1e3),
            "ratio",
        ),
        m(
            "bench.trace_overhead_frac",
            window(&traced).cpu_ms_per_agent() / untraced_cpu_ms - 1.0,
            "ratio",
        ),
        m("bench.follow_holes", traced.follow.0 as f64, "count"),
        m("bench.transfer_bytes", rep.transfer_bytes as f64, "B"),
    ]
}

/// `--workload all`: each workload in its own process, one after another,
/// then one result line over all three with workload-prefixed names.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("locating this executable");
    let (mut correct, mut attempted, mut failed) = (true, 0usize, 0usize);
    let mut metrics = Vec::new();
    for name in load::BENCHMARKED {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("running a workload");
        let text = String::from_utf8_lossy(&out.stdout);
        let Some(last) = text.lines().last().filter(|_| out.status.success()) else {
            eprintln!("{name} did not produce a result");
            return ExitCode::FAILURE;
        };
        println!("{name}: {last}");
        // The table lines before the result: `name value unit`.
        for line in text.lines() {
            if let [metric, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
                if let Ok(value) = value.parse() {
                    metrics.push(m(&format!("{name}.{metric}"), value, unit));
                }
            }
        }
        let field = |key: &str| {
            let rest = &last[last.find(key).expect("result field") + key.len()..];
            rest[..rest.find(',').expect("field ends")]
                .trim()
                .to_string()
        };
        correct &= field("\"correct\":") == "true";
        attempted += field("\"attempted\":").parse::<usize>().expect("attempted");
        failed += field("\"failed\":").parse::<usize>().expect("failed");
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Where runs leave their spans and sockets: `out/` beside this
/// package's manifest, relative to the working directory when it lies
/// under it (Unix socket paths must stay short).
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("creating the output directory");
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(dir),
        Err(_) => dir,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tour|uds|access|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    let out_dir = out_dir();
    // Socket worlds put their Unix sockets in the temp directory; keep
    // them inside this package's output directory. No thread runs yet.
    std::env::set_var("TMPDIR", &out_dir);
    let spec = load::spec(&opts.workload).expect("workload validated by parse_args");
    let mut tally = Tally::default();
    let metrics = if opts.trace {
        per_layer(spec, &opts, &out_dir, &mut tally)
    } else {
        end_to_end(spec, &opts, &mut tally)
    };
    for e in &tally.errors {
        eprintln!("{}: {e}", spec.name);
    }
    for x in &metrics {
        println!("{:<38} {:>22} {}", x.name, x.value, x.unit);
    }
    let correct = tally.correct() && !metrics.is_empty();
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_follow_the_contract() {
        let o = parse_args(&args("--workload uds --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("uds", 7, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload tour --seed 1 --seconds 1 --trace 2",
            "--workload tour --seed 1 --seconds 0 --trace 0",
            "--workload tour --seed 1 --trace 0",
            "--workload tour --seed x --seconds 1 --trace 0",
            "--workload tour --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[m("setup_s", 0.8127, "s"), m("a", 2.0, "1/s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"a\": {\"value\": 2, \"unit\": \"1/s\"}}}"
        );
    }
}
