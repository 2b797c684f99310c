//! `ajantactl` — the operator CLI for a running Ajanta world.
//!
//! Talks the framed control protocol (`ajanta_runtime::control`) to one
//! or more control sockets (`--ctl uds:/path` or `--ctl tcp:host:port`,
//! repeatable — results aggregate across endpoints; the `AJANTA_CTL`
//! environment variable seeds the list). Every subcommand has a human
//! rendering and a `--json` rendering (flat, line-oriented, no
//! dependencies).
//!
//! ```text
//! ajantactl --ctl uds:/tmp/ajanta.ctl list
//! ajantactl --ctl uds:/tmp/ajanta.ctl info ajn://users.org/agent/alice/tracer.0
//! ajantactl --ctl uds:/tmp/ajanta.ctl metrics | grep proxy
//! ajantactl --ctl uds:/tmp/ajanta.ctl histo
//! ajantactl --ctl uds:/tmp/ajanta.ctl journal --tail 20
//! ajantactl --ctl uds:/tmp/ajanta.ctl follow --for-ms 2000
//! ajantactl --ctl uds:/tmp/ajanta.ctl hibernate ajn://…/agent/…
//! ajantactl --ctl uds:/tmp/a.ctl --ctl uds:/tmp/b.ctl revoke ajn://…/resource/jobs
//! ajantactl trace server0.jsonl server1.jsonl   # offline
//! ```
//!
//! Subcommands: `health`, `status`, `list`, `info`, `logs`, `journal`,
//! `follow`, `metrics`, `histo`, `trace`, `hibernate`, `wake`,
//! `revoke`. Exit codes: 0 success, 1 the operation failed or reported
//! a violation, 2 usage/connection errors.

use std::time::{Duration, Instant};

use ajanta_core::trace::{parse_jsonl, render_tree, scan_anomalies, TraceForest};
use ajanta_net::fmt_ns;
use ajanta_runtime::control::{
    revoke_everywhere, ControlClient, ControlRequest, ControlResponse, JournalEntry,
    JournalFollower,
};
use ajanta_runtime::{Counter, HistoPath, Severity, SpanKind, TelemetrySnapshot};

/// Retry count above which `trace` reports a hop as a retry storm.
const RETRY_THRESHOLD: usize = 3;

fn usage() -> ! {
    eprintln!(
        "usage: ajantactl [--ctl ADDR]... [--json] <command> [args]\n\
         \n\
         ADDR is uds:/path or tcp:host:port (repeatable; env AJANTA_CTL seeds it)\n\
         \n\
         commands:\n\
           health                     protocol version + servers behind each endpoint\n\
           status                     per-server occupancy (resident/hibernated/in-flight)\n\
           list                       every agent: resident, hibernated, in-flight\n\
           info <agent-urn>           everything one server knows about an agent\n\
           logs [--tail N]            recent per-agent log lines (default 20)\n\
           journal [--tail N]         recent journal records (default 20)\n\
           follow [--for-ms T] [--max N] [--interval-ms I]\n\
                                      stream journal records, gap-checked via drop counters\n\
           metrics                    merged Prometheus text exposition (all endpoints)\n\
           histo                      p50/p90/p99/max for every latency histogram\n\
           trace [file.jsonl ...]     causal tour trees + anomalies (remote when no files)\n\
           hibernate <agent-urn>      spill one agent to its bundle store\n\
           wake <agent-urn>           revive one hibernated agent\n\
           revoke <resource-urn>      invalidate every proxy fleet-wide"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("ajantactl: {msg}");
    std::process::exit(2);
}

/// Minimal JSON string escaping (control chars, quote, backslash).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Cli {
    endpoints: Vec<String>,
    json: bool,
}

impl Cli {
    /// One connected client per endpoint, in order.
    fn connect_all(&self) -> Vec<(String, ControlClient)> {
        if self.endpoints.is_empty() {
            fail("no control endpoint: pass --ctl or set AJANTA_CTL");
        }
        self.endpoints
            .iter()
            .map(|e| match ControlClient::connect_str(e) {
                Ok(c) => (e.clone(), c),
                Err(err) => fail(&format!("connecting {e}: {err}")),
            })
            .collect()
    }

    /// Sends `req` to every endpoint; returns `(endpoint, response)`.
    fn call_all(&self, req: &ControlRequest) -> Vec<(String, ControlResponse)> {
        self.connect_all()
            .into_iter()
            .map(|(e, mut c)| match c.call(req) {
                Ok(r) => (e, r),
                Err(err) => fail(&format!("calling {e}: {err}")),
            })
            .collect()
    }
}

fn main() {
    let mut endpoints: Vec<String> = Vec::new();
    if let Ok(env) = std::env::var("AJANTA_CTL") {
        endpoints.extend(env.split(',').filter(|s| !s.is_empty()).map(String::from));
    }
    let mut json = false;
    let mut args = std::env::args().skip(1).peekable();
    let cmd = loop {
        match args.next() {
            Some(a) if a == "--ctl" => match args.next() {
                Some(v) => endpoints.push(v),
                None => fail("--ctl needs a value"),
            },
            Some(a) if a == "--json" => json = true,
            Some(a) if a.starts_with("--") => fail(&format!("unknown flag {a}")),
            Some(a) => break a,
            None => usage(),
        }
    };
    let rest: Vec<String> = args.collect();
    let cli = Cli { endpoints, json };
    match cmd.as_str() {
        "health" => health(&cli),
        "status" => status(&cli),
        "list" => list(&cli),
        "info" => info(&cli, &rest),
        "logs" => logs(&cli, &rest),
        "journal" => journal(&cli, &rest),
        "follow" => follow(&cli, &rest),
        "metrics" => metrics(&cli),
        "histo" => histo(&cli),
        "trace" => trace(&cli, &rest),
        "hibernate" => act(&cli, &rest, "hibernate"),
        "wake" => act(&cli, &rest, "wake"),
        "revoke" => revoke(&cli, &rest),
        _ => usage(),
    }
}

fn tail_arg(rest: &[String], default: u64) -> u64 {
    let mut tail = default;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a == "--tail" {
            tail = it
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail("--tail needs a number"));
        } else {
            fail(&format!("unexpected argument {a}"));
        }
    }
    tail
}

fn health(cli: &Cli) {
    let results = cli.call_all(&ControlRequest::Health);
    let mut lines = Vec::new();
    for (endpoint, resp) in results {
        let ControlResponse::Health { version, servers } = resp else {
            fail("unexpected response to health");
        };
        if cli.json {
            lines.push(format!(
                "{{\"endpoint\":{},\"version\":{},\"servers\":[{}]}}",
                jstr(&endpoint),
                version,
                servers
                    .iter()
                    .map(|s| jstr(&s.to_string()))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        } else {
            println!(
                "{endpoint}: control v{version}, {} server(s)",
                servers.len()
            );
            for s in &servers {
                println!("  {s}");
            }
        }
    }
    if cli.json {
        println!("[{}]", lines.join(","));
    }
}

fn status(cli: &Cli) {
    let results = cli.call_all(&ControlRequest::Status);
    let mut lines = Vec::new();
    for (endpoint, resp) in results {
        let ControlResponse::Status(statuses) = resp else {
            fail("unexpected response to status");
        };
        for s in statuses {
            if cli.json {
                lines.push(format!(
                    "{{\"endpoint\":{},\"server\":{},\"resident\":{},\"hibernated\":{},\
                     \"hibernated_bytes\":{},\"in_flight\":{},\"pending_sends\":{},\
                     \"journal_next_seq\":{},\"journal_dropped\":{}}}",
                    jstr(&endpoint),
                    jstr(&s.server.to_string()),
                    s.resident,
                    s.hibernated,
                    s.hibernated_bytes,
                    s.in_flight,
                    s.pending_sends,
                    s.journal_next_seq,
                    s.journal_dropped,
                ));
            } else {
                println!(
                    "{}: resident={} hibernated={} ({} B) in-flight={} pending-sends={} \
                     journal-seq={} dropped={}",
                    s.server,
                    s.resident,
                    s.hibernated,
                    s.hibernated_bytes,
                    s.in_flight,
                    s.pending_sends,
                    s.journal_next_seq,
                    s.journal_dropped,
                );
            }
        }
    }
    if cli.json {
        println!("[{}]", lines.join(","));
    }
}

fn list(cli: &Cli) {
    let results = cli.call_all(&ControlRequest::ListAgents);
    let mut lines = Vec::new();
    let mut total = 0usize;
    for (_, resp) in results {
        let ControlResponse::Agents(agents) = resp else {
            fail("unexpected response to list");
        };
        total += agents.len();
        for a in agents {
            if cli.json {
                lines.push(format!(
                    "{{\"server\":{},\"agent\":{},\"state\":{},\"hop\":{},\"domain\":{},\
                     \"fuel_used\":{},\"bindings\":{}}}",
                    jstr(&a.server.to_string()),
                    jstr(&a.agent.to_string()),
                    jstr(a.state.as_str()),
                    a.hop,
                    a.domain,
                    a.fuel_used,
                    a.bindings,
                ));
            } else {
                println!(
                    "{:<11} {}  @{}  domain={} fuel={} bindings={}",
                    a.state.as_str(),
                    a.agent,
                    a.server,
                    a.domain,
                    a.fuel_used,
                    a.bindings,
                );
            }
        }
    }
    if cli.json {
        println!("[{}]", lines.join(","));
    } else {
        println!("{total} agent(s)");
    }
}

fn info(cli: &Cli, rest: &[String]) {
    let Some(agent) = rest.first() else { usage() };
    let agent = agent
        .parse()
        .unwrap_or_else(|e| fail(&format!("bad agent urn: {e}")));
    for (_, resp) in cli.call_all(&ControlRequest::AgentInfo { agent }) {
        let ControlResponse::Agent(detail) = resp else {
            fail("unexpected response to info");
        };
        let Some(d) = detail else { continue };
        if cli.json {
            println!(
                "{{\"server\":{},\"agent\":{},\"state\":{},\"domain\":{},\"owner\":{},\
                 \"creator\":{},\"home\":{},\"fuel_used\":{},\"fuel_limit\":{},\
                 \"alloc_bytes\":{},\"bindings\":[{}]}}",
                jstr(&d.entry.server.to_string()),
                jstr(&d.entry.agent.to_string()),
                jstr(d.entry.state.as_str()),
                d.entry.domain,
                jstr(&d.owner),
                jstr(&d.creator),
                jstr(&d.home),
                d.entry.fuel_used,
                d.fuel_limit,
                d.alloc_bytes,
                d.bound_resources
                    .iter()
                    .map(|r| jstr(r))
                    .collect::<Vec<_>>()
                    .join(","),
            );
        } else {
            println!("agent:   {}", d.entry.agent);
            println!("state:   {} @ {}", d.entry.state, d.entry.server);
            println!("domain:  {}", d.entry.domain);
            println!("owner:   {}", d.owner);
            println!("creator: {}", d.creator);
            println!("home:    {}", d.home);
            println!("fuel:    {} / {}", d.entry.fuel_used, d.fuel_limit);
            println!("alloc:   {} B", d.alloc_bytes);
            println!("bindings ({}):", d.bound_resources.len());
            for r in &d.bound_resources {
                println!("  {r}");
            }
        }
        return;
    }
    if cli.json {
        println!("null");
    } else {
        eprintln!("ajantactl: no server knows that agent");
    }
    std::process::exit(1);
}

fn logs(cli: &Cli, rest: &[String]) {
    let tail = tail_arg(rest, 20);
    let mut lines = Vec::new();
    for (_, resp) in cli.call_all(&ControlRequest::Logs { tail }) {
        let ControlResponse::Logs(entries) = resp else {
            fail("unexpected response to logs");
        };
        for (server, (agent, text)) in entries {
            if cli.json {
                lines.push(format!(
                    "{{\"server\":{},\"agent\":{},\"text\":{}}}",
                    jstr(&server.to_string()),
                    jstr(&agent.to_string()),
                    jstr(&text),
                ));
            } else {
                println!("[{} {}] {}", server.leaf(), agent.leaf(), text);
            }
        }
    }
    if cli.json {
        println!("[{}]", lines.join(","));
    }
}

fn print_journal_entry(json_lines: &mut Vec<String>, cli: &Cli, server: &str, e: &JournalEntry) {
    let severity = Severity::from_index(e.severity)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("sev{}", e.severity));
    if cli.json {
        json_lines.push(format!(
            "{{\"server\":{},\"seq\":{},\"at\":{},\"severity\":{},\"label\":{},\
             \"agent\":{},\"text\":{}}}",
            jstr(server),
            e.seq,
            e.at,
            jstr(&severity),
            jstr(&e.label),
            e.agent
                .as_deref()
                .map(jstr)
                .unwrap_or_else(|| "null".into()),
            jstr(&e.text),
        ));
    } else {
        println!(
            "{server} #{:<6} t={:<12} {:<5} {:<18} {}",
            e.seq, e.at, severity, e.label, e.text
        );
    }
}

fn journal(cli: &Cli, rest: &[String]) {
    let tail = tail_arg(rest, 20);
    let mut lines = Vec::new();
    for (_, resp) in cli.call_all(&ControlRequest::JournalTail {
        cursor: None,
        max: tail,
    }) {
        let ControlResponse::Journal(pages) = resp else {
            fail("unexpected response to journal");
        };
        for page in pages {
            let server = page.server.to_string();
            for e in &page.entries {
                print_journal_entry(&mut lines, cli, &server, e);
            }
        }
    }
    if cli.json {
        println!("[{}]", lines.join(","));
    }
}

fn follow(cli: &Cli, rest: &[String]) {
    let mut for_ms: Option<u64> = None;
    let mut max = 256u64;
    let mut interval = Duration::from_millis(100);
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .and_then(|x| x.parse::<u64>().ok())
                .unwrap_or_else(|| fail(&format!("{flag} needs a number")))
        };
        match a.as_str() {
            "--for-ms" => for_ms = Some(val("--for-ms")),
            "--max" => max = val("--max"),
            "--interval-ms" => interval = Duration::from_millis(val("--interval-ms")),
            other => fail(&format!("unexpected argument {other}")),
        }
    }
    let mut clients = cli.connect_all();
    // One follower per endpoint: cursors are per-server, and servers
    // are disjoint across endpoints, so each socket's gap accounting
    // stays separate.
    let mut followers: Vec<JournalFollower> =
        clients.iter().map(|_| JournalFollower::new()).collect();
    let deadline = for_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut json_lines = Vec::new();
    loop {
        for (i, (endpoint, client)) in clients.iter_mut().enumerate() {
            let follower = &mut followers[i];
            let resp = match client.call(&follower.request(max)) {
                Ok(r) => r,
                Err(e) => fail(&format!("calling {endpoint}: {e}")),
            };
            let ControlResponse::Journal(pages) = resp else {
                fail("unexpected response to follow");
            };
            for page in &pages {
                let server = page.server.to_string();
                for e in &follower.ingest(page) {
                    print_journal_entry(&mut json_lines, cli, &server, e);
                }
            }
            for l in json_lines.drain(..) {
                println!("{l}");
            }
        }
        match deadline {
            Some(d) if Instant::now() >= d => break,
            _ => std::thread::sleep(interval),
        }
    }
    let gaps: u64 = followers.iter().map(|f| f.unexplained_gaps).sum();
    if gaps > 0 {
        eprintln!("ajantactl: {gaps} journal record(s) missing without accounted drops");
        std::process::exit(1);
    }
}

/// Fetches and merges typed telemetry from every server behind every
/// endpoint.
fn merged_telemetry(cli: &Cli) -> TelemetrySnapshot {
    let mut merged = TelemetrySnapshot::empty();
    for (_, resp) in cli.call_all(&ControlRequest::Metrics) {
        let ControlResponse::Metrics(per_server) = resp else {
            fail("unexpected response to metrics");
        };
        for (_, snap) in per_server {
            merged.merge(&snap);
        }
    }
    merged
}

fn metrics(cli: &Cli) {
    let merged = merged_telemetry(cli);
    if cli.json {
        let mut counters = Vec::new();
        for c in Counter::ALL {
            counters.push(format!("{}:{}", jstr(c.name()), merged.counters.get(c)));
        }
        println!("{{\"counters\":{{{}}}}}", counters.join(","));
    } else {
        print!("{}", merged.render());
    }
}

fn histo(cli: &Cli) {
    let merged = merged_telemetry(cli);
    let mut lines = Vec::new();
    for path in HistoPath::ALL {
        let s = merged.histo(path);
        if cli.json {
            lines.push(format!(
                "{{\"name\":{},\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
                 \"max\":{}}}",
                jstr(path.name()),
                s.count,
                s.sum,
                s.quantile(0.50),
                s.quantile(0.90),
                s.quantile(0.99),
                s.max,
            ));
        } else {
            // Everything is a nanosecond distribution except the
            // frames-per-write count histogram.
            let render: fn(u64) -> String = if path == HistoPath::FramesPerWrite {
                |v| v.to_string()
            } else {
                fmt_ns
            };
            println!(
                "{:<26} n={:<6} p50={:<10} p90={:<10} p99={:<10} max={}",
                path.name(),
                s.count,
                render(s.quantile(0.50)),
                render(s.quantile(0.90)),
                render(s.quantile(0.99)),
                render(s.max),
            );
        }
    }
    if cli.json {
        println!("[{}]", lines.join(","));
    }
}

fn trace(cli: &Cli, rest: &[String]) {
    let jsonl = if rest.is_empty() {
        // Remote: concatenate every endpoint's merged export.
        let mut merged = String::new();
        for (_, resp) in cli.call_all(&ControlRequest::Trace) {
            let ControlResponse::Trace(j) = resp else {
                fail("unexpected response to trace");
            };
            merged.push_str(&j);
        }
        merged
    } else {
        let mut merged = String::new();
        for f in rest {
            match std::fs::read_to_string(f) {
                Ok(s) => merged.push_str(&s),
                Err(e) => fail(&format!("cannot read {f}: {e}")),
            }
        }
        merged
    };

    let records = match parse_jsonl(&jsonl) {
        Ok(r) => r,
        Err(e) => fail(&format!("parsing trace: {e}")),
    };
    let forest = TraceForest::build(records);
    let anomalies = scan_anomalies(&forest, RETRY_THRESHOLD);
    if cli.json {
        println!(
            "{{\"traces\":{},\"spans\":{},\"orphans\":{},\"revokes\":{},\"anomalies\":[{}]}}",
            forest.traces.len(),
            forest.span_count(),
            forest.orphan_count(),
            forest.revokes.len(),
            anomalies
                .iter()
                .map(|a| jstr(&a.to_string()))
                .collect::<Vec<_>>()
                .join(","),
        );
        return;
    }
    println!(
        "{} trace(s), {} span(s), {} orphan(s), {} revocation(s)\n",
        forest.traces.len(),
        forest.span_count(),
        forest.orphan_count(),
        forest.revokes.len()
    );
    for (trace, tree) in &forest.traces {
        print!("{}", render_tree(*trace, tree));
        // Per-trace rollup: what each phase of the tour cost.
        let mut retries = 0usize;
        let mut transfer_ns = 0u64;
        for s in &tree.spans {
            match s.kind {
                SpanKind::Retry => retries += 1,
                SpanKind::Transfer => transfer_ns += s.dur_ns,
                _ => {}
            }
        }
        println!(
            "  = {} spans, {} retries, {} cumulative transfer RTT\n",
            tree.spans.len(),
            retries,
            fmt_ns(transfer_ns)
        );
    }
    if anomalies.is_empty() {
        println!("no anomalies (retry threshold {RETRY_THRESHOLD})");
    } else {
        println!("{} anomalie(s):", anomalies.len());
        for a in &anomalies {
            println!("  {a}");
        }
    }
}

fn act(cli: &Cli, rest: &[String], verb: &str) {
    let Some(agent) = rest.first() else { usage() };
    let agent: ajanta_naming::Urn = agent
        .parse()
        .unwrap_or_else(|e| fail(&format!("bad agent urn: {e}")));
    let req = match verb {
        "hibernate" => ControlRequest::Hibernate {
            agent: agent.clone(),
        },
        _ => ControlRequest::Wake {
            agent: agent.clone(),
        },
    };
    for (endpoint, resp) in cli.call_all(&req) {
        let ControlResponse::Ack(ok) = resp else {
            fail(&format!("unexpected response to {verb}"));
        };
        if ok {
            if cli.json {
                println!("{{\"ok\":true,\"endpoint\":{}}}", jstr(&endpoint));
            } else {
                println!("{verb} {agent}: done (via {endpoint})");
            }
            return;
        }
    }
    if cli.json {
        println!("{{\"ok\":false}}");
    } else {
        eprintln!("ajantactl: {verb} {agent}: no endpoint could comply");
    }
    std::process::exit(1);
}

fn revoke(cli: &Cli, rest: &[String]) {
    let Some(resource) = rest.first() else {
        usage()
    };
    let resource: ajanta_naming::Urn = resource
        .parse()
        .unwrap_or_else(|e| fail(&format!("bad resource urn: {e}")));
    if cli.endpoints.is_empty() {
        fail("no control endpoint: pass --ctl or set AJANTA_CTL");
    }
    let addrs: Vec<_> = cli
        .endpoints
        .iter()
        .map(|e| {
            e.parse()
                .unwrap_or_else(|err: String| fail(&format!("bad endpoint {e}: {err}")))
        })
        .collect();
    match revoke_everywhere(&addrs, &resource) {
        Ok((proxies, servers)) => {
            if cli.json {
                println!(
                    "{{\"resource\":{},\"proxies\":{},\"servers\":{}}}",
                    jstr(&resource.to_string()),
                    proxies,
                    servers
                );
            } else {
                println!(
                    "revoked {resource}: {proxies} live prox(ies) invalidated across \
                     {servers} server(s)"
                );
            }
        }
        Err(e) => fail(&format!("revoke: {e}")),
    }
}
