//! Regenerates every experiment table from DESIGN.md's index.
//!
//! ```text
//! cargo run --release -p ajanta-bench --bin report            # everything
//! cargo run --release -p ajanta-bench --bin report -- x4 x9   # a subset
//! cargo run --release -p ajanta-bench --bin report -- quick   # small sizes
//! cargo run --release -p ajanta-bench --bin report -- substrate quick
//! ```
//!
//! An unknown tag exits with status 2 and the list of valid tags; a JSON
//! summary that cannot be written exits with status 1.

use ajanta_bench as bench;
use ajanta_net::LinkModel;
use ajanta_workloads::records::RecordSpec;

/// Every table tag, in print order (`quick` is a size modifier).
const TAGS: &str = "substrate x3 x4 x4b x5 x6 x7 x8 x9 x10 x11 x12 x13f x14 x15 x16 x17 x18 x19";

/// Writes a `<TAG>_JSON` summary, exiting with status 1 when it fails.
fn write_json(tag: &str, path: &str, json: String) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("{tag}: failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("{tag}: JSON summary written to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "quick" && !TAGS.split(' ').any(|t| t == a.as_str()))
    {
        eprintln!("report: unknown tag {bad:?}; valid tags: {TAGS} (plus the size modifier quick)");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "quick");
    let wants =
        |tag: &str| args.is_empty() || args.iter().any(|a| a == tag) || (args.len() == 1 && quick);

    // Scale factors: `quick` keeps CI fast; default sizes are what
    // EXPERIMENTS.md records.
    let calls: u64 = if quick { 2_000 } else { 20_000 };
    let iters: u64 = if quick { 200 } else { 2_000 };

    if wants("substrate") {
        print!("{}", bench::substrate::table(iters));
        println!();
    }
    if wants("x3") {
        print!("{}", bench::x3_binding::table(iters));
        println!();
    }
    if wants("x4") {
        print!("{}", bench::x4_access::table(calls));
        println!();
    }
    if wants("x4b") {
        let pops: &[usize] = if quick {
            &[4, 64, 512]
        } else {
            &[4, 16, 64, 256, 1024]
        };
        print!("{}", bench::x4b_ablation::table(pops, calls / 2));
        println!();
    }
    if wants("x5") {
        let counts: &[usize] = if quick {
            &[1, 10, 100]
        } else {
            &[1, 10, 100, 1_000, 10_000]
        };
        print!("{}", bench::x5_scaling::table(counts));
        println!();
    }
    if wants("x6") {
        print!("{}", bench::x6_accounting::table(calls));
        println!();
    }
    if wants("x7") {
        print!("{}", bench::x7_revocation::table(iters.min(500)));
        println!();
    }
    if wants("x8") {
        print!("{}", bench::x8_confinement::table(calls));
        println!();
    }
    if wants("x9") {
        let spec = RecordSpec {
            count: if quick { 100 } else { 400 },
            record_len: 128,
            selectivity: 0.05,
            seed: 0xDA7A,
        };
        // Sweep selectivity on a WAN.
        for selectivity in [0.01, 0.05, 0.25, 1.0] {
            let s = bench::x9_paradigms::Scenario {
                spec: RecordSpec {
                    selectivity,
                    ..spec
                },
                n_servers: 3,
                link: LinkModel::wan(),
            };
            print!(
                "{}",
                bench::x9_paradigms::table(
                    &s,
                    &format!(
                        "3 servers × {} records, selectivity {selectivity}, WAN",
                        s.spec.count
                    ),
                )
            );
            println!();
        }
        // Sweep the link on fixed selectivity.
        for (label, link) in [("LAN", LinkModel::default()), ("WAN", LinkModel::wan())] {
            let s = bench::x9_paradigms::Scenario {
                spec,
                n_servers: 3,
                link,
            };
            print!(
                "{}",
                bench::x9_paradigms::table(
                    &s,
                    &format!(
                        "3 servers × {} records, selectivity 0.05, {label}",
                        spec.count
                    ),
                )
            );
            println!();
        }
    }
    if wants("x10") {
        let sizes: &[usize] = if quick {
            &[0, 10_000]
        } else {
            &[0, 1_000, 10_000, 100_000, 1_000_000]
        };
        print!("{}", bench::x10_transfer::table(sizes));
        println!();
    }
    if wants("x11") {
        print!("{}", bench::x11_attacks::table(if quick { 3 } else { 10 }));
        println!();
    }
    if wants("x12") {
        let counts: &[usize] = if quick { &[1, 8] } else { &[1, 4, 16, 64, 256] };
        print!(
            "{}",
            bench::x12_isolation::table(counts, if quick { 5_000 } else { 50_000 })
        );
        println!();
    }
    if wants("x13f") {
        let (agents, drops): (usize, &[f64]) = if quick {
            (8, &[0.0, 0.2])
        } else {
            (32, &[0.0, 0.05, 0.1, 0.2, 0.3])
        };
        print!("{}", bench::x13_recovery::table(agents, 5, drops));
        println!();
    }
    if wants("x14") {
        print!("{}", bench::x14_credentials::table(iters));
        println!();
    }
    if wants("x15") {
        let (agents, drops): (usize, &[f64]) = if quick {
            (8, &[0.0, 0.2])
        } else {
            (32, &[0.0, 0.05, 0.1, 0.2, 0.3])
        };
        print!("{}", bench::x15_tail::table(agents, 5, drops));
        println!();
    }
    if wants("x16") {
        // Scheduler capacity: resident-count sweep on a fixed pool, then
        // worker scaling on a fixed batch. `quick` is the CI smoke
        // (CHECK_BENCH=1 in scripts/check.sh): 10k agents, short loops.
        let (counts, iters): (&[usize], i64) = if quick {
            (&[1_000, 10_000], 500)
        } else {
            (&[1_000, 10_000, 100_000], 2_000)
        };
        let pool = 4;
        let resident = bench::x16_sched::resident_sweep(counts, pool, iters);
        let worker_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
        let batch = if quick { 2_000 } else { 10_000 };
        let workers = bench::x16_sched::worker_sweep(worker_counts, batch, iters);
        print!("{}", bench::x16_sched::resident_table(&resident, iters));
        println!();
        print!("{}", bench::x16_sched::worker_table(&workers, iters));
        println!();
        // CI artifact: X16_JSON=<path> writes a machine-readable summary.
        if let Ok(path) = std::env::var("X16_JSON") {
            write_json(
                "x16",
                &path,
                bench::x16_sched::json_summary(&resident, &workers),
            );
        }
    }
    if wants("x17") {
        let (agents, stops) = if quick { (8, 3) } else { (32, 5) };
        print!("{}", bench::x17_transport::table(agents, stops));
        println!();
    }
    if wants("x18") {
        // Wire data plane: 32-sender burst, coalesced vs one-frame-per-
        // write baseline. `quick` is the CI smoke.
        let (senders, per_sender) = if quick { (8, 64) } else { (32, 256) };
        let rows = bench::x18_wirepath::run(senders, per_sender, 64);
        print!(
            "{}",
            bench::x18_wirepath::table(&rows, senders, per_sender, 64)
        );
        println!();
        // CI artifact: X18_JSON=<path> writes a machine-readable summary.
        if let Ok(path) = std::env::var("X18_JSON") {
            write_json("x18", &path, bench::x18_wirepath::json_summary(&rows));
        }
    }
    if wants("x19") {
        // Durability: hibernate/wake cycle cost and memory trade, plus
        // WAL replay throughput at restart.
        let (cycles, records) = if quick { (64, 256) } else { (512, 4_096) };
        let (rows, replay) = bench::x19_durability::run(cycles, records);
        print!("{}", bench::x19_durability::table(&rows, &replay));
        println!();
        // CI artifact: X19_JSON=<path> writes a machine-readable summary.
        if let Ok(path) = std::env::var("X19_JSON") {
            write_json(
                "x19",
                &path,
                bench::x19_durability::json_summary(&rows, &replay),
            );
        }
    }
}
