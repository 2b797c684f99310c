//! X14 — credential operations (Section 5.2).
//!
//! Construction, verification (including certificate-chain validation),
//! endorsement (the forwarding "subcontract"), and verification of an
//! endorsed chain.

use std::time::Instant;

use ajanta_core::{Credentials, CredentialsBuilder, Rights};
use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair, RootOfTrust};
use ajanta_naming::Urn;

/// One operation's cost.
#[derive(Debug, Clone)]
pub struct CredentialRow {
    /// Operation.
    pub op: &'static str,
    /// Mean cost over the fastest of [`ROUNDS`] rounds, ns.
    pub ns: f64,
}

/// Each operation is timed this many times, `iters` iterations a round,
/// and the fastest round is reported, so one preemption cannot invert
/// two operations' order.
pub const ROUNDS: usize = 5;

struct Fixture {
    roots: RootOfTrust,
    owner_keys: KeyPair,
    owner: Urn,
    chain: Vec<Certificate>,
    server: Urn,
    server_keys: KeyPair,
    server_chain: Vec<Certificate>,
    rng: DetRng,
}

fn fixture() -> Fixture {
    let mut rng = DetRng::new(0x14);
    let ca = KeyPair::generate(&mut rng);
    let mut roots = RootOfTrust::new();
    roots.trust("ca", ca.public);
    let owner = Urn::owner("users.org", ["alice"]).unwrap();
    let owner_keys = KeyPair::generate(&mut rng);
    let cert = Certificate::issue(
        owner.to_string(),
        owner_keys.public,
        "ca",
        &ca,
        u64::MAX,
        1,
        &mut rng,
    );
    let server = Urn::server("site.org", ["s"]).unwrap();
    let server_keys = KeyPair::generate(&mut rng);
    let server_cert = Certificate::issue(
        server.to_string(),
        server_keys.public,
        "ca",
        &ca,
        u64::MAX,
        2,
        &mut rng,
    );
    Fixture {
        roots,
        owner_keys,
        owner,
        chain: vec![cert],
        server,
        server_keys,
        server_chain: vec![server_cert],
        rng,
    }
}

fn mint(fx: &mut Fixture, i: u64) -> Credentials {
    CredentialsBuilder::new(
        Urn::agent("users.org", ["bench", &format!("{i}")]).unwrap(),
        fx.owner.clone(),
    )
    .owner_chain(fx.chain.clone())
    .delegate(Rights::on_subtree(
        Urn::resource("stores.org", ["catalog"]).unwrap(),
    ))
    .expires_at(u64::MAX)
    .sign(&fx.owner_keys, &mut fx.rng)
}

/// Mean ns per iteration of `op` over `iters` iterations, in the
/// fastest of [`ROUNDS`] rounds.
fn fastest(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures each operation in [`ROUNDS`] rounds of `iters` iterations.
pub fn run(iters: u64) -> Vec<CredentialRow> {
    let mut fx = fixture();

    let mint_ns = fastest(iters, |i| {
        std::hint::black_box(mint(&mut fx, i));
    });

    let creds = mint(&mut fx, u64::MAX);
    let verify_ns = fastest(iters, |_| {
        std::hint::black_box(creds.verify(&fx.roots, 0).unwrap());
    });

    let restriction = Rights::none().grant_method(
        Urn::resource("stores.org", ["catalog", "books"]).unwrap(),
        "query",
    );
    let endorse_ns = fastest(iters, |_| {
        std::hint::black_box(creds.endorse(
            &fx.server,
            &fx.server_keys,
            fx.server_chain.clone(),
            restriction.clone(),
            &mut fx.rng,
        ));
    });

    let endorsed = creds.endorse(
        &fx.server,
        &fx.server_keys,
        fx.server_chain.clone(),
        restriction,
        &mut fx.rng,
    );
    let verify_endorsed_ns = fastest(iters, |_| {
        std::hint::black_box(endorsed.verify(&fx.roots, 0).unwrap());
    });

    vec![
        CredentialRow {
            op: "mint (sign)",
            ns: mint_ns,
        },
        CredentialRow {
            op: "verify (chain + signature)",
            ns: verify_ns,
        },
        CredentialRow {
            op: "endorse (forwarding restriction)",
            ns: endorse_ns,
        },
        CredentialRow {
            op: "verify with one endorsement",
            ns: verify_endorsed_ns,
        },
    ]
}

/// Renders the table.
pub fn table(iters: u64) -> String {
    let rows = run(iters);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.op.to_string(), crate::fmt_ns(r.ns)])
        .collect();
    crate::render_table(
        &format!("X14 — credential operations (fastest of {ROUNDS} rounds of {iters} iterations)"),
        &["operation", "mean cost"],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endorsed_verification_costs_more() {
        let rows = run(100);
        let verify = rows[1].ns;
        let verify_endorsed = rows[3].ns;
        assert!(verify_endorsed > verify, "{verify_endorsed} vs {verify}");
    }
}
