//! Substrate costs: hash, MAC, signatures, VM dispatch and the wire
//! codec — the building blocks every experiment's cost decomposes into.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ajanta_crypto::{sha256, DetRng, HmacSha256, KeyPair};
use ajanta_vm::{
    verify, Interpreter, Limits, Module, ModuleBuilder, NoHost, Op, Ty, Value, VerifiedModule,
};
use ajanta_wire::Wire;

/// Iterations of the VM probe's countdown loop per call.
pub const VM_LOOP_ITERS: i64 = 1_000;

/// One operation's cost.
#[derive(Debug, Clone)]
pub struct SubstrateRow {
    /// Operation.
    pub op: String,
    /// Bytes one call processes (0 where size does not apply).
    pub bytes: usize,
    /// Mean cost, ns.
    pub ns: f64,
}

/// Mean ns per call of `f` over `iters` calls.
fn mean_ns<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `run(n)`: count `n` down to zero, return 0.
fn countdown_module() -> Arc<VerifiedModule> {
    let mut mb = ModuleBuilder::new("loop");
    mb.function(
        "run",
        [Ty::Int],
        [Ty::Int],
        Ty::Int,
        vec![
            Op::Load(0),
            Op::Store(1),
            Op::Load(1),
            Op::JumpIfZero(9),
            Op::Load(1),
            Op::PushI(1),
            Op::Sub,
            Op::Store(1),
            Op::Jump(2),
            Op::PushI(0),
            Op::Ret,
        ],
    );
    Arc::new(verify(mb.build()).expect("countdown verifies"))
}

/// Measures each operation `iters` times.
pub fn run(iters: u64) -> Vec<SubstrateRow> {
    let row = |op: &str, bytes: usize, ns: f64| SubstrateRow {
        op: op.to_string(),
        bytes,
        ns,
    };
    let mut rows = Vec::new();
    for size in [64usize, 4096, 65536] {
        let data = vec![0xABu8; size];
        rows.push(row("sha256", size, mean_ns(iters, || sha256(&data))));
        rows.push(row(
            "hmac-sha256",
            size,
            mean_ns(iters, || HmacSha256::mac(b"key", &data)),
        ));
    }

    let mut rng = DetRng::new(1);
    let kp = KeyPair::generate(&mut rng);
    let sig = kp.sign(b"msg", &mut rng);
    rows.push(row("sign", 0, mean_ns(iters, || kp.sign(b"msg", &mut rng))));
    rows.push(row(
        "verify",
        0,
        mean_ns(iters, || {
            ajanta_crypto::sig::verify(&kp.public, b"msg", &sig).expect("signature verifies")
        }),
    ));

    let vm = countdown_module();
    rows.push(row(
        &format!("vm loop ({VM_LOOP_ITERS} iterations)"),
        0,
        mean_ns(iters, || {
            Interpreter::new(Arc::clone(&vm), Limits::default()).run(
                "run",
                vec![Value::Int(VM_LOOP_ITERS)],
                &mut NoHost,
            )
        }),
    ));

    let module = vm.module().clone();
    rows.push(row(
        "module wire round trip",
        module.to_bytes().len(),
        mean_ns(iters, || {
            Module::from_bytes(&module.to_bytes()).expect("module decodes")
        }),
    ));
    rows
}

/// Renders the table.
pub fn table(iters: u64) -> String {
    let rendered: Vec<Vec<String>> = run(iters)
        .iter()
        .map(|r| {
            let (input, throughput) = if r.bytes == 0 {
                ("-".to_string(), "-".to_string())
            } else {
                // Bytes per ns is GB/s.
                let mb_per_s = r.bytes as f64 / r.ns * 1_000.0;
                (
                    crate::fmt_bytes(r.bytes as u64),
                    format!("{mb_per_s:.0} MB/s"),
                )
            };
            vec![r.op.clone(), input, crate::fmt_ns(r.ns), throughput]
        })
        .collect();
    crate::render_table(
        &format!("Substrate — primitive costs ({iters} iterations)"),
        &["operation", "input", "mean cost", "throughput"],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_is_timed_and_hashing_scales_with_input() {
        let rows = run(20);
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.ns > 0.0), "{rows:?}");
        let sha = |bytes| {
            rows.iter()
                .find(|r| r.op == "sha256" && r.bytes == bytes)
                .expect("sha256 row")
                .ns
        };
        assert!(sha(65536) > sha(64), "{rows:?}");
        let text = table(5);
        assert!(text.contains("module wire round trip"));
    }
}
