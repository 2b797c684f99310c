//! X3 — the six-step dynamic binding protocol of Fig. 6, with a per-step
//! latency breakdown.

use std::sync::Arc;
use std::time::Instant;

use ajanta_core::{DomainId, Guarded, HostMonitor, ProxyPolicy, ResourceRegistry};
use ajanta_workloads::records::RecordSpec;

use crate::fixtures;

/// Per-step measured latency.
#[derive(Debug, Clone)]
pub struct BindingRow {
    /// Protocol step (numbered as in Fig. 6).
    pub step: &'static str,
    /// Mean latency, ns.
    pub ns: f64,
}

/// Measures each step `iters` times.
pub fn run(iters: u64) -> Vec<BindingRow> {
    let spec = RecordSpec {
        count: 16,
        ..Default::default()
    };
    let monitor = HostMonitor::new();
    let server = ajanta_naming::Urn::server("stores.org", ["s"]).unwrap();

    // Step 1: registration.
    let reg_ns = {
        let start = Instant::now();
        let mut registries = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let registry = ResourceRegistry::new();
            let resource = Guarded::new(fixtures::store(&spec), ProxyPolicy::default());
            registry
                .register(&monitor, DomainId::SERVER, &server, resource)
                .unwrap();
            registries.push(registry);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };

    // Steps 2–5 together are `bind`; isolate lookup (step 3) and the
    // get_proxy upcall (steps 4–5) separately.
    let registry = ResourceRegistry::new();
    let resource = Guarded::new(fixtures::store(&spec), ProxyPolicy::default());
    registry
        .register(
            &monitor,
            DomainId::SERVER,
            &server,
            Arc::clone(&resource) as _,
        )
        .unwrap();
    let rq = fixtures::requester();
    let name = fixtures::store_name();

    let bind_ns = {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(registry.bind(&rq, &name, 0).unwrap());
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };

    let upcall_ns = {
        use ajanta_core::AccessProtocol;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(Arc::clone(&resource).get_proxy(&rq, 0).unwrap());
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };

    // Step 6: one proxy invocation.
    let proxy = registry.bind(&rq, &name, 0).unwrap();
    let invoke_ns = {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(proxy.invoke(rq.domain, "count", &[], 0).unwrap());
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };

    vec![
        BindingRow {
            step: "1  register resource (monitor + ownership + insert)",
            ns: reg_ns,
        },
        BindingRow {
            step: "2-5  bind = lookup + getProxy upcall + return",
            ns: bind_ns,
        },
        BindingRow {
            step: "4-5  getProxy upcall alone",
            ns: upcall_ns,
        },
        BindingRow {
            step: "6  one invocation through the proxy",
            ns: invoke_ns,
        },
    ]
}

/// Renders the table.
pub fn table(iters: u64) -> String {
    let rows = run(iters);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.step.to_string(), crate::fmt_ns(r.ns)])
        .collect();
    crate::render_table(
        &format!("X3 — Fig. 6 binding protocol breakdown ({iters} iterations)"),
        &["step", "mean latency"],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_dominates_invocation() {
        // The one-time bind is more expensive than a steady-state call —
        // that asymmetry is the whole point of proxies. Retry a few
        // times: shape assertions on wall-clock timings are noisy while
        // the rest of the workspace's tests share the CPUs.
        let mut last = String::new();
        for _ in 0..4 {
            let rows = run(500);
            let (bind, invoke) = (rows[1].ns, rows[3].ns);
            if bind > invoke {
                return;
            }
            last = format!("bind {bind} vs invoke {invoke}");
        }
        panic!("{last}");
    }
}
