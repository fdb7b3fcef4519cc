//! The metric catalog: every end-to-end and per-layer metric the benchmark
//! prints, with its unit. `BENCHMARK.json` lists the same names; the
//! benchmark refuses to start when the two disagree.

use ido_compiler::Scheme;
use ido_crashtest::DURABLE_SCHEMES;

use crate::util::scheme_key;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 2] = [("e2e_s", "s"), ("setup_s", "s")];

/// Span names whose self time is reported per iteration as
/// `<metric>` = `(span name, metric name)`.
pub const LAYER_SPANS: [(&str, &str); 10] = [
    ("lang.parse", "lang.parse_s"),
    ("compiler.instrument", "compiler.instrument_s"),
    ("verify", "verify.s"),
    ("vm.setup", "vm.setup_s"),
    ("vm.run", "vm.run_s"),
    ("vm.attach", "vm.attach_s"),
    ("nvm.crash", "nvm.crash_s"),
    ("recovery", "recovery.s"),
    ("workloads.verify", "workloads.verify_s"),
    ("crashtest.explore", "crashtest.explore_s"),
];

/// The parts of one re-driven crash state, as `(span name, part name)`.
pub const STATE_PARTS: [(&str, &str); 6] = [
    ("vm.setup", "setup"),
    ("vm.run", "replay"),
    ("nvm.crash", "crash"),
    ("recovery", "recover"),
    ("vm.attach", "attach"),
    ("workloads.verify", "verify"),
];

/// Every per-layer metric, printed by every traced run (0 where the
/// workload does not exercise the layer, which the provenance line then
/// names under `not_measured`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for (_, name) in LAYER_SPANS {
        add(name.to_string(), "s");
    }
    for name in [
        "other_s",
        "iter_s",
        "e2e_wall_s",
        "setup_wall_s",
        "host.cal_rep_s",
        "trace_overhead_s",
        "crashtest.reference_run_s",
    ] {
        add(name.to_string(), "s");
    }
    add("peak_rss_mib".into(), "MiB");
    add("lang.source_bytes".into(), "B");
    for name in [
        "compiler.insts_out",
        "verify.diagnostics",
        "vm.steps",
        "nvm.dirty_lines_at_crash",
        "crashtest.boundaries",
        "crashtest.replayed_steps_per_state",
        "crash_states",
    ] {
        add(name.to_string(), "count");
    }
    add("crash_states_per_s".into(), "1/s");
    add("compiles_per_s".into(), "1/s");
    add("failed_share".into(), "share");
    add("sim_ns_per_op.ido".into(), "sim_ns");
    add("sim_ns_per_op.baselines_geomean".into(), "sim_ns");
    add("clwb_per_op.ido".into(), "count");
    add("fence_per_op.ido".into(), "count");
    add("log_bytes_per_op.ido".into(), "B");
    for s in Scheme::ALL {
        add(format!("vm.ns_per_step.{}", scheme_key(s)), "ns");
    }
    for s in DURABLE_SCHEMES {
        let k = scheme_key(s);
        add(format!("nvm.clwbs.{k}"), "count");
        add(format!("nvm.fences.{k}"), "count");
        add(format!("nvm.lines_persisted.{k}"), "count");
        add(format!("nvm.log_bytes.{k}"), "B");
    }
    for s in DURABLE_SCHEMES {
        let k = scheme_key(s);
        add(format!("recovery.log_entries_scanned.{k}"), "count");
        add(format!("recovery.resumed.{k}"), "count");
        add(format!("recovery.rolled_back.{k}"), "count");
        add(format!("recovery.sim_ns.{k}"), "sim_ns");
    }
    for s in DURABLE_SCHEMES {
        for (_, part) in STATE_PARTS {
            add(format!("crashtest.state.{part}_s.{}", scheme_key(s)), "s");
        }
    }
    m
}

/// Checks that `BENCHMARK.json` (whitespace ignored) names every metric of
/// the catalog.
pub fn check_against(benchmark_json: &str) -> Result<(), String> {
    let flat: String = benchmark_json
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    let names = END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(per_layer().into_iter().map(|(n, _)| n));
    let missing: Vec<String> = names
        .filter(|n| !flat.contains(&format!("\"name\":\"{n}\"")))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json does not list metric(s) {missing:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_within_limits() {
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(per_layer().len() <= 128);
        assert!(all.iter().all(|n| n.len() <= 64));
    }
}
