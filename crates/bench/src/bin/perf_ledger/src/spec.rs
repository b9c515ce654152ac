//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer rows. `BENCHMARK.json` at
//! the repository root is this table rendered; a unit test holds the two
//! equal, so a metric cannot be emitted without being declared (or the
//! other way round).

/// Seconds one driver run measures (`BENCHMARK.json` → `run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// The directory that holds the benchmark and nothing else.
#[cfg(test)]
pub const PATH: &str = "crates/bench/src/bin/perf_ledger";

/// How the driver starts one run (it appends `--workload … --seed …
/// --seconds … --trace …`).
#[cfg(test)]
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/perf_ledger/Cargo.toml",
    "--",
];

/// The four workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale model over L2-resident state: lookup and action walk.
    Wide,
    /// Small model over a 128 MiB bank arena: memory reach.
    Scaled,
    /// Six-packet flows under the TCP lifecycle: set-up and tear-down.
    Mice,
    /// The churn recipe offered open-loop through `run_ingress`.
    Ingress,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::Wide, Workload::Scaled, Workload::Mice, Workload::Ingress];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wide => "wide",
            Workload::Scaled => "scaled",
            Workload::Mice => "mice",
            Workload::Ingress => "ingress",
        }
    }

    /// One line on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Wide => {
                "closed loop, paper-scale model [4,4,4] k=6 (35 tables) over L2-resident state: \
                 key-build, MatchIndex lookup and action walk do nearly all the work"
            }
            Workload::Scaled => {
                "closed loop, small model, ~115K concurrent 16-packet flows over 2^21 slots (128 \
                 MiB arena): a bank line out of L2 per packet; a lookup-only win should not show"
            }
            Workload::Mice => {
                "closed loop, 40K six-packet TCP flows under the SYN/FIN lifecycle: claim, decide \
                 resubmit, digest flush, drain and lane release instead of steady-state updates"
            }
            Workload::Ingress => {
                "open loop, paced frames through run_ingress (receiver + 1 consumer, ring 4096) at \
                 150K-1M pps: steering, slot copy, SPSC ring, idle sleep and drop-and-count"
            }
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `higher` or `lower`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (share of the parent's median).
    pub bound: f64,
}

/// End-to-end metrics. Every workload reports every one (see README.md
/// for what each means on a closed loop and on the open loop).
///
/// The bounds are set from ten-seed sweeps on the shared two-vCPU
/// development host, never below the spread observed there. In a quiet
/// stretch the quartiles of `pps` and `batch_us_p50` lie 2–6 % of their
/// median apart, those of `batch_us_p95` and of `ingress`'s
/// `delivered_pps` 9–11 % (hence their wider bound); while a neighbour is
/// busy all of them reach 13–26 %, and medians of sweeps an hour apart
/// have differed by 30 %. The tail is `batch_us_p95` because the 99th
/// percentile of a pass rests on fewer than ten samples.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "pps", unit: "1/s", better: Better::Higher, bound: 0.2 },
    EndToEnd { name: "batch_us_p50", unit: "us", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: "batch_us_p95", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "delivered_pps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "goodput_share", unit: "ratio", better: Better::Higher, bound: 0.02 },
    EndToEnd { name: "state_mb", unit: "MiB", better: Better::Lower, bound: 0.01 },
];

/// A single layer's row; no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<module>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn row(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer rows, printed by the `--trace 1` run. Rows a workload does
/// not exercise read 0 there (ring and receiver rows off `ingress`).
pub const PER_LAYER: [PerLayer; 37] = [
    row("dataplane.parser.parse_ns", "ns", Better::Lower),
    row("dataplane.parser.peek_ns", "ns", Better::Lower),
    row("dataplane.hash.steer_ns", "ns", Better::Lower),
    row("dataplane.index.lookup_exact_ns", "ns", Better::Lower),
    row("dataplane.index.lookup_ternary_ns", "ns", Better::Lower),
    row("dataplane.index.lookup_range_ns", "ns", Better::Lower),
    row("dataplane.index.lookup_ns_per_pkt_est", "ns", Better::Lower),
    row("dataplane.register.rmw_ns", "ns", Better::Lower),
    row("dataplane.register.rmw_resident_ns", "ns", Better::Lower),
    row("dataplane.register.bank_bytes_per_slot", "B", Better::Lower),
    row("dataplane.pipeline.pkt_ns", "ns", Better::Lower),
    row("dataplane.pipeline.passes_per_pkt", "ratio", Better::Lower),
    row("dataplane.pipeline.lookups_per_pkt", "ratio", Better::Lower),
    row("dataplane.pipeline.digests_per_kpkt", "ratio", Better::Lower),
    row("dataplane.pipeline.resubmits_per_kpkt", "ratio", Better::Lower),
    row("dataplane.pipeline.residual_ns", "ns", Better::Lower),
    row("core.engine.pkt_ns", "ns", Better::Lower),
    row("core.engine.overhead_ns", "ns", Better::Lower),
    row("core.engine.allocs_per_pkt", "ratio", Better::Lower),
    row("core.compile.build_ms", "ms", Better::Lower),
    row("core.engine.stage_ms", "ms", Better::Lower),
    row("core.engine.swap_stall_ms", "ms", Better::Lower),
    row("dt.train.fit_ms", "ms", Better::Lower),
    row("flow.synthetic.generate_s", "s", Better::Lower),
    row("flow.wire.serialize_s", "s", Better::Lower),
    row("core.ring.push_ns", "ns", Better::Lower),
    row("core.ring.pop_ns", "ns", Better::Lower),
    row("net.source.udp_recv_ns", "ns", Better::Lower),
    row("net.service.receiver_busy_ns", "ns", Better::Lower),
    row("net.service.rx_lag_us_p50", "us", Better::Lower),
    row("net.service.rx_lag_us_p99", "us", Better::Lower),
    row("net.service.loss_share_r150k", "ratio", Better::Lower),
    row("net.service.loss_share_r300k", "ratio", Better::Lower),
    row("net.service.loss_share_r450k", "ratio", Better::Lower),
    row("net.service.loss_share_r600k", "ratio", Better::Lower),
    row("net.service.sustained_pps", "1/s", Better::Higher),
    row("trace_overhead", "ratio", Better::Lower),
];

/// The per-layer rows whose values are exact counts: they must repeat
/// exactly between runs of one commit, and are the only rows a later
/// claim may rest on without timing.
pub const EXACT_ROWS: [&str; 5] = [
    "dataplane.register.bank_bytes_per_slot",
    "dataplane.pipeline.passes_per_pkt",
    "dataplane.pipeline.lookups_per_pkt",
    "dataplane.pipeline.digests_per_kpkt",
    "dataplane.pipeline.resubmits_per_kpkt",
];

/// One declared metric with the value a run measured for it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// Declared direction of improvement.
    pub better: Better,
    /// The value, as measured.
    pub value: f64,
}

/// Measured values of one run, keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name`; a name is recorded once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every metric of the run's mode, in declaration order. Panics if a
    /// declared metric was not recorded — that is a bug in the benchmark,
    /// not a measurement.
    pub fn declared(&self, traced: bool) -> Vec<Measured> {
        let decls: Vec<(&'static str, &'static str, Better)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit, m.better)).collect()
        };
        assert_eq!(decls.len(), self.0.len(), "recorded metrics differ from the declared set");
        decls
            .into_iter()
            .map(|(name, unit, better)| {
                let value = self.get(name).unwrap_or_else(|| panic!("metric {name} not recorded"));
                Measured { name, unit, better, value }
            })
            .collect()
    }
}

/// Renders `BENCHMARK.json` from the tables above.
#[cfg(test)]
pub fn benchmark_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&[PATH]),
        RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn emitted_names_equal_the_declared_file() {
        // The binary emits exactly the tables above (`Metrics::declared`
        // walks them), so equality with the committed file is equality
        // of the emitted and the declared sets.
        let committed = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "BENCHMARK.json is not the rendered spec");
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name(), 64) && seen.insert(w.name()), "workload {}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "why of {}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in END_TO_END {
            assert!(name_ok(m.name, 64) && seen.insert(m.name), "metric {}", m.name);
            assert!(unit_ok(m.unit), "unit of {}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name, 64) && seen.insert(m.name), "row {}", m.name);
            assert!(unit_ok(m.unit), "unit of {}", m.name);
        }
        for r in EXACT_ROWS {
            assert!(PER_LAYER.iter().any(|m| m.name == r), "exact row {r} is not declared");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn metrics_reject_gaps() {
        let mut m = Metrics::default();
        for e in END_TO_END {
            m.set(e.name, 1.0);
        }
        assert_eq!(m.declared(false).len(), END_TO_END.len());
        assert!(std::panic::catch_unwind(|| Metrics::default().declared(true)).is_err());
    }
}
