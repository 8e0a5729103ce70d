//! Span timing for the traced phase.
//!
//! Spans are bracketed from the ledger's own files around calls into each
//! layer's public functions, read from the cheapest tick counter the host
//! has (the TSC on x86-64, calibrated once against `Instant`), and
//! aggregated in memory per (workload, op, span). Nothing is written until
//! the ledger exits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Reads the host tick counter.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC reads the time-stamp counter; it has no memory
        // effects and every x86-64 CPU implements it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per tick, measured once against `Instant` over a 20 ms
/// busy-wait.
pub fn ns_per_tick() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        let (t0, i0) = (ticks(), Instant::now());
        while i0.elapsed() < Duration::from_millis(20) {}
        let (t1, ns) = (ticks(), i0.elapsed().as_nanos() as f64);
        ns / t1.saturating_sub(t0).max(1) as f64
    })
}

/// Calls and ticks accumulated under one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub count: u64,
    pub ticks: u64,
}

impl Acc {
    /// Adds one call that ran from tick `start` to tick `end`.
    #[inline(always)]
    pub fn add(&mut self, start: u64, end: u64) {
        self.count += 1;
        self.ticks += end.wrapping_sub(start);
    }

    pub fn secs(&self) -> f64 {
        self.ticks as f64 * ns_per_tick() * 1e-9
    }
}

/// One aggregated span: every call of `name` under (`workload`, `op`).
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub parent: Option<&'static str>,
    pub count: u64,
    pub total_ns: f64,
}

/// Every span of a ledger run, keyed by (workload, op, span name).
#[derive(Default)]
pub struct Trace {
    spans: BTreeMap<(String, String, &'static str), Span>,
}

impl Trace {
    /// Folds `acc` into the span `name` of (`workload`, `op`).
    pub fn add(
        &mut self,
        (workload, op): (&str, &str),
        name: &'static str,
        layer: &'static str,
        parent: Option<&'static str>,
        acc: Acc,
    ) {
        self.add_ns(
            (workload, op),
            name,
            layer,
            parent,
            acc.count,
            acc.ticks as f64 * ns_per_tick(),
        );
    }

    /// Like [`Trace::add`] for a duration the layer measured itself.
    pub fn add_ns(
        &mut self,
        (workload, op): (&str, &str),
        name: &'static str,
        layer: &'static str,
        parent: Option<&'static str>,
        count: u64,
        ns: f64,
    ) {
        let span = self
            .spans
            .entry((workload.to_string(), op.to_string(), name))
            .or_insert(Span {
                layer,
                parent,
                count: 0,
                total_ns: 0.0,
            });
        span.count += count;
        span.total_ns += ns;
    }

    fn self_ns(&self, (w, op, name): &(String, String, &'static str), span: &Span) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|((cw, cop, _), c)| cw == w && cop == op && c.parent == Some(*name))
            .map(|(_, c)| c.total_ns)
            .sum();
        span.total_ns - children
    }

    /// Total nanoseconds of span `name` over every op of `workload`.
    pub fn total_ns(&self, workload: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|((w, _, n), _)| w == workload && *n == name)
            .map(|(_, s)| s.total_ns)
            .sum()
    }

    /// Self time per layer of `workload`.
    pub fn layer_self_ns(&self, workload: &str) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (key, span) in self.spans.iter().filter(|((w, _, _), _)| w == workload) {
            *out.entry(span.layer).or_insert(0.0) += self.self_ns(key, span);
        }
        out
    }

    /// The `trace.json` document.
    pub fn to_json(&self, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"seed\": {seed},");
        let _ = writeln!(out, "  \"ns_per_tick\": {},", ns_per_tick());
        let _ = writeln!(out, "  \"spans\": [");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|(key @ (w, op, name), s)| {
                format!(
                    "    {{\"workload\": \"{w}\", \"op\": \"{op}\", \"name\": \"{name}\", \
                     \"layer\": \"{}\", \"parent\": {}, \"count\": {}, \"total_ns\": {:.0}, \
                     \"self_ns\": {:.0}}}",
                    s.layer,
                    s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                    s.count,
                    s.total_ns,
                    self.self_ns(key, s)
                )
            })
            .collect();
        let _ = writeln!(out, "{}", rows.join(",\n"));
        let _ = writeln!(out, "  ],");
        let mut workloads: Vec<&str> = self.spans.keys().map(|(w, _, _)| w.as_str()).collect();
        workloads.dedup();
        let layers: Vec<String> = workloads
            .iter()
            .map(|w| {
                let per: Vec<String> = self
                    .layer_self_ns(w)
                    .iter()
                    .map(|(layer, ns)| format!("\"{layer}\": {ns:.0}"))
                    .collect();
                format!("    \"{w}\": {{{}}}", per.join(", "))
            })
            .collect();
        let _ = writeln!(out, "  \"layers\": {{\n{}\n  }}", layers.join(",\n"));
        let _ = writeln!(out, "}}");
        out
    }
}
