//! Metric values, their summary statistics, and how they are printed.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method, as Python's
/// `statistics.quantiles(v, n=4)` computes them.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for the clamped small-sample cases, which extrapolate.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Geometric mean of positive values (NaN when empty).
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind `value`.
    pub n: usize,
    /// First and third quartiles, for metrics that are medians.
    pub quartiles: Option<(f64, f64)>,
    /// Set when the value covers more than its workload.
    pub scope: Option<&'static str>,
}

impl Metric {
    pub fn exact(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            quartiles: None,
            scope: None,
        }
    }

    /// The median of `samples`, with quartiles.
    pub fn sampled(name: &str, samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            quartiles: Some(quartiles(samples)),
            ..Metric::exact(name, median(samples), unit, samples.len())
        }
    }

    /// `workload name value unit n=<samples>` plus quartiles and scope.
    pub fn line(&self, workload: &str) -> String {
        let mut s = format!(
            "{workload} {} {} {} n={}",
            self.name, self.value, self.unit, self.n
        );
        if let Some((q1, q3)) = self.quartiles {
            s.push_str(&format!(" q1={q1} q3={q3}"));
        }
        if let Some(scope) = self.scope {
            s.push_str(&format!(" scope={scope}"));
        }
        s
    }

    /// `{"value": .., "unit": ..}`, plus `n`, quartiles and scope when
    /// `full`.
    pub fn json(&self, full: bool) -> String {
        let mut s = format!(
            "{{\"value\": {}, \"unit\": \"{}\"",
            json_num(self.value),
            self.unit
        );
        if full {
            s.push_str(&format!(", \"n\": {}", self.n));
            if let Some((q1, q3)) = self.quartiles {
                s.push_str(&format!(
                    ", \"q1\": {}, \"q3\": {}",
                    json_num(q1),
                    json_num(q3)
                ));
            }
            if let Some(scope) = self.scope {
                s.push_str(&format!(", \"scope\": \"{scope}\""));
            }
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust keeps, or `null` for the
/// non-finite values JSON cannot carry (a latency percentile that fell on
/// a refused task).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after this call. False when the
/// kernel refuses, in which case the peak covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
