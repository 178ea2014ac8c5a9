//! The benchmark's output lines: hand-written JSON (the benchmark has no
//! dependencies beyond counterlab).

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, printed with all its digits.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Escapes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) are an
/// internal error of the caller.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of string fields (the stamp line).
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
