//! The result line the benchmark prints last.

use crate::catalog::MetricDef;
use std::collections::BTreeMap;

/// A printed metric: name, value, unit.
pub type Line = (&'static str, f64, &'static str);

/// Every metric of `defs` except the `overhead.*` ones (which compare two
/// passes), in catalog order. A metric the pass did not measure — its
/// layer does not run in this workload — reads 0.
pub fn select(measured: &BTreeMap<&'static str, f64>, defs: &[MetricDef]) -> Vec<Line> {
    defs.iter()
        .filter(|d| !d.name.starts_with("overhead."))
        .map(|d| (d.name, measured.get(d.name).copied().unwrap_or(0.0), d.unit))
        .collect()
}

/// The JSON result object: `correct`, `attempted` (at least 1), `failed`
/// and every metric as `{"value", "unit"}`. Non-finite values print as 0
/// (the caller marks such a run incorrect).
pub fn result_json(correct: bool, attempted: u64, failed: usize, metrics: &[Line]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}
