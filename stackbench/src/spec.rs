//! What the benchmark declares: its workloads and metrics, read from the
//! repository's `BENCHMARK.json`, which is embedded at build time so the
//! binary and the declaration cannot drift apart.

use std::sync::LazyLock;

use sudc_par::json::Json;

use crate::json::{self, Access};

#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only; 0 for
    /// per-layer metrics).
    pub bound: f64,
}

#[derive(Debug)]
pub struct Spec {
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

static SPEC: LazyLock<Result<Spec, String>> = LazyLock::new(|| Spec::parse(BENCHMARK_JSON));

/// The declared workloads and metrics.
pub fn spec() -> Result<&'static Spec, String> {
    SPEC.as_ref().map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn text(entry: &Json, key: &str) -> Result<String, String> {
    entry
        .get(key)
        .and_then(Access::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("an entry lacks {key}: {}", entry.to_string_compact()))
}

fn metric(entry: &Json, bounded: bool) -> Result<Metric, String> {
    let name = text(entry, "name")?;
    let lower_is_better = match text(entry, "better")?.as_str() {
        "lower" => true,
        "higher" => false,
        other => return Err(format!("{name}: better is {other:?}")),
    };
    let bound = if bounded {
        entry
            .get("bound")
            .and_then(Access::as_f64)
            .filter(|b| *b > 0.0 && *b <= 0.25)
            .ok_or_else(|| format!("{name}: bound must lie in (0, 0.25]"))?
    } else {
        0.0
    };
    Ok(Metric {
        unit: text(entry, "unit")?,
        name,
        lower_is_better,
        bound,
    })
}

impl Spec {
    fn parse(source: &str) -> Result<Spec, String> {
        let doc = json::parse(source)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Access::as_array)
                .ok_or_else(|| format!("no array {key}"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            list(key)?.iter().map(|m| metric(m, bounded)).collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    Ok(WorkloadSpec {
                        name: text(w, "name")?,
                        why: text(w, "why")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    #[cfg(test)]
    pub fn end_to_end(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_parses_with_distinct_names() {
        let s = spec().unwrap();
        let mut names: Vec<&str> = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let declared = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "a metric is declared twice");
    }

    #[test]
    fn setup_time_carries_the_largest_bound() {
        let s = spec().unwrap();
        let setup = s.end_to_end("setup_s").expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        assert!(s.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn malformed_declarations_are_refused() {
        let bad_bound = r#"{"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"x","unit":"s","better":"lower","bound":0.5}]}"#;
        assert!(Spec::parse(bad_bound).unwrap_err().contains("bound"));
        let bad_direction = r#"{"workloads":[],"end_to_end":[],
            "per_layer":[{"name":"x","unit":"s","better":"up"}]}"#;
        assert!(Spec::parse(bad_direction).unwrap_err().contains("better"));
    }
}
