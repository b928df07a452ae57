//! The repository's own JSON value (`vod_core::Json`: parser, accessors and
//! shortest-round-trip writer), plus the little the benchmark adds to it.

pub use vod_core::json::obj;
pub use vod_core::Json;

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// A top-level object with one key per line (for files a person diffs).
pub fn pretty(value: &Json) -> String {
    let Json::Obj(pairs) = value else {
        return value.to_string();
    };
    let lines: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("  {}: {v}", text(k.as_str())))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back() {
        let value = obj(vec![
            ("correct", Json::Bool(true)),
            ("name", text("a \"quoted\" µ\n")),
            ("reps", nums(&[1.5, 0.000001234, 2.4330000000000003])),
        ]);
        let written = pretty(&value);
        assert_eq!(Json::parse(&written).unwrap(), value);
        assert_eq!(written.lines().count(), 5);
        assert!(written.contains("2.4330000000000003"));
    }
}
