//! The little JSON the benchmark writes: strings, numbers and flat
//! objects, rendered by hand so every digit of a measurement survives.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x` (Rust's shortest round-trip
/// rendering). Non-finite values have no JSON form and are a bug here.
pub fn number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite measurement {x}");
    format!("{x}")
}

/// A JSON object from already-rendered values, in the given order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_render_as_json() {
        assert_eq!(string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(4_150_000.0), "4150000");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(
            object([("a", number(1.0)), ("b", string("x"))]),
            "{\"a\":1,\"b\":\"x\"}"
        );
    }
}
