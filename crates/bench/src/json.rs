//! The one JSON writer behind every `repro` report.
//!
//! A report is built as a tree of [`Json`] values whose objects keep
//! their insertion order, then rendered in one pass. Layout is part of
//! the tree: an inline container renders on one line, and a block
//! container puts each member on a line of its own, two spaces deeper
//! than the line it opens on (`[\n` + members joined by `,\n` + `\n` +
//! indent + `]`, so an empty block renders with one blank line). Every
//! float carries a fixed format, so a report is a pure function of its
//! numbers. Strings are escaped and non-finite floats render as `null`,
//! through the same helpers as the `sdds-metrics-v1` dump.

use simkit::telemetry::{json_escape, json_f64};

/// How a float renders.
#[derive(Debug, Clone, Copy)]
pub enum FloatFormat {
    /// Rust's shortest round-trip form (`0.1`, `25`).
    Shortest,
    /// Fixed point with this many decimals (`{:.N}`).
    Fixed(usize),
    /// Scientific with this many mantissa decimals (`{:.Ne}`).
    Sci(usize),
}

/// One JSON value.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A float with its rendering format.
    Float(f64, FloatFormat),
    /// A string, escaped when rendered.
    Str(String),
    /// An array; `true` renders one member per line.
    Array(Vec<Json>, bool),
    /// An object.
    Object(Obj),
}

impl Json {
    /// A float rendered with `digits` decimals.
    pub fn fixed(x: f64, digits: usize) -> Json {
        Json::Float(x, FloatFormat::Fixed(digits))
    }

    /// A float rendered in scientific notation with `digits` decimals.
    pub fn sci(x: f64, digits: usize) -> Json {
        Json::Float(x, FloatFormat::Sci(digits))
    }

    /// A float rendered in its shortest round-trip form.
    pub fn float(x: f64) -> Json {
        Json::Float(x, FloatFormat::Shortest)
    }

    /// An inline array.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect(), false)
    }

    /// An array with one member per line.
    pub fn block_array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect(), true)
    }

    /// Renders the value as if it opened on a line indented by `indent`.
    fn render(&self, indent: usize, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            // `json_f64` renders the shortest form, and `null` for every
            // non-finite value whatever its format.
            Json::Float(x, format) => out.push_str(&match format {
                FloatFormat::Fixed(digits) if x.is_finite() => format!("{x:.digits$}"),
                FloatFormat::Sci(digits) if x.is_finite() => format!("{x:.digits$e}"),
                _ => json_f64(*x),
            }),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Array(items, block) => {
                render_members(
                    out,
                    ('[', ']'),
                    *block,
                    indent,
                    items.iter().map(|v| (None, v)),
                );
            }
            Json::Object(obj) => render_members(
                out,
                ('{', '}'),
                obj.block,
                indent,
                obj.members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn render_members<'a>(
    out: &mut String,
    (open, close): (char, char),
    block: bool,
    indent: usize,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    if block {
        out.push('\n');
    }
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(if block { ",\n" } else { ", " });
        }
        if block {
            out.push_str(&" ".repeat(indent + 2));
        }
        if let Some(key) = key {
            out.push('"');
            out.push_str(&json_escape(key));
            out.push_str("\": ");
        }
        value.render(if block { indent + 2 } else { indent }, out);
    }
    if block {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

/// An object under construction; members keep their insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    members: Vec<(String, Json)>,
    block: bool,
}

impl Obj {
    /// An empty object rendered on one line.
    pub fn inline() -> Obj {
        Obj::default()
    }

    /// An empty object rendered one member per line.
    pub fn block() -> Obj {
        Obj {
            block: true,
            ..Obj::default()
        }
    }

    /// Appends `key: value`.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Obj {
        self.members.push((key.to_owned(), value.into()));
        self
    }

    /// Appends `key: value` when `value` is present; omits the key
    /// otherwise (use [`Obj::field`] with an `Option` to write `null`).
    pub fn maybe(self, key: &str, value: Option<impl Into<Json>>) -> Obj {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// The object as a whole document: rendered at indent 0 with a
    /// trailing newline.
    pub fn document(self) -> String {
        let mut out = String::new();
        Json::Object(self).render(0, &mut out);
        out.push('\n');
        out
    }
}

/// Reads one number back from a document this writer rendered: the value
/// of `"field"` on the first line containing `"key"` (or `"key":
/// "value"` when `value` is given). Every inline object renders on one
/// line, so a line scan is enough; `repro perf --check` reads its
/// baseline this way.
pub fn find_number(text: &str, key: &str, value: Option<&str>, field: &str) -> Option<f64> {
    let line_key = match value {
        Some(v) => format!("\"{}\": \"{}\"", json_escape(key), json_escape(v)),
        None => format!("\"{}\"", json_escape(key)),
    };
    let field_key = format!("\"{}\":", json_escape(field));
    let line = text.lines().find(|l| l.contains(&line_key))?;
    let rest = line[line.find(&field_key)? + field_key.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl From<Obj> for Json {
    fn from(obj: Obj) -> Json {
        Json::Object(obj)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::UInt(n as u64)
            }
        }
    )*};
}
from_uint!(u64, u32, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline(v: impl Into<Json>) -> String {
        let mut out = String::new();
        v.into().render(0, &mut out);
        out
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        assert_eq!(inline("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(
            inline(Obj::inline().field("k\"ey", 1u64)),
            r#"{"k\"ey": 1}"#
        );
    }

    #[test]
    fn non_finite_floats_are_null_in_every_format() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(inline(Json::fixed(x, 6)), "null");
            assert_eq!(inline(Json::sci(x, 3)), "null");
            assert_eq!(inline(Json::float(x)), "null");
        }
    }

    #[test]
    fn each_field_keeps_its_precision() {
        let obj = Obj::inline()
            .field("f6", Json::fixed(0.1234567, 6))
            .field("f1", Json::fixed(2.26, 1))
            .field("f9", Json::fixed(7048.0945725, 9))
            .field("e3", Json::sci(0.0, 3))
            .field("e3b", Json::sci(1234.6, 3))
            .field("short", Json::float(0.1))
            .field("whole", Json::float(25.0));
        assert_eq!(
            inline(obj),
            r#"{"f6": 0.123457, "f1": 2.3, "f9": 7048.094572500, "e3": 0.000e0, "e3b": 1.235e3, "short": 0.1, "whole": 25}"#
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(inline(Json::array(Vec::<u64>::new())), "[]");
        assert_eq!(inline(Obj::inline()), "{}");
        let doc = Obj::block()
            .field("rows", Json::block_array(Vec::<u64>::new()))
            .document();
        assert_eq!(doc, "{\n  \"rows\": [\n\n  ]\n}\n");
    }

    #[test]
    fn block_containers_indent_from_the_line_they_open_on() {
        let scene = Obj::inline()
            .field("scene", "z")
            .field("cells", Json::block_array([1u64, 2]))
            .field("frontier", Json::array(["a", "b"]));
        let doc = Obj::block()
            .field("schema", "s")
            .field("scenes", Json::block_array([scene]))
            .field("total", Obj::inline().field("n", Option::<u64>::None))
            .document();
        assert_eq!(
            doc,
            "{\n  \"schema\": \"s\",\n  \"scenes\": [\n    {\"scene\": \"z\", \"cells\": [\n      1,\n      2\n    ], \"frontier\": [\"a\", \"b\"]}\n  ],\n  \"total\": {\"n\": null}\n}\n"
        );
    }

    #[test]
    fn find_number_reads_back_what_the_writer_wrote() {
        let cell = |name: &str, eps: f64| {
            Obj::inline()
                .field("name", name)
                .field("events_per_sec", Json::fixed(eps, 1))
        };
        let doc = Obj::block()
            .field(
                "cells",
                Json::block_array([cell("hf", 1.5), cell("hf+scheme", 2.5)]),
            )
            .field(
                "total",
                Obj::inline().field("events_per_sec", Json::fixed(3e6, 1)),
            )
            .document();
        assert_eq!(
            find_number(&doc, "total", None, "events_per_sec"),
            Some(3e6)
        );
        assert_eq!(
            find_number(&doc, "name", Some("hf+scheme"), "events_per_sec"),
            Some(2.5)
        );
        assert_eq!(
            find_number(&doc, "name", Some("hf"), "events_per_sec"),
            Some(1.5)
        );
        assert_eq!(find_number(&doc, "kernel", None, "ops_per_sec"), None);
    }

    #[test]
    fn maybe_omits_absent_fields() {
        let obj = Obj::inline()
            .maybe("a", Some(1u64))
            .maybe("b", Option::<u64>::None);
        assert_eq!(inline(obj), r#"{"a": 1}"#);
    }
}
