//! A zero-dependency document model with hand-rolled TOML-subset and JSON
//! parsers/serializers.
//!
//! The build container has no crates.io access, so scenario files cannot
//! lean on `serde`/`toml`. This module implements exactly the subset the
//! [`ScenarioSpec`](crate::ScenarioSpec) format needs:
//!
//! * **TOML subset** — `key = value` pairs, `[section]` / `[a.b]` headers,
//!   strings with `\"`-style escapes, booleans, integers, floats, and
//!   (possibly multi-line) arrays. No inline tables, no arrays of tables,
//!   no dotted keys outside headers, no datetimes.
//! * **JSON** — objects, arrays, strings, numbers, booleans. `null` is
//!   rejected (the spec has no optional-by-null fields).
//!
//! Both serializers emit documents their own parser round-trips exactly
//! (`parse(serialize(v)) == v`), which the spec tests assert
//! property-style.

use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A finite 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A key-sorted table (TOML table / JSON object).
    Table(BTreeMap<String, Value>),
}

/// Position-annotated parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// An empty table.
    #[must_use]
    pub fn table() -> Self {
        Value::Table(BTreeMap::new())
    }

    /// The boolean behind `Value::Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer behind `Value::Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A float view: accepts both `Float` and `Int` (TOML writers are
    /// free to drop a trailing `.0`).
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string behind `Value::Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements behind `Value::Array`.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The map behind `Value::Table`.
    #[must_use]
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Table lookup (`None` for non-tables and absent keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table().and_then(|t| t.get(key))
    }

    /// Inserts into a table value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a table.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        match self {
            Value::Table(t) => {
                t.insert(key.into(), value.into());
            }
            other => panic!("insert on non-table value {other:?}"),
        }
    }

    // ----------------------------------------------------------- parsing --

    /// Parses a TOML-subset document into a [`Value::Table`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the offending line.
    pub fn parse_toml(input: &str) -> Result<Value, ParseError> {
        let mut root = BTreeMap::new();
        let mut path: Vec<String> = Vec::new();
        let mut lines = input.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line_no = idx + 1;
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header.strip_suffix(']').ok_or_else(|| ParseError {
                    line: line_no,
                    message: format!("unterminated section header {line:?}"),
                })?;
                if header.starts_with('[') {
                    return Err(ParseError {
                        line: line_no,
                        message: "arrays of tables are not part of the supported subset".into(),
                    });
                }
                path = header
                    .split('.')
                    .map(|part| parse_key(part.trim(), line_no))
                    .collect::<Result<_, _>>()?;
                // Materialise the section so empty sections still appear.
                table_at(&mut root, &path, line_no)?;
                continue;
            }
            let Some(eq) = find_unquoted(line, '=') else {
                return Err(ParseError {
                    line: line_no,
                    message: format!("expected `key = value`, got {line:?}"),
                });
            };
            let key = parse_key(line[..eq].trim(), line_no)?;
            let mut rest = line[eq + 1..].trim().to_string();
            // Multi-line arrays: keep consuming until brackets balance.
            while bracket_balance(&rest) > 0 {
                let Some((_, next)) = lines.next() else {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("unterminated array in value for {key:?}"),
                    });
                };
                rest.push(' ');
                rest.push_str(strip_comment(next).trim());
            }
            let value = parse_scalar_or_array(&rest, line_no)?;
            let target = table_at(&mut root, &path, line_no)?;
            if target.insert(key.clone(), value).is_some() {
                return Err(ParseError {
                    line: line_no,
                    message: format!("duplicate key {key:?}"),
                });
            }
        }
        Ok(Value::Table(root))
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the offending line.
    pub fn parse_json(input: &str) -> Result<Value, ParseError> {
        let mut p = JsonParser {
            chars: input.char_indices().peekable(),
            input,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if let Some(&(i, c)) = p.chars.peek() {
            return Err(p.error_at(i, format!("trailing content starting with {c:?}")));
        }
        Ok(value)
    }

    // ------------------------------------------------------- serializing --

    /// Serializes a table as a TOML-subset document.
    ///
    /// Scalar and array entries precede subtables; subtables become
    /// `[section]` / `[a.b]` headers. The output re-parses to an equal
    /// value via [`Value::parse_toml`].
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a table, a nested value mixes tables into
    /// arrays, or a float is non-finite.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let table = self.as_table().expect("TOML documents are tables");
        let mut out = String::new();
        write_toml_table(&mut out, table, &mut Vec::new());
        out
    }

    /// Serializes as pretty-printed JSON (2-space indent, sorted keys).
    ///
    /// # Panics
    ///
    /// Panics if a float is non-finite.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_json(&mut out, self, 0);
        out
    }

    /// Serializes as single-line JSON (no whitespace between tokens,
    /// sorted keys) — the JSONL form for append-only history files.
    ///
    /// # Panics
    ///
    /// Panics if a float is non-finite.
    #[must_use]
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        write_json_compact(&mut out, self);
        out
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i64::try_from(i).expect("count fits i64"))
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i64::try_from(i).expect("value fits i64"))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

// ------------------------------------------------------------ TOML bits --

/// Drops a `#` comment, ignoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Finds `needle` outside double-quoted strings.
fn find_unquoted(line: &str, needle: char) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            c2 if c2 == needle && !in_string => return Some(i),
            _ => {}
        }
        escaped = false;
    }
    None
}

/// Net `[`/`]` depth outside strings — positive while an array is open.
fn bracket_balance(text: &str) -> i32 {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth
}

fn parse_key(raw: &str, line: usize) -> Result<String, ParseError> {
    if let Some(quoted) = raw.strip_prefix('"') {
        let inner = quoted.strip_suffix('"').ok_or_else(|| ParseError {
            line,
            message: format!("unterminated quoted key {raw:?}"),
        })?;
        return unescape(inner, line);
    }
    if !raw.is_empty()
        && raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        Ok(raw.to_string())
    } else {
        Err(ParseError {
            line,
            message: format!("invalid bare key {raw:?}"),
        })
    }
}

fn table_at<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    line: usize,
) -> Result<&'a mut BTreeMap<String, Value>, ParseError> {
    let mut current = root;
    for part in path {
        let entry = current
            .entry(part.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        current = match entry {
            Value::Table(t) => t,
            other => {
                return Err(ParseError {
                    line,
                    message: format!("section {part:?} collides with a {}", type_name(other)),
                });
            }
        };
    }
    Ok(current)
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Bool(_) => "boolean",
        Value::Int(_) => "integer",
        Value::Float(_) => "float",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Table(_) => "table",
    }
}

/// Parses one TOML value: scalar or (nested) array, already comment-free.
fn parse_scalar_or_array(text: &str, line: usize) -> Result<Value, ParseError> {
    let text = text.trim();
    if text.starts_with('[') {
        let (value, rest) = parse_array(text, line)?;
        if !rest.trim().is_empty() {
            return Err(ParseError {
                line,
                message: format!("trailing content after array: {rest:?}"),
            });
        }
        return Ok(value);
    }
    parse_scalar(text, line)
}

/// Parses `[ ... ]`, returning the value and the unconsumed tail.
fn parse_array(text: &str, line: usize) -> Result<(Value, &str), ParseError> {
    let mut rest = text
        .strip_prefix('[')
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected array, got {text:?}"),
        })?
        .trim_start();
    let mut items = Vec::new();
    loop {
        if let Some(tail) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), tail));
        }
        if rest.is_empty() {
            return Err(ParseError {
                line,
                message: "unterminated array".into(),
            });
        }
        let (item, tail) = if rest.starts_with('[') {
            parse_array(rest, line)?
        } else {
            let end = scalar_end(rest);
            (parse_scalar(rest[..end].trim(), line)?, &rest[end..])
        };
        items.push(item);
        rest = tail.trim_start();
        if let Some(tail) = rest.strip_prefix(',') {
            rest = tail.trim_start();
        }
    }
}

/// Index where the current scalar ends inside an array body.
fn scalar_end(text: &str) -> usize {
    if text.starts_with('"') {
        let mut escaped = false;
        for (i, c) in text.char_indices().skip(1) {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => return i + 1,
                _ => escaped = false,
            }
        }
        text.len()
    } else {
        text.find([',', ']']).unwrap_or(text.len())
    }
}

fn parse_scalar(text: &str, line: usize) -> Result<Value, ParseError> {
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        "" => {
            return Err(ParseError {
                line,
                message: "empty value".into(),
            });
        }
        _ => {}
    }
    if let Some(quoted) = text.strip_prefix('"') {
        let inner = quoted.strip_suffix('"').ok_or_else(|| ParseError {
            line,
            message: format!("unterminated string {text:?}"),
        })?;
        return Ok(Value::Str(unescape(inner, line)?));
    }
    parse_number(text, line)
}

fn parse_number(text: &str, line: usize) -> Result<Value, ParseError> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let digits = clean.strip_prefix(['+', '-']).unwrap_or(&clean);
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        // TOML integers are signed 64-bit: a longer one is an error, not
        // a float (floats always carry a `.` or an exponent).
        return clean
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| ParseError {
                line,
                message: format!("integer out of range (signed 64-bit): {text}"),
            });
    }
    match clean.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Value::Float(x)),
        _ => Err(ParseError {
            line,
            message: format!("not a boolean, number or string: {text:?}"),
        }),
    }
}

fn unescape(raw: &str, line: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unsupported escape \\{}", other.unwrap_or(' ')),
                });
            }
        }
    }
    Ok(out)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Formats a float so it re-parses as a float (never as an integer).
fn format_float(x: f64) -> String {
    assert!(x.is_finite(), "cannot serialize non-finite float {x}");
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_toml_scalar(out: &mut String, value: &Value) {
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => out.push_str(&format_float(*x)),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_toml_scalar(out, item);
            }
            out.push(']');
        }
        Value::Table(_) => panic!("tables inside arrays are not part of the supported subset"),
    }
}

fn write_toml_table(out: &mut String, table: &BTreeMap<String, Value>, path: &mut Vec<String>) {
    let mut subtables = Vec::new();
    let mut wrote_scalar = false;
    for (key, value) in table {
        if let Value::Table(sub) = value {
            subtables.push((key, sub));
        } else {
            out.push_str(key);
            out.push_str(" = ");
            write_toml_scalar(out, value);
            out.push('\n');
            wrote_scalar = true;
        }
    }
    for (key, sub) in subtables {
        if wrote_scalar || !out.is_empty() {
            out.push('\n');
        }
        path.push(key.clone());
        out.push('[');
        out.push_str(&path.join("."));
        out.push_str("]\n");
        write_toml_table(out, sub, path);
        path.pop();
    }
}

// ------------------------------------------------------------ JSON bits --

struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    input: &'a str,
}

impl JsonParser<'_> {
    fn error_at(&self, offset: usize, message: String) -> ParseError {
        let line = self.input[..offset].matches('\n').count() + 1;
        ParseError { line, message }
    }

    fn current_error(&mut self, message: String) -> ParseError {
        let offset = self.chars.peek().map_or(self.input.len(), |&(i, _)| i);
        self.error_at(offset, message)
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, expected: char) -> Result<(), ParseError> {
        match self.chars.next() {
            Some((_, c)) if c == expected => Ok(()),
            Some((i, c)) => Err(self.error_at(i, format!("expected {expected:?}, got {c:?}"))),
            None => Err(self.current_error(format!("expected {expected:?}, got end of input"))),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.chars.peek().copied() {
            Some((_, '{')) => self.object(),
            Some((_, '[')) => self.array(),
            Some((_, '"')) => Ok(Value::Str(self.string()?)),
            Some((i, c)) if c == '-' || c.is_ascii_digit() => self.number(i),
            Some((i, 't' | 'f' | 'n')) => self.keyword(i),
            Some((i, c)) => Err(self.error_at(i, format!("unexpected character {c:?}"))),
            None => Err(self.current_error("unexpected end of input".into())),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some(&(_, '}'))) {
            self.chars.next();
            return Ok(Value::Table(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.current_error(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, '}')) => return Ok(Value::Table(map)),
                Some((i, c)) => {
                    return Err(self.error_at(i, format!("expected ',' or '}}', got {c:?}")));
                }
                None => return Err(self.current_error("unterminated object".into())),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some(&(_, ']'))) {
            self.chars.next();
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, ']')) => return Ok(Value::Array(items)),
                Some((i, c)) => {
                    return Err(self.error_at(i, format!("expected ',' or ']', got {c:?}")));
                }
                None => return Err(self.current_error("unterminated array".into())),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    other => {
                        return Err(self.error_at(
                            i,
                            format!("unsupported escape \\{}", other.map_or(' ', |(_, c)| c)),
                        ));
                    }
                },
                Some((_, c)) => out.push(c),
                None => return Err(self.current_error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self, start: usize) -> Result<Value, ParseError> {
        let mut end = start;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        parse_number(&self.input[start..end], 0).map_err(|e| self.error_at(start, e.message))
    }

    fn keyword(&mut self, start: usize) -> Result<Value, ParseError> {
        let mut end = start;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_ascii_alphabetic() {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        match &self.input[start..end] {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "null" => Err(self.error_at(start, "null is not part of the supported subset".into())),
            other => Err(self.error_at(start, format!("unexpected keyword {other:?}"))),
        }
    }
}

fn write_json(out: &mut String, value: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => out.push_str(&format_float(*x)),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                out.push('\n');
                out.push_str(&pad_in);
                write_json(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Table(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                out.push('\n');
                out.push_str(&pad_in);
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\": ");
                write_json(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// The single-line companion of [`write_json`]: same escaping and float
/// formatting, no indentation or newlines.
fn write_json_compact(out: &mut String, value: &Value) {
    match value {
        Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_) => {
            write_json(out, value, 0);
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_compact(out, item);
            }
            out.push(']');
        }
        Value::Table(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\":");
                write_json_compact(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toml_doc() -> &'static str {
        r#"
# top comment
name = "hotspot run"   # trailing comment
seed = 2017
rate = 0.02
bursty = false
rates = [0.002, 0.01,
         0.04]         # multi-line array

[arch]
nodes = 16
wavelengths = 12

[workload.pattern]
kind = "hotspot"
hotspots = [0, 3]
"#
    }

    #[test]
    fn toml_subset_parses_scalars_sections_and_arrays() {
        let v = Value::parse_toml(toml_doc()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("hotspot run"));
        assert_eq!(v.get("seed").unwrap().as_int(), Some(2017));
        assert_eq!(v.get("rate").unwrap().as_float(), Some(0.02));
        assert_eq!(v.get("bursty").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("rates").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("arch").unwrap().get("wavelengths").unwrap().as_int(),
            Some(12)
        );
        assert_eq!(
            v.get("workload")
                .unwrap()
                .get("pattern")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("hotspot")
        );
    }

    #[test]
    fn toml_round_trips_through_its_own_serializer() {
        let v = Value::parse_toml(toml_doc()).unwrap();
        let serialized = v.to_toml();
        assert_eq!(Value::parse_toml(&serialized).unwrap(), v);
    }

    #[test]
    fn json_round_trips_toml_documents() {
        let v = Value::parse_toml(toml_doc()).unwrap();
        assert_eq!(Value::parse_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn strings_with_escapes_and_hashes_survive() {
        let mut t = Value::table();
        t.insert("s", "a \"quoted\" # not-a-comment \\ \n tab\t");
        let round = Value::parse_toml(&t.to_toml()).unwrap();
        assert_eq!(round, t);
        let round_json = Value::parse_json(&t.to_json()).unwrap();
        assert_eq!(round_json, t);
    }

    #[test]
    fn floats_never_collapse_into_integers() {
        let mut t = Value::table();
        t.insert("x", 2.0);
        let round = Value::parse_toml(&t.to_toml()).unwrap();
        assert_eq!(round.get("x"), Some(&Value::Float(2.0)));
        let round = Value::parse_json(&t.to_json()).unwrap();
        assert_eq!(round.get("x"), Some(&Value::Float(2.0)));
    }

    #[test]
    fn toml_errors_name_the_line() {
        let err = Value::parse_toml("ok = 1\nbroken").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("key = value"), "{err}");
        let err = Value::parse_toml("x = ").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Value::parse_toml("a = 1\na = 2").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn json_rejects_null_and_trailing_garbage() {
        assert!(Value::parse_json("{\"a\": null}").is_err());
        assert!(Value::parse_json("{} extra").is_err());
    }

    #[test]
    fn json_rejects_duplicate_keys_like_toml_does() {
        let err = Value::parse_json("{\"seed\": 1, \"seed\": 7}").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn json_parses_nested_structures() {
        let v = Value::parse_json(
            r#"{"results": [{"p": 1, "q": [1.5, -2e3]}, {"p": 2, "q": []}], "ok": true}"#,
        )
        .unwrap();
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("q").unwrap().as_array().unwrap()[1],
            Value::Float(-2000.0)
        );
    }

    #[test]
    fn empty_sections_materialise() {
        let v = Value::parse_toml("[empty]").unwrap();
        assert_eq!(v.get("empty"), Some(&Value::table()));
    }

    #[test]
    fn negative_and_underscored_numbers() {
        let v = Value::parse_toml("a = -42\nb = 1_000\nc = -3.5e-2").unwrap();
        assert_eq!(v.get("a").unwrap().as_int(), Some(-42));
        assert_eq!(v.get("b").unwrap().as_int(), Some(1000));
        assert!((v.get("c").unwrap().as_float().unwrap() + 0.035).abs() < 1e-12);
    }

    #[test]
    fn integers_beyond_i64_are_a_typed_error_not_a_float() {
        let v = Value::parse_toml("max = 9223372036854775807\nmin = -9223372036854775808").unwrap();
        assert_eq!(v.get("max").unwrap().as_int(), Some(i64::MAX));
        assert_eq!(v.get("min").unwrap().as_int(), Some(i64::MIN));
        let err = Value::parse_toml("seed = 1\nhorizon = 18446744073709551615").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("integer out of range"), "{err}");
        assert!(err.message.contains("18446744073709551615"), "{err}");
        let err = Value::parse_json("{\"a\": 1,\n \"b\": -9223372036854775809}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("integer out of range"), "{err}");
        // Floats keep their `.` or exponent, so a huge one still parses.
        let v = Value::parse_toml("x = 1.8446744073709552e19").unwrap();
        assert_eq!(v.get("x"), Some(&Value::Float(1.844_674_407_370_955_2e19)));
    }
}
