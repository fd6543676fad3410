//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` implemented directly on `proc_macro`
//! token streams (the build environment has no `syn`/`quote`).
//!
//! Supported shapes — exactly what this workspace derives:
//!
//! - named-field structs, tuple structs (newtypes serialize
//!   transparently), unit structs;
//! - enums with unit, newtype, tuple, and struct variants (externally
//!   tagged, like real serde's default).
//!
//! A named field missing from its map reads through
//! `Deserialize::from_missing`: an error, unless the field is an
//! `Option`, as upstream does.
//!
//! Unsupported (compile error): generic type parameters and `#[serde(..)]`
//! attributes. The workspace uses neither.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (the compat crate's `to_value`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

/// Derives `serde::Deserialize` (the compat crate's `from_value`).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let parsed = match parse(input) {
        Ok(item) => item,
        Err(message) => {
            return format!("compile_error!({message:?});").parse().expect("compile_error tokens")
        }
    };
    let code = match (&parsed.shape, mode) {
        (Shape::Struct(fields), Mode::Serialize) => struct_serialize(&parsed.name, fields),
        (Shape::Struct(fields), Mode::Deserialize) => struct_deserialize(&parsed.name, fields),
        (Shape::Enum(variants), Mode::Serialize) => enum_serialize(&parsed.name, variants),
        (Shape::Enum(variants), Mode::Deserialize) => enum_deserialize(&parsed.name, variants),
    };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive generated invalid code: {e}\");")
            .parse()
            .expect("compile_error tokens")
    })
}

// ------------------------------------------------------------------ model

/// Field layout of a struct or an enum variant.
#[derive(Debug)]
enum Fields {
    /// `{ a: T, b: U }` — field names in declaration order.
    Named(Vec<String>),
    /// `(T, U)` — field count.
    Tuple(usize),
    /// No payload.
    Unit,
}

#[derive(Debug)]
enum Shape {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Item {
    name: String,
    shape: Shape,
}

// ----------------------------------------------------------------- parser

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor { tokens: stream.into_iter().collect(), pos: 0 }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let token = self.tokens.get(self.pos).cloned();
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    /// Skips `#[...]` / `#![...]` attribute groups (doc comments included).
    fn skip_attributes(&mut self) {
        loop {
            match self.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    self.pos += 1;
                    if let Some(TokenTree::Punct(p)) = self.peek() {
                        if p.as_char() == '!' {
                            self.pos += 1;
                        }
                    }
                    match self.peek() {
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                            self.pos += 1;
                        }
                        _ => return, // malformed; let rustc complain
                    }
                }
                _ => return,
            }
        }
    }

    /// Skips `pub`, `pub(crate)`, `pub(in ...)`.
    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(ident)) = self.peek() {
            if ident.to_string() == "pub" {
                self.pos += 1;
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    /// Skips tokens until a top-level comma (angle-bracket aware), which
    /// is consumed. Returns false at end of stream.
    fn skip_past_comma(&mut self) -> bool {
        let mut angle_depth = 0i32;
        while let Some(token) = self.next() {
            if let TokenTree::Punct(p) = &token {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth <= 0 => return true,
                    _ => {}
                }
            }
        }
        false
    }
}

fn parse(input: TokenStream) -> Result<Item, String> {
    let mut cursor = Cursor::new(input);
    cursor.skip_attributes();
    cursor.skip_visibility();
    let keyword = match cursor.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    let name = match cursor.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    if let Some(TokenTree::Punct(p)) = cursor.peek() {
        if p.as_char() == '<' {
            return Err(format!("serde compat derive does not support generic type `{name}`"));
        }
    }
    match keyword.as_str() {
        "struct" => {
            parse_struct_body(&mut cursor).map(|fields| Item { name, shape: Shape::Struct(fields) })
        }
        "enum" => {
            parse_enum_body(&mut cursor).map(|variants| Item { name, shape: Shape::Enum(variants) })
        }
        other => Err(format!("cannot derive serde traits for `{other}` items")),
    }
}

fn parse_struct_body(cursor: &mut Cursor) -> Result<Fields, String> {
    match cursor.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            parse_named_fields(g.stream())
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Fields::Tuple(count_tuple_fields(g.stream())))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Fields::Unit),
        other => Err(format!("unexpected struct body: {other:?}")),
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Fields, String> {
    let mut cursor = Cursor::new(stream);
    let mut names = Vec::new();
    loop {
        cursor.skip_attributes();
        cursor.skip_visibility();
        match cursor.next() {
            Some(TokenTree::Ident(ident)) => names.push(ident.to_string()),
            None => break,
            other => return Err(format!("expected field name, found {other:?}")),
        }
        match cursor.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field name, found {other:?}")),
        }
        if !cursor.skip_past_comma() {
            break;
        }
    }
    Ok(Fields::Named(names))
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut cursor = Cursor::new(stream);
    let mut count = 0;
    loop {
        cursor.skip_attributes();
        cursor.skip_visibility();
        if cursor.peek().is_none() {
            break;
        }
        count += 1;
        if !cursor.skip_past_comma() {
            break;
        }
        // trailing comma: nothing after it
        if cursor.peek().is_none() {
            break;
        }
    }
    count
}

fn parse_enum_body(cursor: &mut Cursor) -> Result<Vec<(String, Fields)>, String> {
    let group = match cursor.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => return Err(format!("expected enum body, found {other:?}")),
    };
    let mut body = Cursor::new(group.stream());
    let mut variants = Vec::new();
    loop {
        body.skip_attributes();
        let name = match body.next() {
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            None => break,
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        let fields = match body.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                body.pos += 1;
                parse_named_fields(stream)?
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let stream = g.stream();
                body.pos += 1;
                Fields::Tuple(count_tuple_fields(stream))
            }
            _ => Fields::Unit,
        };
        variants.push((name, fields));
        // skip an optional discriminant, then the separating comma
        match body.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                if !body.skip_past_comma() {
                    break;
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                body.pos += 1;
            }
            None => break,
            other => return Err(format!("unexpected token after variant: {other:?}")),
        }
    }
    Ok(variants)
}

// -------------------------------------------------------------- generators

fn struct_serialize(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Named(names) => {
            let entries: Vec<String> = names
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
        Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        Fields::Unit => "::serde::Value::Null".to_string(),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn named_fields_constructor(path: &str, names: &[String], source: &str) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|f| {
            format!(
                "{f}: match {source}.get({f:?}) {{\
                     ::std::option::Option::Some(v) => ::serde::Deserialize::from_value(v)?,\
                     ::std::option::Option::None => ::serde::Deserialize::from_missing({f:?})?,\
                 }}"
            )
        })
        .collect();
    format!("{path} {{ {} }}", fields.join(", "))
}

fn struct_deserialize(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Named(names) => {
            let ctor = named_fields_constructor(name, names, "value");
            format!(
                "if value.as_map().is_none() {{\n\
                     return ::std::result::Result::Err(::serde::Error::custom(\
                         ::std::format!(\"{name}: expected map, found {{value:?}}\")));\n\
                 }}\n\
                 ::std::result::Result::Ok({ctor})"
            )
        }
        Fields::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(value)?))")
        }
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "let items = value.as_seq().ok_or_else(|| ::serde::Error::custom(\
                     \"{name}: expected sequence\"))?;\n\
                 if items.len() != {n} {{\n\
                     return ::std::result::Result::Err(::serde::Error::custom(\
                         \"{name}: wrong tuple length\"));\n\
                 }}\n\
                 ::std::result::Result::Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Fields::Unit => format!("::std::result::Result::Ok({name})"),
    };
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn from_value(value: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}

fn enum_serialize(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(variant, fields)| match fields {
            Fields::Unit => format!(
                "{name}::{variant} => ::serde::Value::Str(\
                 ::std::string::String::from({variant:?})),"
            ),
            Fields::Tuple(1) => format!(
                "{name}::{variant}(f0) => ::serde::Value::Map(::std::vec![(\
                 ::std::string::String::from({variant:?}), \
                 ::serde::Serialize::to_value(f0))]),"
            ),
            Fields::Tuple(n) => {
                let binders: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                let items: Vec<String> =
                    binders.iter().map(|b| format!("::serde::Serialize::to_value({b})")).collect();
                format!(
                    "{name}::{variant}({binds}) => ::serde::Value::Map(::std::vec![(\
                     ::std::string::String::from({variant:?}), \
                     ::serde::Value::Seq(::std::vec![{items}]))]),",
                    binds = binders.join(", "),
                    items = items.join(", ")
                )
            }
            Fields::Named(field_names) => {
                let entries: Vec<String> = field_names
                    .iter()
                    .map(|f| {
                        format!(
                            "(::std::string::String::from({f:?}), \
                             ::serde::Serialize::to_value({f}))"
                        )
                    })
                    .collect();
                format!(
                    "{name}::{variant} {{ {binds} }} => ::serde::Value::Map(::std::vec![(\
                     ::std::string::String::from({variant:?}), \
                     ::serde::Value::Map(::std::vec![{entries}]))]),",
                    binds = field_names.join(", "),
                    entries = entries.join(", ")
                )
            }
        })
        .collect();
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 match self {{\n{arms}\n}}\n\
             }}\n\
         }}",
        arms = arms.join("\n")
    )
}

fn enum_deserialize(name: &str, variants: &[(String, Fields)]) -> String {
    let mut unit_arms = Vec::new();
    let mut tagged_arms = Vec::new();
    for (variant, fields) in variants {
        match fields {
            Fields::Unit => unit_arms.push(format!(
                "{variant:?} => return ::std::result::Result::Ok({name}::{variant}),"
            )),
            Fields::Tuple(1) => tagged_arms.push(format!(
                "if let ::std::option::Option::Some(inner) = value.get({variant:?}) {{\n\
                     return ::std::result::Result::Ok({name}::{variant}(\
                         ::serde::Deserialize::from_value(inner)?));\n\
                 }}"
            )),
            Fields::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                    .collect();
                tagged_arms.push(format!(
                    "if let ::std::option::Option::Some(inner) = value.get({variant:?}) {{\n\
                         let items = inner.as_seq().ok_or_else(|| ::serde::Error::custom(\
                             \"{name}::{variant}: expected sequence\"))?;\n\
                         if items.len() != {n} {{\n\
                             return ::std::result::Result::Err(::serde::Error::custom(\
                                 \"{name}::{variant}: wrong arity\"));\n\
                         }}\n\
                         return ::std::result::Result::Ok({name}::{variant}({items}));\n\
                     }}",
                    items = items.join(", ")
                ));
            }
            Fields::Named(field_names) => {
                let ctor =
                    named_fields_constructor(&format!("{name}::{variant}"), field_names, "inner");
                tagged_arms.push(format!(
                    "if let ::std::option::Option::Some(inner) = value.get({variant:?}) {{\n\
                         return ::std::result::Result::Ok({ctor});\n\
                     }}"
                ));
            }
        }
    }
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn from_value(value: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 if let ::serde::Value::Str(tag) = value {{\n\
                     match tag.as_str() {{\n{unit_arms}\n_ => {{}}\n}}\n\
                 }}\n\
                 {tagged_arms}\n\
                 ::std::result::Result::Err(::serde::Error::custom(\
                     ::std::format!(\"{name}: unrecognized variant {{value:?}}\")))\n\
             }}\n\
         }}",
        unit_arms = unit_arms.join("\n"),
        tagged_arms = tagged_arms.join("\n")
    )
}
