//! Offline shim for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` without
//! syn or quote (unavailable offline): the item is parsed by walking the
//! raw `proc_macro::TokenStream`, and the impls are emitted as source
//! strings. Supports what this workspace uses — non-generic named/tuple
//! structs and enums with unit/newtype/tuple/struct variants, externally
//! tagged, plus the `#[serde(default)]` and `#[serde(skip)]` field
//! attributes.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: String,
    /// `#[serde(default)]`: a missing key deserializes to `Default`.
    default: bool,
    /// `#[serde(skip)]`: never written, always `Default` on read.
    skip: bool,
}

/// The `#[serde(...)]` flags found on one field.
#[derive(Debug, Clone, Copy, Default)]
struct FieldAttrs {
    default: bool,
    skip: bool,
}

#[derive(Debug, Clone)]
enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

#[derive(Debug, Clone)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Folds the flags of one attribute body (the tokens inside `#[...]`) into
/// `attrs`; anything but `serde(...)` is ignored.
fn read_serde_attr(body: &TokenStream, attrs: &mut FieldAttrs) {
    let mut iter = body.clone().into_iter();
    if let (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args))) = (iter.next(), iter.next())
    {
        if name.to_string() != "serde" {
            return;
        }
        for t in args.stream() {
            if let TokenTree::Ident(i) = &t {
                match i.to_string().as_str() {
                    "default" => attrs.default = true,
                    "skip" => attrs.skip = true,
                    _ => {}
                }
            }
        }
    }
}

/// Consumes leading `#[...]` attributes; reports the `#[serde(...)]` flags
/// among them.
fn skip_attrs(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        iter.next();
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                read_serde_attr(&g.stream(), &mut attrs);
            }
            other => panic!("malformed attribute after `#`: {other:?}"),
        }
    }
    attrs
}

/// Consumes a visibility qualifier (`pub`, `pub(crate)`, …) if present.
fn skip_visibility(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if matches!(iter.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        iter.next();
        if matches!(iter.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            iter.next();
        }
    }
}

/// Parses `name: Type` fields from the body of a braced struct or
/// struct variant, tracking `#[serde(default)]` and `#[serde(skip)]`.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let mut iter = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        if iter.peek().is_none() {
            break;
        }
        let attrs = skip_attrs(&mut iter);
        skip_visibility(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected field name, found {other:?}"),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        // Consume the type up to a top-level comma. `<`/`>` nesting hides
        // commas inside generic arguments (e.g. `HashMap<u128, Vec<u64>>`).
        let mut depth: i32 = 0;
        loop {
            match iter.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == ',' && depth == 0 {
                        iter.next();
                        break;
                    }
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' {
                        depth -= 1;
                    }
                    iter.next();
                }
                Some(_) => {
                    iter.next();
                }
            }
        }
        fields.push(Field {
            name,
            default: attrs.default,
            skip: attrs.skip,
        });
    }
    fields
}

/// Counts top-level comma-separated types in a tuple struct/variant body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut depth: i32 = 0;
    let mut count = 0;
    let mut saw_any = false;
    for t in body {
        saw_any = true;
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => count += 1,
                _ => {}
            }
        }
    }
    if !saw_any {
        0
    } else {
        count + 1
    }
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let mut iter = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        if iter.peek().is_none() {
            break;
        }
        skip_attrs(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected variant name, found {other:?}"),
        };
        let fields = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                iter.next();
                Fields::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                iter.next();
                Fields::Named(f)
            }
            _ => Fields::Unit,
        };
        // Skip a trailing comma (and any explicit discriminant — not used
        // by serialized enums in this workspace).
        while let Some(t) = iter.peek() {
            let is_comma = matches!(t, TokenTree::Punct(p) if p.as_char() == ',');
            iter.next();
            if is_comma {
                break;
            }
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut iter = input.into_iter().peekable();
    // Skip outer attributes (including doc comments) and visibility.
    skip_attrs(&mut iter);
    skip_visibility(&mut iter);
    let kind = loop {
        match iter.next() {
            Some(TokenTree::Ident(i)) => {
                let s = i.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                // e.g. `pub` already handled; tolerate `crate` etc.
            }
            Some(other) => panic!("unexpected token before item keyword: {other:?}"),
            None => panic!("derive input has no struct/enum keyword"),
        }
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected item name, found {other:?}"),
    };
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic type `{name}`");
    }
    if kind == "enum" {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("expected enum body, found {other:?}"),
        }
    } else {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Struct {
                name,
                fields: Fields::Named(parse_named_fields(g.stream())),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Item::Struct {
                name,
                fields: Fields::Tuple(count_tuple_fields(g.stream())),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::Struct {
                name,
                fields: Fields::Unit,
            },
            other => panic!("expected struct body, found {other:?}"),
        }
    }
}

const IMPL_ATTRS: &str = "#[automatically_derived]\n#[allow(warnings, clippy::all)]\n";

fn gen_serialize(item: &Item) -> String {
    let mut out = String::new();
    match item {
        Item::Struct { name, fields } => {
            out.push_str(IMPL_ATTRS);
            out.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
                 -> ::std::result::Result<__S::Ok, __S::Error> {{\n"
            ));
            match fields {
                Fields::Named(fs) => {
                    out.push_str(
                        "let mut __fields: ::std::vec::Vec<(::std::string::String, \
                         ::serde::__private::Value)> = ::std::vec::Vec::new();\n",
                    );
                    for f in fs.iter().filter(|f| !f.skip) {
                        let fname = &f.name;
                        out.push_str(&format!(
                            "__fields.push((::std::string::String::from(\"{fname}\"), \
                             ::serde::__private::ser_field::<_, __S::Error>(&self.{fname})?));\n"
                        ));
                    }
                    out.push_str(
                        "::serde::Serializer::serialize_value(__serializer, \
                         ::serde::__private::Value::Object(__fields))\n",
                    );
                }
                Fields::Tuple(1) => {
                    // Newtype structs serialize transparently, as upstream.
                    out.push_str("::serde::Serialize::serialize(&self.0, __serializer)\n");
                }
                Fields::Tuple(n) => {
                    let items = (0..*n)
                        .map(|i| {
                            format!("::serde::__private::ser_field::<_, __S::Error>(&self.{i})?")
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.push_str(&format!(
                        "::serde::Serializer::serialize_value(__serializer, \
                         ::serde::__private::Value::Array(::std::vec![{items}]))\n"
                    ));
                }
                Fields::Unit => {
                    out.push_str("::serde::Serializer::serialize_unit(__serializer)\n");
                }
            }
            out.push_str("}\n}\n");
        }
        Item::Enum { name, variants } => {
            out.push_str(IMPL_ATTRS);
            out.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
                 -> ::std::result::Result<__S::Ok, __S::Error> {{\n\
                 match self {{\n"
            ));
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => out.push_str(&format!(
                        "{name}::{vname} => ::serde::Serializer::serialize_value(__serializer, \
                         ::serde::__private::Value::String(::std::string::String::from(\"{vname}\"))),\n"
                    )),
                    Fields::Tuple(1) => out.push_str(&format!(
                        "{name}::{vname}(__f0) => {{\n\
                         let __payload = ::serde::__private::ser_field::<_, __S::Error>(__f0)?;\n\
                         ::serde::Serializer::serialize_value(__serializer, \
                         ::serde::__private::Value::Object(::std::vec![\
                         (::std::string::String::from(\"{vname}\"), __payload)]))\n}}\n"
                    )),
                    Fields::Tuple(n) => {
                        let binds = (0..*n)
                            .map(|i| format!("__f{i}"))
                            .collect::<Vec<_>>()
                            .join(", ");
                        let items = (0..*n)
                            .map(|i| {
                                format!("::serde::__private::ser_field::<_, __S::Error>(__f{i})?")
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        out.push_str(&format!(
                            "{name}::{vname}({binds}) => {{\n\
                             let __payload = ::serde::__private::Value::Array(::std::vec![{items}]);\n\
                             ::serde::Serializer::serialize_value(__serializer, \
                             ::serde::__private::Value::Object(::std::vec![\
                             (::std::string::String::from(\"{vname}\"), __payload)]))\n}}\n"
                        ));
                    }
                    Fields::Named(fs) => {
                        let binds = fs
                            .iter()
                            .map(|f| f.name.clone())
                            .collect::<Vec<_>>()
                            .join(", ");
                        let mut body = String::from(
                            "let mut __vfields: ::std::vec::Vec<(::std::string::String, \
                             ::serde::__private::Value)> = ::std::vec::Vec::new();\n",
                        );
                        for f in fs.iter().filter(|f| !f.skip) {
                            let fname = &f.name;
                            body.push_str(&format!(
                                "__vfields.push((::std::string::String::from(\"{fname}\"), \
                                 ::serde::__private::ser_field::<_, __S::Error>({fname})?));\n"
                            ));
                        }
                        out.push_str(&format!(
                            "{name}::{vname} {{ {binds} }} => {{\n{body}\
                             ::serde::Serializer::serialize_value(__serializer, \
                             ::serde::__private::Value::Object(::std::vec![\
                             (::std::string::String::from(\"{vname}\"), \
                             ::serde::__private::Value::Object(__vfields))]))\n}}\n"
                        ));
                    }
                }
            }
            out.push_str("}\n}\n}\n");
        }
    }
    out
}

fn gen_named_field_reads(fs: &[Field], type_name: &str) -> String {
    fs.iter()
        .map(|f| {
            let fname = &f.name;
            if f.skip {
                return format!("{fname}: ::std::default::Default::default(),\n");
            }
            let reader = if f.default {
                "de_field_default"
            } else {
                "de_field"
            };
            format!(
                "{fname}: ::serde::__private::{reader}::<_, __D::Error>(\
                 &mut __fields, \"{fname}\", \"{type_name}\")?,\n"
            )
        })
        .collect()
}

fn gen_deserialize(item: &Item) -> String {
    let mut out = String::new();
    match item {
        Item::Struct { name, fields } => {
            out.push_str(IMPL_ATTRS);
            out.push_str(&format!(
                "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
                 fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
                 -> ::std::result::Result<Self, __D::Error> {{\n"
            ));
            match fields {
                Fields::Named(fs) => {
                    out.push_str(&format!(
                        "let __value = ::serde::Deserializer::into_value(__deserializer)?;\n\
                         let mut __fields = \
                         ::serde::__private::expect_object::<__D::Error>(__value, \"{name}\")?;\n\
                         let _ = &mut __fields;\n"
                    ));
                    out.push_str(&format!(
                        "::std::result::Result::Ok({name} {{\n{}}})\n",
                        gen_named_field_reads(fs, name)
                    ));
                }
                Fields::Tuple(1) => {
                    out.push_str(&format!(
                        "::std::result::Result::Ok({name}(\
                         ::serde::Deserialize::deserialize(__deserializer)?))\n"
                    ));
                }
                Fields::Tuple(n) => {
                    out.push_str(&format!(
                        "let __value = ::serde::Deserializer::into_value(__deserializer)?;\n\
                         let __items = ::serde::__private::expect_array::<__D::Error>(\
                         __value, \"{name}\", {n})?;\n\
                         let mut __it = __items.into_iter();\n"
                    ));
                    let reads = (0..*n)
                        .map(|i| {
                            format!(
                                "::serde::__private::de_value::<_, __D::Error>(\
                                 __it.next().unwrap(), \"{name}.{i}\")?"
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.push_str(&format!("::std::result::Result::Ok({name}({reads}))\n"));
                }
                Fields::Unit => {
                    out.push_str(&format!(
                        "let _ = ::serde::Deserializer::into_value(__deserializer)?;\n\
                         ::std::result::Result::Ok({name})\n"
                    ));
                }
            }
            out.push_str("}\n}\n");
        }
        Item::Enum { name, variants } => {
            out.push_str(IMPL_ATTRS);
            out.push_str(&format!(
                "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
                 fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
                 -> ::std::result::Result<Self, __D::Error> {{\n\
                 let __value = ::serde::Deserializer::into_value(__deserializer)?;\n\
                 let (__tag, __payload) = \
                 ::serde::__private::variant_parts::<__D::Error>(__value, \"{name}\")?;\n\
                 match __tag.as_str() {{\n"
            ));
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => out.push_str(&format!(
                        "\"{vname}\" => {{ let _ = __payload; \
                         ::std::result::Result::Ok({name}::{vname}) }}\n"
                    )),
                    Fields::Tuple(1) => out.push_str(&format!(
                        "\"{vname}\" => {{\n\
                         let __p = __payload.ok_or_else(|| \
                         ::serde::__private::missing_payload::<__D::Error>(\"{name}\", \"{vname}\"))?;\n\
                         ::std::result::Result::Ok({name}::{vname}(\
                         ::serde::__private::de_value::<_, __D::Error>(__p, \"{name}::{vname}\")?))\n}}\n"
                    )),
                    Fields::Tuple(n) => {
                        let reads = (0..*n)
                            .map(|i| {
                                format!(
                                    "::serde::__private::de_value::<_, __D::Error>(\
                                     __it.next().unwrap(), \"{name}::{vname}.{i}\")?"
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        out.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let __p = __payload.ok_or_else(|| \
                             ::serde::__private::missing_payload::<__D::Error>(\"{name}\", \"{vname}\"))?;\n\
                             let __items = ::serde::__private::expect_array::<__D::Error>(\
                             __p, \"{name}::{vname}\", {n})?;\n\
                             let mut __it = __items.into_iter();\n\
                             ::std::result::Result::Ok({name}::{vname}({reads}))\n}}\n"
                        ));
                    }
                    Fields::Named(fs) => {
                        let type_name = format!("{name}::{vname}");
                        out.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let __p = __payload.ok_or_else(|| \
                             ::serde::__private::missing_payload::<__D::Error>(\"{name}\", \"{vname}\"))?;\n\
                             let mut __fields = ::serde::__private::expect_object::<__D::Error>(\
                             __p, \"{type_name}\")?;\n\
                             let _ = &mut __fields;\n\
                             ::std::result::Result::Ok({name}::{vname} {{\n{}}})\n}}\n",
                            gen_named_field_reads(fs, &type_name)
                        ));
                    }
                }
            }
            out.push_str(&format!(
                "__other => ::std::result::Result::Err(\
                 ::serde::__private::unknown_variant::<__D::Error>(\"{name}\", __other)),\n\
                 }}\n}}\n}}\n"
            ));
        }
    }
    out
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim: generated Serialize impl failed to parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim: generated Deserialize impl failed to parse")
}
