//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! offline `serde` shim.
//!
//! No `syn`/`quote` are available offline, so this parses the derive input
//! token stream directly. It supports exactly the shapes this workspace
//! derives on: non-generic structs (named, tuple, unit) and non-generic
//! enums (unit, tuple and struct variants), externally tagged. One-field
//! tuple structs serialize transparently (matching the workspace's only
//! uses of `#[serde(transparent)]`), other serde attributes are accepted
//! and ignored (so `#[serde(default)]` does not make a field optional;
//! only an `Option` type does). Both derives walk the same parsed shape,
//! so the reader `Deserialize` generates accepts everything `Serialize`
//! writes, under upstream serde's default rules: unknown object keys are
//! ignored and an absent `Option` field reads as `None`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (JSON, externally tagged enums).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::Struct(Fields::Named(fields)) => named_struct_body(fields),
        Shape::Struct(Fields::Tuple(arity)) => tuple_struct_body(*arity),
        Shape::Struct(Fields::Unit) => "out.push_str(\"null\");".to_string(),
        Shape::Enum(variants) => enum_body(&item.name, variants),
    };
    let impl_code = format!(
        "impl ::serde::Serialize for {} {{\n\
         fn serialize_json_into(&self, out: &mut String) {{\n{body}\n}}\n}}",
        item.name
    );
    impl_code.parse().expect("generated impl parses")
}

/// Derives `serde::Deserialize` (JSON, externally tagged enums).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::Struct(fields) => read_fields("Self", fields, "value"),
        Shape::Enum(variants) => read_enum(&item.name, variants),
    };
    let impl_code = format!(
        "impl ::serde::Deserialize for {} {{\n\
         fn from_value(value: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}",
        item.name
    );
    impl_code.parse().expect("generated impl parses")
}

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: Fields,
}

/// The fields of a struct or an enum variant.
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic types (on `{name}`)");
    }
    let shape = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Struct(Fields::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Struct(Fields::Tuple(count_top_level_items(g.stream())))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Struct(Fields::Unit),
            other => panic!("unexpected struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("unexpected enum body for `{name}`: {other:?}"),
        },
        other => panic!("derive target must be a struct or enum, found `{other}`"),
    };
    Item { name, shape }
}

fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1; // '#'
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
        {
            *i += 1;
        }
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("expected identifier, found {other:?}"),
    }
}

/// Parses `name: Type, ...` field lists, tracking `<...>` nesting so types
/// like `HashMap<K, V>` do not split fields at inner commas.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        fields.push(name);
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

/// Counts comma-separated items at angle-depth zero (tuple fields).
fn count_top_level_items(stream: TokenStream) -> usize {
    let mut count = 0;
    let mut pending = false;
    let mut angle_depth = 0i32;
    for tok in stream {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    if pending {
                        count += 1;
                    }
                    pending = false;
                    continue;
                }
                _ => {}
            }
        }
        pending = true;
    }
    if pending {
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_top_level_items(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip to the next variant separator.
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn push_literal(code: &mut String, text: &str) {
    code.push_str(&format!("out.push_str({text:?});\n"));
}

fn named_struct_body(fields: &[String]) -> String {
    let mut code = String::new();
    push_literal(&mut code, "{");
    for (k, field) in fields.iter().enumerate() {
        let sep = if k > 0 { "," } else { "" };
        push_literal(&mut code, &format!("{sep}\"{field}\":"));
        code.push_str(&format!(
            "::serde::Serialize::serialize_json_into(&self.{field}, out);\n"
        ));
    }
    push_literal(&mut code, "}");
    code
}

fn tuple_struct_body(arity: usize) -> String {
    let mut code = String::new();
    if arity == 1 {
        // Transparent newtype (covers the workspace's `#[serde(transparent)]`).
        code.push_str("::serde::Serialize::serialize_json_into(&self.0, out);\n");
        return code;
    }
    push_literal(&mut code, "[");
    for k in 0..arity {
        if k > 0 {
            push_literal(&mut code, ",");
        }
        code.push_str(&format!(
            "::serde::Serialize::serialize_json_into(&self.{k}, out);\n"
        ));
    }
    push_literal(&mut code, "]");
    code
}

fn enum_body(name: &str, variants: &[Variant]) -> String {
    let mut code = String::from("match self {\n");
    for variant in variants {
        let vname = &variant.name;
        match &variant.fields {
            Fields::Unit => {
                code.push_str(&format!(
                    "{name}::{vname} => out.push_str(\"\\\"{vname}\\\"\"),\n"
                ));
            }
            Fields::Tuple(arity) => {
                let binders: Vec<String> = (0..*arity).map(|k| format!("__f{k}")).collect();
                code.push_str(&format!("{name}::{vname}({}) => {{\n", binders.join(", ")));
                push_literal(&mut code, &format!("{{\"{vname}\":"));
                if *arity == 1 {
                    code.push_str("::serde::Serialize::serialize_json_into(__f0, out);\n");
                } else {
                    push_literal(&mut code, "[");
                    for (k, b) in binders.iter().enumerate() {
                        if k > 0 {
                            push_literal(&mut code, ",");
                        }
                        code.push_str(&format!(
                            "::serde::Serialize::serialize_json_into({b}, out);\n"
                        ));
                    }
                    push_literal(&mut code, "]");
                }
                push_literal(&mut code, "}");
                code.push_str("}\n");
            }
            Fields::Named(fields) => {
                code.push_str(&format!(
                    "{name}::{vname} {{ {} }} => {{\n",
                    fields.join(", ")
                ));
                push_literal(&mut code, &format!("{{\"{vname}\":{{"));
                for (k, field) in fields.iter().enumerate() {
                    let sep = if k > 0 { "," } else { "" };
                    push_literal(&mut code, &format!("{sep}\"{field}\":"));
                    code.push_str(&format!(
                        "::serde::Serialize::serialize_json_into({field}, out);\n"
                    ));
                }
                push_literal(&mut code, "}}");
                code.push_str("}\n");
            }
        }
    }
    code.push_str("}\n");
    code
}

/// An expression reading `fields` of the struct or variant `path` from
/// `src`: `null` for unit, the value itself for a newtype, an array for
/// other tuples, an object for named fields.
fn read_fields(path: &str, fields: &Fields, src: &str) -> String {
    match fields {
        Fields::Unit => format!("::serde::de::unit({src}).map(|()| {path})"),
        Fields::Tuple(1) => format!("Ok({path}(::serde::Deserialize::from_value({src})?))"),
        Fields::Tuple(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|k| format!("::serde::de::element(items, {k})?"))
                .collect();
            format!(
                "{{\nlet items = ::serde::de::array({src}, {arity})?;\nOk({path}({}))\n}}",
                items.join(", ")
            )
        }
        Fields::Named(names) => {
            let reads: String = names
                .iter()
                .map(|name| format!("{name}: ::serde::de::field(map, {name:?})?,\n"))
                .collect();
            format!("{{\nlet map = ::serde::de::object({src})?;\nOk({path} {{\n{reads}}})\n}}")
        }
    }
}

fn read_enum(name: &str, variants: &[Variant]) -> String {
    let mut code =
        format!("let (tag, body) = ::serde::de::variant(value, {name:?})?;\nmatch tag {{\n");
    for Variant { name: tag, fields } in variants {
        let arm = read_fields(&format!("Self::{tag}"), fields, "body");
        code.push_str(&format!(
            "{tag:?} => ::serde::de::within({tag:?}, || {arm}),\n"
        ));
    }
    code.push_str(&format!(
        "other => Err(::serde::de::unknown_variant({name:?}, other)),\n}}"
    ));
    code
}
