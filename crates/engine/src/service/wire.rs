//! One description per wire and disk document.
//!
//! Everything this crate puts on a socket or in a segment file is JSON
//! text, and every such document is described **once**: a type implements
//! [`Wire`], and both directions come from that one implementation.
//! Encoding streams the text straight into a `String`; decoding reads a
//! parsed [`Json`] tree.  No encoder builds a tree — a caller that wants
//! one parses the encoder's bytes.  The leaf shapes (counts, flags,
//! strings, hex ids, lists, maps, fixed-size arrays) are implemented here;
//! a struct is described by `record!`, which names each wire key exactly
//! once, in wire order, and says how the member behaves when it is absent;
//! the two message enums are described by `message!`, a `type` → fields
//! table around one shared envelope.
//!
//! What a member may be:
//!
//! * **required** (no annotation) — always written; a document without it
//!   is refused;
//! * **optional with a default**, `[or <default>]` — always written; a
//!   document without it (an older peer's) decodes to the default;
//! * **omitted when none**, `[opt]` — an `Option` written only when it is
//!   `Some`; absent and `null` both decode to `None`;
//! * **derived**, `[derived]` — written for readers of the raw document,
//!   never read back.
//!
//! Unknown members are ignored, which is what lets a newer peer add one
//! without a version bump.  Decoding never panics: every mismatch is an
//! `Err` naming the path of keys that led to it.

use super::json::{
    encode_array, encode_float, encode_hex64, encode_int, encode_json, encode_object, encode_str,
    parse_hex64, Json,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The form a value takes when nothing else is said: counts as integers,
/// lists as arrays, maps as sorted `[[key, value], …]` pairs.
pub struct Plain;

/// A `u64` fingerprint, digest, trace or span id as a 16-digit lowercase
/// hex string (JSON integers stop at 2^63).
pub struct Hex;

/// A `Vec<(name, value)>` as one JSON object keyed by name, in list order.
pub struct Named;

/// A value with one JSON form, written and read by the same description.
/// `decode(encode(v)) == v` and `encode(decode(encode(v)))` reproduces the
/// bytes, for every implementation.
pub trait Wire<Form = Plain>: Sized {
    /// Append this value's JSON text to `out`.
    fn encode_into(&self, out: &mut String);
    fn from_json(value: &Json) -> Result<Self, String>;
}

/// `value`'s JSON text.
pub fn encode<Form, T: Wire<Form>>(value: &T) -> String {
    let mut out = String::new();
    value.encode_into(&mut out);
    out
}

/// What a `record!` member encodes from: a reference to a [`Wire`] value,
/// a slice of them, or a writer of the member's own where a typed value to
/// go through would have to be copied together first.
pub trait Encoded<Form> {
    fn encode_member(self, out: &mut String);
}

impl<Form, T: Wire<Form>> Encoded<Form> for &T {
    fn encode_member(self, out: &mut String) {
        self.encode_into(out)
    }
}

impl<T: Wire> Encoded<Plain> for &[T] {
    fn encode_member(self, out: &mut String) {
        encode_array(self, out, T::encode_into)
    }
}

/// Decode one member, naming it in the error.
pub(crate) fn member<Form, T: Wire<Form>>(raw: &Json, key: &str) -> Result<T, String> {
    T::from_json(raw).map_err(|e| format!("{key:?}: {e}"))
}

fn items(value: &Json) -> Result<&[Json], String> {
    value
        .as_arr()
        .ok_or_else(|| "expected an array".to_string())
}

/// Leaf shapes: `type [as Form]: what it is, |it, out| encode, |raw| decode;`
/// where `decode` yields `None` for any other JSON value.
macro_rules! leaves {
    ($($ty:ty $(as $form:ty)?: $what:literal, |$it:ident, $out:ident| $enc:expr, |$raw:ident| $dec:expr;)+) => {$(
        impl $crate::service::wire::Wire$(<$form>)? for $ty {
            fn encode_into(&self, $out: &mut String) {
                let $it = self;
                $enc
            }
            fn from_json($raw: &$crate::service::json::Json) -> Result<Self, String> {
                $dec.ok_or_else(|| concat!("expected ", $what).to_string())
            }
        }
    )+};
}
pub(crate) use leaves;

leaves! {
    u64: "a count", |n, out| encode_int(n, out), |raw| raw.as_u64();
    u32: "a count", |n, out| encode_int(n, out), |raw| raw.as_u64().and_then(|n| u32::try_from(n).ok());
    usize: "a count", |n, out| encode_int(n, out), |raw| raw.as_u64().and_then(|n| usize::try_from(n).ok());
    i64: "an integer", |n, out| encode_int(n, out), |raw| raw.as_i64();
    bool: "a bool", |b, out| encode_json(&Json::Bool(*b), out), |raw| raw.as_bool();
    f64: "a number", |f, out| encode_float(*f, out), |raw| raw.as_f64();
    String: "a string", |s, out| encode_str(s, out), |raw| raw.as_str().map(str::to_string);
    Arc<str>: "a string", |s, out| encode_str(s, out), |raw| raw.as_str().map(Arc::from);
    Json: "a document", |doc, out| encode_json(doc, out), |raw| Some(raw.clone());
    u64 as Hex: "a hex id", |id, out| encode_hex64(*id, out), |raw| parse_hex64(raw).ok();
}

/// A unit-variant enum as one of a fixed set of strings (each needing no
/// escape).  `local` also gives an enum of this crate a `wire_name` to
/// print itself by.
macro_rules! names {
    (local $ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// The string this variant is on the wire.
            pub(crate) fn wire_name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name),+
                }
            }
        }
        $crate::service::wire::names!($ty { $($variant => $name),+ });
    };
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $crate::service::wire::Wire for $ty {
            fn encode_into(&self, out: &mut String) {
                out.push_str(match self {
                    $($ty::$variant => concat!("\"", $name, "\"")),+
                });
            }
            fn from_json(value: &$crate::service::json::Json) -> Result<Self, String> {
                match value.as_str() {
                    $(Some($name) => Ok($ty::$variant),)+
                    _ => Err(format!("expected one of {:?}", [$($name),+])),
                }
            }
        }
    };
}
pub(crate) use names;

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut String) {
        encode_array(self, out, T::encode_into)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        // Sized up front: collecting through `Result` would grow by
        // doubling, and an entry's lists run to hundreds of elements.
        let items = items(value)?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::from_json(item)?);
        }
        Ok(out)
    }
}

impl Wire<Hex> for Vec<u64> {
    fn encode_into(&self, out: &mut String) {
        encode_array(self, out, |id, out| encode_hex64(*id, out))
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        items(value)?.iter().map(parse_hex64).collect()
    }
}

impl<T: Wire> Wire<Named> for Vec<(String, T)> {
    fn encode_into(&self, out: &mut String) {
        encode_object(self, out, T::encode_into)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_obj()
            .ok_or("expected an object")?
            .iter()
            .map(|(name, raw)| Ok((name.clone(), member(raw, name)?)))
            .collect()
    }
}

/// `None` is `null`.  A record member marked `[opt]` is left out instead.
impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, out: &mut String) {
        match self {
            Some(value) => value.encode_into(out),
            None => out.push_str("null"),
        }
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// A pointer to a value is the value.
macro_rules! pointers {
    ($($ptr:ident),+) => {$(
        impl<T: Wire> Wire for $ptr<T> {
            fn encode_into(&self, out: &mut String) {
                T::encode_into(self, out)
            }
            fn from_json(value: &Json) -> Result<Self, String> {
                T::from_json(value).map($ptr::new)
            }
        }
    )+};
}
pointers!(Box, Arc);

impl Wire for BTreeSet<String> {
    fn encode_into(&self, out: &mut String) {
        encode_array(self, out, String::encode_into)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(<Vec<String> as Wire>::from_json(value)?
            .into_iter()
            .collect())
    }
}

/// Fixed-size arrays of mixed members, `[a, b]` to `[a, b, c, d, e]`.
macro_rules! tuples {
    ($($len:literal: $($ty:ident $index:tt $raw:ident),+;)+) => {$(
        impl<$($ty: Wire),+> Wire for ($($ty,)+) {
            fn encode_into(&self, out: &mut String) {
                out.push('[');
                $(self.$index.encode_into(out); out.push(',');)+
                out.pop(); // the comma after the last member
                out.push(']');
            }
            fn from_json(value: &Json) -> Result<Self, String> {
                match items(value)? {
                    [$($raw),+] => Ok(($($ty::from_json($raw)?,)+)),
                    _ => Err(concat!("expected an array of ", $len).to_string()),
                }
            }
        }
    )+};
}
tuples!(
    "two": A 0 a, B 1 b;
    "three": A 0 a, B 1 b, C 2 c;
    "four": A 0 a, B 1 b, C 2 c, D 3 d;
    "five": A 0 a, B 1 b, C 2 c, D 3 d, E 4 e;
);

/// A string-keyed map as `[[key, value], …]` with the keys sorted, so the
/// bytes are the same whatever order the map iterates in.
macro_rules! sorted_maps {
    ($($map:ident),+) => {$(
        impl<V: Wire> Wire for $map<String, V> {
            fn encode_into(&self, out: &mut String) {
                let mut entries: Vec<(&String, &V)> = self.iter().collect();
                entries.sort_by_key(|(key, _)| *key);
                encode_array(entries, out, |(key, value), out| {
                    out.push('[');
                    encode_str(key, out);
                    out.push(',');
                    value.encode_into(out);
                    out.push(']');
                })
            }
            fn from_json(value: &Json) -> Result<Self, String> {
                Ok(<Vec<(String, V)> as Wire>::from_json(value)?
                    .into_iter()
                    .collect())
            }
        }
    )+};
}
sorted_maps!(HashMap, BTreeMap);

/// Describe a document with named members — each key once, in wire order —
/// and get both directions.
///
/// A struct whose fields are the members:
///
/// ```text
/// record!(TraceHeader { "id" => id as Hex, "parent" => parent as Hex });
/// ```
///
/// Anything else names, per member, the local its decoded value is bound
/// to and what to encode (see [`Encoded`]), then builds the result from
/// the locals (`return Err(..)` refuses the document):
///
/// ```text
/// record!(Type: |it| { "key" => local: Type as Form [kind] = &it.value, … } => build(local, …));
/// ```
///
/// `as Form` picks a non-[`Plain`] form; `[kind]` is one of the member
/// kinds in the module docs.  An `[opt]` member encodes an
/// `Option<&T>` (or `&Option<T>`).  Keys are written as given, so they
/// must need no escape.
macro_rules! record {
    (@form []) => { $crate::service::wire::Plain };
    (@form [$form:ty]) => { $form };

    (@put $out:ident, $key:literal, $get:expr, $form:tt [opt]) => {
        if let Some(inner) = $get {
            $crate::service::wire::record!(@put $out, $key, inner, $form);
        }
    };
    (@put $out:ident, $key:literal, $get:expr, $form:tt $([$($kind:tt)+])?) => {
        // No comma before an object's first member: no complete value
        // ends in `{`.
        if !$out.ends_with('{') {
            $out.push(',');
        }
        $out.push_str(concat!("\"", $key, "\":"));
        $crate::service::wire::Encoded::<$crate::service::wire::record!(@form $form)>::encode_member(
            $get, $out,
        );
    };

    (@take $value:ident, $key:literal, $form:tt [derived]) => { () };
    (@take $value:ident, $key:literal, $form:tt [opt]) => {
        $crate::service::wire::record!(@take $value, $key, $form [or None])
    };
    (@take $value:ident, $key:literal, $form:tt $([or $default:expr])?) => {
        match $value.get($key) {
            Some(raw) => $crate::service::wire::member::<
                $crate::service::wire::record!(@form $form),
                _,
            >(raw, $key)?,
            None => $crate::service::wire::record!(@absent $key $(, $default)?),
        }
    };
    (@absent $key:literal) => { return Err(format!("missing {:?}", $key)) };
    (@absent $key:literal, $default:expr) => { $default };

    ($ty:ty { $($key:literal => $field:ident $(as $form:ty)? $([$($kind:tt)+])?),+ $(,)? }) => {
        $crate::service::wire::record!($ty: |it| {
            $($key => $field $(as $form)? $([$($kind)+])? = &it.$field),+
        } => Self { $($field),+ });
    };
    ($ty:ty: |$it:ident| {
        $($key:literal => $name:ident $(: $as:ty)? $(as $form:ty)? $([$($kind:tt)+])? = $get:expr),+ $(,)?
    } => $build:expr) => {
        impl $crate::service::wire::Wire for $ty {
            fn encode_into(&self, out: &mut String) {
                let $it = self;
                out.push('{');
                $($crate::service::wire::record!(@put out, $key, $get, [$($form)?] $([$($kind)+])?);)+
                out.push('}');
            }
            fn from_json(value: &$crate::service::json::Json) -> Result<Self, String> {
                $(let $name $(: $as)? =
                    $crate::service::wire::record!(@take value, $key, [$($form)?] $([$($kind)+])?);)+
                Ok($build)
            }
        }
    };
}
pub(crate) use record;

/// Open a message: its `{` and the envelope's two members, for the kind's
/// own members and then the optional trailing one to follow.
pub(crate) fn head(out: &mut String, version: u32, kind: &str) {
    out.push_str("{\"protocol_version\":");
    version.encode_into(out);
    out.push_str(",\"type\":");
    encode_str(kind, out);
}

/// The `(protocol_version, type)` a message opens with.
pub(crate) fn read_head(value: &Json) -> Result<(u32, &str), String> {
    let get = |key| value.get(key).ok_or_else(|| format!("missing {key:?}"));
    let kind = get("type")?.as_str().ok_or("\"type\": expected a string")?;
    Ok((member(get("protocol_version")?, "protocol_version")?, kind))
}

/// Describe a message enum as a `type` → members table.  Every variant has
/// a `version` field, filled from the envelope; a variant followed by an
/// identifier also has that field, filled from the trailing member (absent
/// means its default).  After the table: the trailing member's key and an
/// `Option` of what to encode for it (see [`Encoded`]).
///
/// Besides [`Wire`], the enum gets `kind()`, `version()` and
/// `with_version()`.
macro_rules! message {
    ($ty:ident: |$it:ident| {
        $($kind:literal => $variant:ident {
            $($key:literal => $field:ident $(as $form:ty)? $([$($how:tt)+])?),* $(,)?
        } $($tailed:ident)?),+ $(,)?
    } $tail_key:literal => $tail:expr) => {
        impl $ty {
            /// The `type` this message is on the wire.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $kind),+
                }
            }

            /// The protocol version of whoever produced this message.
            pub fn version(&self) -> u32 {
                match self {
                    $($ty::$variant { version, .. })|+ => *version,
                }
            }

            /// The same message claiming a different protocol version
            /// (negotiation tests).
            pub fn with_version(mut self, v: u32) -> $ty {
                match &mut self {
                    $($ty::$variant { version, .. })|+ => *version = v,
                }
                self
            }
        }

        impl $crate::service::wire::Wire for $ty {
            fn encode_into(&self, out: &mut String) {
                let $it = self;
                $crate::service::wire::head(out, self.version(), self.kind());
                match self {
                    $($ty::$variant { $($field,)* .. } => {
                        $($crate::service::wire::record!(@put out, $key, $field, [$($form)?] $([$($how)+])?);)*
                    })+
                }
                $crate::service::wire::record!(@put out, $tail_key, $tail, [] [opt]);
                out.push('}');
            }
            fn from_json(value: &$crate::service::json::Json) -> Result<Self, String> {
                let (version, kind) = $crate::service::wire::read_head(value)?;
                Ok(match kind {
                    $($kind => $ty::$variant {
                        version,
                        $($field: $crate::service::wire::record!(@take value, $key, [$($form)?] $([$($how)+])?),)*
                        $($tailed: $crate::service::wire::record!(@take value, $tail_key, [] [or Default::default()]),)?
                    },)+
                    other => return Err(format!("unknown {} type {other:?}", stringify!($ty))),
                })
            }
        }
    };
}
pub(crate) use message;

/// Every way to damage one member of a document, for the strictness tests
/// of the descriptions built on this module.
#[cfg(test)]
pub(crate) mod mutation {
    use super::Json;

    #[derive(Clone)]
    enum Step {
        Key(String),
        Index(usize),
    }

    /// One document with one member damaged.
    pub(crate) struct Mutant {
        steps: Vec<Step>,
        /// The member was deleted; otherwise it was replaced by a value of
        /// the wrong JSON type.
        pub deleted: bool,
        pub document: Json,
    }

    impl Mutant {
        /// The key of the nearest enclosing member (`""` at the top level)
        /// and the damaged member's own key (`""` for an array element).
        pub(crate) fn member(&self) -> (&str, &str) {
            let mut keys = self.steps.iter().rev().map(|step| match step {
                Step::Key(key) => Some(key.as_str()),
                Step::Index(_) => None,
            });
            let own = keys.next().flatten().unwrap_or("");
            (keys.flatten().next().unwrap_or(""), own)
        }

        /// Where the damage is, for failure messages.
        pub(crate) fn path(&self) -> String {
            let mut path = String::from(if self.deleted {
                "deleted $"
            } else {
                "retyped $"
            });
            for step in &self.steps {
                match step {
                    Step::Key(key) => path.push_str(&format!(".{key}")),
                    Step::Index(index) => path.push_str(&format!("[{index}]")),
                }
            }
            path
        }

        /// `sample` — the document this mutant was made from — with the
        /// damaged member holding `value` instead.
        pub(crate) fn sample_with(&self, sample: &Json, value: Json) -> Json {
            let mut document = sample.clone();
            *slot(&mut document, &self.steps) = value;
            document
        }
    }

    fn slot<'a>(mut node: &'a mut Json, steps: &[Step]) -> &'a mut Json {
        for step in steps {
            node = match (node, step) {
                (Json::Obj(fields), Step::Key(key)) => {
                    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
                }
                (Json::Arr(items), Step::Index(index)) => &mut items[*index],
                _ => unreachable!("the steps were read off this document"),
            };
        }
        node
    }

    fn walk(node: &Json, opaque: &[&str], steps: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
        let children: Vec<(Step, &Json)> = match node {
            Json::Obj(fields) => fields
                .iter()
                .map(|(key, value)| (Step::Key(key.clone()), value))
                .collect(),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(index, value)| (Step::Index(index), value))
                .collect(),
            _ => return,
        };
        for (step, child) in children {
            let enter = !matches!(&step, Step::Key(key) if opaque.contains(&key.as_str()));
            steps.push(step);
            out.push(steps.clone());
            if enter {
                walk(child, opaque, steps, out);
            }
            steps.pop();
        }
    }

    /// Every mutant of `sample`: each object member and each array element,
    /// at every depth, replaced by `{}` if it is an array and by `[]` if it
    /// is anything else; and each object member deleted.  A member named in
    /// `opaque` is damaged but not entered.  The entries of a member named
    /// in `keyed` are data under names the description does not know, so
    /// they are retyped but never deleted.
    pub(crate) fn mutants(sample: &Json, opaque: &[&str], keyed: &[&str]) -> Vec<Mutant> {
        let mut all = Vec::new();
        walk(sample, opaque, &mut Vec::new(), &mut all);
        let mut out = Vec::new();
        for steps in all {
            let mut retyped = sample.clone();
            let node = slot(&mut retyped, &steps);
            *node = match node {
                Json::Arr(_) => Json::Obj(Vec::new()),
                _ => Json::Arr(Vec::new()),
            };
            let (last, parents) = steps.split_last().expect("the root is not a member");
            let mut deleted = None;
            if let Step::Key(key) = last {
                let entry =
                    matches!(parents.last(), Some(Step::Key(k)) if keyed.contains(&k.as_str()));
                if !entry {
                    let mut document = sample.clone();
                    if let Json::Obj(fields) = slot(&mut document, parents) {
                        fields.retain(|(k, _)| k != key);
                    }
                    deleted = Some(document);
                }
            }
            out.push(Mutant {
                steps: steps.clone(),
                deleted: false,
                document: retyped,
            });
            out.extend(deleted.map(|document| Mutant {
                steps,
                deleted: true,
                document,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u64,
        count: usize,
        label: String,
        tags: Vec<String>,
        limit: u32,
        extra: Option<bool>,
    }

    record!(Sample {
        "id" => id as Hex,
        "count" => count,
        "label" => label,
        "tags" => tags,
        "limit" => limit [or 7],
        "extra" => extra [opt],
    });

    fn sample() -> Sample {
        Sample {
            id: 0xfeed,
            count: 3,
            label: "l".into(),
            tags: vec!["a".into()],
            limit: 9,
            extra: None,
        }
    }

    #[test]
    fn a_record_writes_its_members_in_order_and_reads_them_back() {
        let line = encode(&sample());
        assert_eq!(
            line,
            r#"{"id":"000000000000feed","count":3,"label":"l","tags":["a"],"limit":9}"#
        );
        assert_eq!(
            Sample::from_json(&Json::parse(&line).unwrap()).unwrap(),
            sample()
        );
        let with_extra = Sample {
            extra: Some(true),
            ..sample()
        };
        assert!(encode(&with_extra).ends_with(r#","extra":true}"#));
    }

    #[test]
    fn member_kinds_decide_what_absence_means() {
        let decode = |line: &str| Sample::from_json(&Json::parse(line).unwrap());
        let bare = r#"{"id":"1","count":3,"label":"l","tags":[]}"#;
        let decoded = decode(bare).unwrap();
        assert_eq!(decoded.limit, 7, "an absent [or] member is its default");
        assert_eq!(decoded.extra, None);
        // Absent and null are the same `None`; unknown members are ignored.
        let null = r#"{"id":"1","count":3,"label":"l","tags":[],"extra":null,"new":1}"#;
        assert_eq!(decode(null).unwrap(), decoded);
        let err = decode(r#"{"id":"1","label":"l","tags":[]}"#).unwrap_err();
        assert_eq!(err, "missing \"count\"");
        let err = decode(r#"{"id":"1","count":3,"label":"l","tags":[1]}"#).unwrap_err();
        assert_eq!(err, "\"tags\": expected a string");
        assert!(decode(r#"{"id":1,"count":3,"label":"l","tags":[]}"#).is_err());
        assert!(decode(r#"{"id":"1","count":-3,"label":"l","tags":[]}"#).is_err());
        assert!(
            decode(r#"{"id":"1","count":3,"label":"l","tags":[],"limit":4294967296}"#).is_err()
        );
        assert!(decode("[]").is_err());
    }

    #[test]
    fn maps_encode_sorted_whatever_order_they_iterate_in() {
        let map: HashMap<String, u64> = [("b".to_string(), 2), ("a".to_string(), 1)].into();
        let line = encode(&map);
        assert_eq!(line, r#"[["a",1],["b",2]]"#);
        assert_eq!(
            HashMap::from_json(&Json::parse(&line).unwrap()).unwrap(),
            map
        );
        let named = vec![("z".to_string(), 1u64), ("a".to_string(), 2)];
        let line = encode::<Named, _>(&named);
        assert_eq!(line, r#"{"z":1,"a":2}"#);
        assert_eq!(
            <Vec<(String, u64)> as Wire<Named>>::from_json(&Json::parse(&line).unwrap()),
            Ok(named)
        );
    }

    #[test]
    fn fixed_arrays_refuse_the_wrong_length() {
        type Triple = (String, bool, Option<u32>);
        let triple: Triple = ("x".into(), true, None);
        let line = encode(&triple);
        assert_eq!(line, r#"["x",true,null]"#);
        assert_eq!(Triple::from_json(&Json::parse(&line).unwrap()), Ok(triple));
        let short = Json::parse(r#"["x",true]"#).unwrap();
        assert!(Triple::from_json(&short).is_err());
        assert!(<(String, bool)>::from_json(&short).is_ok());
    }
}
