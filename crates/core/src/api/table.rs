//! The codec's one mechanism: a wire record lists its members once, in
//! wire order, and [`record!`] expands the list to the writer and to the
//! strict reader, so the two cannot disagree about a name, an order, a
//! width or what `null` means.
//!
//! A member is a field of the record; how its value is spelled follows
//! from its type ([`Wire`]).  The forms around the field say the rest:
//!
//! ```text
//! field,                  required; the wire name is the field's
//! field as "wire",        required, under another wire name
//! field in 0,             the field of a tuple variant
//! field: Flat,            a nested record whose members sit in this object
//! field: Bound,           spelled as the wire newtype `Bound(field)`
//! field [or X],           always written; absent reads as X
//! field [omit X],         not written when equal to X; absent reads as X
//! #name: Type = expr,     derived: written from `expr` over the fields,
//!                         read and type-checked, not stored
//! ```
//!
//! A derived member's `expr` sees the fields; a struct whose table opens
//! with `|name|` also sees itself as `name`, for what only a method of the
//! whole value computes.  A `check |value| { … }` block after the list runs
//! on the value just read, with the derived members still in scope; an
//! enum lists one member list per variant behind the literal that tags it.

use std::fmt::{Display, Write as _};

use super::json::{encode_str, Json};
use super::{ApiError, Fields};

/// `{ctx}: "name" must …` — the shape of every typed-member error.
pub(crate) fn must(ctx: &str, name: &str, what: impl Display) -> ApiError {
    ApiError::bad_request(format!("{ctx}: {name:?} must {what}"))
}

/// Starts the member `name` of the object `out` ends with; the value goes
/// to the returned buffer.  A comma goes first unless the member opens the
/// object (or a brace-less member list, as a line's body is).
#[inline]
pub(crate) fn key<'a>(out: &'a mut String, name: &str) -> &'a mut String {
    if !(out.is_empty() || out.ends_with('{')) {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    out
}

/// A value with one spelling on the wire.
pub(crate) trait Wire: Sized {
    fn put(&self, out: &mut String);

    /// Reads a present, non-`null` value; `ctx` and `name` say where, for
    /// the error.
    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError>;

    /// What `null` says for this type, when it says anything.
    fn null() -> Option<Self> {
        None
    }
}

#[inline]
pub(crate) fn put_member<T: Wire>(value: &T, name: &str, out: &mut String) {
    value.put(key(out, name));
}

/// Reads the required member `name`.
#[inline]
pub(crate) fn get_member<T: Wire>(f: &mut Fields<'_>, name: &str) -> Result<T, ApiError> {
    let value = f.req(name)?;
    match T::null() {
        Some(meaning) if value.is_null() => Ok(meaning),
        _ => T::get(f.ctx(), name, value),
    }
}

/// Reads the member `name`; absent, or `null` for a type that gives `null`
/// no meaning of its own, it reads as `default`.
#[inline]
pub(crate) fn get_or<T: Wire>(f: &mut Fields<'_>, name: &str, default: T) -> Result<T, ApiError> {
    match f.get(name) {
        Some(value) if !value.is_null() => T::get(f.ctx(), name, value),
        Some(_) => Ok(T::null().unwrap_or(default)),
        None => Ok(default),
    }
}

/// A type with a member table ([`record!`] writes the impl): on the wire,
/// an object.
pub(crate) trait Record: Sized {
    /// What errors call the object.
    const CTX: &'static str;
    /// Every member name of the table, in wire order (what the tests hold
    /// the sample lines to).
    #[cfg_attr(not(test), allow(dead_code))]
    const MEMBERS: &'static [&'static str];

    /// Writes the members, without braces: a `Flat` record shares its
    /// parent's object.
    fn put_members(&self, out: &mut String);

    /// Reads the members from `f`, leaving the others to the caller.
    fn get_members(f: &mut Fields<'_>) -> Result<Self, ApiError>;

    /// [`Record::put_members`] as a string.
    fn members(&self) -> String {
        let mut out = String::new();
        self.put_members(&mut out);
        out
    }

    /// The record as one JSON object.
    fn encode(&self) -> String {
        let mut out = String::new();
        self.put(&mut out);
        out
    }

    /// Strictly reads the record from the text of a JSON object.
    fn decode(text: &str) -> Result<Self, ApiError> {
        let value = Json::parse(text).map_err(|e| ApiError::bad_request(e.to_string()))?;
        Self::get(Self::CTX, Self::CTX, &value)
    }
}

impl<T: Record> Wire for T {
    fn put(&self, out: &mut String) {
        out.push('{');
        self.put_members(out);
        out.push('}');
    }

    /// Strict: every member of `value` must be one of the table's.
    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        if value.as_object().is_none() {
            return Err(must(ctx, name, "be a JSON object"));
        }
        let mut f = Fields::new(T::CTX, value)?;
        let record = T::get_members(&mut f)?;
        f.finish()?;
        Ok(record)
    }
}

/// `impl Wire` for scalars: how one prints, which `Json` accessor reads it
/// and what the error says it must be.
macro_rules! scalar {
    ($($ty:ty),+: |$v:ident, $out:ident| $put:expr, |$json:ident| $get:expr, $must:expr) => {$(
        impl Wire for $ty {
            fn put(&self, $out: &mut String) {
                let $v = self;
                $put
            }

            #[allow(clippy::useless_conversion)] // `u64` from the `u64` read
            fn get(ctx: &str, name: &str, $json: &Json) -> Result<Self, ApiError> {
                $get.ok_or_else(|| must(ctx, name, $must))
            }
        }
    )+};
}

/// Shortest-round-trip `Display` for a finite float, `null` otherwise.
fn put_f64(value: f64, out: &mut String) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

scalar!(u8, u16, u32, u64, usize: |v, out| { let _ = write!(out, "{v}"); },
    |json| json.as_u64().and_then(|n| Self::try_from(n).ok()),
    format_args!("be an unsigned integer below 2^{}", Self::BITS));
scalar!(bool: |v, out| out.push_str(if *v { "true" } else { "false" }),
    |json| json.as_bool(), "be a boolean");
scalar!(String: |v, out| encode_str(v, out), |json| json.as_str().map(str::to_owned),
    "be a string");
// A float that is always finite.
scalar!(f64: |v, out| put_f64(*v, out), |json| json.as_f64(), "be a finite number");

/// A float bound or requirement where `null` ⇔ +∞: no bound, or a
/// requirement nothing meets (the paper's "NA").
#[derive(Clone, Copy)]
pub(crate) struct Bound(pub(crate) f64);

impl Wire for Bound {
    fn put(&self, out: &mut String) {
        put_f64(self.0, out);
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        value.as_f64().map(Bound).ok_or_else(|| must(ctx, name, "be a number or null"))
    }

    fn null() -> Option<Self> {
        Some(Bound(f64::INFINITY))
    }
}

/// JSON written elsewhere (a derived member's text); read back, it is
/// accepted whatever it holds.
pub(crate) struct Raw(pub(crate) String);

impl Wire for Raw {
    fn put(&self, out: &mut String) {
        out.push_str(&self.0);
    }

    fn get(_ctx: &str, _name: &str, _value: &Json) -> Result<Self, ApiError> {
        Ok(Raw(String::new()))
    }
}

impl<T: Record> Record for Box<T> {
    const CTX: &'static str = T::CTX;
    const MEMBERS: &'static [&'static str] = T::MEMBERS;

    fn put_members(&self, out: &mut String) {
        T::put_members(self, out);
    }

    fn get_members(f: &mut Fields<'_>) -> Result<Self, ApiError> {
        T::get_members(f).map(Box::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for (at, item) in self.iter().enumerate() {
            if at > 0 {
                out.push(',');
            }
            item.put(out);
        }
        out.push(']');
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        let items = value.as_array().ok_or_else(|| must(ctx, name, "be an array"))?;
        items.iter().map(|item| T::get(ctx, name, item)).collect()
    }
}

/// `None` ⇔ `null`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(value) => value.put(out),
            None => out.push_str("null"),
        }
    }

    fn get(ctx: &str, name: &str, value: &Json) -> Result<Self, ApiError> {
        T::get(ctx, name, value).map(Some)
    }

    fn null() -> Option<Self> {
        Some(None)
    }
}

/// The literal that tags an enum's variant on the wire.
pub(crate) trait Tag {
    fn is(&self, value: &Json) -> bool;
}

impl Tag for &str {
    fn is(&self, value: &Json) -> bool {
        value.as_str() == Some(self)
    }
}

impl Tag for bool {
    fn is(&self, value: &Json) -> bool {
        value.as_bool() == Some(*self)
    }
}

/// The error for a string tag no variant carries: `describe` names the
/// ones that exist.
pub(crate) fn unknown_tag(
    ctx: &str,
    name: &str,
    tag: &Json,
    describe: impl FnOnce(&str) -> String,
) -> ApiError {
    match tag.as_str() {
        Some(text) => ApiError::bad_request(describe(text)),
        None => must(ctx, name, "be a string"),
    }
}

/// A member's wire name: the field's own unless the table gives another.
macro_rules! wire_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident as $wire:literal) => {
        $wire
    };
}

/// Writes one stored member: as its type says, flat, or as a wire newtype.
macro_rules! put {
    ($out:ident, $value:ident, $name:expr) => {
        $crate::api::table::put_member($value, $name, $out)
    };
    ($out:ident, $value:ident, $name:expr, Flat) => {
        $crate::api::table::Record::put_members($value, $out)
    };
    ($out:ident, $value:ident, $name:expr, $via:ident) => {
        $crate::api::table::put_member(&$via(*$value), $name, $out)
    };
}

/// Reads one stored member: required, or absent at its default.
macro_rules! get {
    ($f:ident, $name:expr) => {
        $crate::api::table::get_member($f, $name)?
    };
    ($f:ident, $name:expr, $how:ident $default:expr) => {
        $crate::api::table::get_or($f, $name, $default)?
    };
    ($f:ident, $name:expr, : Flat) => {
        $crate::api::table::Record::get_members($f)?
    };
    ($f:ident, $name:expr, : $via:ident) => {
        $crate::api::table::get_member::<$via>($f, $name)?.0
    };
    ($f:ident, $name:expr, : $via:ident, $how:ident $default:expr) => {
        $crate::api::table::get_or($f, $name, $via($default))?.0
    };
}

/// Expands a member table to `impl Record` (the module docs have the
/// grammar).  A struct is `record!(Type as "ctx" { members })` (or
/// `record!(Type as "ctx" |name| { members })`, naming itself), an enum of
/// one variant `record!(Type as "ctx" => Self::Variant { members })`, an
/// enum of several `record!(Type as "ctx" by "tag member" { tag =>
/// Self::Variant { members } … } else |ctx, tag| error)`, where a variant's
/// `check` sees that variant's derived members and a `check` after `else`
/// sees every value.
macro_rules! record {
    ($ty:ty as $ctx:literal $(|$whole:ident|)? { $($members:tt)* } $($check:tt)*) => {
        $crate::api::table::record!($ty as $ctx => $(|$whole|)? Self { $($members)* } $($check)*);
    };
    ($ty:ty as $ctx:literal => $($shape:tt)*) => {
        $crate::api::table::record!(@impl $ty, $ctx, "", |_, _| unreachable!("one shape"),
            []; => $($shape)*);
    };
    ($ty:ty as $ctx:literal by $tagname:literal { $($arms:tt)* }
     else $unknown:expr $(, check |$all:ident| $all_check:block)?) => {
        $crate::api::table::record!(@impl $ty, $ctx, $tagname, $unknown,
            [$(|$all| $all_check)?]; $($arms)*);
    };
    (@impl $ty:ty, $ctx:literal, $tagname:literal, $unknown:expr,
     [$(|$all:ident| $all_check:block)?];
     $($($tag:literal)? => $(|$whole:ident|)? $($path:ident)::+ {
        $(#$ld:ident: $ldt:ty = $lde:expr,)*
        $($field:ident $(in $pos:tt)? $(as $wire:literal)? $(: $kind:ident)?
            $([or $or:expr])? $([omit $omit:expr])?,
            $(#$ad:ident: $adt:ty = $ade:expr,)*)*
     } $(check |$this:ident| $check:block)? $(,)?)*) => {
        impl $crate::api::table::Record for $ty {
            const CTX: &'static str = $ctx;
            const MEMBERS: &'static [&'static str] = &[$(
                $(stringify!($ld),)*
                $($crate::api::table::wire_name!($field $(as $wire)?), $(stringify!($ad),)*)*
            )*];

            fn put_members(&self, out: &mut String) {
                #[allow(unused_imports)]
                use $crate::api::table::{key, put, put_member, wire_name};
                match self {$(
                    $($path)::+ { $($($pos:)? $field),* } => {
                        $(let $whole = self;)?
                        $(key(out, $tagname).push_str(stringify!($tag));)?
                        $(put_member::<$ldt>(&$lde, stringify!($ld), out);)*
                        $(
                            $(if *$field != $omit)? {
                                put!(out, $field, wire_name!($field $(as $wire)?) $(, $kind)?);
                            }
                            $(put_member::<$adt>(&$ade, stringify!($ad), out);)*
                        )*
                    }
                )*}
            }

            #[allow(unreachable_code, unused_labels, unused_variables)]
            fn get_members(
                f: &mut $crate::api::Fields<'_>,
            ) -> Result<Self, $crate::api::ApiError> {
                #[allow(unused_imports)]
                use $crate::api::table::{get, get_member, wire_name, Tag};
                let value = 'found: {
                    $('arm: {
                        $(if !Tag::is(&$tag, f.req($tagname)?) {
                            break 'arm;
                        })?
                        $(let $ld: $ldt = get_member(f, stringify!($ld))?;)*
                        $(
                            let $field = get!(f, wire_name!($field $(as $wire)?)
                                $(, : $kind)? $(, or $or)? $(, omit $omit)?);
                            $(let $ad: $adt = get_member(f, stringify!($ad))?;)*
                        )*
                        let value = $($path)::+ { $($($pos:)? $field),* };
                        $({
                            let $this = &value;
                            $check
                        })?
                        break 'found value;
                    })*
                    return Err(($unknown)(f.ctx(), f.req($tagname)?));
                };
                $({
                    let $all = &value;
                    $all_check
                })?
                Ok(value)
            }
        }
    };
}

pub(crate) use {get, put, record, scalar, wire_name};
