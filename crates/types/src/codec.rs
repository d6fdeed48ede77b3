//! The workspace's one binary format, and the one place a type says how it
//! is laid out in it.
//!
//! Everything that crosses a socket or reaches a disk — envelopes, WAL
//! records, `NodeMeta`, snapshot files, `DurableKv` manifests, state-machine
//! commands — is built from the same few rules: integers are big-endian and
//! fixed width, byte strings and collections carry a `u32` length prefix,
//! `Option`/`Result`/enums carry a one-byte tag, structs are their fields in
//! order. No external serialization format is involved.
//!
//! # Declaring a type
//!
//! A type whose decoder only reads its fields back in the order the encoder
//! wrote them declares that order once, beside its definition, with
//! [`codec!`](crate::codec!) — the macro emits both impls from the one list:
//!
//! ```
//! use recraft_types::codec::{Decode, Encode};
//! use recraft_types::{codec, NodeId};
//!
//! #[derive(Debug, PartialEq)]
//! struct Lease { holder: NodeId, until: u64 }
//! codec!(struct Lease { holder: NodeId, until: u64 });
//!
//! #[derive(Debug, PartialEq)]
//! enum Probe { Idle, Ping(u64), Lost { holder: Option<NodeId>, misses: u32 } }
//! codec!(enum Probe {
//!     0 => Idle,
//!     1 => Ping(u64),
//!     2 => Lost { holder: Option<NodeId>, misses: u32 },
//! });
//!
//! let mut bytes = Probe::Ping(7).encode_to_bytes();
//! assert_eq!(&bytes[..], &[1, 0, 0, 0, 0, 0, 0, 0, 7]);
//! assert_eq!(Probe::decode(&mut bytes).unwrap(), Probe::Ping(7));
//! assert!(Probe::decode(&mut bytes::Bytes::from_static(&[9])).is_err());
//! ```
//!
//! The encoder destructures exhaustively, so a field or variant added to the
//! type and not to its list does not compile, and the unknown-tag error is
//! generated. Tags and field order are the format: never renumber or reorder
//! a published list (`crates/net/tests/format_golden.rs` holds the bytes).
//!
//! # Runs of elements
//!
//! A `Vec<T>` (and `[T]`) is a `u32` count followed by the elements back to
//! back, written and read by two provided trait methods,
//! [`Encode::encode_slice`] and [`Decode::decode_vec`], whose defaults loop
//! over the elements. `u8` overrides both: a byte string — a key, a value, a
//! snapshot chunk, a multi-megabyte state-machine image — is one length
//! check and one slice copy, never a loop. The bytes are the same either
//! way; no other element type overrides them.
//!
//! # What stays hand-written
//!
//! The primitives and containers below, because every other format rests on
//! their length and tag checks; and every decoder that *re-validates* what it
//! read, because a list of fields cannot say "and then reject it":
//! [`KeyRange`] and [`RangeSet`] (ordering and overlap), [`EpochTerm`]
//! (packed into one word), `ClusterConfig`, `SplitSpec` and `MergeTx` in
//! [`config`](crate::config) (member-set, quorum and disjointness rules), and
//! `ReconfigRecord` in `recraft-storage` (interns its `kind` string). Bytes
//! off a socket or a disk reach a `Node` only through these, so a decoded
//! value is one the constructors would have accepted.

use crate::client::SessionId;
use crate::error::{Error, Result};
use crate::eterm::EpochTerm;
use crate::ids::{ClusterId, LogIndex, NodeId, TxId};
use crate::range::{KeyRange, RangeSet};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, BTreeSet};

/// Types that can be appended to a byte buffer.
pub trait Encode {
    /// Appends the binary form of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Convenience: encodes into a fresh buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Appends the elements of `items` back to back, with no length prefix:
    /// the body of a `Vec<Self>`. `u8` overrides it with one slice copy;
    /// the bytes are the same either way.
    fn encode_slice(items: &[Self], buf: &mut BytesMut)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }
}

/// Types that can be decoded from a byte buffer.
pub trait Decode: Sized {
    /// Decodes a value, consuming bytes from the front of `buf`.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on truncated or malformed input.
    fn decode(buf: &mut Bytes) -> Result<Self>;

    /// Decodes `len` elements laid out back to back: the body of a
    /// `Vec<Self>` whose length prefix the caller has read. `len` is input:
    /// nothing is allocated for elements the buffer cannot hold. `u8`
    /// overrides it with one bounds check and one slice copy.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on truncated or malformed input.
    fn decode_vec(buf: &mut Bytes, len: usize) -> Result<Vec<Self>> {
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Ok(out)
    }
}

/// Declares the binary layout of a struct or enum defined beside it and
/// emits its [`Encode`] and [`Decode`] impls (see the [module docs](self)).
///
/// `struct T { field: Ty, … }` is the fields in that order. `enum T { tag =>
/// Variant, … }` is a one-byte tag, then the variant's fields; a variant is
/// a unit, a one-field tuple `V(Ty)`, or named `V { field: Ty, … }`.
#[macro_export]
macro_rules! codec {
    (struct $name:ident { $($field:ident : $ty:ty),* $(,)? }) => {
        impl $crate::codec::Encode for $name {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                let Self { $($field),* } = self;
                $($crate::codec::Encode::encode($field, buf);)*
            }
        }
        impl $crate::codec::Decode for $name {
            fn decode(buf: &mut ::bytes::Bytes) -> $crate::Result<Self> {
                Ok(Self { $($field: <$ty as $crate::codec::Decode>::decode(buf)?),* })
            }
        }
    };
    // Rewrites every variant shape to `Variant { member => binding: Ty, … }`
    // (a tuple field's member is `0`, which braces accept too), so one rule
    // below emits all three.
    (enum $name:ident { $(
        $tag:literal => $variant:ident
            $(($inner:ty))?
            $({ $($field:ident : $ty:ty),* $(,)? })?
    ),* $(,)? }) => {
        $crate::codec!(@enum $name { $(
            $tag => $variant { $(0 => value: $inner)? $($($field => $field: $ty),*)? }
        )* });
    };
    (@enum $name:ident { $(
        $tag:literal => $variant:ident { $($member:tt => $bind:ident : $ty:ty),* }
    )* }) => {
        impl $crate::codec::Encode for $name {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $(Self::$variant { $($member: $bind),* } => {
                        <u8 as $crate::codec::Encode>::encode(&$tag, buf);
                        $($crate::codec::Encode::encode($bind, buf);)*
                    })*
                }
            }
        }
        impl $crate::codec::Decode for $name {
            fn decode(buf: &mut ::bytes::Bytes) -> $crate::Result<Self> {
                match <u8 as $crate::codec::Decode>::decode(buf)? {
                    $($tag => Ok(Self::$variant {
                        $($member: <$ty as $crate::codec::Decode>::decode(buf)?),*
                    }),)*
                    tag => Err($crate::Error::Codec(format!(
                        concat!("unknown ", stringify!($name), " tag {}"),
                        tag
                    ))),
                }
            }
        }
    };
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(Error::Codec(format!(
            "truncated input decoding {what}: need {n}, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

impl Encode for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }

    fn encode_slice(items: &[u8], buf: &mut BytesMut) {
        buf.put_slice(items);
    }
}

impl Decode for u8 {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }

    fn decode_vec(buf: &mut Bytes, len: usize) -> Result<Vec<u8>> {
        need(buf, len, "byte string body")?;
        let out = buf[..len].to_vec();
        buf.advance(len);
        Ok(out)
    }
}

impl Encode for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        need(buf, 4, "u32")?;
        Ok(buf.get_u32())
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        need(buf, 8, "u64")?;
        Ok(buf.get_u64())
    }
}

/// `usize` travels as a `u64`, so the format does not depend on the
/// writer's word size.
impl Encode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| Error::Codec(format!("{v} does not fit a usize")))
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::Codec(format!("invalid bool byte {v}"))),
        }
    }
}

impl Encode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(u32::try_from(self.len()).expect("byte string too long"));
        buf.put_slice(self);
    }
}

impl Decode for Bytes {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        need(buf, len, "byte string body")?;
        Ok(buf.copy_to_bytes(len))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_bytes().encode(buf);
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let raw = Vec::<u8>::decode(buf)?;
        String::from_utf8(raw).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            v => Err(Error::Codec(format!("invalid option tag {v}"))),
        }
    }
}

/// A reference is what it points at, so a borrowed field (`Option<&[u8]>`)
/// encodes without being cloned first.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
}

/// A box is its contents: boxing a large field changes no byte.
impl<T: Encode> Encode for Box<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        Ok(Box::new(T::decode(buf)?))
    }
}

/// An acknowledgement or the error that refused it (tag 0 / tag 1).
impl Encode for Result<()> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Ok(()) => buf.put_u8(0),
            Err(e) => {
                buf.put_u8(1);
                e.encode(buf);
            }
        }
    }
}

impl Decode for Result<()> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(Ok(())),
            1 => Ok(Err(Error::decode(buf)?)),
            v => Err(Error::Codec(format!("invalid result tag {v}"))),
        }
    }
}

/// A run of elements is a `u32` count and then [`Encode::encode_slice`];
/// `Vec<T>` is its slice.
impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(u32::try_from(self.len()).expect("collection too long"));
        T::encode_slice(self, buf);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_slice().encode(buf);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        T::decode_vec(buf, len)
    }
}

impl<T: Encode + Ord> Encode for BTreeSet<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(u32::try_from(self.len()).expect("collection too long"));
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(u32::try_from(self.len()).expect("map too long"));
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            let v = V::decode(buf)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! id_codec {
    ($ty:ty) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.put_u64(self.0);
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut Bytes) -> Result<Self> {
                Ok(Self(u64::decode(buf)?))
            }
        }
    };
}

id_codec!(NodeId);
id_codec!(ClusterId);
id_codec!(LogIndex);
id_codec!(TxId);
id_codec!(SessionId);

impl Encode for EpochTerm {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.packed());
    }
}

impl Decode for EpochTerm {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        Ok(EpochTerm::from_packed(u64::decode(buf)?))
    }
}

impl Encode for KeyRange {
    fn encode(&self, buf: &mut BytesMut) {
        self.start().encode(buf);
        self.end().encode(buf);
    }
}

impl Decode for KeyRange {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let start = Vec::<u8>::decode(buf)?;
        let end = Option::<Vec<u8>>::decode(buf)?;
        match end {
            Some(end) => KeyRange::new(start, end),
            None => Ok(KeyRange::from_start(start)),
        }
    }
}

impl Encode for RangeSet {
    fn encode(&self, buf: &mut BytesMut) {
        self.ranges().encode(buf);
    }
}

impl Decode for RangeSet {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let ranges = Vec::<KeyRange>::decode(buf)?;
        RangeSet::from_ranges(ranges)
    }
}

/// Test support for every crate that declares a format: the round-trip
/// check and the robustness property, stated once.
pub mod testing {
    use super::{Decode, Encode};
    use bytes::{Buf, Bytes};
    use std::fmt::Debug;

    /// Asserts that `value` survives encode → decode with nothing left over.
    ///
    /// # Panics
    /// Panics when it does not.
    pub fn roundtrip<T: Encode + Decode + PartialEq + Debug>(value: T) {
        let mut bytes = value.encode_to_bytes();
        let decoded = T::decode(&mut bytes).expect("decode of a fresh encoding");
        assert_eq!(decoded, value);
        assert_eq!(bytes.remaining(), 0, "leftover bytes");
    }

    /// Asserts what a decoder owes bytes it did not write: every strict
    /// prefix of `value`'s encoding is an error (never a panic, never a
    /// shorter value), and inverting any one byte — a tag, a length, a
    /// payload byte — yields an error or a value that differs, never the
    /// original accepted from different bytes.
    ///
    /// # Panics
    /// Panics when either fails.
    pub fn assert_robust<T: Encode + Decode + PartialEq + Debug>(value: &T) {
        let bytes = value.encode_to_bytes();
        for cut in 0..bytes.len() {
            let short = T::decode(&mut bytes.slice(..cut));
            assert!(short.is_err(), "prefix {cut}/{} decoded", bytes.len());
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 0xFF;
            if let Ok(other) = T::decode(&mut Bytes::from(flipped)) {
                assert_ne!(&other, value, "byte {at} inverted, same value decoded");
            }
        }
    }

    /// Decodes arbitrary bytes as a `T` and discards the outcome: the
    /// property is that this returns.
    pub fn decode_garbage<T: Decode>(data: &[u8]) {
        let _ = T::decode(&mut Bytes::copy_from_slice(data));
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{assert_robust, decode_garbage, roundtrip};
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Debug;

    #[test]
    fn primitives() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(b"hello".to_vec());
        roundtrip(String::from("snapshot"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(7u64));
        roundtrip(usize::MAX);
        roundtrip(Box::new(9u32));
        roundtrip::<Result<()>>(Ok(()));
        roundtrip::<Result<()>>(Err(Error::NotLeader(None)));
    }

    #[test]
    fn containers_are_robust() {
        assert_robust(&Some(vec![1u64, 2, 3]));
        assert_robust(&BTreeMap::from([
            (b"a".to_vec(), true),
            (b"b".to_vec(), false),
        ]));
        assert_robust(&RangeSet::from_ranges([KeyRange::new("a", "c").unwrap()]).unwrap());
        assert_robust::<Result<()>>(&Err(Error::Codec("x".into())));
    }

    // The macro's three variant shapes, and the error it writes for a tag
    // outside the list.
    #[derive(Debug, PartialEq)]
    enum Shapes {
        Unit,
        Tuple(u64),
        Named { a: bool, b: Option<NodeId> },
    }
    codec!(enum Shapes {
        0 => Unit,
        4 => Tuple(u64),
        9 => Named { a: bool, b: Option<NodeId> },
    });

    #[test]
    fn declared_enum_layout() {
        assert_eq!(&Shapes::Unit.encode_to_bytes()[..], &[0]);
        assert_eq!(
            &Shapes::Tuple(1).encode_to_bytes()[..],
            &[4, 0, 0, 0, 0, 0, 0, 0, 1]
        );
        let named = Shapes::Named { a: true, b: None };
        assert_eq!(&named.encode_to_bytes()[..], &[9, 1, 0]);
        for shape in [Shapes::Unit, Shapes::Tuple(7), named] {
            assert_robust(&shape);
            roundtrip(shape);
        }
        let err = Shapes::decode(&mut Bytes::from_static(&[5])).unwrap_err();
        assert_eq!(err, Error::Codec("unknown Shapes tag 5".into()));
    }

    #[test]
    fn collections() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(BTreeSet::from([NodeId(1), NodeId(2)]));
        roundtrip(BTreeMap::from([
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
        ]));
    }

    #[test]
    fn domain_types() {
        roundtrip(NodeId(9));
        roundtrip(ClusterId(3));
        roundtrip(LogIndex(77));
        roundtrip(TxId(5));
        roundtrip(EpochTerm::new(4, 19));
        roundtrip(KeyRange::full());
        roundtrip(KeyRange::new("a", "m").unwrap());
        roundtrip(RangeSet::full());
        roundtrip(
            RangeSet::from_ranges([
                KeyRange::new("a", "c").unwrap(),
                KeyRange::new("x", "z").unwrap(),
            ])
            .unwrap(),
        );
    }

    #[test]
    fn truncated_inputs_error() {
        let mut short = Bytes::from_static(&[0, 0]);
        assert!(u64::decode(&mut short).is_err());

        let mut bad_len = BytesMut::new();
        bad_len.put_u32(100); // claims 100 bytes, provides none
        let mut bytes = bad_len.freeze();
        assert!(Vec::<u8>::decode(&mut bytes).is_err());
    }

    #[test]
    fn invalid_tags_error() {
        let mut bad_bool = Bytes::from_static(&[7]);
        assert!(bool::decode(&mut bad_bool).is_err());
        let mut bad_opt = Bytes::from_static(&[9]);
        assert!(Option::<u8>::decode(&mut bad_opt).is_err());
    }

    /// The per-element path a run of `T` is defined by: a count, then each
    /// element's own encoding — what `encode_slice` / `decode_vec` must
    /// equal whatever a type overrides them with.
    fn per_element<T: Encode + Decode + PartialEq + Debug>(items: &[T]) {
        let mut want = BytesMut::new();
        want.put_u32(items.len() as u32);
        for item in items {
            item.encode(&mut want);
        }
        let bytes = items.encode_to_bytes();
        assert_eq!(bytes, want.freeze(), "byte for byte");

        let mut one_by_one = bytes.clone();
        let count = u32::decode(&mut one_by_one).unwrap();
        let singly: Vec<T> = (0..count)
            .map(|_| T::decode(&mut one_by_one).unwrap())
            .collect();
        assert_eq!(singly, items, "value for value");
        assert_eq!(Vec::<T>::decode(&mut bytes.clone()).unwrap(), items);

        // One element more than the input holds is an error, never a panic.
        let mut body = bytes.slice(4..);
        assert!(T::decode_vec(&mut body, items.len() + 1).is_err());
    }

    #[test]
    fn a_length_the_input_cannot_hold_is_refused_before_it_is_allocated() {
        // 4 GiB of `u8`, 32 GiB of `u64`: reserving either would abort.
        let mut huge = BytesMut::new();
        huge.put_u32(u32::MAX);
        huge.put_slice(&[7; 24]);
        let huge = huge.freeze();
        assert!(Vec::<u8>::decode(&mut huge.clone()).is_err());
        assert!(Vec::<u64>::decode(&mut huge.clone()).is_err());
        assert!(Vec::<Vec<u8>>::decode(&mut huge.clone()).is_err());
        assert!(String::decode(&mut huge.clone()).is_err());
        assert!(u8::decode_vec(&mut huge.clone(), usize::MAX).is_err());
    }

    proptest! {
        #[test]
        fn bytes_roundtrip(data: Vec<u8>) {
            roundtrip(data);
        }

        #[test]
        fn slice_kernels_equal_the_per_element_path(
            bytes: Vec<u8>,
            words: Vec<u64>,
            nested: Vec<Vec<u8>>,
        ) {
            per_element(&bytes);
            per_element(&words);
            per_element(&nested);
        }

        #[test]
        fn map_roundtrip(map: BTreeMap<Vec<u8>, Vec<u8>>) {
            roundtrip(map);
        }

        #[test]
        fn decode_never_panics(data: Vec<u8>) {
            decode_garbage::<RangeSet>(&data);
            decode_garbage::<String>(&data);
            decode_garbage::<Result<()>>(&data);
            decode_garbage::<BTreeMap<Vec<u8>, Box<Option<usize>>>>(&data);
        }
    }
}
