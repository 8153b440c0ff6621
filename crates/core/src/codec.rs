//! A real in-tree binary codec for the durable journal.
//!
//! The workspace's `serde` shim is deliberately a no-op (see `shims/README.md`), so the
//! write-ahead journal cannot lean on `Serialize`/`Deserialize` for its on-disk format.
//! This module is the replacement for that path: a small, explicit, little-endian binary
//! codec with no reflection and no external dependencies. Every type that ends up inside
//! a journal record implements [`BinCodec`] by hand in its owning crate, which keeps the
//! wire format reviewable and keeps the real `serde` swap-back (re-enabling the derives)
//! orthogonal to durability.
//!
//! Format conventions:
//!
//! - `u32`, `u64` and `usize` — and through them every id, count, range bound and
//!   length prefix — are unsigned LEB128 varints: seven bits per byte, least
//!   significant group first, the high bit set on every byte but the last. A value
//!   below 128 takes one byte and `u64::MAX` ten. Decoding refuses a truncated,
//!   over-long (more than ten bytes), overflowing or non-minimal varint, so each value
//!   has exactly one encoding and damaged bytes surface as a [`CodecError`];
//!   `u32` and `usize` are range-checked on decode;
//! - `f64` is written as the 8 little-endian bytes of its IEEE-754 bit pattern
//!   (`to_bits`), never as a varint, so round-trips are bit-exact — the property the
//!   fleet's determinism checks rely on;
//! - `Vec<T>`/`String` are a varint length followed by the elements/UTF-8 bytes;
//! - `Option<T>` is a presence byte (`0`/`1`) followed by the value;
//! - enums are a one-byte tag followed by the variant's fields.
//!
//! The journal's framing around each record (length, CRC, segment header) is not
//! written through this codec and stays fixed-width.

use std::ops::Range;

use crate::accuracy::AccuracyRegistry;
use crate::economics::CostModel;
use crate::online::TerminationStrategy;
use crate::types::{AnswerDomain, HitId, Label, QuestionId, WorkerId};
use crate::verification::Verdict;

/// Decoding failure: truncated input, an unknown enum tag, or a value that fails the
/// type's own invariants (e.g. a length that does not fit in `usize`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of what failed to decode.
    pub detail: String,
}

impl CodecError {
    /// Build an error with the given description.
    pub fn new(detail: impl Into<String>) -> Self {
        CodecError {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

/// Specialized `Result` for decoding.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Hand-written binary encoding used by the on-disk journal.
///
/// `decode` consumes from the front of `input`, leaving any trailing bytes for the
/// caller — records concatenate fields by concatenating encodings.
pub trait BinCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a value from the front of `input`, advancing it past the consumed bytes.
    fn decode(input: &mut &[u8]) -> CodecResult<Self>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a buffer, requiring that every byte is consumed.
    fn from_bytes(mut bytes: &[u8]) -> CodecResult<Self> {
        let value = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(CodecError::new(format!(
                "{} trailing bytes after value",
                bytes.len()
            )));
        }
        Ok(value)
    }
}

/// Split `n` bytes off the front of `input`, or fail if fewer remain.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> CodecResult<&'a [u8]> {
    if input.len() < n {
        return Err(CodecError::new(format!(
            "truncated input: wanted {n} bytes, {} remain",
            input.len()
        )));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Split exactly `N` bytes off the front of `input` as a fixed-size array,
/// or fail if fewer remain. Infallible once `take` succeeds, so fixed-width
/// decodes (an `f64`, a journal frame header) need no panicking
/// `try_into().expect(..)` conversion.
pub fn take_array<const N: usize>(input: &mut &[u8]) -> CodecResult<[u8; N]> {
    let head = take(input, N)?;
    let mut array = [0u8; N];
    array.copy_from_slice(head);
    Ok(array)
}

impl BinCodec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(take(input, 1)?[0])
    }
}

/// The longest varint: `ceil(64 / 7)` bytes hold a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Append `value` as an unsigned LEB128 varint.
fn encode_varint(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Decode an unsigned LEB128 varint from the front of `input`. Refuses a truncated
/// varint, one longer than [`MAX_VARINT_LEN`] bytes, one whose tenth byte carries bits
/// past 64, and a non-minimal one (a zero final byte after the first), so decoding
/// never wraps and each value has exactly one encoding.
fn decode_varint(input: &mut &[u8]) -> CodecResult<u64> {
    let mut value = 0u64;
    for (index, &byte) in input.iter().take(MAX_VARINT_LEN).enumerate() {
        if index == MAX_VARINT_LEN - 1 && byte > 1 {
            return Err(CodecError::new(if byte & 0x80 != 0 {
                format!("varint longer than {MAX_VARINT_LEN} bytes")
            } else {
                format!("varint overflows u64 (tenth byte {byte:#04x})")
            }));
        }
        value |= u64::from(byte & 0x7f) << (7 * index);
        if byte & 0x80 == 0 {
            if byte == 0 && index > 0 {
                return Err(CodecError::new(format!(
                    "non-minimal varint: {} bytes ending in a zero byte",
                    index + 1
                )));
            }
            take(input, index + 1)?;
            return Ok(value);
        }
    }
    Err(CodecError::new(format!(
        "truncated varint: {} bytes, all with the continuation bit",
        input.len()
    )))
}

impl BinCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(u64::from(*self), out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        let wide = decode_varint(input)?;
        u32::try_from(wide)
            .map_err(|_| CodecError::new(format!("value {wide} does not fit in u32")))
    }
}

impl BinCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(*self, out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        decode_varint(input)
    }
}

impl BinCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(*self as u64, out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        let wide = decode_varint(input)?;
        usize::try_from(wide)
            .map_err(|_| CodecError::new(format!("value {wide} does not fit in usize")))
    }
}

impl BinCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("invalid bool byte {other}"))),
        }
    }
}

impl BinCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(f64::from_bits(u64::from_le_bytes(take_array(input)?)))
    }
}

/// Append a string as its varint byte length followed by its UTF-8 bytes — the
/// encoding of `String`, written straight from a borrowed `&str`.
fn encode_str(s: &str, out: &mut Vec<u8>) {
    s.len().encode(out);
    out.extend_from_slice(s.as_bytes());
}

/// Decode a string written by [`encode_str`], borrowing it from `input`.
fn decode_str<'a>(input: &mut &'a [u8]) -> CodecResult<&'a str> {
    let len = usize::decode(input)?;
    std::str::from_utf8(take(input, len)?)
        .map_err(|e| CodecError::new(format!("invalid UTF-8 string: {e}")))
}

impl BinCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        decode_str(input).map(str::to_owned)
    }
}

impl<T: BinCodec> BinCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        let len = usize::decode(input)?;
        // Guard against a corrupt length causing an absurd pre-allocation: each element
        // takes at least one byte, so `len` can never exceed the remaining input.
        if len > input.len() {
            return Err(CodecError::new(format!(
                "vector length {len} exceeds remaining input {}",
                input.len()
            )));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

impl<T: BinCodec> BinCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(CodecError::new(format!("invalid Option tag {other}"))),
        }
    }
}

impl<A: BinCodec, B: BinCodec> BinCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: BinCodec, B: BinCodec, C: BinCodec> BinCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl BinCodec for Range<usize> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        let start = usize::decode(input)?;
        let end = usize::decode(input)?;
        Ok(start..end)
    }
}

impl BinCodec for WorkerId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(WorkerId(u64::decode(input)?))
    }
}

impl BinCodec for QuestionId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(QuestionId(u64::decode(input)?))
    }
}

impl BinCodec for HitId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(HitId(u64::decode(input)?))
    }
}

impl BinCodec for Label {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self.as_str(), out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(Label::new(decode_str(input)?))
    }
}

impl BinCodec for AnswerDomain {
    /// The encoding of `Vec<Label>`, written without collecting one.
    fn encode(&self, out: &mut Vec<u8>) {
        self.size().encode(out);
        for label in self.labels() {
            label.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(AnswerDomain::new(Vec::<Label>::decode(input)?))
    }
}

impl BinCodec for Verdict {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Verdict::Accepted { label, confidence } => {
                out.push(0);
                label.encode(out);
                confidence.encode(out);
            }
            Verdict::NoAnswer => out.push(1),
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(Verdict::Accepted {
                label: Label::decode(input)?,
                confidence: f64::decode(input)?,
            }),
            1 => Ok(Verdict::NoAnswer),
            other => Err(CodecError::new(format!("invalid Verdict tag {other}"))),
        }
    }
}

impl BinCodec for CostModel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.worker_fee.encode(out);
        self.platform_fee.encode(out);
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        Ok(CostModel {
            worker_fee: f64::decode(input)?,
            platform_fee: f64::decode(input)?,
        })
    }
}

impl BinCodec for TerminationStrategy {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            TerminationStrategy::MinMax => 0,
            TerminationStrategy::MinExp => 1,
            TerminationStrategy::ExpMax => 2,
        });
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        match u8::decode(input)? {
            0 => Ok(TerminationStrategy::MinMax),
            1 => Ok(TerminationStrategy::MinExp),
            2 => Ok(TerminationStrategy::ExpMax),
            other => Err(CodecError::new(format!(
                "invalid TerminationStrategy tag {other}"
            ))),
        }
    }
}

impl BinCodec for AccuracyRegistry {
    /// The default, then the entries as a `Vec<(WorkerId, f64, usize)>` would encode
    /// them, written without collecting one.
    fn encode(&self, out: &mut Vec<u8>) {
        self.default_accuracy().encode(out);
        self.len().encode(out);
        for (worker, estimate) in self.iter() {
            worker.encode(out);
            estimate.accuracy.encode(out);
            estimate.samples.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> CodecResult<Self> {
        let default_accuracy = Option::<f64>::decode(input)?;
        let mut registry = AccuracyRegistry::new();
        if let Some(default) = default_accuracy {
            registry = registry.with_default_accuracy(default);
        }
        for (worker, accuracy, samples) in Vec::<(WorkerId, f64, usize)>::decode(input)? {
            registry.set(worker, accuracy, samples);
        }
        Ok(registry)
    }
}

/// FNV-1a hash of a byte string; the journal uses it to fingerprint each committed batch
/// without keeping its full payload around.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: BinCodec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        let back = T::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(std::f64::consts::PI);
        round_trip(-0.0f64);
        round_trip(String::from("héllo wörld"));
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Option::<u32>::None);
        round_trip(Some(9u32));
        round_trip((7usize, 0.25f64));
        round_trip(3usize..9);
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for value in [
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff4_0000_dead_beef),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            1e-300,
            -1e300,
        ] {
            let bytes = value.to_bytes();
            assert_eq!(bytes, value.to_bits().to_le_bytes(), "{value:e}");
            let back = f64::from_bytes(&bytes).expect("decodes");
            assert_eq!(back.to_bits(), value.to_bits());
        }
    }

    /// Every unsigned integer is a varint: its length grows with its magnitude, one
    /// byte per seven bits, and `u32` and `usize` share `u64`'s encoding.
    #[test]
    fn integers_are_minimal_varints_at_every_boundary() {
        let cases: [(u64, usize); 8] = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (1 << 63, 10),
            (u64::MAX, 10),
        ];
        for (value, len) in cases {
            let bytes = value.to_bytes();
            assert_eq!(bytes.len(), len, "{value}");
            round_trip(value);
            let narrow = usize::try_from(value).expect("64-bit usize");
            assert_eq!(narrow.to_bytes(), bytes);
            round_trip(narrow);
            if let Ok(narrow) = u32::try_from(value) {
                assert_eq!(narrow.to_bytes(), bytes);
                round_trip(narrow);
            }
        }
        assert_eq!(300u64.to_bytes(), [0xac, 0x02]);
        assert_eq!(
            u64::MAX.to_bytes(),
            [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]
        );
    }

    proptest! {
        /// Random values of every length round-trip, each in `ceil(bits / 7)` bytes.
        #[test]
        fn random_integers_round_trip_in_minimal_varints(raw in 0u64..u64::MAX, shift in 0usize..64) {
            let value = raw >> shift;
            let bits = 64 - value.leading_zeros() as usize;
            let bytes = value.to_bytes();
            prop_assert_eq!(bytes.len(), bits.div_ceil(7).max(1));
            prop_assert_eq!(u64::from_bytes(&bytes), Ok(value));
            prop_assert_eq!(usize::from_bytes(&bytes), Ok(value as usize));
            let narrow = value as u32;
            prop_assert_eq!(u32::from_bytes(&narrow.to_bytes()), Ok(narrow));
        }
    }

    #[test]
    fn malformed_varints_are_errors_not_panics() {
        let eleven_bytes = [
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x01,
        ];
        let tenth_byte_above_one = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let malformed: [&[u8]; 7] = [
            &[],
            &[0x80],
            &[0xff, 0xff, 0xff],
            &eleven_bytes,
            &tenth_byte_above_one,
            &[0x80, 0x00],
            &[0xff, 0x80, 0x00],
        ];
        for bytes in malformed {
            assert!(u64::from_bytes(bytes).is_err(), "u64 {bytes:x?}");
            assert!(usize::from_bytes(bytes).is_err(), "usize {bytes:x?}");
            assert!(u32::from_bytes(bytes).is_err(), "u32 {bytes:x?}");
        }
        assert!(u32::from_bytes(&(u64::from(u32::MAX) + 1).to_bytes()).is_err());
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(WorkerId(17));
        round_trip(QuestionId(3));
        round_trip(HitId(u64::MAX));
        round_trip(Label::new("positive"));
        round_trip(AnswerDomain::from_strs(&["a", "b", "c"]));
        round_trip(Verdict::NoAnswer);
        round_trip(Verdict::Accepted {
            label: Label::new("b"),
            confidence: 0.97,
        });
        round_trip(CostModel::default());
        round_trip(TerminationStrategy::ExpMax);
        round_trip(TerminationStrategy::MinMax);
        round_trip(TerminationStrategy::MinExp);
    }

    #[test]
    fn registry_round_trips_with_default_and_entries() {
        let mut registry = AccuracyRegistry::new().with_default_accuracy(0.7);
        registry.set(WorkerId(1), 0.9, 4);
        registry.set(WorkerId(42), 0.55, 0);
        round_trip(registry);
        round_trip(AccuracyRegistry::new());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = 0xdead_beef_dead_beefu64.to_bytes();
        assert!(u64::from_bytes(&bytes[..7]).is_err());
        assert!(String::from_bytes(&[8, b'x']).is_err());
        assert!(Vec::<u64>::from_bytes(&u64::MAX.to_bytes()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected_by_from_bytes() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_tags_are_errors() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[3]).is_err());
        assert!(Verdict::from_bytes(&[9]).is_err());
        assert!(TerminationStrategy::from_bytes(&[3]).is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Reference values for the 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
