//! Property tests for the frame codec: encode→decode roundtrips for
//! arbitrary tag/payload, and a truncated or bit-flipped frame is always
//! *rejected* — by CRC, magic, version, or length check — never silently
//! misparsed into a different frame. The CRC-32 itself is held to a
//! bit-at-a-time reference, whole and fed in pieces.

use proptest::prelude::*;
use rl_wire::{crc32, peek_frame, Crc32, Frame, FrameReader, WireError, DEFAULT_MAX_FRAME};
use std::io::Cursor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_decode_roundtrips(
        tag in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let frame = Frame::new(tag, payload);
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.encoded_len());

        // Whole-buffer decode.
        let decoded = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &frame);

        // Streaming decode.
        let mut reader = FrameReader::new(Cursor::new(bytes.clone()));
        let (got_tag, got_payload) = reader.read_frame().unwrap().unwrap();
        prop_assert_eq!(got_tag, frame.tag);
        prop_assert_eq!(got_payload, &frame.payload[..]);
        prop_assert!(reader.read_frame().unwrap().is_none());

        // Peek decode out of a longer buffer.
        let mut buf = bytes.clone();
        buf.extend_from_slice(b"trailing");
        let (t, p, consumed) = peek_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        prop_assert_eq!(t, frame.tag);
        prop_assert_eq!(p, &frame.payload[..]);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn truncation_is_never_misparsed(
        payload in proptest::collection::vec(0u8..=255, 1..256),
        cut_seed in 0u64..u64::MAX,
    ) {
        let bytes = Frame::new(9, payload).encode();
        // Strictly shorter than the full frame.
        let cut = 1 + (cut_seed % (bytes.len() as u64 - 1)) as usize;
        let head = &bytes[..cut];

        // peek: either "need more bytes" — correct for a prefix — or a
        // hard header error; never a successful parse.
        match peek_frame(head, DEFAULT_MAX_FRAME) {
            Ok(None) => {}
            Ok(Some(_)) => prop_assert!(false, "parsed a truncated frame at cut {}", cut),
            Err(_) => prop_assert!(false, "a true prefix must be 'incomplete', not an error"),
        }

        // A stream that *ends* there reports Truncated.
        let mut reader = FrameReader::new(Cursor::new(head.to_vec()));
        prop_assert!(matches!(reader.read_frame(), Err(WireError::Truncated)));
    }

    #[test]
    fn bit_flips_are_rejected(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        pos_seed in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let frame = Frame::new(4, payload);
        let mut bytes = frame.encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        if bytes == frame.encode() {
            return; // the xor was a no-op (can't happen, but be safe)
        }
        match peek_frame(&bytes, DEFAULT_MAX_FRAME) {
            // Header damage: magic/version/length/CRC field no longer
            // match, surfacing as a typed error or as "need more bytes"
            // (a length flipped *upward* makes the frame look unfinished
            // — still not a misparse).
            Err(_) | Ok(None) => {}
            // The CRC covers version, tag, length, and payload; the magic
            // has its own check — so no single-bit flip anywhere in the
            // frame can yield a successful parse.
            Ok(Some(_)) => prop_assert!(false, "1-bit flip at {} passed CRC", pos),
        }
    }
}

/// Bit-at-a-time CRC-32 (IEEE, reflected polynomial `0xEDB88320`): no
/// table, one byte after another. The oracle the crate's kernel is held to.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `len` pseudo-random bytes from `seed` (xorshift64).
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn crc32_matches_the_reference_at_every_short_length_and_offset() {
    let buf = noise(0x5EED, 256 + 8);
    for start in 0..8 {
        for len in 0..=256 {
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                reference_crc32(bytes),
                "length {len} at offset {start}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc32_matches_the_reference_whole_and_in_pieces(
        len in 0usize..=64 * 1024,
        seed in 0u64..u64::MAX,
        pieces in 1usize..=3,
        cut_a in 0u64..u64::MAX,
        cut_b in 0u64..u64::MAX,
    ) {
        let bytes = noise(seed, len);
        let whole = crc32(&bytes);
        prop_assert_eq!(whole, reference_crc32(&bytes));

        // Up to two cut points anywhere in the buffer (empty pieces too).
        let mut cuts = [0, len, len];
        if pieces > 1 {
            cuts[1] = (cut_a % (len as u64 + 1)) as usize;
        }
        if pieces > 2 {
            cuts[2] = (cut_b % (len as u64 + 1)) as usize;
        }
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        crc.update(&bytes[..cuts[1]]);
        crc.update(&bytes[cuts[1]..cuts[2]]);
        crc.update(&bytes[cuts[2]..]);
        prop_assert_eq!(crc.finish(), whole, "pieces cut at {:?}", cuts);
    }
}
