//! Hostile WAL payloads never panic the frame decoder.
//!
//! `WireUpdate::decode` returns an update or an error for any bytes:
//! random bytes, random bytes behind a plausible header (so the reader
//! gets past the first counts), and valid encodings with bits flipped and
//! bytes cut off the end. An update that still decodes must survive its
//! own re-encoding.

use proptest::prelude::*;
use store::{WireFact, WireUpdate, WireVal};

fn arb_val() -> impl Strategy<Value = WireVal> {
    (
        0u8..5,
        any::<u64>(),
        prop::collection::vec(any::<char>(), 0..4),
    )
        .prop_map(|(tag, n, s)| match tag {
            0 => WireVal::Sym(s.into_iter().collect()),
            1 => WireVal::Int(n as i64),
            2 => WireVal::Float(f64::from_bits(n)),
            3 => WireVal::Bool(n & 1 == 0),
            _ => WireVal::Null(n),
        })
}

fn arb_fact() -> impl Strategy<Value = WireFact> {
    (
        prop::collection::vec(any::<char>(), 0..6),
        prop::collection::vec(arb_val(), 0..4),
    )
        .prop_map(|(pred, vals)| WireFact {
            pred: pred.into_iter().collect(),
            vals,
        })
}

fn arb_update() -> impl Strategy<Value = WireUpdate> {
    (
        any::<u64>(),
        prop::collection::vec(arb_fact(), 0..4),
        prop::collection::vec(arb_fact(), 0..4),
    )
        .prop_map(|(seq, delete, insert)| WireUpdate {
            seq,
            delete,
            insert,
        })
}

/// Decodes `bytes`; a decoded update must re-encode to bytes that decode
/// to the same encoding.
fn decode_survives(bytes: &[u8]) {
    if let Ok(update) = WireUpdate::decode(bytes) {
        let once = update.encode();
        let twice = WireUpdate::decode(&once).expect("a decoded update re-encodes");
        assert_eq!(twice.encode(), once);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        decode_survives(&bytes);
    }

    #[test]
    fn random_bytes_behind_a_header_never_panic(
        seq in any::<u64>(),
        counts in prop::collection::vec(0u32..4, 1..4),
        tail in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        // A sequence number, then small counts interleaved with garbage:
        // the reader reaches names, value tags and the second fact list.
        let mut bytes = seq.to_le_bytes().to_vec();
        for (i, c) in counts.iter().enumerate() {
            bytes.extend_from_slice(&c.to_le_bytes());
            bytes.extend_from_slice(&tail[..tail.len() * (i + 1) / counts.len() / 4]);
        }
        bytes.extend_from_slice(&tail);
        decode_survives(&bytes);
    }

    #[test]
    fn damaged_frames_never_panic(
        update in arb_update(),
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 0..4),
        cut in any::<u64>(),
    ) {
        let mut bytes = update.encode();
        for (pos, bit) in flips {
            let at = (pos % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
        }
        // Half the cases keep every byte; the others lose up to all.
        let keep = if cut.is_multiple_of(2) {
            bytes.len()
        } else {
            (cut / 2 % (bytes.len() as u64 + 1)) as usize
        };
        decode_survives(&bytes[..keep]);
    }
}
