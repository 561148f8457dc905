//! No bytes can panic behind the CRC: `gen-N.blk` files damaged frame by
//! frame and then re-sealed, so that every frame still passes its checksum.
//!
//! The seed is the committed fixture (`tests/fixtures/mmap-parent`). Each of
//! its frames (`HEADER`, `BUCKET`, `DIR`, `FOOTER`) is cut short at every
//! length, has every byte flipped, has every 4- and 8-byte field rewritten
//! with counts and offsets that matter (0, 1, ±1, the file's length, the
//! type's maximum), and is dropped and doubled. The frames are then encoded
//! again with fresh CRCs and the trailer is re-pointed at the footer frame,
//! as the writer would, so the damage reaches the decoder behind the
//! checksum walk. The raw trailer is cut, flipped and re-pointed as it lies.
//!
//! Opening each result through a store document must give a store (sealed,
//! or flagged for rebuild) or an error, and every probe of an opened store
//! must answer; no mutation may panic. A wrong answer from a damaged file
//! is allowed: the CRC proves only that the writer sealed those bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rl_blockstore::{BlockPolicy, TableSet};
use rl_wire::{encode_frame_into, peek_frame, DEFAULT_MAX_FRAME};
use serde_json::Value;

const TAG_FOOTER: u8 = 0x54;
const TRAILER_LEN: usize = 16;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The fixture's frames as `(tag, payload)` and its raw trailer.
fn frames(file: &[u8]) -> (Vec<(u8, Vec<u8>)>, Vec<u8>) {
    let trailer_off = file.len() - TRAILER_LEN;
    let mut out = Vec::new();
    let mut off = 0;
    while off < trailer_off {
        let (tag, payload, consumed) = peek_frame(&file[off..trailer_off], DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        out.push((tag, payload.to_vec()));
        off += consumed;
    }
    (out, file[trailer_off..].to_vec())
}

/// The frames encoded with fresh CRCs, then `trailer` with its footer
/// offset pointed at the last footer frame (left as it is when there is
/// none).
fn seal(frames: &[(u8, Vec<u8>)], trailer: &[u8]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut footer_off = None;
    for (tag, payload) in frames {
        if *tag == TAG_FOOTER {
            footer_off = Some(file.len() as u64);
        }
        encode_frame_into(*tag, payload, &mut file);
    }
    let mut trailer = trailer.to_vec();
    if let Some(off) = footer_off {
        trailer[..8].copy_from_slice(&off.to_le_bytes());
    }
    file.extend_from_slice(&trailer);
    file
}

/// Counts and offsets worth writing over a field that held `orig`.
fn values(orig: u64, width: usize, file_len: usize) -> Vec<u64> {
    let max = if width == 4 {
        u64::from(u32::MAX)
    } else {
        u64::MAX
    };
    let len = file_len as u64;
    vec![
        0,
        1,
        orig.wrapping_add(1) & max,
        orig.wrapping_sub(1) & max,
        len,
        len - 8,
        len - TRAILER_LEN as u64,
        max / 2 + 1,
        max,
    ]
}

/// Every field of `bytes`, 4 or 8 bytes wide at any offset, rewritten with
/// each of `values`, one mutant at a time.
fn recounts(bytes: &[u8], file_len: usize) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for width in [4, 8] {
        for at in 0..bytes.len() {
            let Some(field) = bytes.get(at..at + width) else {
                break;
            };
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(field);
            for v in values(u64::from_le_bytes(word), width, file_len) {
                let mut mutant = bytes.to_vec();
                mutant[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                out.push((format!("{width}-byte field at {at} := {v:#x}"), mutant));
            }
        }
    }
    out
}

/// `frames` with frame `i`'s payload replaced.
fn replaced(frames: &[(u8, Vec<u8>)], i: usize, payload: Vec<u8>) -> Vec<(u8, Vec<u8>)> {
    let mut out = frames.to_vec();
    out[i].1 = payload;
    out
}

/// Every damaged file, named: each frame cut, flipped, re-counted,
/// dropped and doubled and then re-sealed, and the trailer damaged as it
/// lies.
fn mutants(file: &[u8]) -> Vec<(String, Vec<u8>)> {
    let (frames, trailer) = frames(file);
    let mut out = Vec::new();
    for (i, (tag, payload)) in frames.iter().enumerate() {
        let mut push = |what: String, damaged: Vec<(u8, Vec<u8>)>| {
            let name = format!("frame {i} (tag {tag:#04x}): {what}");
            out.push((name, seal(&damaged, &trailer)));
        };
        for len in 0..payload.len() {
            let cut = replaced(&frames, i, payload[..len].to_vec());
            push(format!("cut to {len} bytes"), cut);
        }
        for at in 0..payload.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut p = payload.clone();
                p[at] ^= mask;
                push(format!("byte {at} ^= {mask:#04x}"), replaced(&frames, i, p));
            }
        }
        for (what, p) in recounts(payload, file.len()) {
            push(what, replaced(&frames, i, p));
        }
        let mut dropped = frames.clone();
        dropped.remove(i);
        push("dropped".into(), dropped);
        let mut doubled = frames.clone();
        doubled.insert(i, frames[i].clone());
        push("doubled".into(), doubled);
    }

    let trailer_off = file.len() - TRAILER_LEN;
    for len in 0..file.len() {
        out.push((format!("file cut to {len} bytes"), file[..len].to_vec()));
    }
    for at in trailer_off..file.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut f = file.to_vec();
            f[at] ^= mask;
            out.push((format!("trailer byte {at} ^= {mask:#04x}"), f));
        }
    }
    let mut footer_offsets: Vec<u64> = (0..file.len() as u64).collect();
    footer_offsets.extend([u64::MAX, u64::MAX - 7, 1 << 63, u64::from(u32::MAX)]);
    for off in footer_offsets {
        let mut f = file.to_vec();
        f[trailer_off..trailer_off + 8].copy_from_slice(&off.to_le_bytes());
        out.push((format!("trailer footer offset := {off:#x}"), f));
    }
    out
}

/// The fixture's manifest, pointed at `dir`, in the `TableSet` envelope.
fn document(dir: &Path) -> Value {
    let text = std::fs::read_to_string(fixtures().join("mmap-parent.json")).unwrap();
    let mut manifest: Value = serde_json::value_from_str(&text).unwrap();
    let Value::Object(fields) = &mut manifest else {
        panic!("an mmap manifest is an object");
    };
    let field = fields.iter_mut().find(|(k, _)| k == "dir").unwrap();
    field.1 = Value::String(dir.to_string_lossy().into_owned());
    let policy =
        serde_json::value_from_str(&serde_json::to_string(&BlockPolicy::default()).unwrap())
            .unwrap();
    Value::Object(vec![
        ("policy".to_string(), policy),
        (
            "inner".to_string(),
            Value::Object(vec![("Mmap".to_string(), manifest)]),
        ),
    ])
}

/// How one damaged file opened.
#[derive(Debug, PartialEq)]
enum Opened {
    Sealed,
    Rebuild,
    Refused,
}

/// Opens the store over `dir` and probes all of it: every key it lists,
/// the fixture's keys and the extremes, then an insert and an eviction
/// (which copy a sealed bucket into the tables).
fn open_and_probe(doc: &Value) -> Opened {
    let Ok(mut store) = serde_json::from_value::<TableSet>(doc.clone()) else {
        return Opened::Refused;
    };
    let opened = if store.needs_rebuild() {
        Opened::Rebuild
    } else {
        Opened::Sealed
    };
    let mut keys = vec![
        0,
        3,
        9,
        (5 << 64) | 1,
        77 << 100,
        1 << 127,
        u128::MAX - 2,
        u128::MAX,
    ];
    store.for_each_entry(|_, key, _| keys.push(key));
    let mut out = Vec::new();
    for table in 0..store.num_tables() {
        for &key in &keys {
            out.clear();
            store.probe_into(table, key, &mut out);
            assert_eq!(store.bucket_len(table, key), out.len());
        }
    }
    store.insert(0, 3, 999);
    store.evict(0, 3, 0);
    store.evict(1, 9, 104);
    opened
}

#[test]
fn no_damaged_generation_file_panics_on_open_or_probe() {
    let file = std::fs::read(fixtures().join("mmap-parent/gen-1.blk")).unwrap();
    let (fs, trailer) = frames(&file);
    assert_eq!(
        seal(&fs, &trailer),
        file,
        "re-sealing the fixture changed it"
    );
    assert_eq!(
        fs.iter().map(|f| f.0).collect::<Vec<_>>(),
        [0x51, 0x52, 0x52, 0x52, 0x52, 0x53, 0x53, 0x54],
        "header, four buckets, two directories, footer"
    );

    let dir = std::env::temp_dir().join(format!("rl-bs-gen-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let doc = document(&dir);
    let path = dir.join("gen-1.blk");
    std::fs::write(&path, &file).unwrap();
    assert_eq!(open_and_probe(&doc), Opened::Sealed, "the fixture itself");

    let mutants = mutants(&file);
    let mut tally = [0usize; 3];
    for (what, bytes) in &mutants {
        std::fs::write(&path, bytes).unwrap();
        match catch_unwind(AssertUnwindSafe(|| open_and_probe(&doc))) {
            Ok(opened) => tally[opened as usize] += 1,
            Err(_) => panic!("{what}: open or probe panicked"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The damage reached past the checksum walk: some files opened (with
    // different ids in their buckets, say) and some were refused after it.
    let [sealed, rebuild, _] = tally;
    assert!(mutants.len() > 5_000, "{} mutants", mutants.len());
    assert!(sealed > 100, "only {sealed} damaged files opened sealed");
    assert!(rebuild > 100, "only {rebuild} damaged files were refused");
}
