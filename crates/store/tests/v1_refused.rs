//! The retired `RLWAL1` (CRC'd-JSON) segment format is refused, not
//! replayed and not quarantined: a data directory still holding one
//! carries acknowledged writes this build cannot read, so `Store::open`
//! must fail with a typed `NotAWal` naming the format and leave the file
//! exactly as it found it.

use rl_store::{segment_path, Store, StoreError, StoreOptions};

#[test]
fn v1_segment_in_a_data_dir_fails_open_and_is_left_untouched() {
    let dir = std::env::temp_dir().join(format!("rl-store-v1-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Byte-identical to what the pre-v2 WAL wrote: magic, then
    // `len u32 LE | crc u32 LE | JSON op`.
    let payload = br#"{"Delete":7}"#;
    let mut bytes = b"RLWAL1\0\0".to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&rl_store::crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    let seg = segment_path(&dir, 1);
    std::fs::write(&seg, &bytes).unwrap();

    let err = Store::open(&dir, StoreOptions::default()).unwrap_err();
    assert!(matches!(err, StoreError::NotAWal { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("RLWAL1") && msg.contains("v1"), "{msg}");
    assert!(msg.contains("wal-000001.log"), "names the file: {msg}");

    assert_eq!(std::fs::read(&seg).unwrap(), bytes, "file untouched");
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names.len(), 1, "nothing created or quarantined: {names:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
