//! The sealed generation of an mmap [`TableSet`]: an immutable,
//! memory-mapped *generation file* beside the set's tables.
//!
//! # Generation file layout (`gen-<N>.blk`)
//!
//! Every region is an `rl-wire` frame (magic + version + tag + length +
//! CRC32), so a torn write or flipped bit anywhere fails the open-time
//! verification walk instead of corrupting candidate sets:
//!
//! ```text
//! [HEADER frame]   "RLBS" | format u16 | num_tables u32 | generation u64
//! [BUCKET frame]*  table u32 | key u128 | count u32 | count × id u64
//! [DIR frame]×L    table u32 | count u32 | count × {key u128, ids_off u64, count u32}
//! [FOOTER frame]   "RLBS" | num_tables u32 | L × {dir_entries_off u64, count u32}
//! [trailer, raw]   footer_off u64 | "RLBSEND!"
//! ```
//!
//! Bucket frames are sorted by key within each table; a bucket larger
//! than the policy's `max_block_size` is *chained* across several
//! adjacent frames (overflow blocks) sharing the key, so the cap bounds
//! segment size without losing ids. Each table's directory is a sorted,
//! fixed-width entry array probed by binary search directly on the
//! mapped bytes — a probe touches only the directory pages and the
//! postings it returns.
//!
//! Opening a generation file walks **every** frame and checks **every**
//! CRC (one sequential pass over the file — a deliberate trade: open is
//! O(file), after which probes can trust the bytes unconditionally).
//! A file that fails the walk is reported as [`StoreError::Corrupt`];
//! a store deserialized against a torn file degrades to
//! `needs_rebuild` instead of panicking, and the owner re-indexes from
//! its record store.
//!
//! Mutations never touch the file: inserts land in the set's tables, and
//! the first eviction from a sealed bucket copies the bucket's other ids
//! into the tables as an *override* that hides the sealed copy.
//! [`TableSet::compact`] merges the sealed buckets and the tables into
//! generation `N+1` (write to a temp file, fsync, rename), then prunes every
//! generation file in its directory but `N+1` and `N`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rl_wire::{encode_frame_into, peek_frame, WireError, DEFAULT_MAX_FRAME, HEADER_LEN};

use crate::hash::{hash_heap_bytes, WordSet};
use crate::table::value_of;
use crate::{StoreError, TableSet};

/// Frame tags (namespaced away from the network protocol's tag space —
/// these only ever appear inside generation files).
const TAG_HEADER: u8 = 0x51;
const TAG_BUCKET: u8 = 0x52;
const TAG_DIR: u8 = 0x53;
const TAG_FOOTER: u8 = 0x54;

/// File magic inside the header and footer frames.
const FILE_MAGIC: &[u8; 4] = b"RLBS";
/// On-disk format revision of the generation file.
const FORMAT_VERSION: u16 = 1;
/// Raw 16-byte trailer: `footer_off u64 | END_MAGIC`.
const END_MAGIC: &[u8; 8] = b"RLBSEND!";
const TRAILER_LEN: usize = 16;
/// Fixed width of one directory entry: key u128 + ids_off u64 + count u32.
const DIR_ENTRY_LEN: usize = 28;
/// Hard physical chunk bound (ids per bucket frame) applied even when
/// the policy cap is off, keeping every frame far below the wire layer's
/// maximum frame size.
const MAX_CHUNK_IDS: usize = 1 << 22;

fn gen_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("gen-{generation}.blk"))
}

fn io_err(ctx: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{ctx}: {e}"))
}

fn wire_err(ctx: &str, e: WireError) -> StoreError {
    StoreError::Corrupt(format!("{ctx}: {e}"))
}

// ---------------------------------------------------------------------------
// Read-only file mapping
// ---------------------------------------------------------------------------

/// A read-only view of a generation file: `mmap(2)` on unix, a plain
/// heap read everywhere else (and as a fallback when the map fails).
enum Mapping {
    Heap(Vec<u8>),
    #[cfg(unix)]
    Mapped {
        ptr: *mut u8,
        len: usize,
    },
}

// The mapping is read-only for its whole lifetime (PROT_READ, private),
// so sharing references across threads is safe.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

impl Mapping {
    fn open(path: &Path) -> Result<Self, StoreError> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = fs::File::open(path).map_err(|e| io_err("open generation file", e))?;
            let len = file
                .metadata()
                .map_err(|e| io_err("stat generation file", e))?
                .len() as usize;
            if len > 0 {
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 && !ptr.is_null() {
                    return Ok(Mapping::Mapped {
                        ptr: ptr.cast(),
                        len,
                    });
                }
                // Map failed (e.g. exotic filesystem): fall through to a
                // heap read so the store still opens.
            }
        }
        let mut buf = Vec::new();
        fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| io_err("read generation file", e))?;
        Ok(Mapping::Heap(buf))
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Mapping::Heap(v) => v,
            #[cfg(unix)]
            Mapping::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
        }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        if let Mapping::Mapped { ptr, len } = self {
            unsafe {
                sys::munmap(ptr.cast(), *len);
            }
        }
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mapping::Heap(v) => write!(f, "Mapping::Heap({} bytes)", v.len()),
            #[cfg(unix)]
            Mapping::Mapped { len, .. } => write!(f, "Mapping::Mmap({len} bytes)"),
        }
    }
}

// ---------------------------------------------------------------------------
// Immutable base layer
// ---------------------------------------------------------------------------

/// One opened, fully CRC-verified generation file. Immutable; shared
/// between shard clones via `Arc`.
struct Base {
    map: Mapping,
    /// Per table: `(byte offset of the first dir entry, entry count)`.
    dirs: Vec<(usize, usize)>,
    bytes_len: u64,
}

impl fmt::Debug for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Base {{ tables: {}, bytes: {} }}",
            self.dirs.len(),
            self.bytes_len
        )
    }
}

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

fn read_u128(b: &[u8], off: usize) -> u128 {
    u128::from_le_bytes(b[off..off + 16].try_into().unwrap())
}

impl Base {
    /// Opens and verifies a generation file end to end: trailer magic,
    /// a sequential CRC walk over every frame, and footer/directory
    /// bounds checks.
    fn open(path: &Path, num_tables: usize, generation: u64) -> Result<Self, StoreError> {
        let map = Mapping::open(path)?;
        let data = map.as_slice();
        if data.len() < TRAILER_LEN {
            return Err(StoreError::Corrupt(format!(
                "generation file too short ({} bytes)",
                data.len()
            )));
        }
        let trailer_off = data.len() - TRAILER_LEN;
        if &data[trailer_off + 8..] != END_MAGIC {
            return Err(StoreError::Corrupt("missing end-of-file magic".into()));
        }
        let footer_off = read_u64(data, trailer_off) as usize;
        if footer_off >= trailer_off {
            return Err(StoreError::Corrupt("footer offset out of range".into()));
        }

        // Full verification walk: every frame in the file must parse and
        // pass its CRC, and the walk must land exactly on the recorded
        // footer and then the trailer.
        let mut off = 0usize;
        let mut footer_payload: Option<(usize, usize)> = None; // (payload off, len)
        let mut first = true;
        while off < trailer_off {
            let (tag, payload, consumed) =
                match peek_frame(&data[off..trailer_off], DEFAULT_MAX_FRAME) {
                    Ok(Some(p)) => p,
                    Ok(None) => {
                        return Err(StoreError::Corrupt(format!(
                            "truncated frame at offset {off}"
                        )))
                    }
                    Err(e) => return Err(wire_err(&format!("frame at offset {off}"), e)),
                };
            if first {
                if tag != TAG_HEADER {
                    return Err(StoreError::Corrupt("first frame is not a header".into()));
                }
                Self::check_header(payload, num_tables, generation)?;
                first = false;
            }
            if tag == TAG_FOOTER {
                if off != footer_off {
                    return Err(StoreError::Corrupt(
                        "footer frame does not match trailer offset".into(),
                    ));
                }
                footer_payload = Some((off + HEADER_LEN, payload.len()));
            }
            off += consumed;
        }
        if off != trailer_off {
            return Err(StoreError::Corrupt(
                "trailing bytes after last frame".into(),
            ));
        }
        let (fp_off, fp_len) =
            footer_payload.ok_or_else(|| StoreError::Corrupt("footer frame missing".into()))?;

        // Footer: magic + num_tables + L × (dir_entries_off u64, count u32).
        let fp = &data[fp_off..fp_off + fp_len];
        if fp_len < 8 || &fp[0..4] != FILE_MAGIC {
            return Err(StoreError::Corrupt("bad footer magic".into()));
        }
        let nt = read_u32(fp, 4) as usize;
        if nt != num_tables || fp_len != 8 + nt * 12 {
            return Err(StoreError::Corrupt("footer table count mismatch".into()));
        }
        let mut dirs = Vec::with_capacity(nt);
        for t in 0..nt {
            let e = 8 + t * 12;
            let dir_off = read_u64(fp, e) as usize;
            let count = read_u32(fp, e + 8) as usize;
            let end = dir_off
                .checked_add(count * DIR_ENTRY_LEN)
                .ok_or_else(|| StoreError::Corrupt("directory extent overflow".into()))?;
            if end > trailer_off {
                return Err(StoreError::Corrupt("directory out of bounds".into()));
            }
            dirs.push((dir_off, count));
        }
        let bytes_len = data.len() as u64;
        Ok(Base {
            map,
            dirs,
            bytes_len,
        })
    }

    fn check_header(payload: &[u8], num_tables: usize, generation: u64) -> Result<(), StoreError> {
        if payload.len() != 4 + 2 + 4 + 8 || &payload[0..4] != FILE_MAGIC {
            return Err(StoreError::Corrupt("bad header frame".into()));
        }
        let ver = u16::from_le_bytes(payload[4..6].try_into().unwrap());
        if ver != FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported blockstore format v{ver}"
            )));
        }
        let nt = read_u32(payload, 6) as usize;
        let gen = read_u64(payload, 10);
        if nt != num_tables {
            return Err(StoreError::Corrupt(format!(
                "header table count {nt} != expected {num_tables}"
            )));
        }
        if gen != generation {
            return Err(StoreError::Corrupt(format!(
                "header generation {gen} != expected {generation}"
            )));
        }
        Ok(())
    }

    fn entry(&self, table: usize, i: usize) -> (u128, usize, usize) {
        let data = self.map.as_slice();
        let off = self.dirs[table].0 + i * DIR_ENTRY_LEN;
        (
            read_u128(data, off),
            read_u64(data, off + 16) as usize,
            read_u32(data, off + 24) as usize,
        )
    }

    /// Index of the first directory entry with key ≥ `key`.
    fn lower_bound(&self, table: usize, key: u128) -> usize {
        let (_, count) = self.dirs[table];
        let (mut lo, mut hi) = (0usize, count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entry(table, mid).0 < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Folds the raw ids of `key`'s bucket (all overflow chunks) into `f`.
    fn with_bucket_ids(&self, table: usize, key: u128, f: &mut dyn FnMut(u64)) {
        let data = self.map.as_slice();
        let (_, count) = self.dirs[table];
        let mut i = self.lower_bound(table, key);
        while i < count {
            let (k, ids_off, n) = self.entry(table, i);
            if k != key {
                break;
            }
            for j in 0..n {
                f(read_u64(data, ids_off + j * 8));
            }
            i += 1;
        }
    }

    /// Folds every `(key, raw ids)` group of a table into `f`, overflow
    /// chunks merged, keys in sorted order. The id slice is a reused
    /// scratch buffer — valid only for the duration of the call.
    fn for_each_key(&self, table: usize, f: &mut dyn FnMut(u128, &[u64])) {
        let data = self.map.as_slice();
        let (_, count) = self.dirs[table];
        let mut ids = Vec::new();
        let mut i = 0usize;
        while i < count {
            let key = self.entry(table, i).0;
            ids.clear();
            while i < count {
                let (k, ids_off, n) = self.entry(table, i);
                if k != key {
                    break;
                }
                for j in 0..n {
                    ids.push(read_u64(data, ids_off + j * 8));
                }
                i += 1;
            }
            f(key, &ids);
        }
    }

    fn has_key(&self, table: usize, key: u128) -> bool {
        let (_, count) = self.dirs[table];
        let i = self.lower_bound(table, key);
        i < count && self.entry(table, i).0 == key
    }
}

// ---------------------------------------------------------------------------
// Generation file writer
// ---------------------------------------------------------------------------

struct GenWriter {
    file: std::io::BufWriter<fs::File>,
    offset: u64,
    scratch: Vec<u8>,
}

impl GenWriter {
    fn create(path: &Path) -> Result<Self, StoreError> {
        let file = fs::File::create(path).map_err(|e| io_err("create generation temp", e))?;
        Ok(Self {
            file: std::io::BufWriter::new(file),
            offset: 0,
            scratch: Vec::new(),
        })
    }

    /// Writes one frame; returns the file offset of its payload.
    fn write_frame(&mut self, tag: u8, payload: &[u8]) -> Result<u64, StoreError> {
        self.scratch.clear();
        encode_frame_into(tag, payload, &mut self.scratch);
        self.file
            .write_all(&self.scratch)
            .map_err(|e| io_err("write frame", e))?;
        let payload_off = self.offset + HEADER_LEN as u64;
        self.offset += self.scratch.len() as u64;
        Ok(payload_off)
    }

    fn finish(mut self, footer_off: u64) -> Result<(), StoreError> {
        let mut trailer = [0u8; TRAILER_LEN];
        trailer[0..8].copy_from_slice(&footer_off.to_le_bytes());
        trailer[8..].copy_from_slice(END_MAGIC);
        self.file
            .write_all(&trailer)
            .map_err(|e| io_err("write trailer", e))?;
        let file = self
            .file
            .into_inner()
            .map_err(|e| StoreError::Io(format!("flush generation temp: {e}")))?;
        file.sync_all().map_err(|e| io_err("fsync generation", e))?;
        Ok(())
    }
}

/// Writes `tables` (already merged, live-only, key-sorted) as generation
/// `generation` at `path`, chunking buckets at `chunk` ids.
fn write_generation(
    path: &Path,
    tables: &[BTreeMap<u128, Vec<u64>>],
    generation: u64,
    chunk: usize,
) -> Result<(), StoreError> {
    let chunk = if chunk == 0 {
        MAX_CHUNK_IDS
    } else {
        chunk.min(MAX_CHUNK_IDS)
    };
    let mut w = GenWriter::create(path)?;

    let mut header = Vec::with_capacity(18);
    header.extend_from_slice(FILE_MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    header.extend_from_slice(&generation.to_le_bytes());
    w.write_frame(TAG_HEADER, &header)?;

    // Bucket frames, tracking `(key, ids_off, count)` per chunk.
    let mut dir_entries: Vec<Vec<(u128, u64, u32)>> = Vec::with_capacity(tables.len());
    let mut payload = Vec::new();
    for (t, table) in tables.iter().enumerate() {
        let mut entries = Vec::new();
        for (&key, ids) in table {
            debug_assert!(!ids.is_empty());
            for ids_chunk in ids.chunks(chunk) {
                payload.clear();
                payload.extend_from_slice(&(t as u32).to_le_bytes());
                payload.extend_from_slice(&key.to_le_bytes());
                payload.extend_from_slice(&(ids_chunk.len() as u32).to_le_bytes());
                for id in ids_chunk {
                    payload.extend_from_slice(&id.to_le_bytes());
                }
                let payload_off = w.write_frame(TAG_BUCKET, &payload)?;
                let ids_off = payload_off + 4 + 16 + 4;
                entries.push((key, ids_off, ids_chunk.len() as u32));
            }
        }
        dir_entries.push(entries);
    }

    // Directory frames (one per table), then the footer pointing at them.
    let mut footer = Vec::with_capacity(8 + tables.len() * 12);
    footer.extend_from_slice(FILE_MAGIC);
    footer.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (t, entries) in dir_entries.iter().enumerate() {
        payload.clear();
        payload.extend_from_slice(&(t as u32).to_le_bytes());
        payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (key, ids_off, n) in entries {
            payload.extend_from_slice(&key.to_le_bytes());
            payload.extend_from_slice(&ids_off.to_le_bytes());
            payload.extend_from_slice(&n.to_le_bytes());
        }
        let payload_off = w.write_frame(TAG_DIR, &payload)?;
        footer.extend_from_slice(&(payload_off + 8).to_le_bytes());
        footer.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    }
    let footer_frame_off = w.offset;
    w.write_frame(TAG_FOOTER, &footer)?;
    w.finish(footer_frame_off)
}

// ---------------------------------------------------------------------------
// The sealed layer
// ---------------------------------------------------------------------------

/// The sealed generation of an mmap [`TableSet`]: the generation file it
/// last wrote, mapped, and the keys whose sealed buckets its tables now hold
/// instead.
#[derive(Debug, Clone)]
pub(crate) struct Sealed {
    pub(crate) dir: PathBuf,
    /// The generation last sealed (0 = none since the set was built or
    /// cleared, no file).
    pub(crate) generation: u64,
    base: Option<Arc<Base>>,
    /// Per table, the keys whose sealed bucket an eviction moved into the
    /// tables: probes must skip the sealed copy of these.
    overridden: Vec<WordSet<u128>>,
    /// Set when a document's generation file was torn or missing: the set
    /// must be cleared and re-inserted.
    pub(crate) needs_rebuild: bool,
}

impl Sealed {
    /// Nothing sealed yet, for `l` tables rooted at `dir` (created lazily
    /// on the first seal).
    pub(crate) fn new(dir: PathBuf, l: usize) -> Self {
        Self {
            dir,
            generation: 0,
            base: None,
            overridden: (0..l).map(|_| WordSet::default()).collect(),
            needs_rebuild: false,
        }
    }

    /// The layer a manifest names: its generation file mapped and verified,
    /// its overrides restored. A torn or missing file leaves nothing sealed,
    /// with `needs_rebuild` set.
    pub(crate) fn open(
        dir: PathBuf,
        l: usize,
        generation: u64,
        overridden: Vec<Vec<u128>>,
    ) -> Self {
        let mut sealed = Self::new(dir, l);
        if generation > 0 {
            match Base::open(&gen_path(&sealed.dir, generation), l, generation) {
                Ok(base) => {
                    sealed.base = Some(Arc::new(base));
                    sealed.generation = generation;
                }
                Err(_) => {
                    sealed.needs_rebuild = true;
                    return sealed;
                }
            }
        }
        sealed.overridden = overridden
            .into_iter()
            .map(|keys| keys.into_iter().collect())
            .collect();
        sealed
    }

    /// The generation file, unless the tables overrode `key`'s bucket.
    fn base_for(&self, table: usize, key: u128) -> Option<&Base> {
        let base = self.base.as_deref()?;
        (!self.overridden[table].contains(&key)).then_some(base)
    }

    /// True when `key`'s bucket has a sealed copy that probes read.
    pub(crate) fn holds(&self, table: usize, key: u128) -> bool {
        self.base_for(table, key)
            .is_some_and(|b| b.has_key(table, key))
    }

    /// Folds the sealed ids of `key`'s bucket into `f`.
    pub(crate) fn with_ids(&self, table: usize, key: u128, f: &mut dyn FnMut(u64)) {
        if let Some(base) = self.base_for(table, key) {
            base.with_bucket_ids(table, key, f);
        }
    }

    /// Folds every sealed `(key, ids)` of `table` that probes read into `f`.
    pub(crate) fn for_each_bucket(&self, table: usize, f: &mut dyn FnMut(u128, &[u64])) {
        if let Some(base) = &self.base {
            base.for_each_key(table, &mut |key, ids| {
                if !self.overridden[table].contains(&key) {
                    f(key, ids);
                }
            });
        }
    }

    /// Each table's override keys, sorted (the manifest's `overridden`).
    pub(crate) fn overridden_keys(&self) -> Vec<Vec<u128>> {
        let mut keys: Vec<Vec<u128>> = self
            .overridden
            .iter()
            .map(|set| set.iter().copied().collect())
            .collect();
        keys.iter_mut().for_each(|k| k.sort_unstable());
        keys
    }

    /// Writes `buckets` — every bucket of the set, key-sorted per table —
    /// as the next generation (temp file, fsync, rename) with buckets
    /// chained at `chunk` ids, and maps it in place of the last one. Then
    /// prunes every other generation file in the directory but the one
    /// before (so a crash mid-prune still leaves a valid file behind).
    /// Listing the directory finds those a cleared set sealed before it
    /// started again from 1.
    pub(crate) fn seal(
        &mut self,
        buckets: Vec<BTreeMap<u128, Vec<u64>>>,
        chunk: usize,
    ) -> Result<(), StoreError> {
        fs::create_dir_all(&self.dir).map_err(|e| io_err("create block dir", e))?;
        let next = self.generation + 1;
        let tmp = self.dir.join(format!("gen-{next}.tmp"));
        write_generation(&tmp, &buckets, next, chunk)?;
        let l = buckets.len();
        drop(buckets);
        let final_path = gen_path(&self.dir, next);
        fs::rename(&tmp, &final_path).map_err(|e| io_err("publish generation", e))?;
        // Best-effort directory fsync so the rename survives power loss.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }

        let base = Base::open(&final_path, l, next)?;
        self.base = Some(Arc::new(base));
        self.generation = next;
        self.overridden.iter_mut().for_each(WordSet::clear);
        self.needs_rebuild = false;

        let Ok(files) = fs::read_dir(&self.dir) else {
            return Ok(());
        };
        for file in files.flatten() {
            let name = file.file_name();
            let generation = name.to_str().and_then(|n| {
                n.strip_prefix("gen-")?
                    .strip_suffix(".blk")?
                    .parse::<u64>()
                    .ok()
            });
            if generation.is_some_and(|g| g != next && g + 1 != next) {
                let _ = fs::remove_file(file.path());
            }
        }
        Ok(())
    }

    /// Forgets the sealed generation (its files stay until the next seal
    /// prunes them) and any rebuild request.
    pub(crate) fn clear(&mut self) {
        self.base = None;
        self.generation = 0;
        self.overridden.iter_mut().for_each(WordSet::clear);
        self.needs_rebuild = false;
    }

    /// Bytes of the current generation file.
    pub(crate) fn on_disk_bytes(&self) -> u64 {
        self.base.as_ref().map_or(0, |b| b.bytes_len)
    }

    /// Heap bytes of the override keys, from capacities.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let keys: usize = self
            .overridden
            .iter()
            .map(|keys| hash_heap_bytes(keys.capacity(), 16))
            .sum();
        (std::mem::size_of_val(&self.overridden[..]) + keys) as u64
    }
}

impl TableSet {
    /// Rewrites `key`'s sealed bucket into the tables with only the ids
    /// `keep` accepts, overriding the sealed copy. An id of 2³² or more
    /// (only a generation file from before `u32` tables holds one) is
    /// dropped and counted. Left undone — the ids stay, an evicted record a
    /// stale candidate — when the table's arena cannot take the bucket.
    pub(crate) fn override_bucket(&mut self, table: usize, key: u128, keep: impl Fn(u64) -> bool) {
        let mut ids = Vec::new();
        self.probe_into(table, key, &mut ids);
        ids.retain(|&id| keep(id));
        let values: Vec<u32> = ids.iter().filter_map(|&id| value_of(id)).collect();
        if !self.tables[table].replace(key, &values) {
            return;
        }
        self.dropped += (ids.len() - values.len()) as u64;
        if let Some(sealed) = &mut self.sealed {
            sealed.overridden[table].insert(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockPolicy, CapMode};

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rl-blockstore-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn compact_then_probe_from_disk() {
        let dir = tmp_dir("probe");
        let mut s = TableSet::mmap(dir.clone(), 2);
        for id in 0..100u64 {
            s.insert(0, id as u128 % 7, id);
            s.insert(1, 3, id);
        }
        s.compact().unwrap();
        assert_eq!(s.generation(), 1);
        assert!(gen_path(&dir, 1).exists());
        // Everything now streams from the mapped base.
        let mut out = Vec::new();
        s.probe_into(1, 3, &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], 0);
        assert_eq!(out[99], 99);
        out.clear();
        s.probe_into(0, 2, &mut out);
        assert_eq!(
            out,
            vec![2, 9, 16, 23, 30, 37, 44, 51, 58, 65, 72, 79, 86, 93]
        );
        // Delta on top of base keeps order: base first, then new ids.
        s.insert(0, 2, 1000);
        out.clear();
        s.probe_into(0, 2, &mut out);
        assert_eq!(*out.last().unwrap(), 1000);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_overrides_a_sealed_bucket_and_leaves_the_id_elsewhere() {
        let dir = tmp_dir("evict");
        let mut s = TableSet::mmap(dir.clone(), 2);
        for id in 0..64u64 {
            s.insert(0, 5, id);
            s.insert(1, 6, id);
        }
        s.compact().unwrap();
        s.insert(0, 5, 64);
        // Two of 65 ids leave table 0's bucket: the first overrides the
        // sealed copy, the second leaves the override.
        s.evict(0, 5, 7);
        s.evict(0, 5, 64);
        let probe = |s: &TableSet, table, key| {
            let mut out = Vec::new();
            s.probe_into(table, key, &mut out);
            out
        };
        let rest: Vec<u64> = (0..64).filter(|&id| id != 7).collect();
        assert_eq!(probe(&s, 0, 5), rest);
        assert_eq!(probe(&s, 1, 6), (0..64).collect::<Vec<u64>>());
        assert_eq!(s.stats().entries, 63 + 64);
        // The id re-enters elsewhere in the same table and is found there.
        s.insert(0, 9, 7);
        assert_eq!(probe(&s, 0, 9), vec![7]);
        // The override survives the document and the next generation.
        let back: TableSet = serde::from_value(serde::to_value(&s).unwrap()).unwrap();
        assert_eq!(probe(&back, 0, 5), rest);
        s.compact().unwrap();
        assert_eq!(probe(&s, 0, 5), rest);
        assert_eq!(probe(&s, 0, 9), vec![7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chained_overflow_blocks_keep_every_id() {
        let dir = tmp_dir("chain");
        let p = BlockPolicy {
            max_block_size: 8,
            cap_mode: CapMode::Chain,
            ..BlockPolicy::default()
        };
        let mut s = TableSet::mmap(dir.clone(), 1);
        s.set_policy(p);
        for id in 0..50u64 {
            assert!(s.insert(0, 9, id));
        }
        s.compact().unwrap();
        let mut out = Vec::new();
        s.probe_into(0, 9, &mut out);
        assert_eq!(out, (0..50).collect::<Vec<u64>>());
        // The file holds ceil(50/8) = 7 chunks for the one key.
        let base = s.sealed.as_ref().unwrap().base.as_ref().unwrap();
        assert_eq!(base.dirs[0].1, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_file_degrades_to_rebuild() {
        let dir = tmp_dir("torn");
        let mut s = TableSet::mmap(dir.clone(), 1);
        for id in 0..64u64 {
            s.insert(0, id as u128 % 5, id);
        }
        s.compact().unwrap();
        let value = serde::to_value(&s).unwrap();

        // Truncate the postings mid-file (torn write).
        let path = gen_path(&dir, 1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let restored: TableSet = serde::from_value(value.clone()).unwrap();
        assert!(restored.needs_rebuild());
        assert_eq!(restored.stats().entries, 0);

        // A flipped byte inside a postings frame also fails the walk.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        let restored: TableSet = serde::from_value(value.clone()).unwrap();
        assert!(restored.needs_rebuild());

        // Intact file round-trips cleanly.
        fs::write(&path, &bytes).unwrap();
        let restored: TableSet = serde::from_value(value).unwrap();
        assert!(!restored.needs_rebuild());
        let mut out = Vec::new();
        restored.probe_into(0, 2, &mut out);
        let mut expect = Vec::new();
        s.probe_into(0, 2, &mut expect);
        assert_eq!(out, expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serde_roundtrip_preserves_overlay() {
        let dir = tmp_dir("overlay");
        let mut s = TableSet::mmap(dir.clone(), 2);
        for id in 0..20u64 {
            s.insert(0, 4, id);
        }
        s.compact().unwrap();
        s.insert(0, 4, 100);
        s.insert(1, 8, 101);
        s.evict(0, 4, 5);
        let value = serde::to_value(&s).unwrap();
        let restored: TableSet = serde::from_value(value).unwrap();
        assert!(!restored.needs_rebuild());
        let mut a = Vec::new();
        let mut b = Vec::new();
        s.probe_into(0, 4, &mut a);
        restored.probe_into(0, 4, &mut b);
        assert_eq!(a, b);
        a.clear();
        b.clear();
        s.probe_into(1, 8, &mut a);
        restored.probe_into(1, 8, &mut b);
        assert_eq!(a, b);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The manifest inside a set's `{"policy", "inner": {"Mmap": …}}`.
    fn mmap_manifest(doc: &mut serde::value::Value) -> Option<&mut serde::value::Value> {
        let mut at = doc;
        for name in ["inner", "Mmap"] {
            let serde::value::Value::Object(fields) = at else {
                return None;
            };
            at = &mut fields.iter_mut().find(|(k, _)| k == name)?.1;
        }
        Some(at)
    }

    #[test]
    fn an_overlay_of_another_table_count_is_refused() {
        let dir = tmp_dir("overlay-count");
        let mut s = TableSet::mmap(dir.clone(), 3);
        s.insert(0, 1, 10);
        s.compact().unwrap();
        s.insert(2, 4, 11);
        s.evict(0, 1, 10);
        let value = serde::to_value(&s).unwrap();
        for (field, expect) in [
            ("delta", "mmap store of 3 tables has 2 delta tables"),
            (
                "overridden",
                "mmap store of 3 tables has 2 overridden tables",
            ),
        ] {
            let mut doc = value.clone();
            let Some(serde::value::Value::Object(fields)) = mmap_manifest(&mut doc) else {
                panic!("a store document is an object");
            };
            let Some((_, serde::value::Value::Array(tables))) =
                fields.iter_mut().find(|(name, _)| name == field)
            else {
                panic!("{field} is an array");
            };
            tables.pop();
            let err = serde::from_value::<TableSet>(doc).unwrap_err().to_string();
            assert!(err.contains(expect), "{field}: {err}");
        }
        assert!(serde::from_value::<TableSet>(value).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_generations_are_pruned() {
        let dir = tmp_dir("prune");
        let mut s = TableSet::mmap(dir.clone(), 1);
        for round in 0..4u64 {
            s.insert(0, 1, round);
            s.compact().unwrap();
        }
        assert_eq!(s.generation(), 4);
        assert!(!gen_path(&dir, 1).exists());
        assert!(!gen_path(&dir, 2).exists());
        assert!(gen_path(&dir, 3).exists());
        assert!(gen_path(&dir, 4).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cleared_store_prunes_the_generations_it_sealed_before() {
        let dir = tmp_dir("clear-prune");
        let mut s = TableSet::mmap(dir.clone(), 1);
        for round in 0..4u64 {
            s.insert(0, 1, round);
            s.compact().unwrap();
        }
        s.clear();
        s.insert(0, 2, 9);
        s.compact().unwrap();
        assert_eq!(s.generation(), 1);
        let mut files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["gen-1.blk"], "only the generation just sealed");
        let len = fs::metadata(gen_path(&dir, 1)).unwrap().len();
        assert_eq!(s.stats().on_disk_bytes, len);
        let _ = fs::remove_dir_all(&dir);
    }
}
