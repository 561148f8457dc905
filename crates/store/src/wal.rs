//! The write-ahead log: append-only, length-prefixed, CRC-checksummed.
//!
//! A WAL segment is the 8-byte `RLWAL2` magic followed by `rl-wire`
//! frames (magic + version + tag + len + CRC-32 over header and payload)
//! carrying a compact binary [`WalOp`] encoding — the same framing that
//! runs on the socket and the replication stream. A segment in the
//! retired `RLWAL1` (CRC'd-JSON) format is refused with a
//! [`StoreError::NotAWal`] that names it; nothing reads or writes it.
//!
//! ## The op-frame codec
//!
//! A frame is an op written at epoch 0 ([`WAL_FRAME_TAG`]: the binary op),
//! an op written at a later primary epoch ([`WAL_FRAME_EPOCH_TAG`]: `epoch
//! u64 LE ‖` the binary op), or an epoch-bump marker
//! ([`WAL_EPOCH_MARK_TAG`]: the epoch alone). [`WalFrame::encode_op`] is
//! the one encoder and [`WalFrame::decode`] the one decoder, which also
//! refuses an epoch below the highest one before it. [`Wal`] appends
//! through the first; [`replay_from_epoch`] and [`WalReader`] read through
//! the second. A replicated WAL frame (`TAG_WAL` / `TAG_WAL_E` in
//! `rl-server`'s protocol) is `seq u64 LE ‖` the payload of an op frame,
//! byte for byte as the segment holds it.
//!
//! A crash mid-append leaves a *torn* final frame (short header, short
//! payload, or CRC mismatch); [`replay`] detects it, reports the longest
//! valid prefix, and the store truncates the file there — acknowledged
//! mutations before the tear are never lost, and a torn tail never
//! prevents startup.
//!
//! ## Durability knob
//!
//! [`SyncPolicy`] controls fsync cadence. `Always` syncs every append
//! (every acknowledged write survives power loss). `GroupCommit(d)` syncs
//! at most every `d` (an OS crash can lose up to `d` of acknowledged
//! writes; a mere process crash loses nothing, since frames are written
//! to the file descriptor before the reply). `Never` leaves syncing to
//! the OS entirely.
//!
//! `GroupCommit` only checks the interval inside [`Wal::append`], so the
//! "at most `d` lost" bound needs a periodic [`Wal::sync`] from the
//! caller when traffic stops — otherwise the unsynced tail of the last
//! burst stays unsynced until the next append. rl-server runs a
//! background flusher on the group-commit cadence for exactly this.

use crate::error::StoreError;
use cbv_hb::buffers::RETAIN_BYTES;
use cbv_hb::{Record, RecordView};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Magic bytes opening a WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"RLWAL2\0\0";

/// Magic of the retired CRC'd-JSON segment format, kept only so a
/// leftover segment is refused by name instead of as "bad magic".
const RETIRED_V1_MAGIC: [u8; 8] = *b"RLWAL1\0\0";

/// `rl-wire` frame tag for a binary-encoded [`WalOp`].
/// Carries no epoch: frames written while the store's epoch is 0 use this
/// tag, keeping pre-epoch segments byte-identical.
pub const WAL_FRAME_TAG: u8 = 1;

/// `rl-wire` frame tag for an epoch-stamped op: payload is
/// `epoch u64 LE | binary WalOp`. Written for every op once the store's
/// primary epoch is non-zero, so replay and the replication sender can
/// fence frames from a demoted primary.
pub const WAL_FRAME_EPOCH_TAG: u8 = 2;

/// `rl-wire` frame tag persisting an epoch bump: payload is `epoch u64 LE`
/// alone. Written as the first frame of the fresh segment a promote
/// rotates to; it carries no op and consumes no op sequence, it only makes
/// the bump durable before any mutation is accepted at the new epoch.
pub const WAL_EPOCH_MARK_TAG: u8 = 3;

/// Frames larger than this are treated as corruption, not allocation
/// requests (a torn length prefix can decode to anything).
const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// Accepts the segment magic; anything else is [`StoreError::NotAWal`],
/// with the retired v1 format called out by name.
fn check_magic(path: &Path, magic: &[u8]) -> Result<(), StoreError> {
    if magic == WAL_MAGIC {
        return Ok(());
    }
    let msg = if magic == RETIRED_V1_MAGIC {
        "RLWAL1 (v1 CRC'd-JSON) segment: that format is no longer read; replay it \
         with a release that still does and checkpoint, then restart"
            .to_string()
    } else {
        format!("bad magic {magic:?}")
    };
    Err(StoreError::NotAWal {
        path: path.to_path_buf(),
        msg,
    })
}

/// Reads a segment's magic from the start of `file` and checks it.
fn read_magic(path: &Path, file: &mut File) -> Result<(), StoreError> {
    let mut magic = [0u8; WAL_MAGIC.len()];
    file.read_exact(&mut magic)
        .map_err(|e| StoreError::io("read", path, e))?;
    check_magic(path, &magic)
}

/// True when `path` starts with the retired v1 magic. Recovery uses it to
/// tell a leftover old-format segment (refuse to start, file untouched)
/// from a foreign file (quarantine and carry on).
pub(crate) fn is_retired_v1(path: &Path) -> bool {
    let mut magic = [0u8; RETIRED_V1_MAGIC.len()];
    File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok_and(|()| magic == RETIRED_V1_MAGIC)
}

/// One logged index mutation. Replayed in order, these reconstruct the
/// exact post-crash index state on top of the last checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// Index (or upsert) one record into data set A.
    Insert(Record),
    /// Streaming observe: match against history, then index. Replay
    /// re-runs the observe, which deterministically reproduces the
    /// stream-match pairs feeding the dedup forest.
    Observe(Record),
    /// Remove the record with this id (tombstone delete).
    Delete(u64),
    /// Reshard cutover commit: the shard-map change (split of `source`
    /// into the new shard `target`, or merge of `source` onto `target`)
    /// took effect at this position in the op stream. Only the *commit* is
    /// logged — the copy phase is not, so a crash mid-migration replays to
    /// a WAL with no `Reshard` op and the migration deterministically
    /// never happened. Replay applies it as a synchronous reshard, which
    /// recomputes the identical deterministic plan.
    Reshard {
        /// `false` = split, `true` = merge.
        merge: bool,
        /// Source shard index.
        source: u64,
        /// Target shard index (informational for splits: replay recomputes
        /// it as the map's next shard id).
        target: u64,
    },
}

/// When appended frames are fsync'd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync every append before acknowledging.
    Always,
    /// Group commit: fsync at most once per interval. Bounds data loss
    /// under power failure / OS crash to one interval of acknowledged
    /// writes; a process crash alone loses nothing.
    GroupCommit(Duration),
    /// Never fsync explicitly; the OS flushes on its own schedule.
    Never,
}

// IEEE CRC-32 (the zlib/Ethernet polynomial). The implementation moved
// to `rl-wire` so socket frames, replication frames, and WAL frames
// share one checksum; re-exported here for existing callers.
pub use rl_wire::crc32;

// Binary op tags inside a v2 frame payload.
const OP_INSERT: u8 = 1;
const OP_OBSERVE: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_RESHARD: u8 = 4;

/// Mutations of one kind as their caller borrows them: an insert batch, a
/// streamed record, a delete batch or a reshard cutover. Logged as one
/// frame per op, byte for byte the frames of the [`WalOp`]s it stands for,
/// without copying a record into an op first. A [`WalOp`] converts into
/// the mutation of its one op.
#[derive(Debug, Clone, Copy)]
pub enum Mutation<'a> {
    /// [`WalOp::Insert`] of each record.
    Insert(Batch<'a>),
    /// [`WalOp::Observe`] of the record.
    Observe(&'a Record),
    /// [`WalOp::Delete`] of each id.
    Delete(&'a [u64]),
    /// [`WalOp::Reshard`].
    Reshard {
        /// `false` = split, `true` = merge.
        merge: bool,
        /// Source shard index.
        source: u64,
        /// Target shard index.
        target: u64,
    },
}

/// The records of an insert, as their caller holds them: owned, or the
/// record bodies of a binary request read in place. Both log the same
/// bytes, since a request's record body is [`encode_record`]'s layout.
#[derive(Debug, Clone, Copy)]
pub enum Batch<'a> {
    /// Whole records: a JSON body's, a replayed or a replicated op's.
    Owned(&'a [Record]),
    /// The record bodies of a binary request frame, read in place.
    Frame(FrameRecords<'a>),
}

impl Batch<'_> {
    /// How many records it holds.
    pub fn len(&self) -> usize {
        match self {
            Batch::Owned(records) => records.len(),
            Batch::Frame(records) => records.len(),
        }
    }

    /// Whether it holds none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> From<&'a [Record]> for Batch<'a> {
    fn from(records: &'a [Record]) -> Self {
        Batch::Owned(records)
    }
}

impl<'a> From<&'a WalOp> for Mutation<'a> {
    fn from(op: &'a WalOp) -> Self {
        match op {
            WalOp::Insert(rec) => Mutation::Insert(std::slice::from_ref(rec).into()),
            WalOp::Observe(rec) => Mutation::Observe(rec),
            WalOp::Delete(id) => Mutation::Delete(std::slice::from_ref(id)),
            &WalOp::Reshard {
                merge,
                source,
                target,
            } => Mutation::Reshard {
                merge,
                source,
                target,
            },
        }
    }
}

impl Mutation<'_> {
    /// The ops (WAL frames) it stands for.
    pub fn ops(&self) -> usize {
        match self {
            Mutation::Insert(records) => records.len(),
            Mutation::Delete(ids) => ids.len(),
            Mutation::Observe(_) | Mutation::Reshard { .. } => 1,
        }
    }

    /// Calls `each` once per op, in order, with what appends the op's
    /// compact binary encoding to a buffer: `op tag (1) |` a record body
    /// ([`encode_record`]) for record ops, `op tag | id u64 LE` for
    /// deletes. A record body read in place is copied as it lies.
    fn for_each_op(&self, mut each: impl FnMut(&dyn Fn(&mut Vec<u8>))) {
        match *self {
            Mutation::Insert(Batch::Owned(records)) => {
                for rec in records {
                    each(&|out| {
                        out.push(OP_INSERT);
                        encode_record(rec, out);
                    });
                }
            }
            Mutation::Insert(Batch::Frame(records)) => {
                for rec in records {
                    each(&|out| {
                        out.push(OP_INSERT);
                        out.extend_from_slice(rec.body());
                    });
                }
            }
            Mutation::Observe(rec) => each(&|out| {
                out.push(OP_OBSERVE);
                encode_record(rec, out);
            }),
            Mutation::Delete(ids) => {
                for id in ids {
                    each(&|out| {
                        out.push(OP_DELETE);
                        out.extend_from_slice(&id.to_le_bytes());
                    });
                }
            }
            Mutation::Reshard {
                merge,
                source,
                target,
            } => each(&|out| {
                out.push(OP_RESHARD);
                out.push(u8::from(merge));
                out.extend_from_slice(&source.to_le_bytes());
                out.extend_from_slice(&target.to_le_bytes());
            }),
        }
    }
}

impl WalOp {
    /// Appends the compact binary encoding to `out` (see [`Mutation`]).
    pub fn encode_bin(&self, out: &mut Vec<u8>) {
        Mutation::from(self).for_each_op(|op| op(out));
    }

    /// Decodes one binary op, requiring the buffer to contain exactly it.
    ///
    /// # Errors
    /// A description of the malformation (callers map it onto their own
    /// corruption error).
    pub fn decode_bin(bytes: &[u8]) -> Result<WalOp, String> {
        let mut cur = Cursor::new("op", bytes);
        let tag = cur.u8()?;
        let op = match tag {
            OP_DELETE => WalOp::Delete(cur.u64()?),
            OP_RESHARD => {
                let flag = cur.u8()?;
                if flag > 1 {
                    return Err(format!("bad reshard kind flag {flag}"));
                }
                WalOp::Reshard {
                    merge: flag == 1,
                    source: cur.u64()?,
                    target: cur.u64()?,
                }
            }
            OP_INSERT => WalOp::Insert(cur.record()?),
            OP_OBSERVE => WalOp::Observe(cur.record()?),
            other => return Err(format!("unknown op tag {other}")),
        };
        cur.finish()?;
        Ok(op)
    }
}

/// Appends a record body, `id u64 LE | nfields u16 LE | (len u32 LE |
/// utf-8 bytes)*`: the shape of a record in a binary [`WalOp`] and in the
/// socket protocol's record-carrying requests. [`Cursor::record`] reads it.
pub fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    out.extend_from_slice(&rec.id.to_le_bytes());
    out.extend_from_slice(&(rec.fields.len() as u16).to_le_bytes());
    for field in &rec.fields {
        out.extend_from_slice(&(field.len() as u32).to_le_bytes());
        out.extend_from_slice(field.as_bytes());
    }
}

/// A bounds-checked little-endian reader over a byte slice. Its errors
/// name what it reads (`"op"`, `"body"`): `"{what} truncated: …"`.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    what: &'static str,
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A reader over `bytes`, which hold one `what`.
    pub fn new(what: &'static str, bytes: &'a [u8]) -> Self {
        Self { what, rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            let have = self.rest.len();
            return Err(format!(
                "{} truncated: need {n} bytes, have {have}",
                self.what
            ));
        };
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// The bytes run out.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// The bytes run out.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a trailing `u64` that older peers do not send: 0 when the
    /// bytes are exhausted.
    ///
    /// # Errors
    /// A *partial* field.
    pub fn u64_or_zero(&mut self) -> Result<u64, String> {
        if self.rest.is_empty() {
            return Ok(0);
        }
        self.u64()
    }

    /// Reads one record body, as [`encode_record`] writes it.
    ///
    /// # Errors
    /// The bytes run out or a field is not UTF-8.
    pub fn record(&mut self) -> Result<Record, String> {
        let id = self.u64()?;
        let nfields = self.u16()? as usize;
        let mut fields = Vec::with_capacity(nfields.min(1024));
        for _ in 0..nfields {
            let len = self.u32()? as usize;
            let raw = self.take(len)?;
            let s = std::str::from_utf8(raw).map_err(|e| format!("field not utf-8: {e}"))?;
            fields.push(s.to_string());
        }
        Ok(Record { id, fields })
    }

    /// Reads one record body in place: its id, field count and field
    /// lengths checked, nothing copied, and the field bytes not yet
    /// checked as UTF-8 ([`RecordRef::check_utf8`]).
    ///
    /// # Errors
    /// The bytes run out.
    pub fn record_ref(&mut self) -> Result<RecordRef<'a>, String> {
        let start = self.rest;
        let id = self.u64()?;
        let count = self.u16()? as usize;
        for _ in 0..count {
            let len = self.u32()? as usize;
            self.take(len)?;
        }
        let body = &start[..start.len() - self.rest.len()];
        Ok(RecordRef { id, count, body })
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Checks that every byte was read.
    ///
    /// # Errors
    /// Bytes remain.
    pub fn finish(&self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after {}",
                self.rest.len(),
                self.what
            ))
        }
    }
}

/// One record body read in place ([`Cursor::record_ref`]): the id, and
/// the length-prefixed field values where the buffer holds them. Embedding
/// one ([`RecordView`]) allocates nothing; [`Cursor::record`] is the
/// owned reading of the same bytes.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    id: u64,
    count: usize,
    /// The whole body: `id u64 LE ‖ count u16 LE ‖` `count` × (`len u32
    /// LE` ‖ `len` bytes), lengths checked.
    body: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// The record body as the buffer holds it, [`encode_record`]'s layout:
    /// what a binary WAL op carries after its tag.
    pub fn body(&self) -> &'a [u8] {
        self.body
    }

    /// The raw bytes of each field value, in order.
    fn raw_fields(&self) -> impl Iterator<Item = &'a [u8]> {
        // After the id and the field count.
        let mut rest = self.body.get(10..).unwrap_or_default();
        std::iter::from_fn(move || {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let (raw, tail) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)?;
            rest = tail;
            Some(raw)
        })
    }

    /// Checks that every field value is UTF-8, in place.
    ///
    /// # Errors
    /// The first field that is not.
    pub fn check_utf8(&self) -> Result<(), String> {
        for raw in self.raw_fields() {
            std::str::from_utf8(raw).map_err(|e| format!("field not utf-8: {e}"))?;
        }
        Ok(())
    }
}

impl RecordView for RecordRef<'_> {
    fn id(&self) -> u64 {
        self.id
    }

    fn field_count(&self) -> usize {
        self.count
    }

    fn fields(&self) -> impl Iterator<Item = &str> {
        (self.raw_fields()).map(|raw| std::str::from_utf8(raw).unwrap_or_default())
    }
}

/// The records of a binary request body, `count u32 LE ‖` that many record
/// bodies ([`encode_record`]), as its frame holds them: checked whole when
/// read ([`Self::decode`]) — every length, and every field as UTF-8, what
/// [`Cursor::record`] checks — and then read in place, a [`RecordRef`]
/// each, without a `String` per field.
#[derive(Debug, Clone, Copy)]
pub struct FrameRecords<'a> {
    count: usize,
    /// The record bodies, after the count.
    bodies: &'a [u8],
}

impl<'a> FrameRecords<'a> {
    /// Checks `count u32 LE | records` whole.
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn decode(body: &'a [u8]) -> Result<Self, String> {
        let mut cur = Cursor::new("body", body);
        let count = cur.u32()? as usize;
        let bodies = cur.rest();
        for _ in 0..count {
            cur.record_ref()?.check_utf8()?;
        }
        cur.finish()?;
        Ok(Self { count, bodies })
    }

    /// How many records the body holds.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether it holds none.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A copy of the record bodies that owns its bytes, checked as these
    /// were: one allocation, where [`Cursor::record`] makes a `String`
    /// per field.
    pub fn to_buf(&self) -> FrameRecordsBuf {
        FrameRecordsBuf {
            count: self.count,
            bodies: self.bodies.to_vec(),
        }
    }
}

impl<'a> IntoIterator for FrameRecords<'a> {
    type Item = RecordRef<'a>;
    type IntoIter = FrameRecordsIter<'a>;

    fn into_iter(self) -> FrameRecordsIter<'a> {
        FrameRecordsIter {
            cur: Cursor::new("body", self.bodies),
            left: self.count,
        }
    }
}

/// The records of a [`FrameRecords`], in order.
#[derive(Debug, Clone)]
pub struct FrameRecordsIter<'a> {
    cur: Cursor<'a>,
    left: usize,
}

impl<'a> Iterator for FrameRecordsIter<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        // Checked by `FrameRecords::decode`: it cannot fail here.
        self.cur.record_ref().ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for FrameRecordsIter<'_> {}

/// [`FrameRecords`] that own their bytes ([`FrameRecords::to_buf`]): how a
/// thread that checked a request's records hands them to another, which
/// reads them in place again ([`Self::records`]) without a second check.
#[derive(Debug, Clone)]
pub struct FrameRecordsBuf {
    count: usize,
    bodies: Vec<u8>,
}

impl FrameRecordsBuf {
    /// The records, read in place.
    pub fn records(&self) -> FrameRecords<'_> {
        FrameRecords {
            count: self.count,
            bodies: &self.bodies,
        }
    }
}

/// One WAL frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum WalFrame {
    /// A logged mutation and the primary epoch it was written under (0
    /// for an un-stamped frame).
    Op {
        /// The epoch stamp.
        epoch: u64,
        /// The mutation.
        op: WalOp,
    },
    /// An epoch-bump marker: carries no op.
    Marker(u64),
}

impl WalFrame {
    /// The one encoder of an op frame: appends to `out` the payload of a
    /// frame written under `epoch` that holds the binary op `op` appends,
    /// and returns the frame's tag — [`WAL_FRAME_TAG`] at epoch 0, else
    /// [`WAL_FRAME_EPOCH_TAG`] with the epoch prefixed. Allocates nothing
    /// beyond what `out` grows by.
    pub fn encode_op(epoch: u64, out: &mut Vec<u8>, op: impl FnOnce(&mut Vec<u8>)) -> u8 {
        if epoch == 0 {
            op(out);
            return WAL_FRAME_TAG;
        }
        out.extend_from_slice(&epoch.to_le_bytes());
        op(out);
        WAL_FRAME_EPOCH_TAG
    }

    /// The one decoder: one frame's tag and payload, read after frames
    /// whose highest epoch is `floor`. Epochs never fall within a log, so
    /// a frame stamped below `floor` (an un-stamped one included, once
    /// `floor` is above 0) is stale-primary residue.
    ///
    /// # Errors
    /// An unknown tag, a malformed payload, or a stale epoch.
    pub fn decode(tag: u8, payload: &[u8], floor: u64) -> Result<WalFrame, String> {
        let mut cur = Cursor::new("frame", payload);
        let frame = match tag {
            WAL_FRAME_TAG => WalFrame::Op {
                epoch: 0,
                op: WalOp::decode_bin(payload)?,
            },
            WAL_FRAME_EPOCH_TAG => WalFrame::Op {
                epoch: cur.u64()?,
                op: WalOp::decode_bin(cur.rest)?,
            },
            WAL_EPOCH_MARK_TAG => {
                let epoch = cur.u64()?;
                cur.finish()?;
                WalFrame::Marker(epoch)
            }
            other => return Err(format!("unexpected frame tag {other} in wal segment")),
        };
        match frame.epoch() {
            epoch if epoch < floor => Err(format!("stale-epoch frame ({epoch} after {floor})")),
            _ => Ok(frame),
        }
    }

    /// The epoch the frame carries.
    pub fn epoch(&self) -> u64 {
        match self {
            WalFrame::Op { epoch, .. } | WalFrame::Marker(epoch) => *epoch,
        }
    }
}

/// An open WAL segment being appended to.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Bytes in the segment (header included).
    len: u64,
    appends: u64,
    policy: SyncPolicy,
    last_sync: Instant,
    /// Appends written since the last fsync.
    unsynced: u64,
    /// Primary epoch stamped into appended frames. 0 writes legacy
    /// [`WAL_FRAME_TAG`] frames; non-zero writes [`WAL_FRAME_EPOCH_TAG`]
    /// frames. The store keeps this in sync with its own epoch.
    epoch: u64,
    /// Set when a failed append left torn bytes on disk that could not be
    /// rolled back. A poisoned segment rejects every further append:
    /// anything written after the tear would be silently dropped by
    /// replay, so accepting (and acknowledging) more writes would violate
    /// acknowledge-after-durable. Reopening the segment (restart →
    /// [`replay`] → [`Wal::open_append`]) clears the torn tail.
    poisoned: bool,
    /// An append's frames, and one op's payload while it is framed: kept
    /// from append to append, emptied each time, and dropped once past
    /// [`RETAIN_BYTES`], so a steady stream of same-sized batches grows
    /// neither.
    frames: Vec<u8>,
    payload: Vec<u8>,
}

/// `buf`, emptied, unless it holds more than [`RETAIN_BYTES`].
fn retain(mut buf: Vec<u8>) -> Vec<u8> {
    if buf.capacity() > RETAIN_BYTES {
        return Vec::new();
    }
    buf.clear();
    buf
}

impl Wal {
    /// Creates a fresh segment at `path` (truncating anything there) and
    /// syncs the header.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the path on failure.
    pub fn create(path: &Path, policy: SyncPolicy) -> Result<Self, StoreError> {
        let mut file = File::create(path).map_err(|e| StoreError::io("create", path, e))?;
        file.write_all(&WAL_MAGIC)
            .map_err(|e| StoreError::io("write", path, e))?;
        file.sync_all()
            .map_err(|e| StoreError::io("fsync", path, e))?;
        // Persist the directory entry too: without this, a power loss can
        // drop the whole segment (fsync'd frames included) even though
        // every append in it was acknowledged.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            crate::atomic::fsync_dir(dir).map_err(|e| StoreError::io("fsync-dir", dir, e))?;
        }
        Ok(Self::at_end(path, file, WAL_MAGIC.len() as u64, policy))
    }

    /// A handle appending to `file`, which is `len` bytes long and
    /// positioned at its end.
    fn at_end(path: &Path, file: File, len: u64, policy: SyncPolicy) -> Self {
        Self {
            path: path.to_path_buf(),
            file,
            len,
            appends: 0,
            policy,
            last_sync: Instant::now(),
            unsynced: 0,
            poisoned: false,
            epoch: 0,
            frames: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Opens an existing segment for appending after recovery decided its
    /// valid length: the file is truncated to `valid_len` (dropping any
    /// torn tail) and positioned at the end. A `valid_len` shorter than
    /// the header re-initializes the segment.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the path on failure and
    /// [`StoreError::NotAWal`] on a foreign (or retired-format) header.
    pub fn open_append(
        path: &Path,
        policy: SyncPolicy,
        valid_len: u64,
    ) -> Result<Self, StoreError> {
        if valid_len < WAL_MAGIC.len() as u64 {
            // A crash between create and the header write left a stub;
            // start the segment over.
            return Self::create(path, policy);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io("open", path, e))?;
        read_magic(path, &mut file)?;
        file.set_len(valid_len)
            .map_err(|e| StoreError::io("truncate", path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek", path, e))?;
        Ok(Self::at_end(path, file, valid_len, policy))
    }

    /// Sets the primary epoch stamped into subsequent appends.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The epoch currently stamped into appends.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends an epoch-bump marker frame (no op, no op-sequence): the
    /// durable record that this segment's writer holds `epoch`. Also
    /// raises the stamp for subsequent appends.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on write failure.
    pub fn append_marker(&mut self, epoch: u64) -> Result<(), StoreError> {
        let mut buf = Vec::new();
        rl_wire::encode_frame_into(WAL_EPOCH_MARK_TAG, &epoch.to_le_bytes(), &mut buf);
        self.write_frames(&buf)?;
        self.unsynced += 1;
        self.epoch = epoch;
        Ok(())
    }

    /// Appends one framed op and applies the sync policy. Returns the
    /// segment length after the append.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the path on failure; the caller
    /// must not acknowledge the mutation in that case.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, StoreError> {
        self.append_mutation(op.into())
    }

    /// Appends every op of `mutation` as **one write**: either every frame
    /// lands in the file or (after rollback) none does, so a mid-batch
    /// failure can never leave a durable prefix of a rejected batch.
    /// Returns the segment length after the append.
    ///
    /// On a failed write (e.g. `ENOSPC` mid-frame) the file is truncated
    /// back to the last good frame boundary; if even that fails, the
    /// segment is *poisoned* — every further append is rejected until the
    /// WAL is reopened — because frames written after torn bytes are
    /// unreachable to [`replay`] and would be silently lost on restart.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the path on failure; the caller
    /// must not acknowledge the mutations in that case.
    pub fn append_mutation(&mut self, mutation: Mutation<'_>) -> Result<u64, StoreError> {
        let mut frames = std::mem::take(&mut self.frames);
        let mut payload = std::mem::take(&mut self.payload);
        let epoch = self.epoch;
        mutation.for_each_op(|op| {
            payload.clear();
            let tag = WalFrame::encode_op(epoch, &mut payload, op);
            rl_wire::encode_frame_into(tag, &payload, &mut frames);
        });
        let written = self.write_frames(&frames);
        (self.frames, self.payload) = (retain(frames), retain(payload));
        written?;
        let count = mutation.ops() as u64;
        self.appends += count;
        self.unsynced += count;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::GroupCommit(interval) => {
                if self.last_sync.elapsed() >= interval {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(self.len)
    }

    /// Writes whole frames in one `write_all`, rolling back (or failing
    /// that, poisoning the segment) on error.
    fn write_frames(&mut self, frames: &[u8]) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::io(
                "append",
                &self.path,
                std::io::Error::other(
                    "segment poisoned by an earlier failed append (torn bytes could not \
                     be rolled back); reopen the WAL to recover the valid prefix",
                ),
            ));
        }
        if let Err(e) = self.file.write_all(frames) {
            if self.rollback_to_len().is_err() {
                self.poisoned = true;
            }
            return Err(StoreError::io("append", &self.path, e));
        }
        self.len += frames.len() as u64;
        Ok(())
    }

    /// Discards whatever a failed append left past `self.len` (a torn
    /// partial frame) and repositions the cursor at the end, so the next
    /// append writes at a frame boundary replay can reach.
    fn rollback_to_len(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(self.len)
            .map_err(|e| StoreError::io("truncate", &self.path, e))?;
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(|e| StoreError::io("seek", &self.path, e))?;
        Ok(())
    }

    /// Forces an fsync now (checkpoint rotation and shutdown call this
    /// regardless of policy).
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the path on failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 {
            self.file
                .sync_data()
                .map_err(|e| StoreError::io("fsync", &self.path, e))?;
        }
        self.last_sync = Instant::now();
        self.unsynced = 0;
        Ok(())
    }

    /// Bytes in the segment, header included.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the segment holds no frames (header only).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Frames appended through this handle (not counting pre-existing
    /// ones).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One op frame decoded by a [`WalReader`], borrowing its bytes from the
/// reader.
#[derive(Debug)]
pub struct ReadFrame<'a> {
    /// The decoded op.
    pub op: WalOp,
    /// Primary epoch the frame was written under (0 for un-stamped
    /// frames).
    pub epoch: u64,
    /// The frame's tag ([`WAL_FRAME_TAG`] or [`WAL_FRAME_EPOCH_TAG`]).
    pub tag: u8,
    /// The frame's payload as it is on disk, decoded and checked.
    pub payload: &'a [u8],
}

/// A cursor over one WAL segment for *tailing*: unlike [`replay`], which
/// reads a whole file at once, a `WalReader` decodes frames incrementally
/// from its current position and treats an incomplete final frame as
/// "nothing yet" rather than end-of-log. Replication streams the durable
/// log to followers with this — a frame that is half-written when the
/// reader reaches it becomes readable on the next poll, because appends
/// land as a single `write_all` per batch.
#[derive(Debug)]
pub struct WalReader {
    path: PathBuf,
    file: File,
    /// Segment offset of the next undecoded frame.
    pos: u64,
    /// Bytes read from the file; `buf[head..]` starts at `pos`.
    buf: Vec<u8>,
    head: usize,
    /// Highest epoch seen so far (markers included). A later frame with a
    /// lower epoch is stale-primary residue recovery should have
    /// truncated; the reader reports it as corruption rather than ship it.
    cur_epoch: u64,
}

/// Least a [`WalReader`] asks of the file per read.
const READ_CHUNK: usize = 64 * 1024;

impl WalReader {
    /// Opens a segment for reading and validates its magic header.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the file cannot be opened/read and
    /// [`StoreError::NotAWal`] on a foreign (or retired-format) header. A
    /// file shorter than the magic (creation in flight) is reported as
    /// `Io` with `UnexpectedEof` — callers retry.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path).map_err(|e| StoreError::io("open", path, e))?;
        read_magic(path, &mut file)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            pos: WAL_MAGIC.len() as u64,
            buf: Vec::new(),
            head: 0,
            cur_epoch: 0,
        })
    }

    /// Highest epoch observed so far (epoch-bump markers included).
    pub fn epoch(&self) -> u64 {
        self.cur_epoch
    }

    /// Decodes the next op frame at the cursor, skipping markers.
    /// `Ok(None)` means no complete, CRC-valid frame is available *yet* —
    /// either clean EOF on a rotated segment or an append still in flight
    /// on the active one; the caller polls again or moves to the next
    /// segment. The cursor only advances past frames that decoded.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on read failure or on a frame that can
    /// never become valid (bad magic or version, oversized length prefix,
    /// CRC-valid but undecodable or stale payload) — genuine corruption the
    /// tailer must not spin on.
    pub fn next_frame(&mut self) -> Result<Option<ReadFrame<'_>>, StoreError> {
        // Bytes an earlier call buffered past the cursor may be a failed
        // append's torn tail that the writer has since rolled back and
        // overwritten, so a frame is judged incomplete or corrupt only on
        // bytes read in this call.
        let mut fresh = false;
        loop {
            let rest = &self.buf[self.head..];
            // A partial header is an append in flight, whatever its first
            // bytes (`peek_frame` refuses a wrong magic before the header
            // is whole).
            let peeked = if rest.len() < rl_wire::HEADER_LEN {
                Ok(None)
            } else {
                rl_wire::peek_frame(rest, MAX_FRAME_LEN)
            };
            match peeked {
                Ok(Some((tag, payload, consumed))) => {
                    let frame = WalFrame::decode(tag, payload, self.cur_epoch)
                        .map_err(|e| self.corrupt(&e))?;
                    self.cur_epoch = frame.epoch();
                    let at = self.head;
                    self.head += consumed;
                    self.pos += consumed as u64;
                    if let WalFrame::Op { epoch, op } = frame {
                        let payload = &self.buf[at + rl_wire::HEADER_LEN..self.head];
                        return Ok(Some(ReadFrame {
                            op,
                            epoch,
                            tag,
                            payload,
                        }));
                    }
                }
                Ok(None) => {
                    if !self.refill()? {
                        return Ok(None);
                    }
                    fresh = true;
                }
                Err(_) if !fresh => {
                    self.refill()?;
                    fresh = true;
                }
                // A CRC mismatch with all bytes present can still be an
                // append whose payload write is racing us; report "nothing
                // yet" (a genuinely corrupt frame keeps failing, and the
                // sender's segment-advance logic turns that into a resync).
                Err(rl_wire::WireError::Corrupt { .. }) => return Ok(None),
                // Magic/version damage at a frame boundary can never heal
                // into a valid frame — appends land header-first.
                Err(e) => return Err(self.corrupt(&format!("{e} (corrupt segment)"))),
            }
        }
    }

    /// Drops the buffered bytes past the cursor and reads the file again
    /// from there, twice as far as before and at least [`READ_CHUNK`].
    /// False when the file holds no more bytes than were buffered.
    fn refill(&mut self) -> Result<bool, StoreError> {
        let had = self.buf.len() - self.head;
        self.buf.clear();
        self.head = 0;
        let want = (2 * had).max(READ_CHUNK) as u64;
        self.file
            .seek(SeekFrom::Start(self.pos))
            .and_then(|_| (&mut self.file).take(want).read_to_end(&mut self.buf))
            .map_err(|e| StoreError::io("read", &self.path, e))?;
        Ok(self.buf.len() > had)
    }

    fn corrupt(&self, msg: &str) -> StoreError {
        StoreError::io(
            "read",
            &self.path,
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg),
        )
    }

    /// Byte offset of the cursor (start of the next undecoded frame).
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Current on-disk length of the segment (an active segment grows
    /// between calls).
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the path on failure.
    pub fn file_len(&self) -> Result<u64, StoreError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| StoreError::io("stat", &self.path, e))
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The outcome of scanning one segment.
#[derive(Debug)]
pub struct ReplaySegment {
    /// The decoded ops, in append order — the longest valid prefix.
    pub ops: Vec<WalOp>,
    /// Byte length of that prefix (where the store truncates to).
    pub valid_len: u64,
    /// Bytes past the valid prefix (0 for a clean segment).
    pub torn_bytes: u64,
    /// Highest primary epoch seen in the valid prefix (markers included),
    /// at least the `min_epoch` the scan started from.
    pub max_epoch: u64,
}

/// Scans a segment, decoding frames until the end of file or the first
/// torn/corrupt frame. Never fails on a torn tail — that is the expected
/// crash signature — only on an unreadable file or a foreign header.
/// Equivalent to [`replay_from_epoch`] with a floor of 0.
///
/// # Errors
/// Returns [`StoreError::Io`] when the file cannot be read and
/// [`StoreError::NotAWal`] when it starts with something other than the
/// WAL magic (8 or more bytes of it).
pub fn replay(path: &Path) -> Result<ReplaySegment, StoreError> {
    replay_from_epoch(path, 0)
}

/// [`replay`] with an epoch floor: a frame stamped with an epoch lower
/// than `min_epoch` — or lower than any epoch seen earlier in the segment
/// — is **stale-primary residue** and ends the valid prefix exactly like a
/// torn frame. This is the fencing half of recovery: ops a demoted primary
/// appended after its successor took over are truncated, never replayed.
/// Epochs only ever rise within the valid prefix.
///
/// # Errors
/// Same as [`replay`].
pub fn replay_from_epoch(path: &Path, min_epoch: u64) -> Result<ReplaySegment, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StoreError::io("read", path, e))?;
    if bytes.len() < WAL_MAGIC.len() {
        // A stub left by a crash between create and header write.
        return Ok(ReplaySegment {
            ops: Vec::new(),
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
            max_epoch: min_epoch,
        });
    }
    check_magic(path, &bytes[..WAL_MAGIC.len()])?;
    let mut ops = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut epoch = min_epoch;
    // Any failure — torn header, short payload, bad CRC, wrong tag,
    // undecodable op, stale epoch — ends the valid prefix.
    while let Ok(Some((tag, payload, consumed))) = rl_wire::peek_frame(&bytes[pos..], MAX_FRAME_LEN)
    {
        let Ok(frame) = WalFrame::decode(tag, payload, epoch) else {
            break;
        };
        epoch = frame.epoch();
        if let WalFrame::Op { op, .. } = frame {
            ops.push(op);
        }
        pos += consumed;
    }
    Ok(ReplaySegment {
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
        ops,
        max_epoch: epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> Record {
        Record::new(id, ["JOHN", "SMITH"])
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rl-store-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip.log");
        let ops = vec![
            WalOp::Insert(rec(1)),
            WalOp::Observe(rec(2)),
            WalOp::Delete(1),
        ];
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        assert_eq!(wal.appends(), 3);
        let seg = replay(&path).unwrap();
        assert_eq!(seg.ops, ops);
        assert_eq!(seg.valid_len, wal.len());
        assert_eq!(seg.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_yields_longest_valid_prefix() {
        let path = tmp("torn.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        let mut lens = vec![wal.len()];
        for i in 0..5 {
            lens.push(wal.append(&WalOp::Insert(rec(i))).unwrap());
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Truncate mid-way through the 4th frame.
        let cut = (lens[3] + 3) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let seg = replay(&path).unwrap();
        assert_eq!(seg.ops.len(), 3, "3 complete frames before the tear");
        assert_eq!(seg.valid_len, lens[3]);
        assert_eq!(seg.torn_bytes, cut as u64 - lens[3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = tmp("crc.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        let mut lens = vec![wal.len()];
        for i in 0..3 {
            lens.push(wal.append(&WalOp::Insert(rec(i))).unwrap());
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte inside the 2nd frame.
        let target = lens[1] as usize + 12;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let seg = replay(&path).unwrap();
        assert_eq!(seg.ops, vec![WalOp::Insert(rec(0))]);
        assert_eq!(seg.valid_len, lens[1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_truncates_and_continues() {
        let path = tmp("reopen.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        for i in 0..3 {
            wal.append(&WalOp::Insert(rec(i))).unwrap();
        }
        let good = wal.len();
        drop(wal);
        // Simulate a torn append.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[5, 0, 0, 0, 9, 9]); // half a header + junk
        std::fs::write(&path, &bytes).unwrap();

        let seg = replay(&path).unwrap();
        assert_eq!(seg.valid_len, good);
        let mut wal = Wal::open_append(&path, SyncPolicy::Always, seg.valid_len).unwrap();
        wal.append(&WalOp::Delete(1)).unwrap();
        drop(wal);
        let seg = replay(&path).unwrap();
        assert_eq!(seg.ops.len(), 4);
        assert_eq!(seg.ops[3], WalOp::Delete(1));
        assert_eq!(seg.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_stub_restarts_cleanly() {
        let path = tmp("stub.log");
        std::fs::write(&path, b"RLW").unwrap(); // crash mid-header
        let seg = replay(&path).unwrap();
        assert!(seg.ops.is_empty());
        assert_eq!(seg.valid_len, 0);
        let mut wal = Wal::open_append(&path, SyncPolicy::Always, seg.valid_len).unwrap();
        wal.append(&WalOp::Insert(rec(7))).unwrap();
        drop(wal);
        assert_eq!(replay(&path).unwrap().ops, vec![WalOp::Insert(rec(7))]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = tmp("foreign.log");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(replay(&path), Err(StoreError::NotAWal { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_mutation_is_one_frame_per_op() {
        let path = tmp("batch.log");
        let records = [rec(1), rec(2)];
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        wal.append_mutation(Mutation::Insert(records[..].into()))
            .unwrap();
        let len = wal.append_mutation(Mutation::Delete(&[1, 7])).unwrap();
        assert_eq!(wal.appends(), 4);
        assert_eq!(len, wal.len());
        let seg = replay(&path).unwrap();
        let ops = vec![
            WalOp::Insert(rec(1)),
            WalOp::Insert(rec(2)),
            WalOp::Delete(1),
            WalOp::Delete(7),
        ];
        assert_eq!(seg.ops, ops);
        assert_eq!(seg.torn_bytes, 0);
        // An empty batch is a no-op, not an error.
        assert_eq!(
            wal.append_mutation(Mutation::Insert(Batch::Owned(&[])))
                .unwrap(),
            len
        );
        assert_eq!(wal.appends(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_borrowed_mutation_writes_the_bytes_its_owned_ops_write() {
        let records = [rec(1), rec(2), rec(3)];
        let inserts: Vec<WalOp> = records.iter().cloned().map(WalOp::Insert).collect();
        let deletes = vec![WalOp::Delete(1), WalOp::Delete(9)];
        let observe = vec![WalOp::Observe(rec(4))];
        let reshard = WalOp::Reshard {
            merge: true,
            source: 2,
            target: 1,
        };
        // The same records as a binary request body carries them.
        let mut body = (records.len() as u32).to_le_bytes().to_vec();
        records.iter().for_each(|r| encode_record(r, &mut body));
        let frame = FrameRecords::decode(&body).unwrap();
        let cases: [(Mutation, &[WalOp]); 5] = [
            (Mutation::Insert(records[..].into()), &inserts),
            (Mutation::Insert(Batch::Frame(frame)), &inserts),
            (Mutation::Delete(&[1, 9]), &deletes),
            ((&observe[0]).into(), &observe),
            ((&reshard).into(), std::slice::from_ref(&reshard)),
        ];
        let (owned, borrowed) = (tmp("owned.log"), tmp("borrowed.log"));
        // Epoch 0 and a stamped epoch frame the payload differently.
        for epoch in [0, 3] {
            for (mutation, ops) in &cases {
                let mut a = Wal::create(&owned, SyncPolicy::Never).unwrap();
                let mut b = Wal::create(&borrowed, SyncPolicy::Never).unwrap();
                a.set_epoch(epoch);
                b.set_epoch(epoch);
                for op in *ops {
                    a.append(op).unwrap();
                }
                assert_eq!(a.len(), b.append_mutation(*mutation).unwrap());
                assert_eq!(a.appends(), b.appends());
                assert_eq!(
                    std::fs::read(&owned).unwrap(),
                    std::fs::read(&borrowed).unwrap()
                );
                assert_eq!(replay_from_epoch(&borrowed, 0).unwrap().ops, *ops);
            }
        }
        std::fs::remove_file(&owned).unwrap();
        std::fs::remove_file(&borrowed).unwrap();
    }

    #[test]
    fn rollback_discards_torn_bytes_and_appends_continue() {
        let path = tmp("rollback.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        wal.append(&WalOp::Insert(rec(1))).unwrap();
        let good = wal.len();
        // Simulate the state a failed write_all leaves behind: a partial
        // frame on disk past the last acknowledged boundary.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[7, 0, 0, 0, 9]).unwrap(); // half a header
        }
        wal.rollback_to_len().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        // The next append lands at a reachable frame boundary.
        wal.append(&WalOp::Delete(1)).unwrap();
        let seg = replay(&path).unwrap();
        assert_eq!(seg.ops, vec![WalOp::Insert(rec(1)), WalOp::Delete(1)]);
        assert_eq!(seg.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn poisoned_segment_rejects_appends_until_reopened() {
        let path = tmp("poison.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        wal.append(&WalOp::Insert(rec(1))).unwrap();
        wal.poisoned = true;
        let err = wal.append(&WalOp::Insert(rec(2))).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Reopening after replay clears the poison.
        drop(wal);
        let seg = replay(&path).unwrap();
        let mut wal = Wal::open_append(&path, SyncPolicy::Always, seg.valid_len).unwrap();
        wal.append(&WalOp::Insert(rec(2))).unwrap();
        assert_eq!(replay(&path).unwrap().ops.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_tails_frames_and_sees_later_appends() {
        let path = tmp("reader.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        wal.append(&WalOp::Insert(rec(1))).unwrap();
        wal.append(&WalOp::Delete(1)).unwrap();

        let mut reader = WalReader::open(&path).unwrap();
        let f1 = reader.next_frame().unwrap().unwrap();
        assert_eq!(f1.op, WalOp::Insert(rec(1)));
        let f2 = reader.next_frame().unwrap().unwrap();
        assert_eq!(f2.op, WalOp::Delete(1));
        assert_eq!(reader.pos(), wal.len());
        assert!(reader.next_frame().unwrap().is_none(), "caught up");

        // An append made after the reader caught up becomes visible on the
        // next poll — the tailing contract replication relies on.
        wal.append(&WalOp::Observe(rec(2))).unwrap();
        let f3 = reader.next_frame().unwrap().unwrap();
        assert_eq!(f3.op, WalOp::Observe(rec(2)));
        assert_eq!(reader.file_len().unwrap(), reader.pos());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_treats_partial_frame_as_nothing_yet() {
        let path = tmp("reader-partial.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        wal.append(&WalOp::Insert(rec(1))).unwrap();
        drop(wal);
        // Half a header past the valid frame: an append in flight.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0]).unwrap();
        }
        let mut reader = WalReader::open(&path).unwrap();
        assert!(reader.next_frame().unwrap().is_some());
        let at = reader.pos();
        assert!(reader.next_frame().unwrap().is_none());
        assert_eq!(reader.pos(), at, "cursor does not advance past a tear");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_rejects_foreign_file_and_oversized_frame() {
        let path = tmp("reader-foreign.log");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(
            WalReader::open(&path),
            Err(StoreError::NotAWal { .. })
        ));
        // Oversized length prefix is corruption, not a retryable tail.
        let mut bytes = WAL_MAGIC.to_vec();
        rl_wire::encode_frame_into(WAL_FRAME_TAG, b"x", &mut bytes);
        bytes[WAL_MAGIC.len() + 4..WAL_MAGIC.len() + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = WalReader::open(&path).unwrap();
        assert!(reader.next_frame().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retired_v1_magic_is_refused_by_name() {
        let path = tmp("v1-refused.log");
        std::fs::write(&path, b"RLWAL1\0\0leftover frames").unwrap();
        for err in [
            replay(&path).unwrap_err(),
            WalReader::open(&path).unwrap_err(),
            Wal::open_append(&path, SyncPolicy::Never, 8).unwrap_err(),
        ] {
            assert!(matches!(err, StoreError::NotAWal { .. }), "{err}");
            assert!(err.to_string().contains("RLWAL1"), "{err}");
        }
        assert!(is_retired_v1(&path));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn binary_op_codec_roundtrips() {
        let ops = [
            WalOp::Insert(Record::new(u64::MAX, ["", "Ünïcode", "x"])),
            WalOp::Observe(Record {
                id: 0,
                fields: Vec::new(),
            }),
            WalOp::Delete(42),
            WalOp::Reshard {
                merge: false,
                source: 0,
                target: 7,
            },
            WalOp::Reshard {
                merge: true,
                source: u64::MAX,
                target: 3,
            },
        ];
        for op in &ops {
            let mut buf = Vec::new();
            op.encode_bin(&mut buf);
            assert_eq!(&WalOp::decode_bin(&buf).unwrap(), op);
            // Every truncation is rejected, and trailing bytes are too.
            for cut in 0..buf.len() {
                assert!(WalOp::decode_bin(&buf[..cut]).is_err(), "cut {cut}");
            }
            let mut longer = buf.clone();
            longer.push(0);
            assert!(WalOp::decode_bin(&longer).is_err());
        }
        assert!(WalOp::decode_bin(&[99]).is_err(), "unknown tag");
        // A reshard frame with a flag that is neither split nor merge is
        // corruption, not a silent default.
        let mut bad = Vec::new();
        WalOp::Reshard {
            merge: false,
            source: 1,
            target: 2,
        }
        .encode_bin(&mut bad);
        bad[1] = 9;
        assert!(WalOp::decode_bin(&bad).is_err(), "bad reshard flag");
    }

    #[test]
    fn epoch_frames_roundtrip_and_marker_is_skipped() {
        let path = tmp("epoch.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        wal.append(&WalOp::Insert(rec(1))).unwrap(); // epoch 0 → legacy tag
        wal.append_marker(2).unwrap(); // bump persists, no op-seq consumed
        assert_eq!(wal.epoch(), 2);
        wal.append(&WalOp::Insert(rec(2))).unwrap(); // stamped frame
        drop(wal);

        let seg = replay(&path).unwrap();
        assert_eq!(
            seg.ops,
            vec![WalOp::Insert(rec(1)), WalOp::Insert(rec(2))],
            "marker carries no op"
        );
        assert_eq!(seg.max_epoch, 2);
        assert_eq!(seg.torn_bytes, 0);

        let mut reader = WalReader::open(&path).unwrap();
        let f1 = reader.next_frame().unwrap().unwrap();
        assert_eq!((f1.op, f1.epoch), (WalOp::Insert(rec(1)), 0));
        let f2 = reader.next_frame().unwrap().unwrap();
        assert_eq!((f2.op, f2.epoch), (WalOp::Insert(rec(2)), 2));
        assert_eq!(reader.epoch(), 2);
        assert!(reader.next_frame().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_epoch_frame_ends_the_valid_prefix() {
        let path = tmp("stale-epoch.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        wal.append_marker(1).unwrap();
        wal.append(&WalOp::Insert(rec(1))).unwrap();
        let good = wal.len();
        // A demoted primary's zombie append: stamped below the segment's
        // high epoch.
        wal.set_epoch(0);
        wal.append(&WalOp::Insert(rec(2))).unwrap();
        drop(wal);

        let seg = replay(&path).unwrap();
        assert_eq!(seg.ops, vec![WalOp::Insert(rec(1))]);
        assert_eq!(seg.valid_len, good);
        assert!(seg.torn_bytes > 0, "stale frame truncated like a tear");
        assert_eq!(seg.max_epoch, 1);

        // The tailer refuses to ship stale residue.
        let mut reader = WalReader::open(&path).unwrap();
        assert!(reader.next_frame().unwrap().is_some());
        let err = reader.next_frame().unwrap_err();
        assert!(err.to_string().contains("stale-epoch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_epoch_floor_fences_older_frames() {
        let path = tmp("epoch-floor.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        wal.set_epoch(3);
        wal.append(&WalOp::Insert(rec(1))).unwrap();
        drop(wal);
        // At or below the stamp the frame replays; above it, it is stale.
        let seg = replay_from_epoch(&path, 3).unwrap();
        assert_eq!(seg.ops.len(), 1);
        assert_eq!(seg.max_epoch, 3);
        let seg = replay_from_epoch(&path, 5).unwrap();
        assert!(seg.ops.is_empty());
        assert_eq!(seg.max_epoch, 5);
        assert!(seg.torn_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_buffers_are_kept_between_appends_unless_past_the_bound() {
        let path = tmp("buffers.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        let small: Vec<Record> = (0..10).map(rec).collect();
        wal.append_mutation(Mutation::Insert(small[..].into()))
            .unwrap();
        let kept = wal.frames.capacity();
        assert!(kept > 0 && wal.frames.is_empty());
        wal.append_mutation(Mutation::Insert(small[..].into()))
            .unwrap();
        assert_eq!(wal.frames.capacity(), kept, "a same-sized batch regrew");
        // ~40 B a frame: 40 000 frames pass the 1 MiB bound.
        let large: Vec<Record> = (0..40_000).map(rec).collect();
        wal.append_mutation(Mutation::Insert(large[..].into()))
            .unwrap();
        assert_eq!(wal.frames.capacity(), 0, "a huge batch's buffer stayed");
        assert_eq!(replay(&path).unwrap().ops.len(), 40_020);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_defers_sync() {
        // Behavioural smoke: appends under a long group-commit interval
        // stay unsynced until an explicit sync.
        let path = tmp("group.log");
        let mut wal =
            Wal::create(&path, SyncPolicy::GroupCommit(Duration::from_secs(3600))).unwrap();
        for i in 0..10 {
            wal.append(&WalOp::Insert(rec(i))).unwrap();
        }
        assert!(wal.unsynced > 0, "no fsync within the interval");
        wal.sync().unwrap();
        assert_eq!(wal.unsynced, 0);
        // The data is in the file regardless of fsync.
        assert_eq!(replay(&path).unwrap().ops.len(), 10);
        std::fs::remove_file(&path).unwrap();
    }
}
