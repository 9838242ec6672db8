//! Crash-safe snapshot files for interrupted searches.
//!
//! A snapshot persists a [`SearchImage`] (arena + discovery order + pending
//! frontier + stats) plus a [`RunMeta`] describing the run's parameters, so
//! a killed process can resume with full parity
//! ([`crate::engine::Engine::resume`]). The file format is deliberately
//! paranoid — a checkpoint only matters when something already went wrong:
//!
//! ```text
//! magic "SWCK" (4) | version u32 | payload_len u64 | fxhash64(payload) | payload
//! ```
//!
//! * **versioned** — a snapshot written by a different format version is
//!   rejected with [`SnapshotError::VersionMismatch`], never misdecoded;
//! * **checksummed** — any flipped or truncated payload byte is rejected
//!   with [`SnapshotError::ChecksumMismatch`] before decoding begins. The
//!   checksum (FxHash) detects accidents, not tampering: a payload edited
//!   and re-wrapped with a fresh checksum reaches the decoder, where it is
//!   rejected with a typed error or — if it is still a consistent image —
//!   resumes as the search it describes;
//! * **atomic** — [`write_snapshot`] writes to a temporary sibling and
//!   renames over the destination, so a `SIGKILL` mid-write leaves either
//!   the old complete snapshot or the new complete snapshot, never a torn
//!   file;
//! * **validated** — the decoded arena re-checks its parent-pointer and
//!   depth invariants ([`SnapshotError::Corrupt`]), so no later accessor
//!   can panic or loop on hostile input.
//!
//! Every failure mode is a typed [`SnapshotError`] — corrupted checkpoints
//! are reported, never panicked on. Images that decode but are
//! inconsistent (dangling node ids, actions naming a process outside the
//! run, schedules that do not replay) are refused by
//! [`Engine::resume`](crate::engine::Engine::resume) and surface from
//! [`ModelChecker::resume_from_file`](crate::explore::ModelChecker::resume_from_file)
//! as [`SnapshotError::Corrupt`].

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::engine::{SearchImage, SearchStats};
use crate::search::{NodeId, ScheduleArena};

/// File magic: "SWapcons ChecKpoint".
pub const MAGIC: [u8; 4] = *b"SWCK";

/// Current snapshot format version. Bump on any payload layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Typed failure of snapshot IO/decoding — the byte/file layer.
/// (Semantic resume failures are [`crate::engine::ResumeError`].)
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (message of the underlying `std::io::Error`).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version differs from [`FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The payload checksum does not match — bit rot, truncation, or a torn
    /// write by something other than [`write_snapshot`].
    ChecksumMismatch,
    /// The payload passed the checksum but failed structural decoding or
    /// arena validation.
    Corrupt(String),
    /// The snapshot's [`RunMeta`] does not match the resuming run's
    /// parameters (different protocol, inputs, budgets, or reduction mode).
    MetaMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot payload: {m}"),
            SnapshotError::MetaMismatch(m) => write!(f, "snapshot run mismatch: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Parameters identifying the run a snapshot belongs to. Resuming checks
/// the stored meta against the resuming run's and refuses on mismatch —
/// resuming a PairsKSet search into an Algorithm 1 checker would otherwise
/// silently produce garbage verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// [`crate::Protocol::name`] of the checked protocol.
    pub protocol_name: String,
    /// The run's input vector.
    pub inputs: Vec<u64>,
    /// Depth budget.
    pub max_depth: u64,
    /// State budget.
    pub max_states: u64,
    /// Whether symmetry reduction was on.
    pub symmetry_reduction: bool,
    /// Solo-termination step budget of the checker.
    pub solo_budget: u64,
    /// Crash-injection failure budget (`f`).
    pub max_failures: u64,
}

impl RunMeta {
    /// Check that `self` (from the file) matches `current` (the resuming
    /// run), field by field, with a diagnostic naming the first mismatch.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MetaMismatch`] on the first differing field.
    pub fn ensure_matches(&self, current: &RunMeta) -> Result<(), SnapshotError> {
        macro_rules! check {
            ($field:ident) => {
                if self.$field != current.$field {
                    return Err(SnapshotError::MetaMismatch(format!(
                        "{}: snapshot has {:?}, resuming run has {:?}",
                        stringify!($field),
                        self.$field,
                        current.$field
                    )));
                }
            };
        }
        check!(protocol_name);
        check!(inputs);
        check!(max_depth);
        check!(max_states);
        check!(symmetry_reduction);
        check!(solo_budget);
        check!(max_failures);
        Ok(())
    }
}

// The payload codec: little-endian fixed-width integers, `usize` as `u64`,
// `bool` as one byte (0 or 1), and strings and vectors behind a `u64`
// length prefix. Any change to this layout must bump `FORMAT_VERSION`.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Cursor over a payload being decoded. Every failure is a
/// [`SnapshotError::Corrupt`].
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.rest.len() < n {
            return Err(SnapshotError::Corrupt("unexpected end of input".into()));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let bytes = self
            .take(4)?
            .try_into()
            .expect("take returns exactly 4 bytes");
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self
            .take(8)?
            .try_into()
            .expect("take returns exactly 8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| invalid())
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(invalid()),
        }
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.usize()?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| invalid())
    }

    /// A length-prefixed vector. A prefix larger than the remaining input
    /// (every element takes at least one byte) is rejected before anything
    /// is reserved, so a hostile prefix cannot force a huge allocation.
    fn vec<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = self.usize()?;
        if len > self.rest.len() {
            return Err(invalid());
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

fn invalid() -> SnapshotError {
    SnapshotError::Corrupt("structurally invalid value".into())
}

fn encode_meta(meta: &RunMeta, out: &mut Vec<u8>) {
    put_usize(out, meta.protocol_name.len());
    out.extend_from_slice(meta.protocol_name.as_bytes());
    put_usize(out, meta.inputs.len());
    for &input in &meta.inputs {
        put_u64(out, input);
    }
    put_u64(out, meta.max_depth);
    put_u64(out, meta.max_states);
    put_bool(out, meta.symmetry_reduction);
    put_u64(out, meta.solo_budget);
    put_u64(out, meta.max_failures);
}

fn decode_meta(r: &mut Reader<'_>) -> Result<RunMeta, SnapshotError> {
    Ok(RunMeta {
        protocol_name: r.string()?,
        inputs: r.vec(Reader::u64)?,
        max_depth: r.u64()?,
        max_states: r.u64()?,
        symmetry_reduction: r.bool()?,
        solo_budget: r.u64()?,
        max_failures: r.u64()?,
    })
}

fn encode_stats(stats: &SearchStats, out: &mut Vec<u8>) {
    put_usize(out, stats.states);
    put_usize(out, stats.terminal_states);
    put_usize(out, stats.deepest);
    put_usize(out, stats.peak_frontier);
    put_bool(out, stats.stopped);
    put_bool(out, stats.depth_truncated);
    put_bool(out, stats.budget_truncated);
    put_bool(out, stats.deadline_truncated);
    put_bool(out, stats.paused);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<SearchStats, SnapshotError> {
    Ok(SearchStats {
        states: r.usize()?,
        terminal_states: r.usize()?,
        deepest: r.usize()?,
        peak_frontier: r.usize()?,
        stopped: r.bool()?,
        depth_truncated: r.bool()?,
        budget_truncated: r.bool()?,
        deadline_truncated: r.bool()?,
        paused: r.bool()?,
    })
}

fn encode_nodes(nodes: &[NodeId], out: &mut Vec<u8>) {
    put_usize(out, nodes.len());
    for n in nodes {
        put_u32(out, n.to_raw());
    }
}

fn decode_nodes(r: &mut Reader<'_>) -> Result<Vec<NodeId>, SnapshotError> {
    r.vec(|r| r.u32().map(NodeId::from_raw))
}

fn encode_image(image: &SearchImage, out: &mut Vec<u8>) {
    encode_stats(&image.stats, out);
    let raw = image.arena.raw_nodes();
    put_usize(out, raw.len());
    for &(parent, tagged, depth) in raw {
        put_u32(out, parent.to_raw());
        put_u32(out, tagged);
        put_u32(out, depth);
    }
    encode_nodes(&image.discovery, out);
    encode_nodes(&image.frontier, out);
}

fn decode_image(r: &mut Reader<'_>) -> Result<SearchImage, SnapshotError> {
    let stats = decode_stats(r)?;
    let len = r.usize()?;
    if len.checked_mul(12).is_none_or(|bytes| bytes > r.rest.len()) {
        return Err(SnapshotError::Corrupt(
            "arena length overflows input".into(),
        ));
    }
    let mut raw = Vec::with_capacity(len);
    for _ in 0..len {
        let parent = NodeId::from_raw(r.u32()?);
        let tagged = r.u32()?;
        let depth = r.u32()?;
        raw.push((parent, tagged, depth));
    }
    let arena = ScheduleArena::from_raw_nodes(raw).map_err(SnapshotError::Corrupt)?;
    let discovery = decode_nodes(r)?;
    let frontier = decode_nodes(r)?;
    Ok(SearchImage {
        stats,
        arena,
        discovery,
        frontier,
    })
}

/// Wrap an encoded payload in the snapshot header.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fxhash::hash64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Serialize `(meta, image)` to the snapshot byte format (header included).
pub fn to_snapshot_bytes(meta: &RunMeta, image: &SearchImage) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_meta(meta, &mut payload);
    encode_image(image, &mut payload);
    frame(&payload)
}

/// Parse snapshot bytes, validating magic, version, length, and checksum
/// before any structural decoding.
///
/// # Errors
///
/// See [`SnapshotError`]; every malformed input is a typed error, never a
/// panic.
pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<(RunMeta, SearchImage), SnapshotError> {
    if bytes.len() < 24 {
        return Err(SnapshotError::BadMagic);
    }
    if bytes[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[24..];
    if payload_len != payload.len() as u64 {
        return Err(SnapshotError::ChecksumMismatch);
    }
    if fxhash::hash64(payload) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader { rest: payload };
    let meta = decode_meta(&mut r)?;
    let image = decode_image(&mut r)?;
    if !r.rest.is_empty() {
        return Err(SnapshotError::Corrupt("trailing payload bytes".into()));
    }
    Ok((meta, image))
}

/// Write a snapshot file **atomically**: the bytes go to a `.tmp` sibling
/// first and are renamed over `path`, so a kill at any instant leaves
/// either the previous complete snapshot or the new one.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure.
pub fn write_snapshot(
    path: &Path,
    meta: &RunMeta,
    image: &SearchImage,
) -> Result<(), SnapshotError> {
    let bytes = to_snapshot_bytes(meta, image);
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and validate a snapshot file.
///
/// # Errors
///
/// See [`SnapshotError`].
pub fn read_snapshot(path: &Path) -> Result<(RunMeta, SearchImage), SnapshotError> {
    let bytes = fs::read(path)?;
    from_snapshot_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Action, ProcessId};

    fn sample_meta() -> RunMeta {
        RunMeta {
            protocol_name: "pairs-kset(n=4,k=2)".into(),
            inputs: vec![3, 1, 4, 1],
            max_depth: 64,
            max_states: 100_000,
            symmetry_reduction: true,
            solo_budget: 32,
            max_failures: 2,
        }
    }

    fn sample_image() -> SearchImage {
        let mut arena = ScheduleArena::new();
        let a = arena.child(ScheduleArena::ROOT, ProcessId(0));
        let b = arena.child_action(a, Action::Crash(ProcessId(1)));
        let mut stats = SearchStats {
            states: 2,
            terminal_states: 0,
            deepest: 2,
            peak_frontier: 3,
            stopped: false,
            depth_truncated: false,
            budget_truncated: false,
            deadline_truncated: true,
            paused: false,
        };
        stats.deepest = 2;
        SearchImage {
            stats,
            arena,
            discovery: vec![ScheduleArena::ROOT, a, b],
            frontier: vec![b],
        }
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let bytes = to_snapshot_bytes(&sample_meta(), &sample_image());
        let (meta, image) = from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(meta, sample_meta());
        let original = sample_image();
        assert_eq!(image.stats, original.stats);
        assert_eq!(image.discovery, original.discovery);
        assert_eq!(image.frontier, original.frontier);
        assert_eq!(image.arena.raw_nodes(), original.arena.raw_nodes());
        assert_eq!(
            image.arena.actions(NodeId::from_raw(1)),
            vec![Action::Step(ProcessId(0)), Action::Crash(ProcessId(1)),]
        );
    }

    /// `to_snapshot_bytes(&sample_meta(), &sample_image())` in format
    /// version 1, segment by segment. Snapshots already on disk use this
    /// layout, so a codec change that alters these bytes must also bump
    /// [`FORMAT_VERSION`].
    const GOLDEN_V1: &[&[u8]] = &[
        // Header: magic, version, payload length (201), fxhash64(payload).
        b"SWCK",
        &[1, 0, 0, 0],
        &[201, 0, 0, 0, 0, 0, 0, 0],
        &[155, 241, 80, 66, 236, 122, 139, 51],
        // RunMeta: protocol name, inputs, max_depth, max_states,
        // symmetry_reduction, solo_budget, max_failures.
        &[19, 0, 0, 0, 0, 0, 0, 0],
        b"pairs-kset(n=4,k=2)",
        &[4, 0, 0, 0, 0, 0, 0, 0],
        &[3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        &[4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        &[64, 0, 0, 0, 0, 0, 0, 0],
        &[160, 134, 1, 0, 0, 0, 0, 0],
        &[1],
        &[32, 0, 0, 0, 0, 0, 0, 0],
        &[2, 0, 0, 0, 0, 0, 0, 0],
        // SearchStats: states, terminal_states, deepest, peak_frontier, then
        // stopped, depth_truncated, budget_truncated, deadline_truncated and
        // paused.
        &[2, 0, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 0, 0, 0, 0],
        &[2, 0, 0, 0, 0, 0, 0, 0],
        &[3, 0, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 1, 0],
        // Arena: two (parent, tagged action, depth) nodes. The root's id is
        // u32::MAX; the tag's high bit marks a crash.
        &[2, 0, 0, 0, 0, 0, 0, 0],
        &[255, 255, 255, 255, 0, 0, 0, 0, 1, 0, 0, 0],
        &[0, 0, 0, 0, 1, 0, 0, 128, 2, 0, 0, 0],
        // Discovery order: the root, node 0, node 1.
        &[3, 0, 0, 0, 0, 0, 0, 0],
        &[255, 255, 255, 255, 0, 0, 0, 0, 1, 0, 0, 0],
        // Frontier: node 1.
        &[1, 0, 0, 0, 0, 0, 0, 0],
        &[1, 0, 0, 0],
    ];

    #[test]
    fn format_v1_bytes_are_pinned() {
        let golden = GOLDEN_V1.concat();
        assert_eq!(to_snapshot_bytes(&sample_meta(), &sample_image()), golden);
        let (meta, image) = from_snapshot_bytes(&golden).unwrap();
        let original = sample_image();
        assert_eq!(meta, sample_meta());
        assert_eq!(image.stats, original.stats);
        assert_eq!(image.arena.raw_nodes(), original.arena.raw_nodes());
        assert_eq!(image.discovery, original.discovery);
        assert_eq!(image.frontier, original.frontier);
    }

    #[test]
    fn every_corrupted_payload_byte_is_caught() {
        let bytes = to_snapshot_bytes(&sample_meta(), &sample_image());
        for i in 24..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert_eq!(
                from_snapshot_bytes(&bad).unwrap_err(),
                SnapshotError::ChecksumMismatch,
                "flipped payload byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn header_corruption_is_typed() {
        let bytes = to_snapshot_bytes(&sample_meta(), &sample_image());
        // Magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            from_snapshot_bytes(&bad).unwrap_err(),
            SnapshotError::BadMagic
        );
        // Version.
        let mut bad = bytes.clone();
        bad[4] = FORMAT_VERSION as u8 + 1;
        assert_eq!(
            from_snapshot_bytes(&bad).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            }
        );
        // Truncation (any cut point).
        for cut in 0..bytes.len() {
            assert!(
                from_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage changes the length check.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(
            from_snapshot_bytes(&bad).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn checksum_passes_but_bad_arena_is_corrupt() {
        // Build a payload whose arena violates the parent-pointer invariant
        // and wrap it in a *valid* header: decoding must reject it with
        // `Corrupt`, not panic.
        let mut image = sample_image();
        image.arena = ScheduleArena::new(); // empty, but discovery points at nodes 0/1
        let mut payload = Vec::new();
        encode_meta(&sample_meta(), &mut payload);
        encode_stats(&image.stats, &mut payload);
        // arena with a forward parent pointer
        put_usize(&mut payload, 1);
        put_u32(&mut payload, 5);
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 1);
        encode_nodes(&image.discovery, &mut payload);
        encode_nodes(&image.frontier, &mut payload);
        match from_snapshot_bytes(&frame(&payload)).unwrap_err() {
            SnapshotError::Corrupt(m) => assert!(m.contains("parent"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn meta_mismatch_names_the_field() {
        let a = sample_meta();
        let mut b = sample_meta();
        b.max_failures = 0;
        let err = a.ensure_matches(&b).unwrap_err();
        match err {
            SnapshotError::MetaMismatch(m) => assert!(m.contains("max_failures"), "{m}"),
            other => panic!("expected MetaMismatch, got {other:?}"),
        }
        assert!(a.ensure_matches(&sample_meta()).is_ok());
    }

    #[test]
    fn file_round_trip_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("swck-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.swck");
        write_snapshot(&path, &sample_meta(), &sample_image()).unwrap();
        let (meta, image) = read_snapshot(&path).unwrap();
        assert_eq!(meta, sample_meta());
        assert_eq!(image.stats, sample_image().stats);
        // Overwrite goes through the same atomic path.
        write_snapshot(&path, &sample_meta(), &sample_image()).unwrap();
        assert!(read_snapshot(&path).is_ok());
        // A missing file is a typed Io error.
        assert!(matches!(
            read_snapshot(&dir.join("absent.swck")).unwrap_err(),
            SnapshotError::Io(_)
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
