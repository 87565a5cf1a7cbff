//! Content-addressed result cache — in-memory sharded map plus an
//! optional on-disk layer.
//!
//! # Keying
//!
//! A cache key is `mix64(image_hash, config_fingerprint)`: the streaming
//! hash of the **entire** ELF image folded with a fingerprint of every
//! [`Config`] field. There is no mtime, path, or size heuristic —
//! invalidation is purely content-addressed, so a rebuilt-but-identical
//! binary hits and a one-byte patch misses. Hostile inputs cannot poison
//! other entries: a different image hashes to a different key, and parse
//! *failures* are never inserted at all (the scheduler caches only
//! successful [`Analysis`] values, which are deterministic in the input
//! bytes).
//!
//! # Record format v3
//!
//! Entries persist — and travel over the daemon wire protocol — as a
//! fixed-header **binary record** (`DESIGN.md` §7 is the normative
//! spec): a 40-byte header (magic, version, image hash, config
//! fingerprint, key), length-prefixed sections (meta counters, a raw
//! little-endian `u64` function array decoded straight off the mapped
//! file, interproc summary, diagnostics), and a trailing checksum over
//! everything before it. [`encode`]/[`decode`] are the codec. The
//! line-oriented v2 text format that preceded it is no longer read or
//! written; a leftover v2 entry is just an undecodable file.
//!
//! # Disk layer
//!
//! One record per key under a caller-chosen directory
//! (`target/funseeker-cache/` by convention). Writers are crash- and
//! race-safe: content goes to a unique temp file first and is atomically
//! `rename`d into place, so concurrent processes never observe a
//! half-written entry. Readers **memory-map** the entry (no read copy;
//! see [`funseeker_elf::Image`]) and treat *any* irregularity —
//! truncation, flipped bytes, unknown version, a key mismatch, a
//! leftover v2 text entry — as a plain miss, never an error; an entry
//! that fails to decode is garbage-collected on the spot so a cache
//! directory migrates itself from v2 to v3 as it is used.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use funseeker::diag::Component;
use funseeker::{Analysis, Config, Diagnostics, InterprocSummary};
use funseeker_elf::Image;

use crate::hash::{hash_bytes, mix64};

/// Fingerprint of every field of a [`Config`], for cache keying.
pub fn config_fingerprint(config: &Config) -> u64 {
    let bits = (config.filter_endbr as u64)
        | (config.include_jump_targets as u64) << 1
        | (config.select_tail_calls as u64) << 2
        | (config.endbr_pattern_scan as u64) << 3
        | (config.reach_prune as u64) << 4
        | (config.interproc as u64) << 5
        | (config.min_tail_referers as u64) << 8;
    mix64(0xf5ee_ce4c_0f16, bits)
}

/// The cache key for one (image, configuration) pair.
pub fn cache_key(image_hash: u64, config: &Config) -> u64 {
    mix64(image_hash, config_fingerprint(config))
}

const SHARDS: usize = 16;

/// One cached result: the shared analysis plus, once some reply has
/// been served for it, the encoded v3 record bytes — so duplicate
/// requests memcpy a pre-checksummed payload instead of re-encoding.
struct Slot {
    analysis: Arc<Analysis>,
    wire: Option<Arc<Vec<u8>>>,
}

/// Sharded in-memory map of completed analyses.
///
/// Lookups and inserts take one shard lock chosen by key bits, so the
/// pool's workers rarely contend. Values are `Arc`-shared: a hit costs a
/// refcount bump, and duplicate images across a corpus share one
/// allocation. Each entry can additionally carry its encoded v3 reply
/// bytes ([`ResultCache::wire`] / [`ResultCache::set_wire`]) — the
/// daemon's serialized-reply fast path.
pub struct ResultCache {
    shards: [Mutex<HashMap<u64, Slot>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Slot>> {
        // The key is splitmix output — any bit window is uniform.
        &self.shards[(key >> 48) as usize % SHARDS]
    }

    /// Looks up a completed analysis, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<Analysis>> {
        let found = self.shard(key).lock().unwrap().get(&key).map(|s| s.analysis.clone());
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a completed analysis (dropping any cached reply bytes a
    /// previous value under the same key carried).
    pub fn insert(&self, key: u64, analysis: Arc<Analysis>) {
        self.shard(key).lock().unwrap().insert(key, Slot { analysis, wire: None });
    }

    /// The encoded reply bytes cached next to `key`, if some earlier
    /// reply already paid for encoding them. Not counted as a cache
    /// hit or miss — this is a side-table lookup on an entry the
    /// caller already holds.
    pub fn wire(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        self.shard(key).lock().unwrap().get(&key).and_then(|s| s.wire.clone())
    }

    /// Attaches encoded reply bytes to an existing entry (first writer
    /// wins; a no-op when the key is not resident). Returns the bytes
    /// now cached under the key, so racing encoders converge on one
    /// allocation.
    pub fn set_wire(&self, key: u64, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let mut shard = self.shard(key).lock().unwrap();
        match shard.get_mut(&key) {
            Some(slot) => slot.wire.get_or_insert(bytes).clone(),
            None => bytes,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

// ---------------------------------------------------------------------
// Record format v3 (binary)
// ---------------------------------------------------------------------

/// Record magic, first four bytes of every v3 record.
pub const MAGIC_V3: [u8; 4] = *b"FSC3";
/// Record format version stamped after the magic.
pub const FORMAT_VERSION: u16 = 3;

/// Fixed header length: magic(4) version(2) reserved(2) image_hash(8)
/// config_fp(8) key(8) section_count(4) payload_len(4).
const HEADER_LEN: usize = 40;
/// Trailing checksum length.
const SUM_LEN: usize = 8;
/// Per-section prefix: tag(4) len(4).
const SECTION_PREFIX: usize = 8;

const TAG_META: u32 = 1;
const TAG_FUNCS: u32 = 2;
const TAG_INTERPROC: u32 = 3;
const TAG_DIAG: u32 = 4;

/// META section payload: ten `u64` fields.
const META_LEN: usize = 80;
/// INTERPROC section payload: seven `u64` fields.
const INTERPROC_LEN: usize = 56;

fn component_code(c: Component) -> Option<u32> {
    Some(match c {
        Component::Layout => 1,
        Component::EhFrame => 2,
        Component::GccExceptTable => 3,
        Component::NoteProperty => 4,
        Component::Plt => 5,
        Component::Dynamic => 6,
        // `Component` is non_exhaustive: a future variant this build
        // doesn't know how to round-trip makes the entry non-persistable
        // (the in-memory cache still holds it).
        _ => return None,
    })
}

fn component_from_code(code: u32) -> Option<Component> {
    Some(match code {
        1 => Component::Layout,
        2 => Component::EhFrame,
        3 => Component::GccExceptTable,
        4 => Component::NoteProperty,
        5 => Component::Plt,
        6 => Component::Dynamic,
        _ => return None,
    })
}

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes one analysis as a v3 binary record for the `(image_hash,
/// config_fp)` pair. Returns `None` when the entry cannot be
/// represented (a diagnostic component with no stable code, or a
/// section overflowing the `u32` length prefix).
pub fn encode(image_hash: u64, config_fp: u64, a: &Analysis) -> Option<Vec<u8>> {
    let key = mix64(image_hash, config_fp);
    let mut out = Vec::with_capacity(HEADER_LEN + META_LEN + 8 * a.functions.len() + 256);
    out.extend_from_slice(&MAGIC_V3);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&image_hash.to_le_bytes());
    out.extend_from_slice(&config_fp.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    // section_count and payload_len are patched in below.
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());

    let mut sections = 0u32;
    let mut meta = [0u8; META_LEN];
    for (i, v) in [
        a.text_range.0,
        a.text_range.1,
        a.endbr_count as u64,
        a.filtered_endbrs as u64,
        a.call_target_count as u64,
        a.jmp_target_count as u64,
        a.tail_target_count as u64,
        a.decode_errors as u64,
        a.pruned_count as u64,
        a.cet_enabled as u64,
    ]
    .into_iter()
    .enumerate()
    {
        meta[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    push_section(&mut out, TAG_META, &meta);
    sections += 1;

    // Bulk encode straight off the packed sorted slice — no tree walk.
    let mut funcs = Vec::with_capacity(8 * a.functions.len());
    for f in a.functions.as_slice() {
        funcs.extend_from_slice(&f.to_le_bytes());
    }
    if funcs.len() > u32::MAX as usize {
        return None;
    }
    push_section(&mut out, TAG_FUNCS, &funcs);
    sections += 1;

    if let Some(ip) = a.interproc {
        let mut body = [0u8; INTERPROC_LEN];
        for (i, v) in [
            ip.cfg_count as u64,
            ip.block_count as u64,
            ip.cfg_edge_count as u64,
            ip.direct_call_edges as u64,
            ip.tail_call_edges as u64,
            ip.indirect_sites as u64,
            ip.indirect_targets as u64,
        ]
        .into_iter()
        .enumerate()
        {
            body[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        push_section(&mut out, TAG_INTERPROC, &body);
        sections += 1;
    }

    for d in a.diagnostics.iter() {
        let code = component_code(d.component)?;
        let mut body = Vec::with_capacity(12 + d.message.len());
        body.extend_from_slice(&code.to_le_bytes());
        body.extend_from_slice(&(d.count as u64).to_le_bytes());
        body.extend_from_slice(d.message.as_bytes());
        if body.len() > u32::MAX as usize {
            return None;
        }
        push_section(&mut out, TAG_DIAG, &body);
        sections += 1;
    }

    let payload_len = u32::try_from(out.len() - HEADER_LEN).ok()?;
    out[32..36].copy_from_slice(&sections.to_le_bytes());
    out[36..40].copy_from_slice(&payload_len.to_le_bytes());
    let sum = hash_bytes(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    Some(out)
}

fn rd_u32(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

fn rd_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

/// Decodes a v3 binary record back into an [`Analysis`], verifying it
/// was written for `key`. Any defect — truncation, bit rot, a version
/// or key mismatch, an inconsistent header — returns `None`; nothing
/// here panics or errors on hostile bytes.
pub fn decode(key: u64, bytes: &[u8]) -> Option<Analysis> {
    if bytes.len() < HEADER_LEN + SUM_LEN || bytes[..4] != MAGIC_V3 {
        return None;
    }
    if u16::from_le_bytes(bytes[4..6].try_into().ok()?) != FORMAT_VERSION {
        return None;
    }
    let image_hash = rd_u64(bytes, 8)?;
    let config_fp = rd_u64(bytes, 16)?;
    let stored_key = rd_u64(bytes, 24)?;
    if stored_key != key || mix64(image_hash, config_fp) != stored_key {
        return None;
    }
    let section_count = rd_u32(bytes, 32)? as usize;
    let payload_len = rd_u32(bytes, 36)? as usize;
    if bytes.len() != HEADER_LEN + payload_len + SUM_LEN {
        return None;
    }
    let body_end = HEADER_LEN + payload_len;
    if rd_u64(bytes, body_end)? != hash_bytes(&bytes[..body_end]) {
        return None;
    }

    let mut at = HEADER_LEN;
    let mut seen = 0usize;
    let mut meta: Option<&[u8]> = None;
    let mut funcs: Option<&[u8]> = None;
    let mut interproc = None;
    let mut diagnostics = Diagnostics::new();
    while at < body_end {
        let tag = rd_u32(bytes, at)?;
        let len = rd_u32(bytes, at + 4)? as usize;
        let payload = bytes.get(at + SECTION_PREFIX..at + SECTION_PREFIX + len)?;
        if at + SECTION_PREFIX + len > body_end {
            return None;
        }
        match tag {
            TAG_META if meta.is_none() && len == META_LEN => meta = Some(payload),
            TAG_FUNCS if funcs.is_none() && len.is_multiple_of(8) => funcs = Some(payload),
            TAG_INTERPROC if interproc.is_none() && len == INTERPROC_LEN => {
                interproc = Some(InterprocSummary {
                    cfg_count: rd_u64(payload, 0)? as usize,
                    block_count: rd_u64(payload, 8)? as usize,
                    cfg_edge_count: rd_u64(payload, 16)? as usize,
                    direct_call_edges: rd_u64(payload, 24)? as usize,
                    tail_call_edges: rd_u64(payload, 32)? as usize,
                    indirect_sites: rd_u64(payload, 40)? as usize,
                    indirect_targets: rd_u64(payload, 48)? as usize,
                });
            }
            TAG_DIAG if len >= 12 => {
                let component = component_from_code(rd_u32(payload, 0)?)?;
                let count = rd_u64(payload, 4)? as usize;
                let message = std::str::from_utf8(&payload[12..]).ok()?;
                if count == 0 {
                    return None;
                }
                diagnostics.record(component, message, count);
            }
            // Unknown or malformed section: records are written by the
            // same version that reads them; anything else is damage.
            _ => return None,
        }
        at += SECTION_PREFIX + len;
        seen += 1;
    }
    if seen != section_count {
        return None;
    }
    let meta = meta?;
    let funcs = funcs?;

    // The function array decodes straight off the record bytes (no
    // intermediate text or token vector): strictly ascending `u64`s,
    // rejected otherwise so damaged arrays cannot alias a valid set.
    // One pass validates and fills an exact-capacity vector, which the
    // packed `FuncSet` wraps without further work.
    let mut members: Vec<u64> = Vec::with_capacity(funcs.len() / 8);
    for chunk in funcs.chunks_exact(8) {
        let f = u64::from_le_bytes(chunk.try_into().ok()?);
        if members.last().is_some_and(|&p| p >= f) {
            return None;
        }
        members.push(f);
    }
    let functions = funseeker::FuncSet::from_sorted(members);

    let m = |i: usize| rd_u64(meta, i * 8);
    let cet_enabled = match m(9)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    Some(Analysis {
        functions,
        text_range: (m(0)?, m(1)?),
        endbr_count: m(2)? as usize,
        filtered_endbrs: m(3)? as usize,
        call_target_count: m(4)? as usize,
        jmp_target_count: m(5)? as usize,
        tail_target_count: m(6)? as usize,
        decode_errors: m(7)? as usize,
        pruned_count: m(8)? as usize,
        interproc,
        cet_enabled,
        diagnostics,
    })
}

// ---------------------------------------------------------------------
// Disk layer
// ---------------------------------------------------------------------

/// Entry size at which [`DiskCache::load`] switches from reading the
/// record into an owned buffer to memory-mapping it.
pub const MMAP_MIN_RECORD: u64 = 64 * 1024;

/// The on-disk cache layer: one v3 binary record per key under a
/// directory, read zero-copy (mapped at or above [`MMAP_MIN_RECORD`]).
///
/// All operations are best-effort. Unreadable, truncated, corrupt, or
/// legacy-format entries read as misses and are garbage-collected
/// (racing a concurrent re-store of the same key at worst deletes an
/// entry the next analysis rewrites — still only ever a miss); failed
/// writes are dropped silently (the in-memory layer still serves the
/// current run).
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCache { dir: dir.into() }
    }

    /// The conventional location, `target/funseeker-cache/`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/funseeker-cache")
    }

    /// The directory backing this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.fsc"))
    }

    /// Loads and validates one entry, decoding the function array
    /// straight off the record bytes. Entries at or above
    /// [`MMAP_MIN_RECORD`] are memory-mapped; smaller ones are read —
    /// for a few-KiB record the map/unmap syscalls and page faults
    /// cost more than the copy they avoid. Any defect is a miss; an
    /// existing-but-undecodable file (torn write survivor, bit rot,
    /// leftover v2 text entry) is removed so the directory self-heals.
    pub fn load(&self, key: u64) -> Option<Analysis> {
        let path = self.entry_path(key);
        let image = Image::load_mapped_above(&path, MMAP_MIN_RECORD).ok()?;
        let decoded = decode(key, &image);
        drop(image); // release the mapping before any unlink
        if decoded.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        decoded
    }

    /// Persists one entry. Returns whether the entry is now on disk.
    ///
    /// Safe under concurrent writers: the record is written to a
    /// process-unique temp file and atomically renamed over the final
    /// path, so readers see either the old complete entry or the new
    /// complete entry, never a torn one.
    pub fn store(&self, image_hash: u64, config: &Config, analysis: &Analysis) -> bool {
        let fp = config_fingerprint(config);
        let Some(record) = encode(image_hash, fp, analysis) else { return false };
        self.store_record(mix64(image_hash, fp), &record)
    }

    /// [`DiskCache::store`] for an already-encoded record — the write
    /// half of the daemon's reply-bytes fast path, which encodes once
    /// for both the socket and the disk.
    pub fn store_record(&self, key: u64, record: &[u8]) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".{key:016x}.{}.{}.tmp",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed),
        ));
        if std::fs::write(&tmp, record).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        let ok = std::fs::rename(&tmp, self.entry_path(key)).is_ok();
        if !ok {
            let _ = std::fs::remove_file(&tmp);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker::FunSeeker;

    fn sample() -> Analysis {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        FunSeeker::new().identify(&bytes).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("funseeker-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `(image_hash, fp, key)` for one config, for direct codec calls.
    fn keys(image_hash: u64, config: &Config) -> (u64, u64, u64) {
        let fp = config_fingerprint(config);
        (image_hash, fp, mix64(image_hash, fp))
    }

    #[test]
    fn round_trips_through_v3_record() {
        let a = sample();
        let (h, fp, key) = keys(0xdead_beef, &Config::c4());
        let record = encode(h, fp, &a).unwrap();
        let back = decode(key, &record).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn round_trips_diagnostics() {
        let mut a = sample();
        a.diagnostics.warn(Component::EhFrame, "truncated record with spaces");
        a.diagnostics.warn(Component::EhFrame, "truncated record with spaces");
        a.diagnostics.warn(Component::Plt, "line\nbreak and back\\slash");
        let (h, fp, key) = keys(7, &Config::c4());
        let back = decode(key, &encode(h, fp, &a).unwrap()).unwrap();
        assert_eq!(back.diagnostics, a.diagnostics);
        assert_eq!(back, a);
    }

    #[test]
    fn truncation_at_every_boundary_is_a_miss() {
        let mut a = sample();
        a.diagnostics.warn(Component::Plt, "planted so DIAG truncation is covered");
        let (h, fp, key) = keys(42, &Config::c4());
        let record = encode(h, fp, &a).unwrap();
        // Every prefix must read as a miss — never a panic, never a
        // wrong Analysis.
        for cut in 0..record.len() {
            assert!(decode(key, &record[..cut]).is_none(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn corruption_at_every_byte_is_a_miss_or_identical() {
        let a = sample();
        let (h, fp, key) = keys(42, &Config::c4());
        let record = encode(h, fp, &a).unwrap();
        // Flip one bit in every byte position: the checksum (itself
        // part of the flipped range) must reject every damaged record.
        for at in 0..record.len() {
            let mut corrupt = record.clone();
            corrupt[at] ^= 0x20;
            assert!(decode(key, &corrupt).is_none(), "flip at byte {at} decoded");
        }
        // Wrong key: content intact, address mismatch.
        assert!(decode(key ^ 1, &record).is_none());
    }

    #[test]
    fn disk_cache_stores_and_loads() {
        let dir = tmp_dir("basic");
        let cache = DiskCache::new(&dir);
        let a = sample();
        let key = cache_key(99, &Config::c2());
        assert!(cache.load(key).is_none(), "cold cache must miss");
        assert!(cache.store(99, &Config::c2(), &a));
        assert_eq!(cache.load(key).unwrap(), a);
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_entry_is_a_miss_and_garbage_collected() {
        let dir = tmp_dir("trunc");
        let cache = DiskCache::new(&dir);
        let a = sample();
        let (h, _, key) = keys(0xabcd, &Config::c4());
        assert!(cache.store(h, &Config::c4(), &a));
        // Simulate a torn write from a non-atomic writer or bit rot.
        let path = dir.join(format!("{key:016x}.fsc"));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 3]).unwrap();
        assert!(cache.load(key).is_none());
        assert!(!path.exists(), "undecodable entry must be garbage-collected");
        // Garbage bytes likewise.
        std::fs::write(&path, b"\xff\xfenot a record\x00").unwrap();
        assert!(cache.load(key).is_none());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_disk_entry_is_a_silent_miss_and_garbage_collected() {
        // The v2→v3 migration contract: a directory of old text entries
        // keeps working (every v2 entry reads as a miss, never an
        // error) and self-heals (the stale file is removed, then
        // re-stored in v3 by the next analysis).
        let dir = tmp_dir("migrate");
        let cache = DiskCache::new(&dir);
        let a = sample();
        let (h, _, key) = keys(0x515e, &Config::c4());
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{key:016x}.fsc"));
        // A genuine v2 text entry for `sample()` under this key, as the
        // retired v2 codec wrote it.
        let v2 = include_bytes!("../tests/fixtures/v2_entry.fsc");
        assert!(v2.starts_with(b"funseeker-batch-cache v2\n"));
        std::fs::write(&path, v2).unwrap();
        assert!(cache.load(key).is_none(), "v2 entry must miss, not error");
        assert!(!path.exists(), "v2 entry must be garbage-collected");
        // The next store writes v3 and the entry serves again.
        assert!(cache.store(h, &Config::c4(), &a));
        assert_eq!(cache.load(key).unwrap(), a);
        assert_eq!(&std::fs::read(&path).unwrap()[..4], &MAGIC_V3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_leave_a_valid_entry() {
        let dir = tmp_dir("race");
        let a = sample();
        let (h, _, key) = keys(0x7777, &Config::c4());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (dir, a) = (&dir, &a);
                s.spawn(move || {
                    let cache = DiskCache::new(dir);
                    for _ in 0..20 {
                        assert!(cache.store(h, &Config::c4(), a));
                    }
                });
            }
        });
        assert_eq!(DiskCache::new(&dir).load(key).unwrap(), a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_and_corrupting_readers_converge() {
        // Writers re-store while readers load and a vandal periodically
        // tears the entry: loads must only ever yield the one valid
        // analysis or a miss, and the GC must not wedge the writers.
        let dir = tmp_dir("race-gc");
        let a = sample();
        let (h, _, key) = keys(0x9999, &Config::c4());
        let path = dir.join(format!("{key:016x}.fsc"));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (dir, a) = (&dir, &a);
                s.spawn(move || {
                    let cache = DiskCache::new(dir);
                    for _ in 0..30 {
                        cache.store(h, &Config::c4(), a);
                    }
                });
            }
            for _ in 0..4 {
                let (dir, a) = (&dir, &a);
                s.spawn(move || {
                    let cache = DiskCache::new(dir);
                    for _ in 0..30 {
                        if let Some(got) = cache.load(key) {
                            assert_eq!(&got, a);
                        }
                    }
                });
            }
            let path = &path;
            s.spawn(move || {
                for _ in 0..10 {
                    if let Ok(full) = std::fs::read(path) {
                        let _ = std::fs::write(path, &full[..full.len() / 2]);
                    }
                    std::thread::yield_now();
                }
            });
        });
        let cache = DiskCache::new(&dir);
        cache.store(h, &Config::c4(), &a);
        assert_eq!(cache.load(key).unwrap(), a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_cache_counts_hits_and_shares_arcs() {
        let cache = ResultCache::new();
        let a = Arc::new(sample());
        assert!(cache.get(1).is_none());
        cache.insert(1, a.clone());
        let hit = cache.get(1).unwrap();
        assert!(Arc::ptr_eq(&hit, &a), "hits share the stored allocation");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn wire_bytes_attach_once_and_share() {
        let cache = ResultCache::new();
        let a = Arc::new(sample());
        cache.insert(5, a.clone());
        assert!(cache.wire(5).is_none(), "no bytes before any reply encoded them");
        let first = Arc::new(vec![1u8, 2, 3]);
        let won = cache.set_wire(5, first.clone());
        assert!(Arc::ptr_eq(&won, &first));
        // A racing second encoder converges on the first allocation.
        let second = Arc::new(vec![9u8]);
        let kept = cache.set_wire(5, second);
        assert!(Arc::ptr_eq(&kept, &first), "first writer wins");
        assert!(Arc::ptr_eq(&cache.wire(5).unwrap(), &first));
        // Wire lookups are not hit/miss events.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Replacing the analysis drops the stale bytes.
        cache.insert(5, a);
        assert!(cache.wire(5).is_none());
        // Setting on an absent key caches nothing.
        let orphan = Arc::new(vec![7u8]);
        assert!(Arc::ptr_eq(&cache.set_wire(6, orphan.clone()), &orphan));
        assert!(cache.wire(6).is_none());
    }

    #[test]
    fn config_fingerprints_are_distinct() {
        let fps: Vec<u64> = Config::table2().iter().map(|(_, c)| config_fingerprint(c)).collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j]);
            }
        }
        let mut odd = Config::c4();
        odd.min_tail_referers = 3;
        assert_ne!(config_fingerprint(&odd), config_fingerprint(&Config::c4()));
        let mut scan = Config::c4();
        scan.endbr_pattern_scan = true;
        assert_ne!(config_fingerprint(&scan), config_fingerprint(&Config::c4()));
        let mut prune = Config::c3();
        prune.reach_prune = true;
        assert_ne!(config_fingerprint(&prune), config_fingerprint(&Config::c3()));
        let mut ip = Config::c4();
        ip.interproc = true;
        assert_ne!(config_fingerprint(&ip), config_fingerprint(&Config::c4()));
    }

    #[test]
    fn round_trips_pruned_count_and_interproc() {
        let mut a = sample();
        a.pruned_count = 17;
        a.interproc = Some(funseeker::InterprocSummary {
            cfg_count: 12,
            block_count: 340,
            cfg_edge_count: 512,
            direct_call_edges: 31,
            tail_call_edges: 4,
            indirect_sites: 9,
            indirect_targets: 11,
        });
        let (h, fp, key) = keys(0x1234, &Config::c4());
        let record = encode(h, fp, &a).unwrap();
        let back = decode(key, &record).unwrap();
        assert_eq!(back.pruned_count, 17);
        assert_eq!(back.interproc, a.interproc);
        assert_eq!(back, a);
    }
}
