//! The rsync algorithm: signatures, deltas, patching.
//!
//! §3.5: "new files are transferred by the rsync program". rsync's trick is
//! the two-level checksum: the receiver sends per-block signatures (a cheap
//! *rolling* weak checksum plus a strong hash); the sender slides a window
//! over the new file, matching weak sums first and confirming with the
//! strong hash, emitting `Copy` references for matched blocks and literal
//! bytes for everything else. We implement the real thing — weak checksum
//! in the Adler-32 style rsync uses, MD5 (from `frostlab-compress`) as the
//! strong hash.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use frostlab_compress::md5::md5;

/// The rolling weak checksum (rsync's a/b split, mod 2¹⁶).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rolling {
    a: u32,
    b: u32,
    len: usize,
}

impl Rolling {
    /// Compute over an initial window.
    pub fn new(window: &[u8]) -> Self {
        let mut a = 0u32;
        let mut b = 0u32;
        let n = window.len() as u32;
        for (i, &x) in window.iter().enumerate() {
            a = (a + u32::from(x)) & 0xFFFF;
            b = (b + (n - i as u32) * u32::from(x)) & 0xFFFF;
        }
        Rolling {
            a,
            b,
            len: window.len(),
        }
    }

    /// Slide the window one byte: drop `out`, take in `inn`.
    pub fn roll(&mut self, out: u8, inn: u8) {
        let n = self.len as u32;
        self.a = (self
            .a
            .wrapping_sub(u32::from(out))
            .wrapping_add(u32::from(inn)))
            & 0xFFFF;
        self.b = (self.b.wrapping_sub(n * u32::from(out)).wrapping_add(self.a)) & 0xFFFF;
    }

    /// The 32-bit digest.
    pub fn digest(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// Per-block signature of the receiver's current copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Block size used.
    pub block_size: usize,
    /// `(weak, strong)` per block, in order.
    pub blocks: Vec<(u32, [u8; 16])>,
    /// Total length of the signed data.
    pub total_len: usize,
}

/// Compute the signature of `data` with the given block size.
///
/// # Panics
/// Panics if `block_size == 0`.
pub fn signature(data: &[u8], block_size: usize) -> Signature {
    assert!(block_size > 0, "block size must be positive");
    let blocks = data
        .chunks(block_size)
        .map(|c| (Rolling::new(c).digest(), md5(c)))
        .collect();
    Signature {
        block_size,
        blocks,
        total_len: data.len(),
    }
}

/// One instruction in a delta.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp<'a> {
    /// Copy `blocks` consecutive blocks of the old file, starting at block
    /// `index`.
    Copy {
        /// Index of the first block in the signature's block list.
        index: u32,
        /// Number of blocks in the run (at least one).
        blocks: u32,
    },
    /// Insert literal bytes: a run of the new file.
    Literal(&'a [u8]),
}

/// A delta transforming the signed old file into the new file; its
/// literal runs borrow from the new file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Delta<'a> {
    /// The instructions, in output order.
    pub ops: Vec<DeltaOp<'a>>,
}

impl Delta<'_> {
    /// Bytes of literal data carried (what actually crosses the wire,
    /// besides tiny copy tokens).
    pub fn literal_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(v) => v.len(),
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Number of blocks copied from the old file (a run counts each of its
    /// blocks).
    pub fn copy_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Copy { blocks, .. } => *blocks as usize,
                DeltaOp::Literal(_) => 0,
            })
            .sum()
    }
}

/// "No further block" in a [`BlockIndex`] chain.
const END: u32 = u32::MAX;

/// The matchable part of a signature: the strong hash of every *full*
/// block (only full blocks are matchable by the rolling window; the final
/// short block, if any, is matched separately at the tail), and a weak-sum
/// index over them.
///
/// The index is a chained hash: one map entry per distinct weak sum
/// holding the first and last block with that sum, plus one link per
/// block. Candidates come out in ascending block order, and adding a
/// newly completed block is O(1), so [`CachedSync`] extends it across
/// rounds instead of rebuilding it.
#[derive(Debug, Clone)]
struct BlockIndex {
    block_size: usize,
    strong: Vec<[u8; 16]>,
    /// Weak sum → `(first, last)` block with that sum.
    chains: HashMap<u32, (u32, u32)>,
    /// `next[i]`: the next block after `i` with the same weak sum, or `END`.
    next: Vec<u32>,
}

impl BlockIndex {
    fn new(block_size: usize) -> BlockIndex {
        BlockIndex {
            block_size,
            strong: Vec::new(),
            chains: HashMap::new(),
            next: Vec::new(),
        }
    }

    /// The full blocks of `sig`.
    fn of_signature(sig: &Signature) -> BlockIndex {
        let mut index = BlockIndex::new(sig.block_size);
        let full = sig.total_len / sig.block_size;
        for &(weak, strong) in sig.blocks.iter().take(full) {
            index.push_signed(weak, strong);
        }
        index
    }

    /// Number of indexed blocks.
    fn len(&self) -> usize {
        self.strong.len()
    }

    /// Index one more full block of content.
    fn push(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), self.block_size);
        self.push_signed(Rolling::new(block).digest(), md5(block));
    }

    fn push_signed(&mut self, weak: u32, strong: [u8; 16]) {
        let i = self.strong.len() as u32;
        self.strong.push(strong);
        self.next.push(END);
        match self.chains.entry(weak) {
            Entry::Occupied(mut chain) => {
                let (_, last) = chain.get_mut();
                self.next[*last as usize] = i;
                *last = i;
            }
            Entry::Vacant(slot) => {
                slot.insert((i, i));
            }
        }
    }

    /// The first block whose weak sum is `weak` and whose strong hash is
    /// the window's. The window's MD5 is computed only on a weak hit.
    fn find(&self, weak: u32, window: &[u8]) -> Option<u32> {
        let &(mut i, _) = self.chains.get(&weak)?;
        let strong = md5(window);
        while i != END {
            if self.strong[i as usize] == strong {
                return Some(i);
            }
            i = self.next[i as usize];
        }
        None
    }
}

/// Compute the delta producing `new_data` given the receiver's `sig`.
pub fn delta<'a>(sig: &Signature, new_data: &'a [u8]) -> Delta<'a> {
    let index = BlockIndex::of_signature(sig);
    let bs = sig.block_size;
    let short_len = sig.total_len % bs;
    let last = sig.blocks.len().wrapping_sub(1);
    let mut ops = Vec::new();
    scan(
        &index,
        new_data,
        0,
        |tail| {
            let matches = |&(_, strong): &(u32, [u8; 16])| strong == md5(tail);
            (short_len != 0 && short_len == tail.len() && sig.blocks.last().is_some_and(matches))
                .then_some(last as u32)
        },
        &mut ops,
    );
    Delta { ops }
}

/// The sender's sliding-window scan from `pos` to the end of `new_data`,
/// appending ops. `short_block(tail)` names the old file's short final
/// block when the unmatched tail equals it. Shared by [`delta`] and
/// [`CachedSync`]: at every block boundary the scan state is (empty
/// literal, no window), so resuming at a boundary is indistinguishable
/// from having scanned the prefix.
fn scan<'a>(
    index: &BlockIndex,
    new_data: &'a [u8],
    mut pos: usize,
    short_block: impl FnOnce(&[u8]) -> Option<u32>,
    ops: &mut Vec<DeltaOp<'a>>,
) {
    let bs = index.block_size;
    // The pending literal run is `new_data[literal..pos]`.
    let mut literal = pos;
    let mut roll: Option<Rolling> = None;
    let copy = |ops: &mut Vec<DeltaOp<'a>>, literal: usize, pos: usize, index: u32| {
        if literal < pos {
            ops.push(DeltaOp::Literal(&new_data[literal..pos]));
        }
        ops.push(DeltaOp::Copy { index, blocks: 1 });
    };

    while pos + bs <= new_data.len() {
        let r = roll.get_or_insert_with(|| Rolling::new(&new_data[pos..pos + bs]));
        if let Some(block_idx) = index.find(r.digest(), &new_data[pos..pos + bs]) {
            copy(ops, literal, pos, block_idx);
            pos += bs;
            literal = pos;
            roll = None;
        } else {
            let out = new_data[pos];
            pos += 1;
            if pos + bs <= new_data.len() {
                r.roll(out, new_data[pos + bs - 1]);
            } else {
                roll = None;
            }
        }
    }
    // Tail: try to match the final short block, else literal.
    let tail = &new_data[pos..];
    if !tail.is_empty() {
        if let Some(block_idx) = short_block(tail) {
            copy(ops, literal, pos, block_idx);
            literal = new_data.len();
        }
    }
    if literal < new_data.len() {
        ops.push(DeltaOp::Literal(&new_data[literal..]));
    }
}

/// Errors from [`apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A copy op referenced a block the old file does not have.
    BadBlockIndex,
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta references a nonexistent block")
    }
}

impl std::error::Error for ApplyError {}

/// Apply a delta to the old data, producing the new file.
pub fn apply(old_data: &[u8], block_size: usize, d: &Delta) -> Result<Vec<u8>, ApplyError> {
    let mut out = Vec::new();
    for op in &d.ops {
        match op {
            DeltaOp::Copy { index, blocks } => {
                // Every block of the run must exist; only the last may be
                // short.
                let start = *index as usize * block_size;
                let last_start = (*blocks as usize)
                    .checked_sub(1)
                    .map(|more| start + more * block_size)
                    .filter(|&last| last < old_data.len())
                    .ok_or(ApplyError::BadBlockIndex)?;
                let end = (last_start + block_size).min(old_data.len());
                out.extend_from_slice(&old_data[start..end]);
            }
            DeltaOp::Literal(bytes) => out.extend_from_slice(bytes),
        }
    }
    Ok(out)
}

/// Convenience: one-shot sync. Returns `(new_copy, delta)` so callers can
/// account transferred bytes.
pub fn sync<'a>(old_data: &[u8], new_data: &'a [u8], block_size: usize) -> (Vec<u8>, Delta<'a>) {
    let sig = signature(old_data, block_size);
    let d = delta(&sig, new_data);
    // A delta built against this very signature can only reference blocks
    // the old file has, so `apply` is total here; the fallback keeps the
    // result correct regardless (the rebuilt file IS the new file).
    let rebuilt = apply(old_data, block_size, &d).unwrap_or_else(|_| new_data.to_vec());
    debug_assert_eq!(rebuilt, new_data);
    (rebuilt, d)
}

/// A receiver-side mirror of an append-only file, kept as signature state
/// rather than bytes.
///
/// [`sync`] signs the whole old file and scans the whole new file on every
/// call: O(file) work per round to find that one line was added.
/// `CachedSync` keeps what the next round needs and nothing else: the
/// strong hash and weak-index entry of every full block, and the bytes
/// after the last full block (fewer than one block). A round costs
/// O(bytes appended since the last round):
///
/// * the synced full blocks are emitted as one copy run, without being
///   read — the sender's file only ever grows by appends, so they are
///   still its prefix (a `debug_assert` checks the retained tail);
/// * the sender's scan resumes at the last block boundary, against the
///   weak index as it stands;
/// * blocks completed by the new bytes are signed and indexed once; the
///   short block's strong hash is computed only when the tail-match
///   length test passes.
///
/// The delta is equivalent to [`sync`]'s against the synced content: the
/// prefix matches block for block (each full block's own signature is
/// present, so the stock scan emits one copy per block and reaches the
/// boundary with an empty literal run), and the remainder goes through
/// the identical `scan`. Literal bytes and copy counts are exactly what
/// the stock path yields.
///
/// A shorter file is a truncation, not an append: the mirror scans it
/// from the start, as [`sync`] does, and re-signs it. A file that is not
/// shorter must extend the synced content.
#[derive(Debug)]
pub struct CachedSync {
    blocks: BlockIndex,
    /// Synced bytes after the last full block.
    tail: Vec<u8>,
}

impl CachedSync {
    /// Empty mirror with the given block size.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn new(block_size: usize) -> CachedSync {
        assert!(block_size > 0, "block size must be positive");
        CachedSync {
            blocks: BlockIndex::new(block_size),
            tail: Vec::new(),
        }
    }

    /// Length of the synced content.
    pub fn synced_len(&self) -> usize {
        self.blocks.len() * self.blocks.block_size + self.tail.len()
    }

    /// Content bytes the mirror holds: the part after the last full block.
    pub fn held_bytes(&self) -> usize {
        self.tail.len()
    }

    /// Bring the mirror up to `new_data`, returning the delta that rsync
    /// would have shipped.
    pub fn sync_from<'a>(&mut self, new_data: &'a [u8]) -> Delta<'a> {
        let bs = self.blocks.block_size;
        let synced = self.synced_len();
        let appended = new_data.len() >= synced;
        // Blocks the new content keeps as they are.
        let kept = if appended { self.blocks.len() } else { 0 };
        let boundary = kept * bs;
        debug_assert!(
            !appended || new_data[boundary..boundary + self.tail.len()] == self.tail[..],
            "new content does not extend the synced content"
        );
        let mut ops = Vec::new();
        if kept > 0 {
            ops.push(DeltaOp::Copy {
                index: 0,
                blocks: kept as u32,
            });
        }
        let (tail, short) = (&self.tail, self.blocks.len() as u32);
        scan(
            &self.blocks,
            new_data,
            boundary,
            |rest| {
                (!tail.is_empty() && tail.len() == rest.len() && md5(tail) == md5(rest))
                    .then_some(short)
            },
            &mut ops,
        );
        // Take in the new bytes (only those: the retained tail already
        // holds the rest), then sign every block they complete.
        if appended {
            self.tail.extend_from_slice(&new_data[synced..]);
        } else {
            self.blocks = BlockIndex::new(bs);
            self.tail.clear();
            self.tail.extend_from_slice(new_data);
        }
        let full = self.tail.len() / bs * bs;
        for block in self.tail[..full].chunks_exact(bs) {
            self.blocks.push(block);
        }
        self.tail.drain(..full);
        Delta { ops }
    }

    /// The signature [`signature`] computes over the synced content.
    #[cfg(test)]
    pub(crate) fn signature(&self) -> Signature {
        let bs = self.blocks.block_size;
        let mut sig = Signature {
            block_size: bs,
            blocks: Vec::new(),
            total_len: self.synced_len(),
        };
        let mut weak = vec![0u32; self.blocks.len()];
        for (&w, &(first, _)) in &self.blocks.chains {
            let mut i = first;
            while i != END {
                weak[i as usize] = w;
                i = self.blocks.next[i as usize];
            }
        }
        sig.blocks = weak
            .into_iter()
            .zip(self.blocks.strong.iter().copied())
            .collect();
        if !self.tail.is_empty() {
            sig.blocks
                .push((Rolling::new(&self.tail).digest(), md5(&self.tail)));
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_matches_fresh_computation() {
        let data: Vec<u8> = (0..200u8).collect();
        let w = 16;
        let mut r = Rolling::new(&data[0..w]);
        for pos in 1..(data.len() - w) {
            r.roll(data[pos - 1], data[pos + w - 1]);
            let fresh = Rolling::new(&data[pos..pos + w]);
            assert_eq!(r.digest(), fresh.digest(), "at pos {pos}");
        }
    }

    #[test]
    fn identical_files_are_all_copies() {
        let data = b"the monitoring host recovers all calculated md5sums".repeat(20);
        let (rebuilt, d) = sync(&data, &data, 64);
        assert_eq!(rebuilt, data);
        assert_eq!(
            d.literal_bytes(),
            0,
            "identical file must ship zero literals"
        );
        assert_eq!(d.copy_count(), data.len().div_ceil(64));
    }

    #[test]
    fn appended_log_ships_only_the_tail() {
        // The collector's common case: a log file that grew.
        let old = b"line-one\nline-two\nline-three\n".repeat(40);
        let mut new = old.clone();
        new.extend_from_slice(b"line-new 2010-03-07 04:40 host15 wrong-hash\n");
        let (rebuilt, d) = sync(&old, &new, 64);
        assert_eq!(rebuilt, new);
        assert!(
            d.literal_bytes() < 64 + 64,
            "append case should ship ≲ 2 blocks of literals, got {}",
            d.literal_bytes()
        );
    }

    #[test]
    fn middle_edit_localized() {
        let old: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut new = old.clone();
        new[2000] ^= 0xFF;
        let (rebuilt, d) = sync(&old, &new, 128);
        assert_eq!(rebuilt, new);
        assert!(
            d.literal_bytes() <= 256,
            "single-byte edit should cost ≈ one block: {}",
            d.literal_bytes()
        );
    }

    #[test]
    fn completely_different_files() {
        let old = vec![0xAAu8; 2000];
        let new: Vec<u8> = (0..2000u32).map(|i| (i * 17 % 256) as u8).collect();
        let (rebuilt, d) = sync(&old, &new, 128);
        assert_eq!(rebuilt, new);
        assert_eq!(d.literal_bytes(), 2000);
        assert_eq!(d.copy_count(), 0);
    }

    #[test]
    fn empty_edge_cases() {
        let (r1, _) = sync(b"", b"", 64);
        assert!(r1.is_empty());
        let (r2, d2) = sync(b"", b"fresh content", 64);
        assert_eq!(r2, b"fresh content");
        assert_eq!(d2.literal_bytes(), 13);
        let (r3, _) = sync(b"old content", b"", 64);
        assert!(r3.is_empty());
    }

    #[test]
    fn short_tail_block_matched() {
        // Old file not a multiple of block size; unchanged tail reused.
        let old = b"0123456789".repeat(13); // 130 bytes, bs 64 → tail 2
        let new = old.clone();
        let (rebuilt, d) = sync(&old, &new, 64);
        assert_eq!(rebuilt, new);
        assert_eq!(d.literal_bytes(), 0);
    }

    #[test]
    fn prepended_content() {
        let old = b"BBBBCCCCDDDD".repeat(32);
        let mut new = b"AAAA-prefix-".to_vec();
        new.extend_from_slice(&old);
        let (rebuilt, d) = sync(&old, &new, 48);
        assert_eq!(rebuilt, new);
        // Rolling matching must re-anchor after the prefix.
        assert!(
            d.literal_bytes() < 48 + 16,
            "prefix insert should stay local: {}",
            d.literal_bytes()
        );
    }

    /// Sync `cached` to `file` and check it against the stock oracle:
    /// equal literal bytes and copy counts, a delta that rebuilds `file`
    /// from the test-side copy `plain`, and signature state equal to a
    /// fresh signature of `file`. Returns the cached delta.
    fn check_against_oracle<'a>(
        cached: &mut CachedSync,
        plain: &mut Vec<u8>,
        file: &'a [u8],
        bs: usize,
        what: &str,
    ) -> Delta<'a> {
        let (rebuilt, d_plain) = sync(plain, file, bs);
        let d_cached = cached.sync_from(file);
        assert_eq!(
            d_cached.literal_bytes(),
            d_plain.literal_bytes(),
            "{what}: literal bytes diverge"
        );
        assert_eq!(
            d_cached.copy_count(),
            d_plain.copy_count(),
            "{what}: copy counts diverge"
        );
        assert_eq!(
            apply(plain, bs, &d_cached).as_deref(),
            Ok(file),
            "{what}: cached delta does not rebuild the file"
        );
        assert_eq!(cached.synced_len(), file.len(), "{what}: synced length");
        assert_eq!(
            cached.signature(),
            signature(file, bs),
            "{what}: signature state diverges"
        );
        *plain = rebuilt;
        d_cached
    }

    #[test]
    fn cached_sync_matches_stock_sync_across_append_histories() {
        // Drive the cached mirror and the stock per-round sync through the
        // same file history. Growth sizes cross block boundaries, land
        // exactly on them, and include a same-size round (which the
        // collector normally skips, but equivalence must hold regardless).
        let bs = 64;
        let mut cached = CachedSync::new(bs);
        let mut plain: Vec<u8> = Vec::new();
        let mut file: Vec<u8> = Vec::new();
        let growths = [10usize, 54, 64, 1, 500, 0, 63, 128, 7];
        for (round, g) in growths.iter().enumerate() {
            let line: Vec<u8> = (0..*g).map(|i| ((round * 37 + i) % 251) as u8).collect();
            file.extend_from_slice(&line);
            check_against_oracle(
                &mut cached,
                &mut plain,
                &file,
                bs,
                &format!("round {round}"),
            );
        }
    }

    #[test]
    fn cached_sync_handles_truncation() {
        let bs = 64;
        let mut cached = CachedSync::new(bs);
        let mut plain = Vec::new();
        let first = b"the first day's log content\n".repeat(20);
        check_against_oracle(&mut cached, &mut plain, &first, bs, "first");
        // A shorter file is scanned from the start and re-signed.
        let rewritten = b"fresh start\n".repeat(5);
        check_against_oracle(&mut cached, &mut plain, &rewritten, bs, "truncated");
        // And appends after the truncation resume at the block boundary.
        let mut grown = rewritten.clone();
        grown.extend_from_slice(b"appended line\n");
        check_against_oracle(&mut cached, &mut plain, &grown, bs, "grown");
    }

    #[test]
    fn cached_sync_append_ships_only_the_tail() {
        let bs = 512;
        let mut cached = CachedSync::new(bs);
        let mut plain = Vec::new();
        let old = b"line-one\nline-two\nline-three\n".repeat(60);
        check_against_oracle(&mut cached, &mut plain, &old, bs, "first");
        let mut new = old.clone();
        new.extend_from_slice(b"2010-03-07 04:40 host15 wrong-hash\n");
        let d = check_against_oracle(&mut cached, &mut plain, &new, bs, "append");
        assert!(
            d.literal_bytes() < 2 * bs,
            "append should ship ≲ 2 blocks, got {}",
            d.literal_bytes()
        );
        // The verified prefix is one copy run, not one op per block.
        assert_eq!(
            d.ops[0],
            DeltaOp::Copy {
                index: 0,
                blocks: (old.len() / bs) as u32
            }
        );
        // The mirror holds only the bytes past the last full block.
        assert_eq!(cached.held_bytes(), new.len() % bs);
    }

    #[test]
    fn bad_delta_rejected() {
        let copy = |index, blocks| Delta {
            ops: vec![DeltaOp::Copy { index, blocks }],
        };
        assert_eq!(
            apply(b"short", 64, &copy(99, 1)),
            Err(ApplyError::BadBlockIndex)
        );
        // A run must name at least one block, and every block must exist.
        let old = [7u8; 130];
        assert_eq!(apply(&old, 64, &copy(0, 0)), Err(ApplyError::BadBlockIndex));
        assert_eq!(apply(&old, 64, &copy(1, 3)), Err(ApplyError::BadBlockIndex));
        assert_eq!(apply(&old, 64, &copy(1, 2)), Ok(old[64..].to_vec()));
    }

    #[test]
    fn weak_collision_resolved_by_strong_hash() {
        // Construct two different blocks with the same weak checksum:
        // swapping two equal-sum byte pairs preserves `a`; craft data where
        // the rolling sum collides but content differs.
        let a_block = [1u8, 3, 2, 0];
        let b_block = [3u8, 1, 0, 2]; // same multiset sums differently in b-term
                                      // Even if weak sums collide or not, correctness must hold:
        let old: Vec<u8> = a_block.repeat(8);
        let new: Vec<u8> = b_block.repeat(8);
        let (rebuilt, _) = sync(&old, &new, 4);
        assert_eq!(rebuilt, new);
    }
}
