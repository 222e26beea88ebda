//! The tagged-word heap and the mechanics of two-space copying collection.
//!
//! Layout: an object is a header word followed by `len` field words.  A
//! tagged pointer is `(word_index << 3) | tag`, so displacement addressing
//! (`(ptr + disp) >> 3`) folds the tag subtraction into the same instruction
//! — the classic trick the paper's optimizer must be able to reach.
//!
//! The header packs `len << 16 | type_id` and is never itself scanned as a
//! field.  During collection the header is overwritten by a negative
//! forwarding word carrying the object's new index.
//!
//! Which low-bit patterns denote pointers is *not* hardwired: the collector
//! consults the pointer-pattern table derived from the representation
//! registry (library policy).

use crate::error::{VmError, VmErrorKind};
use std::collections::TryReserveError;

/// A machine word.
pub type Word = i64;

/// Number of low tag bits in a pointer (mirrors
/// [`sxr_ir::rep::POINTER_TAG_BITS`]).
pub const TAG_BITS: u32 = 3;

/// Packs an object header.
pub fn header(len: usize, type_id: u16) -> Word {
    ((len as i64) << 16) | type_id as i64
}

/// Field count from a header.
pub fn header_len(h: Word) -> usize {
    (h >> 16) as usize
}

/// Type id from a header.
pub fn header_type(h: Word) -> u16 {
    (h & 0xFFFF) as u16
}

/// Post-collection growth target for a heap of `capacity` words holding
/// `used` live words that must satisfy an allocation of `need` words.
///
/// The target is *strictly* larger than the current capacity and at least
/// twice the live data, so growth decisions are monotone: a heap that the
/// policy decides to grow always gets real headroom, and a near-full heap
/// can never be sent back to re-collect on every allocation.  (An earlier
/// heuristic computed `(used + need + 1).next_power_of_two()`, which can be
/// no larger than the current capacity — a silent no-op grow.)
pub fn grow_target(used: usize, need: usize, capacity: usize) -> usize {
    ((used + need) * 2).max(capacity * 2)
}

/// The heap: a single growable space plus an allocation cursor, and a
/// retired semispace kept for the next collection.
#[derive(Debug)]
pub struct Heap {
    space: Vec<Word>,
    next: usize,
    /// The previous from-space, recycled as the next to-space (see
    /// [`Heap::end_gc`]).  Without recycling, fault schedules that collect
    /// at every allocation would allocate and free a capacity-sized buffer
    /// per object.
    spare: Vec<Word>,
}

impl Heap {
    /// Creates a heap with the given capacity in words.
    pub fn new(capacity_words: usize) -> Heap {
        Heap {
            space: vec![0; capacity_words.max(64)],
            next: 0,
            spare: Vec::new(),
        }
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.space.len()
    }

    /// Words currently in use.
    pub fn used(&self) -> usize {
        self.next
    }

    /// Words still free.
    pub fn free(&self) -> usize {
        self.space.len() - self.next
    }

    /// True if an allocation of `len` fields (plus header) would not fit.
    pub fn needs_gc(&self, len: usize) -> bool {
        self.next + len + 1 > self.space.len()
    }

    /// Grows capacity to at least `capacity_words`. Existing indices remain
    /// valid (addresses are indices, not Rust pointers).
    ///
    /// # Errors
    ///
    /// Fails, leaving the heap as it was, when the host refuses the memory.
    pub fn grow_to(&mut self, capacity_words: usize) -> Result<(), TryReserveError> {
        if capacity_words > self.space.len() {
            self.space
                .try_reserve_exact(capacity_words - self.space.len())?;
            self.space.resize(capacity_words, 0);
        }
        Ok(())
    }

    /// Allocates an object with `len` fields, all set to `fill`, returning
    /// its word index (of the header).
    ///
    /// # Panics
    ///
    /// Panics (in all builds) when space was not ensured beforehand: an
    /// unreserved allocation would otherwise index past the space vector
    /// with a nondescript slice panic in release builds only, making debug
    /// and release disagree on a machine invariant.
    pub fn alloc(&mut self, len: usize, type_id: u16, fill: Word) -> usize {
        assert!(!self.needs_gc(len), "caller must ensure space");
        let idx = self.next;
        self.space[idx] = header(len, type_id);
        for i in 0..len {
            self.space[idx + 1 + i] = fill;
        }
        self.next = idx + 1 + len;
        idx
    }

    /// Reads the word at `idx`.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if `idx` is outside the allocated region.
    pub fn get(&self, idx: usize) -> Result<Word, VmError> {
        self.space
            .get(idx)
            .copied()
            .filter(|_| idx < self.next)
            .ok_or_else(|| {
                VmError::new(
                    VmErrorKind::BadMemoryAccess,
                    format!("load outside heap at word {idx}"),
                )
            })
    }

    /// Writes the word at `idx`.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if `idx` is outside the allocated region.
    pub fn set(&mut self, idx: usize, w: Word) -> Result<(), VmError> {
        if idx >= self.next {
            return Err(VmError::new(
                VmErrorKind::BadMemoryAccess,
                format!("store outside heap at word {idx}"),
            ));
        }
        self.space[idx] = w;
        Ok(())
    }

    /// Begins a collection: replaces the space with a to-space of
    /// `capacity` (recycling the spare semispace when one is available)
    /// and returns the old (from-) space.
    ///
    /// The to-space is *not* zeroed beyond what resizing requires: words
    /// past the allocation cursor are never read before being written
    /// (allocation fills them, forwarding copies over them, and
    /// [`Heap::get`]/[`Heap::set`] reject indices past the cursor).
    ///
    /// # Errors
    ///
    /// Fails, leaving the heap as it was, when the host refuses the memory
    /// for the to-space.
    pub fn begin_gc(&mut self, capacity: usize) -> Result<Vec<Word>, TryReserveError> {
        let mut to = std::mem::take(&mut self.spare);
        if let Err(e) = to.try_reserve_exact(capacity.saturating_sub(to.len())) {
            self.spare = to;
            return Err(e);
        }
        to.resize(capacity, 0);
        self.next = 0;
        Ok(std::mem::replace(&mut self.space, to))
    }

    /// Ends a collection by retiring the drained from-space for reuse as
    /// the next collection's to-space.
    pub fn end_gc(&mut self, from: Vec<Word>) {
        self.spare = from;
    }

    /// Forwards one word: if it is a pointer per `ptr_table`, copies its
    /// object into to-space (or follows an existing forwarding word) and
    /// returns the updated pointer; otherwise returns it unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`VmErrorKind::BadMemoryAccess`] when a word tagged as a
    /// pointer does not address an object inside from-space, or when the
    /// copy would overflow to-space.  Both indicate heap corruption or a
    /// pointer-map bug; silently continuing would mis-forward live data, so
    /// they are hard errors in every build, not debug assertions.
    pub fn forward(
        &mut self,
        from: &mut [Word],
        w: Word,
        ptr_table: &[bool; 8],
    ) -> Result<Word, VmError> {
        let tag = (w & 0b111) as usize;
        if !ptr_table[tag] {
            return Ok(w);
        }
        let idx = (w >> TAG_BITS) as usize;
        if idx >= from.len() {
            return Err(VmError::new(
                VmErrorKind::BadMemoryAccess,
                format!("gc: forward of out-of-range pointer {w:#x} (pointer-map bug?)"),
            ));
        }
        let h = from[idx];
        if h < 0 {
            // Already forwarded.
            let new_idx = h & 0x7FFF_FFFF_FFFF;
            return Ok((new_idx << TAG_BITS) | tag as i64);
        }
        let len = header_len(h);
        if idx + len + 1 > from.len() {
            return Err(VmError::new(
                VmErrorKind::BadMemoryAccess,
                format!("gc: object at word {idx} with corrupt length {len} overruns from-space"),
            ));
        }
        let new_idx = self.next;
        if new_idx + len + 1 > self.space.len() {
            return Err(VmError::new(
                VmErrorKind::BadMemoryAccess,
                "gc: to-space overflow (live data exceeds capacity; heap corruption?)",
            ));
        }
        self.space[new_idx..new_idx + len + 1].copy_from_slice(&from[idx..idx + len + 1]);
        self.next += len + 1;
        from[idx] = i64::MIN | new_idx as i64;
        Ok(((new_idx as i64) << TAG_BITS) | tag as i64)
    }

    /// Cheney scan: walks every object copied so far, forwarding its
    /// fields. `scan` is the resume point; returns the new resume point
    /// (equal to [`Heap::used`] when done).
    ///
    /// Closure fields are scanned precisely: when `closures` is given and
    /// an object's header type matches, the function id is decoded from the
    /// code field and free slots whose `free_ptr_map` entry is `false` are
    /// left unscanned — they hold untagged words whose low bits may alias a
    /// pointer tag.  Slots past the end of a map (or with no map at all,
    /// or with `closures` `None`) are conservatively scanned.
    ///
    /// # Errors
    ///
    /// Propagates [`Heap::forward`] failures.
    pub fn scan_from_precise(
        &mut self,
        mut scan: usize,
        from: &mut [Word],
        ptr_table: &[bool; 8],
        closures: Option<&ClosureScan<'_>>,
    ) -> Result<usize, VmError> {
        while scan < self.next {
            let h = self.space[scan];
            let len = header_len(h);
            let slot_map = closures
                .filter(|cs| header_type(h) == cs.type_id && len >= 1)
                .map(|cs| {
                    let fnid = (self.space[scan + 1] >> cs.code_shift) as usize;
                    cs.funs
                        .get(fnid)
                        .map(|f| f.free_ptr_map.as_slice())
                        .unwrap_or(&[])
                });
            for i in 1..=len {
                // Field 1 of a closure is the code fixnum; fields 2.. are
                // free slots 0.. with per-slot scan decisions.
                if let Some(map) = slot_map {
                    if i >= 2 && !map.get(i - 2).copied().unwrap_or(true) {
                        continue;
                    }
                }
                let w = self.space[scan + i];
                let fwd = self.forward(from, w, ptr_table)?;
                self.space[scan + i] = fwd;
            }
            scan += len + 1;
        }
        Ok(scan)
    }
}

/// Layout facts [`Heap::scan_from_precise`] needs to recognize closures and
/// skip their raw free slots.
#[derive(Debug, Clone, Copy)]
pub struct ClosureScan<'a> {
    /// Header type id of closure objects.
    pub type_id: u16,
    /// Right-shift decoding the code field (a tagged fixnum) to a function
    /// index.
    pub code_shift: u32,
    /// The program's functions; free slot `i` of a closure over `funs[f]`
    /// is scanned iff `funs[f].free_ptr_map[i]` (missing entries default to
    /// scanned).
    pub funs: &'a [crate::inst::CodeFun],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = header(12, 7);
        assert_eq!(header_len(h), 12);
        assert_eq!(header_type(h), 7);
        assert!(h >= 0);
    }

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new(64);
        let idx = h.alloc(2, 3, 99);
        assert_eq!(h.get(idx).unwrap(), header(2, 3));
        assert_eq!(h.get(idx + 1).unwrap(), 99);
        h.set(idx + 2, 7).unwrap();
        assert_eq!(h.get(idx + 2).unwrap(), 7);
        assert_eq!(h.used(), 3);
        assert!(h.get(100).is_err());
        assert!(h.set(50, 0).is_err());
    }

    #[test]
    fn gc_copies_live_graph() {
        let mut ptr_table = [false; 8];
        ptr_table[1] = true; // "pair" tag
        let mut h = Heap::new(256);
        // Build: a -> b (a's field 1 points at b), plus garbage.
        let b = h.alloc(2, 5, 42);
        let _garbage = h.alloc(10, 5, 0);
        let a = h.alloc(2, 5, 0);
        let b_ptr = ((b as i64) << 3) | 1;
        h.set(a + 1, b_ptr).unwrap();
        let a_ptr = ((a as i64) << 3) | 1;

        let mut from = h.begin_gc(256).unwrap();
        let new_a = h.forward(&mut from, a_ptr, &ptr_table).unwrap();
        h.scan_from_precise(0, &mut from, &ptr_table, None).unwrap();
        // Only a and b survive: 3 + 3 words.
        assert_eq!(h.used(), 6);
        let a_idx = (new_a >> 3) as usize;
        let new_b_ptr = h.get(a_idx + 1).unwrap();
        assert_eq!(new_b_ptr & 7, 1, "field still tagged as pair");
        let b_idx = (new_b_ptr >> 3) as usize;
        assert_eq!(h.get(b_idx + 1).unwrap(), 42, "b's payload survived");
    }

    #[test]
    fn gc_shares_already_forwarded() {
        let mut ptr_table = [false; 8];
        ptr_table[1] = true;
        let mut h = Heap::new(128);
        let b = h.alloc(1, 5, 7);
        let b_ptr = ((b as i64) << 3) | 1;
        let a = h.alloc(2, 5, 0);
        h.set(a + 1, b_ptr).unwrap();
        h.set(a + 2, b_ptr).unwrap(); // two references to b
        let a_ptr = ((a as i64) << 3) | 1;

        let mut from = h.begin_gc(128).unwrap();
        let new_a = h.forward(&mut from, a_ptr, &ptr_table).unwrap();
        h.scan_from_precise(0, &mut from, &ptr_table, None).unwrap();
        let a_idx = (new_a >> 3) as usize;
        assert_eq!(
            h.get(a_idx + 1).unwrap(),
            h.get(a_idx + 2).unwrap(),
            "sharing preserved"
        );
        assert_eq!(h.used(), 5);
    }

    #[test]
    fn non_pointers_untouched() {
        let ptr_table = [false; 8];
        let mut h = Heap::new(64);
        let mut from = h.begin_gc(64).unwrap();
        assert_eq!(
            h.forward(&mut from, 12345 << 3, &ptr_table).unwrap(),
            12345 << 3
        );
    }

    #[test]
    fn forward_out_of_range_is_hard_error() {
        let mut ptr_table = [false; 8];
        ptr_table[1] = true;
        let mut h = Heap::new(64);
        let mut from = h.begin_gc(64).unwrap();
        // A "pointer" addressing far beyond from-space.
        let bogus = (1_000_000i64 << 3) | 1;
        let err = h.forward(&mut from, bogus, &ptr_table).unwrap_err();
        assert_eq!(err.kind, VmErrorKind::BadMemoryAccess);
        assert!(err.message.contains("out-of-range"));
    }

    #[test]
    fn forward_to_space_overflow_is_hard_error() {
        let mut ptr_table = [false; 8];
        ptr_table[1] = true;
        let mut h = Heap::new(64);
        let obj = h.alloc(10, 5, 0);
        let ptr = ((obj as i64) << 3) | 1;
        // Begin a GC into a to-space too small to hold the object.
        let mut from = h.begin_gc(4).unwrap();
        let err = h.forward(&mut from, ptr, &ptr_table).unwrap_err();
        assert_eq!(err.kind, VmErrorKind::BadMemoryAccess);
        assert!(err.message.contains("to-space overflow"));
    }

    #[test]
    fn forward_corrupt_length_is_hard_error() {
        let mut ptr_table = [false; 8];
        ptr_table[1] = true;
        let mut h = Heap::new(64);
        let obj = h.alloc(1, 5, 0);
        // Corrupt the header so the object claims to overrun from-space.
        h.set(obj, header(1 << 20, 5)).unwrap();
        let ptr = ((obj as i64) << 3) | 1;
        let mut from = h.begin_gc(64).unwrap();
        let err = h.forward(&mut from, ptr, &ptr_table).unwrap_err();
        assert_eq!(err.kind, VmErrorKind::BadMemoryAccess);
        assert!(err.message.contains("corrupt length"));
    }

    #[test]
    fn grow_target_is_monotone_and_roomy() {
        // Strictly larger than the current capacity...
        for cap in [64usize, 100, 4096, 5000] {
            for (used, need) in [(0usize, 1usize), (cap / 2, 3), (cap - 1, 64)] {
                let t = grow_target(used, need, cap);
                assert!(t > cap, "target {t} must exceed capacity {cap}");
                assert!(t >= 2 * used, "target {t} must be at least 2x used {used}");
                assert!(t >= used + need, "target {t} must fit the request");
            }
        }
        // ...where the old `(used + need + 1).next_power_of_two()` was not:
        let (used, need, cap) = (4000usize, 3usize, 8192usize);
        assert!(
            (used + need + 1).next_power_of_two() <= cap,
            "old target no-ops"
        );
        assert!(grow_target(used, need, cap) > cap);
    }

    #[test]
    fn semispace_recycling_preserves_collection_results() {
        let mut ptr_table = [false; 8];
        ptr_table[1] = true;
        let mut h = Heap::new(128);
        // Two back-to-back collections of the same one-object graph; the
        // second reuses the first's retired from-space as its to-space.
        for round in 0..2 {
            let payload = (1000 + round) << 3; // fixnum-style, tag 0
            let obj = h.alloc(2, 5, payload);
            let ptr = ((obj as i64) << 3) | 1;
            let mut from = h.begin_gc(128).unwrap();
            let fwd = h.forward(&mut from, ptr, &ptr_table).unwrap();
            h.scan_from_precise(0, &mut from, &ptr_table, None).unwrap();
            h.end_gc(from);
            let idx = (fwd >> 3) as usize;
            assert_eq!(h.get(idx + 1).unwrap(), payload);
            assert_eq!(h.used(), 3);
        }
    }

    #[test]
    fn grow_preserves_indices() {
        let mut h = Heap::new(64);
        let idx = h.alloc(1, 2, 5);
        h.grow_to(1024).unwrap();
        assert_eq!(h.get(idx + 1).unwrap(), 5);
        assert_eq!(h.capacity(), 1024);
    }
}
