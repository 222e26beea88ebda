//! The representation registry: the shared vocabulary between library code,
//! the optimizer, the code generator, the loader, and the garbage collector.
//!
//! A [`RepInfo`] describes *how a data type is laid out in tagged machine
//! words*.  Crucially, nothing in this module decides what the layouts are:
//! entries are created by folding the prelude's `%make-immediate-type` /
//! `%make-pointer-type` calls (compile time) or by executing them (run
//! time).  The compiler proper consults the registry only through *roles*
//! (`"boolean"`, `"closure"`, …) that the library volunteers via
//! `%provide-rep!` — this is the paper's inversion: representation policy
//! lives in library code, the compiler merely looks it up.
//!
//! **The role-kind contract.** Each role in [`roles`] has a fixed kind:
//! [`roles::IMMEDIATE`] roles must be filled by an immediate
//! representation, [`roles::POINTER`] roles by a pointer representation.
//! [`RepRegistry::provide_role`] refuses a representation of the wrong
//! kind, and it is the only way a role is filled — at compile time and at
//! run time alike — so a consumer that finds a role may trust its kind.
//! The typed lookups [`RepRegistry::role_word`],
//! [`RepRegistry::immediate_role`] and [`RepRegistry::pointer_role`] read a
//! role's encoding without re-checking it; each consumer only reports a
//! *missing* role, in its own error type.

use std::collections::HashMap;
use std::fmt;

/// Index of a representation type in a [`RepRegistry`].
pub type RepId = u32;

/// Number of low bits a pointer tag may occupy. The VM identifies heap
/// pointers from the low [`POINTER_TAG_BITS`] bits of a word, so every
/// pointer representation must use exactly this many tag bits.
pub const POINTER_TAG_BITS: u32 = 3;

/// How values of a representation type are encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepKind {
    /// `value = (payload << shift) | tag`, with `tag` occupying the low
    /// `tag_bits` bits and `shift >= tag_bits`.
    Immediate {
        /// Number of low bits holding the tag.
        tag_bits: u32,
        /// The tag pattern.
        tag: u64,
        /// Left shift applied to the payload.
        shift: u32,
    },
    /// `value = heap_address | tag`; the heap object is a header word
    /// followed by tagged fields.
    Pointer {
        /// The low-bit tag pattern (always [`POINTER_TAG_BITS`] bits wide).
        tag: u64,
        /// If true, the tag is shared with other pointer types and a type
        /// test must also compare the header's type id.
        discriminated: bool,
    },
}

/// One representation type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepInfo {
    /// The name given at construction (e.g. `fixnum`, `pair`).
    pub name: String,
    /// The encoding.
    pub kind: RepKind,
}

impl RepInfo {
    /// True if values of this type are heap pointers.
    pub fn is_pointer(&self) -> bool {
        matches!(self.kind, RepKind::Pointer { .. })
    }

    /// The tag mask for the type test.
    pub fn tag_mask(&self) -> u64 {
        match self.kind {
            RepKind::Immediate { tag_bits, .. } => (1u64 << tag_bits) - 1,
            RepKind::Pointer { .. } => (1u64 << POINTER_TAG_BITS) - 1,
        }
    }

    /// The tag pattern.
    pub fn tag(&self) -> u64 {
        match self.kind {
            RepKind::Immediate { tag, .. } | RepKind::Pointer { tag, .. } => tag,
        }
    }
}

/// An immediate role's representation and its encoding
/// (`(payload << shift) | tag`); see [`RepRegistry::immediate_role`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmediateRole {
    /// The representation filling the role.
    pub id: RepId,
    /// Number of low bits holding the tag.
    pub tag_bits: u32,
    /// The tag pattern.
    pub tag: u64,
    /// Left shift applied to the payload.
    pub shift: u32,
}

impl ImmediateRole {
    /// The word encoding `payload` (as [`RepRegistry::encode_immediate`]).
    pub fn encode(&self, payload: i64) -> i64 {
        (payload << self.shift) | self.tag as i64
    }

    /// The payload of `value` (as [`RepRegistry::decode_immediate`]).
    pub fn decode(&self, value: i64) -> i64 {
        value >> self.shift
    }

    /// Whether `value` carries this role's tag (as
    /// [`RepRegistry::tag_matches`]).
    pub fn matches(&self, value: i64) -> bool {
        value as u64 & ((1u64 << self.tag_bits) - 1) == self.tag
    }
}

/// A pointer role's representation and its low-bit tag; see
/// [`RepRegistry::pointer_role`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerRole {
    /// The representation filling the role.
    pub id: RepId,
    /// The low-bit tag of its pointers.
    pub tag: u64,
}

impl PointerRole {
    /// Whether `value` carries this role's tag (as
    /// [`RepRegistry::tag_matches`]).
    pub fn matches(&self, value: i64) -> bool {
        value as u64 & ((1u64 << POINTER_TAG_BITS) - 1) == self.tag
    }
}

/// Errors raised while registering representation types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepError(pub String);

impl fmt::Display for RepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "representation error: {}", self.0)
    }
}

impl std::error::Error for RepError {}

/// The registry of all known representation types plus the role table.
///
/// # Example
///
/// ```
/// use sxr_ir::rep::{RepRegistry, RepKind};
///
/// let mut reg = RepRegistry::new();
/// let fixnum = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
/// reg.provide_role("fixnum", fixnum).unwrap();
/// assert_eq!(reg.role("fixnum"), Some(fixnum));
/// assert!(matches!(reg.info(fixnum).kind, RepKind::Immediate { shift: 3, .. }));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RepRegistry {
    reps: Vec<RepInfo>,
    by_name: HashMap<String, RepId>,
    roles: HashMap<String, RepId>,
}

impl RepRegistry {
    /// Creates an empty registry.
    pub fn new() -> RepRegistry {
        RepRegistry::default()
    }

    /// Looks up the info for a rep id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn info(&self, id: RepId) -> &RepInfo {
        &self.reps[id as usize]
    }

    /// Number of registered representation types.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Looks up a representation type by name.
    pub fn by_name(&self, name: &str) -> Option<RepId> {
        self.by_name.get(name).copied()
    }

    /// Looks up the representation registered for a compiler role
    /// (`"boolean"`, `"pair"`, `"closure"`, …).
    pub fn role(&self, role: &str) -> Option<RepId> {
        self.roles.get(role).copied()
    }

    /// The immediate representation filling `role`, with its encoding, or
    /// `None` when no immediate representation fills it.  For a role in
    /// [`roles::IMMEDIATE`] that means the library did not provide it.
    pub fn immediate_role(&self, role: &str) -> Option<ImmediateRole> {
        let id = self.role(role)?;
        match self.info(id).kind {
            RepKind::Immediate {
                tag_bits,
                tag,
                shift,
            } => Some(ImmediateRole {
                id,
                tag_bits,
                tag,
                shift,
            }),
            RepKind::Pointer { .. } => None,
        }
    }

    /// The pointer representation filling `role`, with its tag, or `None`
    /// when no pointer representation fills it.  For a role in
    /// [`roles::POINTER`] that means the library did not provide it.
    pub fn pointer_role(&self, role: &str) -> Option<PointerRole> {
        let id = self.role(role)?;
        match self.info(id).kind {
            RepKind::Pointer { tag, .. } => Some(PointerRole { id, tag }),
            RepKind::Immediate { .. } => None,
        }
    }

    /// The word encoding `payload` in the immediate representation filling
    /// `role` (see [`RepRegistry::immediate_role`]).
    pub fn role_word(&self, role: &str, payload: i64) -> Option<i64> {
        let r = self.immediate_role(role)?;
        Some(self.encode_immediate(r.id, payload))
    }

    /// Registers `rep` as filling compiler `role`.  This is the only way a
    /// role is filled, so it is where the role-kind contract (see the
    /// module documentation) is enforced.
    ///
    /// # Errors
    ///
    /// Returns an error naming the role if `rep` is unknown, if it is not
    /// of the kind [`roles::IMMEDIATE`] / [`roles::POINTER`] demand, or if
    /// the role is already filled by a *different* rep.
    pub fn provide_role(&mut self, role: &str, rep: RepId) -> Result<(), RepError> {
        let Some(info) = self.reps.get(rep as usize) else {
            return Err(RepError(format!(
                "role `{role}` provided with unknown representation id {rep}"
            )));
        };
        if let Some(pointer) = roles::required_kind(role) {
            if info.is_pointer() != pointer {
                let kind = if pointer { "a pointer" } else { "an immediate" };
                return Err(RepError(format!(
                    "role `{role}` must be filled by {kind} representation, not `{}`",
                    info.name
                )));
            }
        }
        match self.roles.get(role) {
            Some(&existing) if existing != rep => Err(RepError(format!(
                "role `{role}` already provided by `{}`",
                self.reps[existing as usize].name
            ))),
            _ => {
                self.roles.insert(role.to_string(), rep);
                Ok(())
            }
        }
    }

    /// Registers (or re-finds) an immediate type.
    ///
    /// Registration is *idempotent by name*: re-registering the same name
    /// with identical parameters returns the existing id, which is what
    /// makes compile-time folding and run-time execution of the same prelude
    /// agree on ids.
    ///
    /// # Errors
    ///
    /// Returns an error on parameter mismatch with an existing entry, on
    /// out-of-range parameters, or on a tag that collides with a pointer
    /// tag.
    pub fn intern_immediate(
        &mut self,
        name: &str,
        tag_bits: u32,
        tag: u64,
        shift: u32,
    ) -> Result<RepId, RepError> {
        if tag_bits > 32 || shift < tag_bits || shift > 56 {
            return Err(RepError(format!(
                "bad immediate parameters for `{name}`: tag_bits={tag_bits} shift={shift}"
            )));
        }
        if tag >= (1u64 << tag_bits) && tag_bits < 64 {
            return Err(RepError(format!(
                "tag {tag:#b} does not fit in {tag_bits} bits"
            )));
        }
        let info = RepInfo {
            name: name.to_string(),
            kind: RepKind::Immediate {
                tag_bits,
                tag,
                shift,
            },
        };
        self.check_immediate_conflicts(&info)?;
        self.intern(info)
    }

    /// Registers (or re-finds) a pointer type. See
    /// [`RepRegistry::intern_immediate`] for idempotence.
    ///
    /// # Errors
    ///
    /// Returns an error on parameter mismatch, on tags wider than
    /// [`POINTER_TAG_BITS`], or when a non-discriminated tag collides with
    /// another pointer type.
    pub fn intern_pointer(
        &mut self,
        name: &str,
        tag: u64,
        discriminated: bool,
    ) -> Result<RepId, RepError> {
        if tag >= (1 << POINTER_TAG_BITS) {
            return Err(RepError(format!(
                "pointer tag {tag:#b} must fit in {POINTER_TAG_BITS} bits"
            )));
        }
        // A heap address always has its low bits clear before tagging, so
        // tag 0 would make pointers indistinguishable from small fixnums.
        for existing in &self.reps {
            if existing.name == name {
                continue; // idempotent re-registration checked in intern()
            }
            match existing.kind {
                RepKind::Pointer {
                    tag: t,
                    discriminated: d,
                } if t == tag && !(discriminated && d) => {
                    return Err(RepError(format!(
                        "pointer tag {tag:#b} of `{name}` collides with `{}` (mark both discriminated to share)",
                        existing.name
                    )));
                }
                RepKind::Immediate {
                    tag_bits, tag: t, ..
                } => {
                    // Every immediate word's low 3 bits equal the low 3 bits
                    // of its tag (since shift >= tag_bits >= the overlap);
                    // they must not look like this pointer.
                    let low = t & ((1 << POINTER_TAG_BITS.min(tag_bits)) - 1);
                    if tag_bits >= POINTER_TAG_BITS && low == tag {
                        return Err(RepError(format!(
                            "pointer tag {tag:#b} of `{name}` collides with immediate `{}`",
                            existing.name
                        )));
                    }
                }
                _ => {}
            }
        }
        let info = RepInfo {
            name: name.to_string(),
            kind: RepKind::Pointer { tag, discriminated },
        };
        self.intern(info)
    }

    fn check_immediate_conflicts(&self, info: &RepInfo) -> Result<(), RepError> {
        let RepKind::Immediate { tag_bits, tag, .. } = info.kind else {
            unreachable!()
        };
        for existing in &self.reps {
            if existing.name == info.name {
                continue;
            }
            match existing.kind {
                RepKind::Pointer { tag: pt, .. } => {
                    let low = tag & ((1 << POINTER_TAG_BITS.min(tag_bits)) - 1);
                    if tag_bits >= POINTER_TAG_BITS && low == pt {
                        return Err(RepError(format!(
                            "immediate tag of `{}` collides with pointer `{}`",
                            info.name, existing.name
                        )));
                    }
                }
                RepKind::Immediate {
                    tag_bits: tb2,
                    tag: t2,
                    ..
                } => {
                    let overlap = tag_bits.min(tb2);
                    let mask = (1u64 << overlap) - 1;
                    if (tag & mask) == (t2 & mask) && tag_bits != 0 {
                        // Identical low bits with one tag a prefix of the
                        // other means values are ambiguous.
                        if tag_bits == tb2 && tag == t2 {
                            return Err(RepError(format!(
                                "immediate tag of `{}` identical to `{}`",
                                info.name, existing.name
                            )));
                        }
                        if tag_bits != tb2 {
                            return Err(RepError(format!(
                                "immediate tag of `{}` is a prefix of `{}`'s (ambiguous)",
                                info.name, existing.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn intern(&mut self, info: RepInfo) -> Result<RepId, RepError> {
        if let Some(&id) = self.by_name.get(&info.name) {
            if self.reps[id as usize] == info {
                return Ok(id);
            }
            return Err(RepError(format!(
                "representation `{}` re-registered with different parameters",
                info.name
            )));
        }
        let id = self.reps.len() as RepId;
        self.by_name.insert(info.name.clone(), id);
        self.reps.push(info);
        Ok(id)
    }

    /// The 8-entry table mapping a word's low 3 bits to "is a heap pointer".
    /// This — not any hardwired knowledge — is what the GC uses to find
    /// pointers.
    pub fn pointer_pattern_table(&self) -> [bool; 8] {
        let mut t = [false; 8];
        for r in &self.reps {
            if let RepKind::Pointer { tag, .. } = r.kind {
                t[tag as usize] = true;
            }
        }
        t
    }

    /// Encodes a raw payload as a tagged immediate of type `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an immediate type (encoding pointers requires a
    /// heap; see the VM's loader).
    pub fn encode_immediate(&self, id: RepId, payload: i64) -> i64 {
        match self.info(id).kind {
            RepKind::Immediate { tag, shift, .. } => (payload << shift) | tag as i64,
            RepKind::Pointer { .. } => panic!("encode_immediate on pointer type"),
        }
    }

    /// Decodes a tagged immediate of type `id` back to its payload
    /// (arithmetic shift, so payloads may be negative).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an immediate type.
    pub fn decode_immediate(&self, id: RepId, value: i64) -> i64 {
        match self.info(id).kind {
            RepKind::Immediate { shift, .. } => value >> shift,
            RepKind::Pointer { .. } => panic!("decode_immediate on pointer type"),
        }
    }

    /// Tests whether `value` belongs to immediate/pointer type `id` by tag
    /// pattern alone (the header check for discriminated pointer types is
    /// the VM's job, since it needs the heap).
    pub fn tag_matches(&self, id: RepId, value: i64) -> bool {
        let info = self.info(id);
        (value as u64 & info.tag_mask()) == info.tag()
    }

    /// Iterates over all `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RepId, &RepInfo)> {
        self.reps.iter().enumerate().map(|(i, r)| (i as RepId, r))
    }
}

/// The role names the compiler and VM may consult, and the kind each must
/// have. The *library* decides which rep fills each role; this list only
/// states what the machine layer will ask for.
pub mod roles {
    /// Fixnum literals and VM-internal small integers.
    pub const FIXNUM: &str = "fixnum";
    /// `#t`/`#f` literals; `if` tests against the false encoding.
    pub const BOOLEAN: &str = "boolean";
    /// Character literals.
    pub const CHAR: &str = "char";
    /// The empty list literal.
    pub const NULL: &str = "null";
    /// The unspecified value.
    pub const UNSPECIFIED: &str = "unspecified";
    /// The end-of-file object.
    pub const EOF: &str = "eof";
    /// Quoted pairs.
    pub const PAIR: &str = "pair";
    /// Quoted vectors.
    pub const VECTOR: &str = "vector";
    /// String literals.
    pub const STRING: &str = "string";
    /// Symbol literals (interned).
    pub const SYMBOL: &str = "symbol";
    /// Closures created by the code generator.
    pub const CLOSURE: &str = "closure";
    /// First-class representation-type objects.
    pub const REP_TYPE: &str = "rep-type";
    /// The condition records delivered to trap handlers.
    pub const CONDITION: &str = "condition";

    /// The roles an immediate representation must fill.
    pub const IMMEDIATE: [&str; 6] = [FIXNUM, BOOLEAN, CHAR, NULL, UNSPECIFIED, EOF];
    /// The roles a pointer representation must fill.
    pub const POINTER: [&str; 7] = [PAIR, VECTOR, STRING, SYMBOL, CLOSURE, REP_TYPE, CONDITION];

    /// Whether `role` must be filled by a pointer (`Some(true)`) or an
    /// immediate (`Some(false)`) representation; `None` for a role the
    /// compiler and VM never read, which may have either kind.
    pub(super) fn required_kind(role: &str) -> Option<bool> {
        if IMMEDIATE.contains(&role) {
            Some(false)
        } else if POINTER.contains(&role) {
            Some(true)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classic() -> (RepRegistry, RepId, RepId) {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let pair = reg.intern_pointer("pair", 1, false).unwrap();
        (reg, fx, pair)
    }

    #[test]
    fn immediate_encode_decode() {
        let (reg, fx, _) = classic();
        assert_eq!(reg.encode_immediate(fx, 5), 40);
        assert_eq!(reg.decode_immediate(fx, 40), 5);
        assert_eq!(reg.decode_immediate(fx, reg.encode_immediate(fx, -7)), -7);
    }

    #[test]
    fn tag_matches_checks_low_bits() {
        let (reg, fx, pair) = classic();
        assert!(reg.tag_matches(fx, 40));
        assert!(!reg.tag_matches(fx, 41));
        assert!(reg.tag_matches(pair, 0x1001));
        assert!(!reg.tag_matches(pair, 0x1002));
    }

    #[test]
    fn idempotent_by_name() {
        let mut reg = RepRegistry::new();
        let a = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let b = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        // Different parameters for the same name are an error.
        assert!(reg.intern_immediate("fixnum", 3, 0, 4).is_err());
    }

    #[test]
    fn pointer_tag_collisions_rejected() {
        let mut reg = RepRegistry::new();
        reg.intern_pointer("pair", 1, false).unwrap();
        assert!(reg.intern_pointer("other", 1, false).is_err());
        // Discriminated types may share a tag.
        reg.intern_pointer("rec-a", 4, true).unwrap();
        reg.intern_pointer("rec-b", 4, true).unwrap();
    }

    #[test]
    fn immediate_pointer_collision_rejected() {
        let mut reg = RepRegistry::new();
        reg.intern_pointer("pair", 1, false).unwrap();
        // An immediate whose low 3 bits read 001 would look like a pair.
        assert!(reg.intern_immediate("bad", 3, 1, 3).is_err());
        // And the reverse direction.
        let mut reg2 = RepRegistry::new();
        reg2.intern_immediate("imm", 8, 0b010, 8).unwrap();
        assert!(reg2.intern_pointer("bad", 0b010, false).is_err());
    }

    #[test]
    fn ambiguous_immediate_prefix_rejected() {
        let mut reg = RepRegistry::new();
        reg.intern_immediate("imm", 8, 0b0000_0010, 8).unwrap();
        // 3-bit tag 010 is a prefix of the 8-bit tag above.
        assert!(reg.intern_immediate("bad", 3, 0b010, 3).is_err());
        // But a different 8-bit tag with the same low 3 bits is fine.
        reg.intern_immediate("imm2", 8, 0b0001_0010, 8).unwrap();
    }

    #[test]
    fn roles() {
        let (mut reg, fx, pair) = classic();
        reg.provide_role("fixnum", fx).unwrap();
        reg.provide_role("pair", pair).unwrap();
        assert_eq!(reg.role("fixnum"), Some(fx));
        assert_eq!(reg.role("nope"), None);
        // Re-providing the same rep is fine; a different one is not.
        reg.provide_role("fixnum", fx).unwrap();
        assert!(reg.provide_role("fixnum", pair).is_err());
    }

    #[test]
    fn roles_refuse_the_wrong_kind() {
        let mut reg = RepRegistry::new();
        let imm = reg.intern_immediate("some-immediate", 3, 0, 3).unwrap();
        let ptr = reg.intern_pointer("some-pointer", 1, false).unwrap();
        let table = roles::IMMEDIATE
            .iter()
            .map(|r| (r, imm, ptr))
            .chain(roles::POINTER.iter().map(|r| (r, ptr, imm)));
        for (role, right, wrong) in table {
            let err = reg.provide_role(role, wrong).unwrap_err();
            assert!(err.0.contains(&format!("`{role}`")), "{err}");
            assert_eq!(reg.role(role), None, "{role} filled by a refused rep");
            reg.provide_role(role, right).unwrap();
            assert_eq!(reg.role(role), Some(right));
        }
        // A role the machine layer never reads may have either kind.
        reg.provide_role("user-role", ptr).unwrap();
        assert_eq!(reg.immediate_role("user-role"), None);
        assert_eq!(reg.pointer_role("user-role").map(|r| r.tag), Some(1));
    }

    #[test]
    fn typed_role_lookups() {
        let (mut reg, fx, pair) = classic();
        assert_eq!(reg.role_word(roles::FIXNUM, 5), None);
        reg.provide_role(roles::FIXNUM, fx).unwrap();
        reg.provide_role(roles::PAIR, pair).unwrap();
        assert_eq!(reg.role_word(roles::FIXNUM, 5), Some(40));
        assert_eq!(
            reg.immediate_role(roles::FIXNUM),
            Some(ImmediateRole {
                id: fx,
                tag_bits: 3,
                tag: 0,
                shift: 3
            })
        );
        assert_eq!(
            reg.pointer_role(roles::PAIR),
            Some(PointerRole { id: pair, tag: 1 })
        );
        assert_eq!(reg.pointer_role(roles::VECTOR), None);
    }

    #[test]
    fn role_word_helpers_agree_with_the_registry() {
        let (mut reg, fx, pair) = classic();
        let ch = reg.intern_immediate("char", 8, 0b0001_0010, 8).unwrap();
        for (role, id) in [(roles::FIXNUM, fx), (roles::CHAR, ch), (roles::PAIR, pair)] {
            reg.provide_role(role, id).unwrap();
        }
        let words = [
            0,
            1,
            40,
            -8,
            0b0001_0010,
            (65 << 8) | 0b0001_0010,
            0x1001,
            -1,
        ];
        for role in [roles::FIXNUM, roles::CHAR] {
            let r = reg.immediate_role(role).unwrap();
            for p in [0, 1, -1, 65, 1 << 40] {
                assert_eq!(r.encode(p), reg.encode_immediate(r.id, p), "{role} {p}");
            }
            for w in words {
                assert_eq!(r.decode(w), reg.decode_immediate(r.id, w), "{role} {w}");
                assert_eq!(r.matches(w), reg.tag_matches(r.id, w), "{role} {w}");
            }
        }
        let p = reg.pointer_role(roles::PAIR).unwrap();
        for w in words {
            assert_eq!(p.matches(w), reg.tag_matches(pair, w), "pair {w}");
        }
    }

    #[test]
    fn pointer_pattern_table() {
        let (mut reg, _, _) = classic();
        reg.intern_pointer("vector", 3, false).unwrap();
        let t = reg.pointer_pattern_table();
        assert!(t[1] && t[3]);
        assert!(!t[0] && !t[2] && !t[4]);
    }

    #[test]
    fn bad_parameters() {
        let mut reg = RepRegistry::new();
        assert!(reg.intern_immediate("x", 3, 0, 2).is_err()); // shift < tag_bits
        assert!(reg.intern_immediate("x", 4, 16, 4).is_err()); // tag too wide
        assert!(reg.intern_pointer("x", 8, false).is_err()); // tag too wide
    }
}
