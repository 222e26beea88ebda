//! Encoding quoted data onto the heap, and decoding words back to text.
//!
//! Nothing here hardwires a layout: every encoding decision flows through
//! the representation roles the *library* provided. A program whose library
//! never defines strings simply cannot contain string literals — the loader
//! reports which role is missing.

use crate::error::{VmError, VmErrorKind};
use crate::heap::{header_len, header_type, Word};
use crate::machine::Machine;
use sxr_ir::rep::{roles, PointerRole};
use sxr_sexp::Datum;

/// Upper bound on heap words needed to encode `d` (used to pre-reserve so
/// pool construction cannot trigger a collection mid-build). Walks `d`
/// with a work list, so nesting depth costs no stack.
pub fn words_needed(d: &Datum) -> usize {
    /// The words of `d` itself, not counting its children.
    fn own(d: &Datum) -> usize {
        match d {
            Datum::Fixnum(_) | Datum::Bool(_) | Datum::Char(_) => 0,
            Datum::String(s) => 1 + s.chars().count(),
            // Symbol: its name string plus the symbol cell.
            Datum::Symbol(s) => 1 + s.chars().count() + 2,
            // A pair per item.
            Datum::List(items) | Datum::Improper(items, _) => 3 * items.len(),
            // A header plus a field per item.
            Datum::Vector(items) => 1 + items.len(),
        }
    }
    let mut total = own(d);
    let mut todo = vec![];
    let mut next = Some(d);
    while let Some(d) = next {
        let (items, tail) = match d {
            Datum::List(items) | Datum::Vector(items) => (&items[..], None),
            Datum::Improper(items, tail) => (&items[..], Some(&**tail)),
            _ => (&[][..], None),
        };
        for child in items.iter().chain(tail) {
            total += own(child);
            if !child.is_empty() {
                todo.push(child);
            }
        }
        next = todo.pop();
    }
    total
}

fn missing_role(role: &str, what: &str) -> VmError {
    VmError::new(
        VmErrorKind::BadProgram,
        format!("program contains {what} but the library provided no `{role}` representation"),
    )
}

fn need_role(m: &Machine, role: &str, what: &str) -> Result<u32, VmError> {
    m.registry
        .role(role)
        .ok_or_else(|| missing_role(role, what))
}

fn need_pointer(m: &Machine, role: &str, what: &str) -> Result<PointerRole, VmError> {
    m.registry
        .pointer_role(role)
        .ok_or_else(|| missing_role(role, what))
}

/// Encodes a string onto the heap (fields are char immediates).
pub fn encode_string(m: &mut Machine, s: &str) -> Result<Word, VmError> {
    let string = need_pointer(m, roles::STRING, "a string")?;
    let char_rep = need_role(m, roles::CHAR, "a string")?;
    let chars: Vec<Word> = s
        .chars()
        .map(|c| m.registry.encode_immediate(char_rep, c as i64))
        .collect();
    let fill = m.registry.encode_immediate(char_rep, 0);
    let w = m.alloc_object(chars.len(), string.id as u16, string.tag, fill)?;
    let base = (w >> 3) as usize;
    for (i, cw) in chars.into_iter().enumerate() {
        m.heap_set_for_encode(base + 1 + i, cw)?;
    }
    Ok(w)
}

/// A compound datum whose encoding is under way, in [`encode_datum`]'s
/// explicit stack.
enum Partial<'d> {
    /// A list's pairs are built from the back: `items[next]` is the item
    /// being encoded, and `tail` is the list of the items after it.
    Pairs {
        items: &'d [Datum],
        next: usize,
        tail: Word,
        pair: PointerRole,
    },
    /// An improper list, waiting for the value of its final cdr.
    ImproperTail { items: &'d [Datum] },
    /// A vector, with the words of its first items.
    Vector {
        items: &'d [Datum],
        words: Vec<Word>,
        vector: PointerRole,
    },
}

/// Encodes a quoted datum onto the heap.
///
/// The nesting of `d` is followed with an explicit stack, so a datum as
/// deep as the reader admits costs no host stack. Each compound is built
/// bottom-up, in the order a recursive encoder would: a list's items from
/// the last, the car of each pair before the pair, a vector's items before
/// the vector.
///
/// The stack holds partially built structure (list tails, vector
/// elements) in Rust memory that is not a GC root, so no collection may
/// run until the datum is done: every allocation here goes through the
/// quiet load-time paths, which never collect, and the loader reserves
/// [`words_needed`] words first.
///
/// # Errors
///
/// Returns [`VmErrorKind::BadProgram`] when a required representation role
/// is missing.
pub fn encode_datum(m: &mut Machine, d: &Datum) -> Result<Word, VmError> {
    let mut stack: Vec<Partial> = Vec::new();
    let mut d = d;
    loop {
        // Descend to the next datum that encodes without waiting on
        // another: an atom, or an empty compound.
        let mut w = match d {
            Datum::Fixnum(n) => {
                let fx = need_role(m, roles::FIXNUM, "a fixnum literal")?;
                m.registry.encode_immediate(fx, *n)
            }
            Datum::Bool(b) => {
                let bo = need_role(m, roles::BOOLEAN, "a boolean literal")?;
                m.registry.encode_immediate(bo, *b as i64)
            }
            Datum::Char(c) => {
                let ch = need_role(m, roles::CHAR, "a character literal")?;
                m.registry.encode_immediate(ch, *c as i64)
            }
            Datum::String(s) => encode_string(m, s)?,
            // Symbols go through the quiet load-time interning path.
            Datum::Symbol(s) => m.intern_loaded(s)?,
            Datum::List(items) => {
                let nil = need_role(m, roles::NULL, "a list literal")?;
                let nil = m.registry.encode_immediate(nil, 0);
                if let Some(next) = items.len().checked_sub(1) {
                    let pair = need_pointer(m, roles::PAIR, "a pair literal")?;
                    stack.push(Partial::Pairs {
                        items,
                        next,
                        tail: nil,
                        pair,
                    });
                    d = &items[next];
                    continue;
                }
                nil
            }
            Datum::Improper(items, last) => {
                stack.push(Partial::ImproperTail { items });
                d = last;
                continue;
            }
            Datum::Vector(items) => {
                let vector = need_pointer(m, roles::VECTOR, "a vector literal")?;
                if let Some(first) = items.first() {
                    let words = Vec::with_capacity(items.len());
                    stack.push(Partial::Vector {
                        items,
                        words,
                        vector,
                    });
                    d = first;
                    continue;
                }
                encode_vector(m, vector, Vec::new())?
            }
        };
        // Ascend: hand `w` to the compound waiting for it, finishing every
        // compound that it completes, until one needs another item.
        loop {
            let Some(top) = stack.last_mut() else {
                return Ok(w);
            };
            match top {
                Partial::Pairs {
                    items,
                    next,
                    tail,
                    pair,
                } => {
                    *tail = encode_pair(m, *pair, w, *tail)?;
                    if *next > 0 {
                        *next -= 1;
                        d = &items[*next];
                        break;
                    }
                    w = *tail;
                }
                Partial::ImproperTail { items } => {
                    if let Some(next) = items.len().checked_sub(1) {
                        let pair = need_pointer(m, roles::PAIR, "a pair literal")?;
                        let items: &[Datum] = items;
                        *top = Partial::Pairs {
                            items,
                            next,
                            tail: w,
                            pair,
                        };
                        d = &items[next];
                        break;
                    }
                }
                Partial::Vector {
                    items,
                    words,
                    vector,
                } => {
                    words.push(w);
                    if let Some(item) = items.get(words.len()) {
                        d = item;
                        break;
                    }
                    w = encode_vector(m, *vector, std::mem::take(words))?;
                }
            }
            stack.pop();
        }
    }
}

/// Allocates a pair of two encoded words.
fn encode_pair(m: &mut Machine, pair: PointerRole, car: Word, cdr: Word) -> Result<Word, VmError> {
    let w = m.alloc_object(2, pair.id as u16, pair.tag, cdr)?;
    let base = (w >> 3) as usize;
    m.heap_set_for_encode(base + 1, car)?;
    m.heap_set_for_encode(base + 2, cdr)?;
    Ok(w)
}

/// Allocates a vector of encoded words.
fn encode_vector(m: &mut Machine, vector: PointerRole, words: Vec<Word>) -> Result<Word, VmError> {
    let fill = m.registry.encode_immediate(m.role_fixnum(), 0);
    let w = m.alloc_object(words.len(), vector.id as u16, vector.tag, fill)?;
    let base = (w >> 3) as usize;
    for (i, iw) in words.into_iter().enumerate() {
        m.heap_set_for_encode(base + 1 + i, iw)?;
    }
    Ok(w)
}

/// Renders `w` readably using whatever representations the library
/// registered. Unknown encodings come out as `#<word N>`.
pub fn describe(m: &Machine, w: Word, depth: usize) -> String {
    if depth == 0 {
        return "...".to_string();
    }
    let reg = &m.registry;
    let try_role = |role: &str| reg.role(role).filter(|&r| reg.tag_matches(r, w));
    if let Some(fx) = try_role(roles::FIXNUM) {
        return reg.decode_immediate(fx, w).to_string();
    }
    if let Some(bo) = try_role(roles::BOOLEAN) {
        return if reg.decode_immediate(bo, w) == 0 {
            "#f"
        } else {
            "#t"
        }
        .to_string();
    }
    if let Some(ch) = try_role(roles::CHAR) {
        let c = char::from_u32(reg.decode_immediate(ch, w) as u32).unwrap_or('\u{FFFD}');
        return Datum::Char(c).to_string();
    }
    if try_role(roles::NULL).is_some() {
        return "()".to_string();
    }
    if try_role(roles::UNSPECIFIED).is_some() {
        return "#<unspecified>".to_string();
    }
    if try_role(roles::EOF).is_some() {
        return "#<eof>".to_string();
    }
    // Pointer families; heap reads may fail on corrupt words.
    let base = (w >> 3) as usize;
    let header = match m.heap_ref().get(base) {
        Ok(h) => h,
        Err(_) => return format!("#<word {w}>"),
    };
    let len = header_len(header);
    if let Some(pair) = try_role(roles::PAIR) {
        let _ = pair;
        let mut parts = Vec::new();
        let mut cur = w;
        let mut steps = depth;
        loop {
            if steps == 0 {
                parts.push("...".to_string());
                break;
            }
            steps -= 1;
            let b = (cur >> 3) as usize;
            let car = m.heap_ref().get(b + 1).unwrap_or(0);
            let cdr = m.heap_ref().get(b + 2).unwrap_or(0);
            parts.push(describe(m, car, depth - 1));
            if reg
                .role(roles::NULL)
                .map(|n| reg.tag_matches(n, cdr))
                .unwrap_or(false)
            {
                break;
            }
            if reg
                .role(roles::PAIR)
                .map(|p| reg.tag_matches(p, cdr))
                .unwrap_or(false)
            {
                cur = cdr;
                continue;
            }
            parts.push(".".to_string());
            parts.push(describe(m, cdr, depth - 1));
            break;
        }
        return format!("({})", parts.join(" "));
    }
    if let Some(st) = try_role(roles::STRING) {
        let _ = st;
        return match m.string_content(w) {
            Ok(s) => Datum::String(s).to_string(),
            Err(_) => format!("#<bad-string {w}>"),
        };
    }
    if let Some(sym) = try_role(roles::SYMBOL) {
        let _ = sym;
        let str_ptr = m.heap_ref().get(base + 1).unwrap_or(0);
        return m
            .string_content(str_ptr)
            .unwrap_or_else(|_| format!("#<bad-symbol {w}>"));
    }
    if let Some(vr) = try_role(roles::VECTOR) {
        let _ = vr;
        let mut parts = Vec::with_capacity(len);
        for i in 0..len {
            let f = m.heap_ref().get(base + 1 + i).unwrap_or(0);
            parts.push(describe(m, f, depth - 1));
        }
        return format!("#({})", parts.join(" "));
    }
    if reg
        .role(roles::CLOSURE)
        .map(|c| reg.tag_matches(c, w))
        .unwrap_or(false)
    {
        return "#<procedure>".to_string();
    }
    if reg
        .role(roles::REP_TYPE)
        .map(|c| reg.tag_matches(c, w) && header_type(header) == c as u16)
        .unwrap_or(false)
    {
        let payload = m.heap_ref().get(base + 1).unwrap_or(0);
        let rid = reg
            .role(roles::FIXNUM)
            .map(|fx| reg.decode_immediate(fx, payload))
            .unwrap_or(-1);
        if rid >= 0 && (rid as usize) < reg.len() {
            return format!("#<rep-type {}>", reg.info(rid as u32).name);
        }
    }
    // A discriminated record of a named type.
    let tid = header_type(header);
    if (tid as usize) < reg.len() {
        let info = reg.info(tid as u32);
        if info.is_pointer() && reg.tag_matches(tid as u32, w) {
            let mut parts = Vec::with_capacity(len);
            for i in 0..len {
                let f = m.heap_ref().get(base + 1 + i).unwrap_or(0);
                parts.push(describe(m, f, depth - 1));
            }
            return format!("#<{} {}>", info.name, parts.join(" "));
        }
    }
    format!("#<word {w}>")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_needed_counts_every_level() {
        // (ab "xyz" (1 . #(#\c ())) ()): 4 + 1 pairs, a 2-field vector,
        // "ab" as a symbol (name string plus cell) and "xyz" as a string.
        let d = Datum::List(vec![
            Datum::Symbol("ab".into()),
            Datum::String("xyz".into()),
            Datum::Improper(
                vec![Datum::Fixnum(1)],
                Box::new(Datum::Vector(vec![Datum::Char('c'), Datum::nil()])),
            ),
            Datum::nil(),
        ]);
        assert_eq!(words_needed(&d), 3 * 5 + 3 + 5 + 4);
        assert_eq!(words_needed(&Datum::Symbol("ab".into())), 5);
        assert_eq!(words_needed(&Datum::Vector(vec![])), 1);
    }
}
