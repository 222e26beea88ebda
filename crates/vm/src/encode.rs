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
/// pool construction cannot trigger a collection mid-build).
pub fn words_needed(d: &Datum) -> usize {
    match d {
        Datum::Fixnum(_) | Datum::Bool(_) | Datum::Char(_) => 0,
        Datum::String(s) => 1 + s.chars().count(),
        // Symbol: its name string plus the symbol cell.
        Datum::Symbol(s) => 1 + s.chars().count() + 2,
        Datum::List(items) => 3 * items.len() + items.iter().map(words_needed).sum::<usize>(),
        Datum::Improper(items, tail) => {
            3 * items.len() + items.iter().map(words_needed).sum::<usize>() + words_needed(tail)
        }
        Datum::Vector(items) => 1 + items.len() + items.iter().map(words_needed).sum::<usize>(),
    }
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

/// Encodes a quoted datum onto the heap.
///
/// # Errors
///
/// Returns [`VmErrorKind::BadProgram`] when a required representation role
/// is missing.
pub fn encode_datum(m: &mut Machine, d: &Datum) -> Result<Word, VmError> {
    match d {
        Datum::Fixnum(n) => {
            let fx = need_role(m, roles::FIXNUM, "a fixnum literal")?;
            Ok(m.registry.encode_immediate(fx, *n))
        }
        Datum::Bool(b) => {
            let bo = need_role(m, roles::BOOLEAN, "a boolean literal")?;
            Ok(m.registry.encode_immediate(bo, *b as i64))
        }
        Datum::Char(c) => {
            let ch = need_role(m, roles::CHAR, "a character literal")?;
            Ok(m.registry.encode_immediate(ch, *c as i64))
        }
        Datum::String(s) => encode_string(m, s),
        // Symbols go through the quiet load-time interning path: callers
        // here (list tails, vector elements) hold partially built structure
        // in Rust locals that are not GC roots, so no collection may run.
        Datum::Symbol(s) => m.intern_loaded(s),
        Datum::List(items) => {
            let nil = need_role(m, roles::NULL, "a list literal")?;
            let mut tail = m.registry.encode_immediate(nil, 0);
            for item in items.iter().rev() {
                tail = encode_pair(m, item, tail)?;
            }
            Ok(tail)
        }
        Datum::Improper(items, last) => {
            let mut tail = encode_datum(m, last)?;
            for item in items.iter().rev() {
                tail = encode_pair(m, item, tail)?;
            }
            Ok(tail)
        }
        Datum::Vector(items) => {
            let vector = need_pointer(m, roles::VECTOR, "a vector literal")?;
            let words: Vec<Word> = items
                .iter()
                .map(|i| encode_datum(m, i))
                .collect::<Result<_, _>>()?;
            let fill = m.registry.encode_immediate(m.role_fixnum(), 0);
            let w = m.alloc_object(words.len(), vector.id as u16, vector.tag, fill)?;
            let base = (w >> 3) as usize;
            for (i, iw) in words.into_iter().enumerate() {
                m.heap_set_for_encode(base + 1 + i, iw)?;
            }
            Ok(w)
        }
    }
}

fn encode_pair(m: &mut Machine, car: &Datum, cdr: Word) -> Result<Word, VmError> {
    let pair = need_pointer(m, roles::PAIR, "a pair literal")?;
    let car_w = encode_datum(m, car)?;
    let w = m.alloc_object(2, pair.id as u16, pair.tag, cdr)?;
    let base = (w >> 3) as usize;
    m.heap_set_for_encode(base + 1, car_w)?;
    m.heap_set_for_encode(base + 2, cdr)?;
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
