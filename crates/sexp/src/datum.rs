//! The external representation of Scheme data: the [`Datum`] tree.

use std::fmt;

/// A parsed S-expression.
///
/// `Datum` is a *syntactic* value: it is what the reader produces and what
/// `quote` forms denote.  Runtime values live in the VM and have
/// library-defined representations; `Datum` deliberately stays a plain Rust
/// tree so that the front end can pattern-match on it.
///
/// Proper lists are kept as `List(Vec<Datum>)` rather than nested pairs; this
/// makes the macro expander's job (matching special forms) direct.  Dotted
/// pairs use [`Datum::Improper`].
///
/// # Example
///
/// ```
/// use sxr_sexp::Datum;
/// let d = Datum::List(vec![Datum::Symbol("+".into()), Datum::Fixnum(1), Datum::Fixnum(2)]);
/// assert_eq!(d.to_string(), "(+ 1 2)");
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum Datum {
    /// An identifier, e.g. `car` or `%word+`.
    Symbol(String),
    /// An exact integer literal. Only fixnums are supported by the system.
    Fixnum(i64),
    /// `#t` or `#f`.
    Bool(bool),
    /// A character literal, e.g. `#\a`, `#\space`.
    Char(char),
    /// A string literal.
    String(String),
    /// A proper list `(a b c)`; `()` is the empty list.
    List(Vec<Datum>),
    /// An improper (dotted) list `(a b . c)`. The vector is non-empty and the
    /// tail is never itself a list (the parser normalizes).
    Improper(Vec<Datum>, Box<Datum>),
    /// A vector literal `#(a b c)`.
    Vector(Vec<Datum>),
}

/// Copies with an explicit stack, so a datum as deep as the reader admits
/// costs no host stack to copy (a program's constant pool is copied with
/// it, on whatever thread loads the program).
impl Clone for Datum {
    fn clone(&self) -> Datum {
        /// A compound being copied, with the copies of its first children.
        struct Partial<'d> {
            src: &'d Datum,
            done: Vec<Datum>,
        }
        let mut stack: Vec<Partial> = Vec::new();
        let mut d = self;
        loop {
            // Descend to a datum whose copy waits on no other: an atom or
            // an empty compound.
            let mut copy = match d {
                Datum::Symbol(s) => Datum::Symbol(s.clone()),
                Datum::Fixnum(n) => Datum::Fixnum(*n),
                Datum::Bool(b) => Datum::Bool(*b),
                Datum::Char(c) => Datum::Char(*c),
                Datum::String(s) => Datum::String(s.clone()),
                // One level deep: copied directly, with no stack.
                compound if compound.children().all(|c| c.is_empty()) => {
                    let mut children = Vec::with_capacity(compound.len());
                    children.extend(compound.children().cloned());
                    compound.rebuilt(children)
                }
                compound => match compound.child(0) {
                    Some(first) => {
                        stack.push(Partial {
                            src: compound,
                            done: Vec::with_capacity(compound.len()),
                        });
                        d = first;
                        continue;
                    }
                    None => compound.rebuilt(Vec::new()),
                },
            };
            // Ascend: hand the copy to the compound waiting for it,
            // finishing every compound it completes.
            loop {
                let Some(top) = stack.last_mut() else {
                    return copy;
                };
                top.done.push(copy);
                if let Some(next) = top.src.child(top.done.len()) {
                    d = next;
                    break;
                }
                let Partial { src, done } = stack.pop().expect("the top was just seen");
                copy = src.rebuilt(done);
            }
        }
    }
}

/// Drops with an explicit stack, for the same reason as [`Clone`]: a
/// program dropped on a small thread drops its constant pool there.
impl Drop for Datum {
    fn drop(&mut self) {
        // One level deep: the fields' own drops end at the children.
        if self.children().all(Datum::is_empty) {
            return;
        }
        let mut stack = Vec::new();
        self.move_children(&mut stack);
        while let Some(mut d) = stack.pop() {
            // `d` drops childless at the end of the pass.
            d.move_children(&mut stack);
        }
    }
}

impl Datum {
    /// Moves the children of a compound datum onto `stack`, leaving it
    /// with no compound children.
    fn move_children(&mut self, stack: &mut Vec<Datum>) {
        match self {
            Datum::List(items) | Datum::Vector(items) => stack.append(items),
            Datum::Improper(items, tail) => {
                stack.append(items);
                stack.push(std::mem::replace(&mut **tail, Datum::nil()));
            }
            _ => {}
        }
    }

    /// The `i`th child of a compound datum, counting an improper list's
    /// tail after its items.
    fn child(&self, i: usize) -> Option<&Datum> {
        match self {
            Datum::List(items) | Datum::Vector(items) => items.get(i),
            Datum::Improper(items, tail) => items.get(i).or((i == items.len()).then_some(&**tail)),
            _ => None,
        }
    }

    /// The children of a compound datum, in [`Datum::child`] order.
    fn children(&self) -> impl Iterator<Item = &Datum> {
        (0..).map_while(|i| self.child(i))
    }

    /// A compound of the same kind as `self` with the given children, in
    /// [`Datum::child`] order.
    fn rebuilt(&self, mut children: Vec<Datum>) -> Datum {
        match self {
            Datum::List(_) => Datum::List(children),
            Datum::Vector(_) => Datum::Vector(children),
            Datum::Improper(..) => {
                let tail = children.pop().expect("an improper list has a tail");
                Datum::Improper(children, Box::new(tail))
            }
            atom => unreachable!("{atom} has no children"),
        }
    }

    /// The canonical empty list `()`.
    pub fn nil() -> Datum {
        Datum::List(Vec::new())
    }

    /// Returns the symbol name if this datum is a symbol.
    pub fn as_symbol(&self) -> Option<&str> {
        match self {
            Datum::Symbol(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list elements if this datum is a proper list.
    pub fn as_list(&self) -> Option<&[Datum]> {
        match self {
            Datum::List(items) => Some(items),
            _ => None,
        }
    }

    /// True if this is the empty list.
    pub fn is_nil(&self) -> bool {
        matches!(self, Datum::List(items) if items.is_empty())
    }

    /// True if this datum is a proper list whose head is the given symbol.
    ///
    /// This is the shape test used throughout the macro expander:
    /// `d.is_form("define")` recognizes `(define ...)`.
    pub fn is_form(&self, head: &str) -> bool {
        match self {
            Datum::List(items) => items.first().and_then(Datum::as_symbol) == Some(head),
            _ => false,
        }
    }

    /// Builds a proper list datum from a head symbol and arguments.
    pub fn form(head: &str, mut args: Vec<Datum>) -> Datum {
        let mut items = Vec::with_capacity(args.len() + 1);
        items.push(Datum::Symbol(head.to_string()));
        items.append(&mut args);
        Datum::List(items)
    }

    /// The list `(items... . tail)` for non-empty `items`, normalized as
    /// the reader does: `(a . (b c))` is `(a b c)`, and `(a . (b . c))` is
    /// `(a b . c)`.
    pub fn dotted(mut items: Vec<Datum>, mut tail: Datum) -> Datum {
        match &mut tail {
            Datum::List(rest) => {
                items.append(rest);
                Datum::List(items)
            }
            Datum::Improper(mid, end) => {
                items.append(mid);
                Datum::Improper(items, std::mem::replace(end, Box::new(Datum::nil())))
            }
            _ => Datum::Improper(items, Box::new(tail)),
        }
    }

    /// Builds `(quote d)`.
    pub fn quoted(d: Datum) -> Datum {
        Datum::form("quote", vec![d])
    }

    /// Number of immediate sub-data (for size heuristics in tests/tools).
    pub fn len(&self) -> usize {
        match self {
            Datum::List(items) | Datum::Vector(items) => items.len(),
            Datum::Improper(items, _) => items.len() + 1,
            _ => 0,
        }
    }

    /// True for atoms and the empty list/vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Datum {
    /// Formats with `write` (machine-readable) conventions.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_datum(self, f, true)
    }
}

impl From<i64> for Datum {
    fn from(n: i64) -> Datum {
        Datum::Fixnum(n)
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Datum {
        Datum::Bool(b)
    }
}

impl From<&str> for Datum {
    /// Symbols are the most common datum built from literals in the front
    /// end, so `From<&str>` produces a symbol (not a string literal).
    fn from(s: &str) -> Datum {
        Datum::Symbol(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_copies_every_kind_of_compound() {
        let sym = |s: &str| Datum::Symbol(s.to_string());
        let d = Datum::List(vec![
            sym("a"),
            Datum::Improper(
                vec![Datum::Fixnum(1), Datum::nil()],
                Box::new(Datum::Vector(vec![
                    Datum::String("s".into()),
                    Datum::Char('c'),
                ])),
            ),
            Datum::Vector(vec![]),
            Datum::List(vec![Datum::List(vec![Datum::Bool(true)])]),
        ]);
        assert_eq!(d.clone(), d);
        assert_eq!(d.clone().to_string(), d.to_string());
        assert_eq!(sym("x").clone(), sym("x"));
    }

    #[test]
    fn deepest_datum_drops_on_a_256_kib_thread() {
        // As deep as the reader admits inside `(quote ...)`, nesting every
        // kind of compound in turn, next to an atom at every level.
        let mut d = Datum::nil();
        for depth in 0..crate::MAX_NESTING - 2 {
            d = match depth % 3 {
                0 => Datum::List(vec![Datum::Fixnum(1), d]),
                1 => Datum::Vector(vec![d, Datum::Char('c')]),
                _ => Datum::Improper(vec![Datum::Bool(true)], Box::new(d)),
            };
        }
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || drop(d))
            .expect("spawn the 256 KiB thread")
            .join()
            .expect("the drop fits in 256 KiB");
    }

    #[test]
    fn nil_is_empty_list() {
        assert!(Datum::nil().is_nil());
        assert_eq!(Datum::nil(), Datum::List(vec![]));
    }

    #[test]
    fn form_recognition() {
        let d = Datum::form("define", vec![Datum::from("x"), Datum::Fixnum(1)]);
        assert!(d.is_form("define"));
        assert!(!d.is_form("lambda"));
        assert!(!Datum::Fixnum(3).is_form("define"));
        assert!(!Datum::nil().is_form("define"));
    }

    #[test]
    fn as_accessors() {
        assert_eq!(Datum::from("abc").as_symbol(), Some("abc"));
        assert_eq!(Datum::Fixnum(1).as_symbol(), None);
        assert_eq!(Datum::nil().as_list(), Some(&[][..]));
        assert_eq!(Datum::Bool(true).as_list(), None);
    }

    #[test]
    fn quoted_wraps() {
        let q = Datum::quoted(Datum::Fixnum(42));
        assert!(q.is_form("quote"));
        assert_eq!(q.len(), 2);
    }
}
