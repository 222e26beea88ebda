//! Property test: printing any datum and re-parsing it yields an equal
//! datum. Random datums come from a deterministic in-tree PRNG (the build
//! environment is offline, so no external property-testing crates);
//! failures reproduce exactly from `SEED`.

use sxr_sexp::{parse_one, Datum};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SYMBOL_HEAD: &[u8] = b"abcxyzABC%!?*<>=_+-";
const SYMBOL_TAIL: &[u8] = b"abcxyzABC0123456789%!?*<>=_+-";
const STRING_CHARS: &[char] = &['a', '"', '\\', '\n', '\t', '\u{3c0}', ' '];
const CHARS: &[char] = &[
    'a', 'Z', '0', '(', ')', '#', ';', '\u{3c0}', ' ', '\n', '\t',
];

fn gen_symbol(rng: &mut Rng) -> String {
    loop {
        let mut s = String::new();
        s.push(SYMBOL_HEAD[rng.below(SYMBOL_HEAD.len())] as char);
        for _ in 0..rng.below(8) {
            s.push(SYMBOL_TAIL[rng.below(SYMBOL_TAIL.len())] as char);
        }
        // Keep only symbols the lexer reads back as symbols.
        if s != "." && s.parse::<i64>().is_err() && !s.starts_with('#') {
            return s;
        }
    }
}

fn gen_leaf(rng: &mut Rng) -> Datum {
    match rng.below(5) {
        0 => Datum::Fixnum(rng.next() as i64 >> rng.below(64)),
        1 => Datum::Bool(rng.below(2) == 0),
        2 => Datum::Char(CHARS[rng.below(CHARS.len())]),
        3 => {
            let n = rng.below(12);
            Datum::String(
                (0..n)
                    .map(|_| STRING_CHARS[rng.below(STRING_CHARS.len())])
                    .collect(),
            )
        }
        _ => Datum::Symbol(gen_symbol(rng)),
    }
}

fn gen_datum(rng: &mut Rng, fuel: usize) -> Datum {
    if fuel == 0 {
        return gen_leaf(rng);
    }
    match rng.below(5) {
        0 | 1 => gen_leaf(rng),
        2 => Datum::List(
            (0..rng.below(6))
                .map(|_| gen_datum(rng, fuel - 1))
                .collect(),
        ),
        3 => Datum::Vector(
            (0..rng.below(6))
                .map(|_| gen_datum(rng, fuel - 1))
                .collect(),
        ),
        _ => {
            let items: Vec<Datum> = (0..1 + rng.below(3))
                .map(|_| gen_datum(rng, fuel - 1))
                .collect();
            // Keep the improper invariant: the tail is never a list.
            Datum::dotted(items, gen_datum(rng, fuel - 1))
        }
    }
}

const SEED: u64 = 0xD00D_F00D_0123_4567;
const CASES: usize = 512;

#[test]
fn print_parse_roundtrip() {
    let mut rng = Rng(SEED);
    for case in 0..CASES {
        let d = gen_datum(&mut rng, 4);
        let text = d.to_string();
        let back = parse_one(&text)
            .unwrap_or_else(|e| panic!("case {case}: failed to reparse {text}: {e}"));
        assert_eq!(d, back, "case {case}: roundtrip mismatch for {text}");
    }
}
