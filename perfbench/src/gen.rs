//! Seeded workload generators.
//!
//! Every expected value is computed here, in Rust, from the same parameters
//! that produced the Scheme source; none comes from `sxr`.  The seed changes
//! the data a program works on but not how much work it does, so runs with
//! different seeds measure the same amount of work.

use std::fmt::Write as _;

/// Checksums are kept below this modulus so every intermediate value stays
/// a small fixnum.
pub const MODULUS: u64 = 1_000_003;

/// SplitMix64: a small, fixed generator, so the inputs of a seed never
/// change with the code under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One generated program with its independently computed answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: String,
    pub source: String,
    /// The printed final value the program must produce.
    pub expect: String,
    /// Top-level forms in the user source.
    pub forms: usize,
}

fn mix(h: u64, x: u64) -> u64 {
    (h * 31 + x) % MODULUS
}

fn quoted_list(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("'({})", items.join(" "))
}

/// The Scheme side of [`mix`], folded over a list by `(fold-in xs f h)`.
const FOLD_IN: &str = "
(define (fold-in xs f h)
  (if (null? xs) h (fold-in (cdr xs) f (fxremainder (fx+ (fx* h 31) (f (car xs))) 1000003))))";

// ---------------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------------

/// Kernel names, in report order.
pub const KERNELS: &[&str] = &["fib", "tak", "sieve", "nrev", "assq", "deriv", "queens"];

/// The kernels that allocate enough to be run under a small heap as well.
pub const ALLOCATING_KERNELS: &[&str] = &["nrev", "deriv", "queens"];

/// Builds the seeded kernel `name`.  None of them calls
/// `(%counters-reset!)`: the VM counts every instruction the run executes.
pub fn kernel(name: &str, rng: &mut Rng) -> Program {
    let (body, expect) = match name {
        "fib" => fib(rng),
        "tak" => tak(rng),
        "sieve" => sieve(rng),
        "nrev" => nrev(rng),
        "assq" => assq(rng),
        "deriv" => deriv(rng),
        "queens" => queens(rng),
        _ => panic!("unknown kernel {name}"),
    };
    let source = format!("{FOLD_IN}\n{body}");
    Program {
        name: name.to_string(),
        forms: sxr_sexp::parse_all(&source)
            .expect("generated kernels parse")
            .len(),
        source,
        expect: expect.to_string(),
    }
}

fn fib(rng: &mut Rng) -> (String, u64) {
    fn f(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            f(n - 1) + f(n - 2)
        }
    }
    let mut ns = vec![20, 21, 22, 17, 19, 18];
    rng.shuffle(&mut ns);
    let expect = ns.iter().fold(0, |h, &n| mix(h, f(n)));
    let src = format!(
        "(define (fib n) (if (fx< n 2) n (fx+ (fib (fx- n 1)) (fib (fx- n 2)))))
         (fold-in {} fib 0)",
        quoted_list(&ns)
    );
    (src, expect)
}

fn tak(rng: &mut Rng) -> (String, u64) {
    fn t(x: u64, y: u64, z: u64) -> u64 {
        if y >= x {
            z
        } else {
            t(t(x - 1, y, z), t(y - 1, z, x), t(z - 1, x, y))
        }
    }
    let mut ts: Vec<[u64; 3]> = vec![
        [18, 12, 6],
        [17, 12, 6],
        [18, 11, 6],
        [16, 10, 4],
        [18, 12, 7],
    ];
    rng.shuffle(&mut ts);
    let expect = ts.iter().fold(0, |h, a| mix(h, t(a[0], a[1], a[2])));
    let items: Vec<String> = ts
        .iter()
        .map(|a| format!("({} {} {})", a[0], a[1], a[2]))
        .collect();
    let src = format!(
        "(define (tak x y z)
           (if (not (fx< y x))
               z
               (tak (tak (fx- x 1) y z) (tak (fx- y 1) z x) (tak (fx- z 1) x y))))
         (fold-in '({}) (lambda (a) (tak (car a) (cadr a) (caddr a))) 0)",
        items.join(" ")
    );
    (src, expect)
}

fn sieve(rng: &mut Rng) -> (String, u64) {
    fn primes_below(n: u64) -> u64 {
        let mut composite = vec![false; n as usize];
        let mut count = 0;
        for i in 2..n as usize {
            if !composite[i] {
                count += 1;
                let mut j = i * i;
                while j < n as usize {
                    composite[j] = true;
                    j += i;
                }
            }
        }
        count
    }
    let ns: Vec<u64> = (0..8).map(|_| 6000 + rng.below(64)).collect();
    let expect = ns.iter().fold(0, |h, &n| mix(h, primes_below(n)));
    let src = format!(
        "(define (sieve n)
           (let ((v (make-vector n #t)))
             (let loop ((i 2) (count 0))
               (cond ((fx= i n) count)
                     ((vector-ref v i)
                      (let mark ((j (fx* i i)))
                        (when (fx< j n)
                          (vector-set! v j #f)
                          (mark (fx+ j i))))
                      (loop (fx+ i 1) (fx+ count 1)))
                     (else (loop (fx+ i 1) count))))))
         (fold-in {} sieve 0)",
        quoted_list(&ns)
    );
    (src, expect)
}

fn nrev(rng: &mut Rng) -> (String, u64) {
    let data: Vec<u64> = (0..120).map(|_| rng.below(1000)).collect();
    let reps = 12;
    let reversed: Vec<u64> = data.iter().rev().copied().collect();
    let once = reversed.iter().fold(0, |h, &x| mix(h, x));
    let expect = (0..reps).fold(0, |h, _| mix(h, once));
    let src = format!(
        "(define (app a b) (if (null? a) b (cons (car a) (app (cdr a) b))))
         (define (nrev l) (if (null? l) '() (app (nrev (cdr l)) (list1 (car l)))))
         (define data {})
         (fold-in (iota {reps}) (lambda (k) (fold-in (nrev data) (lambda (x) x) 0)) 0)",
        quoted_list(&data)
    );
    (src, expect)
}

fn assq(rng: &mut Rng) -> (String, u64) {
    let n = 96;
    let mut keys: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut keys);
    let values: Vec<u64> = (0..n).map(|_| rng.below(100_000)).collect();
    let mut probes = keys.clone();
    rng.shuffle(&mut probes);
    let value_of = |k: u64| values[keys.iter().position(|&x| x == k).expect("probe is a key")];
    let rounds = 30;
    let once = probes.iter().fold(0, |h, &k| mix(h, value_of(k)));
    let expect = (0..rounds).fold(0, |h, _| mix(h, once));
    let table: Vec<String> = keys
        .iter()
        .zip(&values)
        .map(|(k, v)| format!("(s{k} . {v})"))
        .collect();
    let probe_syms: Vec<String> = probes.iter().map(|k| format!("s{k}")).collect();
    let src = format!(
        "(define table '({}))
         (define probes '({}))
         (fold-in (iota {rounds})
                  (lambda (r) (fold-in probes (lambda (k) (cdr (assq k table))) 0))
                  0)",
        table.join(" "),
        probe_syms.join(" ")
    );
    (src, expect)
}

/// A symbolic expression for `deriv`.
enum Expr {
    X,
    Y,
    Num(u64),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn random(rng: &mut Rng, depth: u32) -> Expr {
        if depth == 0 {
            return match rng.below(3) {
                0 => Expr::X,
                1 => Expr::Y,
                _ => Expr::Num(1 + rng.below(9)),
            };
        }
        let a = Box::new(Expr::random(rng, depth - 1));
        let b = Box::new(Expr::random(rng, depth - 1));
        if rng.below(2) == 0 {
            Expr::Add(a, b)
        } else {
            Expr::Mul(a, b)
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Expr::X => out.push('x'),
            Expr::Y => out.push('y'),
            Expr::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Expr::Add(a, b) | Expr::Mul(a, b) => {
                out.push_str(if matches!(self, Expr::Add(..)) {
                    "(+ "
                } else {
                    "(* "
                });
                a.write(out);
                out.push(' ');
                b.write(out);
                out.push(')');
            }
        }
    }

    /// `(count e)`: atoms and list terminators each count one.
    fn size(&self) -> u64 {
        match self {
            Expr::Add(a, b) | Expr::Mul(a, b) => 2 + a.size() + b.size(),
            _ => 1,
        }
    }

    /// `(count (deriv e 'x))`, without building the derivative.
    fn deriv_size(&self) -> u64 {
        match self {
            Expr::Add(a, b) => 2 + a.deriv_size() + b.deriv_size(),
            Expr::Mul(a, b) => 6 + a.size() + b.size() + a.deriv_size() + b.deriv_size(),
            _ => 1,
        }
    }
}

fn deriv(rng: &mut Rng) -> (String, u64) {
    let e = Expr::random(rng, 7);
    let reps = 40;
    let expect = (0..reps).fold(0, |h, _| mix(h, e.deriv_size()));
    let mut text = String::new();
    e.write(&mut text);
    let src = format!(
        "(define (deriv e x)
           (cond ((symbol? e) (if (eq? e x) 1 0))
                 ((fixnum? e) 0)
                 ((eq? (car e) '+) (list3 '+ (deriv (cadr e) x) (deriv (caddr e) x)))
                 (else (list3 '+
                              (list3 '* (cadr e) (deriv (caddr e) x))
                              (list3 '* (caddr e) (deriv (cadr e) x))))))
         (define (count t) (if (pair? t) (fx+ (count (car t)) (count (cdr t))) 1))
         (define expr '{text})
         (fold-in (iota {reps}) (lambda (k) (count (deriv expr 'x))) 0)"
    );
    (src, expect)
}

fn queens(rng: &mut Rng) -> (String, u64) {
    fn solutions(n: usize, row: usize, cols: &mut Vec<usize>) -> u64 {
        if row == n {
            return 1;
        }
        let mut total = 0;
        for c in 0..n {
            let safe = cols
                .iter()
                .enumerate()
                .all(|(r, &cc)| cc != c && (row - r) != c.abs_diff(cc));
            if safe {
                cols.push(c);
                total += solutions(n, row + 1, cols);
                cols.pop();
            }
        }
        total
    }
    let n = 8;
    // `try` explores every order of its candidate rows, so a permutation
    // of them changes the visiting order but neither the work nor the count.
    let mut rows: Vec<u64> = (1..=n as u64).collect();
    rng.shuffle(&mut rows);
    let reps = 3;
    let expect = (0..reps).fold(0, |h, _| mix(h, solutions(n, 0, &mut Vec::new())));
    let src = format!(
        "(define (ok? row dist placed)
           (if (null? placed)
               #t
               (and (not (fx= (car placed) (fx+ row dist)))
                    (not (fx= (car placed) (fx- row dist)))
                    (ok? row (fx+ dist 1) (cdr placed)))))
         (define (try x y z)
           (if (null? x)
               (if (null? y) 1 0)
               (fx+ (if (ok? (car x) 1 z)
                        (try (append (cdr x) y) '() (cons (car x) z))
                        0)
                    (try (cdr x) (cons (car x) y) z))))
         (fold-in (iota {reps}) (lambda (k) (try {} '() '())) 0)",
        quoted_list(&rows)
    );
    (src, expect)
}

// ---------------------------------------------------------------------------
// bigprog
// ---------------------------------------------------------------------------

/// The shape of every list a `bigprog` program builds; `L` is a seeded leaf.
const LIST_SHAPE: &str = "(list L (list L L) (list (list L L) L) L)";
const LIST_LEAVES: usize = 7;
const LIST_LENGTH: u64 = 4;
/// Iterations of the loop that ends every `bigprog` program.
const BIGPROG_WALK: u64 = 1000;

/// A user program of about `n` top-level forms (`n` ≥ 10): a chain of
/// global `set!`s on one accumulator, interleaved with value and procedure
/// `define`s and nested `(list …)` construction, in a fixed repeating
/// pattern so that every seed gives the same amount of code.  The seed
/// picks the constants, and which earlier global, procedure or list each
/// form uses.  With `redefine`, the program also rebinds the library
/// globals `car` and `length` (to equivalent procedures), which a cached,
/// pre-optimized prelude would have to notice.  The program ends by walking
/// one of its lists [`BIGPROG_WALK`] times.
pub fn bigprog(rng: &mut Rng, n: usize, redefine: bool) -> Program {
    let mut lines: Vec<String> = vec![
        "(define acc 1)".into(),
        "(define (tsum t) (cond ((null? t) 0) ((pair? t) (fx+ (tsum (car t)) (tsum (cdr t)))) (else t)))"
            .into(),
    ];
    if redefine {
        lines.push("(define car (let ((c car)) (lambda (p) (c p))))".into());
        lines.push("(set! length (let ((len length)) (lambda (xs) (len xs))))".into());
    }
    let mut acc: u64 = 1;
    let mut values: Vec<(String, u64)> = Vec::new();
    let mut funs: Vec<(String, u64)> = Vec::new();
    let mut lists: Vec<(String, u64, u64)> = Vec::new(); // name, first element, sum
    let pick = |rng: &mut Rng, len: usize| rng.below(len as u64) as usize;
    let mut slot = 0usize;
    while lines.len() + 2 < n {
        let k = lines.len();
        let b = rng.below(1000);
        let line = match slot % 10 {
            0 | 6 => {
                let a = 2 + rng.below(40);
                acc = (acc * a + b) % MODULUS;
                format!("(set! acc (fxremainder (fx+ (fx* acc {a}) {b}) {MODULUS}))")
            }
            1 | 8 => {
                let (src, v) = if values.is_empty() {
                    (format!("{b}"), b)
                } else {
                    let (g, gv) = &values[pick(rng, values.len())];
                    (
                        format!("(fxremainder (fx+ {g} {b}) {MODULUS})"),
                        (gv + b) % MODULUS,
                    )
                };
                values.push((format!("g{k}"), v));
                format!("(define g{k} {src})")
            }
            2 | 9 if !funs.is_empty() => {
                let (f, fb) = &funs[pick(rng, funs.len())];
                acc = (acc * 7 + fb) % MODULUS;
                format!("(set! acc (fxremainder ({f} acc) {MODULUS}))")
            }
            2 | 3 | 9 => {
                funs.push((format!("f{k}"), b));
                format!("(define (f{k} a) (fx+ (fx* a 7) {b}))")
            }
            4 => {
                let leaves: Vec<u64> = (0..LIST_LEAVES).map(|_| rng.below(1000)).collect();
                let mut text = LIST_SHAPE.to_string();
                for x in &leaves {
                    text = text.replacen('L', &x.to_string(), 1);
                }
                lists.push((format!("l{k}"), leaves[0], leaves.iter().sum()));
                format!("(define l{k} {text})")
            }
            5 => {
                let (l, _, sum) = lists.last().expect("slot 4 defined a list");
                acc = (acc + sum + LIST_LENGTH) % MODULUS;
                format!(
                    "(set! acc (fxremainder (fx+ acc (fx+ (tsum {l}) (length {l}))) {MODULUS}))"
                )
            }
            _ => {
                let (l, first, _) = &lists[pick(rng, lists.len())];
                acc = (acc + first) % MODULUS;
                format!("(set! acc (fxremainder (fx+ acc (car {l})) {MODULUS}))")
            }
        };
        lines.push(line);
        slot += 1;
    }
    // The run ends in a loop over one of the lists, so that it does enough
    // work to be timed.
    let (l, _, sum) = &lists[pick(rng, lists.len())];
    lines.push(format!(
        "(define (walk i h) (if (fx= i 0) h (walk (fx- i 1) (fxremainder (fx+ (fx* h 31) (fx+ (tsum {l}) (length {l}))) {MODULUS}))))"
    ));
    lines.push(format!("(walk {BIGPROG_WALK} acc)"));
    for _ in 0..BIGPROG_WALK {
        acc = (acc * 31 + sum + LIST_LENGTH) % MODULUS;
    }
    Program {
        name: format!("n{n}{}", if redefine { "-redef" } else { "" }),
        forms: lines.len(),
        source: lines.join("\n"),
        expect: acc.to_string(),
    }
}
