//! A fixed reference task that gauges how fast the host runs right now.
//!
//! On a shared host the speed of a core changes over minutes, as
//! neighbours come and go on the same physical core and cache.  That moves
//! every timing of a run together, by up to a quarter, and it moves the
//! reference task with them.  The benchmark runs this task before every
//! timed program and reports each program's times at the speed at which
//! the task takes [`NOMINAL_MS`], judged by the runs of the task around
//! the program.  The task is part of the benchmark, not of the program
//! under test, so a change to the program never changes it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The task's time at the speed the benchmark reports in, which is about
/// its time on a 2.1 GHz Xeon vCPU with quiet neighbours.
pub const NOMINAL_MS: f64 = 4.5;

/// One run of the reference task, in ms.
pub fn run_ms() -> f64 {
    let t = Instant::now();
    black_box(task(black_box(7)));
    t.elapsed().as_secs_f64() * 1e3
}

/// The work of the task, in the proportions a compile and a run of a
/// program have: small allocations and pointer chasing over a tree,
/// string keys in an ordered map, and a bytecode dispatch loop.
fn task(seed: u64) -> u64 {
    let mut h = seed;
    for _ in 0..2 {
        let tree = build(12, h);
        h = h.wrapping_add(walk(&rename(&tree)));
    }
    let mut map = BTreeMap::new();
    for i in 0..1500u64 {
        map.insert(
            format!("sym-{}-{}", i.wrapping_mul(2654435761) % 9973, i),
            i,
        );
    }
    for i in 0..1500u64 {
        let k = format!("sym-{}-{}", i.wrapping_mul(2654435761) % 9973, i);
        h = h.wrapping_add(map[&k]);
    }
    h.wrapping_add(interpret(&PROGRAM, 40_000, h))
}

enum Node {
    Leaf(u64),
    Pair(Box<Node>, Box<Node>),
}

fn build(depth: u32, x: u64) -> Node {
    if depth == 0 {
        Node::Leaf(x)
    } else {
        let l = build(
            depth - 1,
            x.wrapping_mul(6364136223846793005).wrapping_add(1),
        );
        let r = build(depth - 1, x ^ (x >> 7));
        Node::Pair(Box::new(l), Box::new(r))
    }
}

/// A copy of the tree with every leaf changed, as a compiler pass makes.
fn rename(n: &Node) -> Node {
    match n {
        Node::Leaf(x) => Node::Leaf(x.rotate_left(5) ^ 0x9E37),
        Node::Pair(l, r) => Node::Pair(Box::new(rename(l)), Box::new(rename(r))),
    }
}

fn walk(n: &Node) -> u64 {
    match n {
        Node::Leaf(x) => *x,
        Node::Pair(l, r) => walk(l).wrapping_mul(31).wrapping_add(walk(r)),
    }
}

#[derive(Clone, Copy)]
enum Op {
    /// `r[a] = r[a] * 31 + r[b]`, kept small.
    Mix(usize, usize),
    /// `r[a] += 1`
    Inc(usize),
    /// `mem[r[a] % len] ^= r[b]`
    Store(usize, usize),
    /// `r[a] = mem[r[b] % len]`
    Load(usize, usize),
    /// Jump to the start while `r[0]` is below the iteration count.
    Loop,
}

const PROGRAM: [Op; 7] = [
    Op::Mix(1, 2),
    Op::Store(1, 2),
    Op::Inc(2),
    Op::Load(3, 1),
    Op::Mix(2, 3),
    Op::Inc(0),
    Op::Loop,
];

fn interpret(code: &[Op], iterations: u64, seed: u64) -> u64 {
    let mut r = [0u64, seed, 1, 0];
    let mut mem = vec![0u64; 4096];
    let mut pc = 0;
    while pc < code.len() {
        pc = match code[pc] {
            Op::Mix(a, b) => {
                r[a] = (r[a].wrapping_mul(31).wrapping_add(r[b])) % 1_000_003;
                pc + 1
            }
            Op::Inc(a) => {
                r[a] += 1;
                pc + 1
            }
            Op::Store(a, b) => {
                let i = (r[a] % mem.len() as u64) as usize;
                mem[i] ^= r[b];
                pc + 1
            }
            Op::Load(a, b) => {
                r[a] = mem[(r[b] % mem.len() as u64) as usize];
                pc + 1
            }
            Op::Loop if r[0] < iterations => 0,
            Op::Loop => pc + 1,
        };
    }
    r[1] ^ r[2] ^ r[3]
}
