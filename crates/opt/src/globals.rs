//! Whole-program global analysis.
//!
//! Identifies globals that are defined exactly once on the top-level spine
//! and never assigned again. Those bound to constants become propagatable
//! ([`global_constants`]); those bound to lambdas become inlining
//! candidates ([`analyze_globals`]). Globals participating in a reference
//! cycle (mutual recursion) are excluded from inlining to keep the inliner
//! terminating.
//!
//! Both analyses run every round, so they borrow the program: only a
//! definition the inliner can use (within its size threshold and not
//! recursive) is copied out.

use std::rc::Rc;
use sxr_ir::anf::{Atom, Bound, Expr, FunDef, GlobalId, Literal, VarId, Walk};
use sxr_ir::rep::RepId;
use sxr_ir::{IdMap, IdSet};

/// What is statically known about a global defined once to a lambda.
#[derive(Debug, Clone)]
pub struct GlobalFun {
    /// A snapshot of the definition, present only when the inliner may
    /// use it: the body is within the threshold and the global is not
    /// `recursive`. (Shared; the inliner refreshes copies.)
    pub def: Option<Rc<FunDef>>,
    /// True when the global participates in a reference cycle.
    pub recursive: bool,
}

/// Computes a [`GlobalFun`] for every global defined once to a lambda,
/// snapshotting the definitions whose body is at most `threshold` IR
/// nodes.
pub fn analyze_globals(
    main_body: &Expr,
    rep_globals: &std::collections::HashMap<GlobalId, RepId>,
    threshold: usize,
) -> IdMap<GlobalId, GlobalFun> {
    let set_counts = count_sets(main_body);
    // Representation globals are constants of rep type, never functions.
    let funs: Vec<(GlobalId, &FunDef)> = single_defs(main_body, &set_counts)
        .into_iter()
        .filter_map(|(g, def)| match def {
            Def::Fun(f) if !rep_globals.contains_key(&g) => Some((g, f)),
            _ => None,
        })
        .collect();

    // The reference graph over these globals, from the borrowed bodies
    // (large ones too: a cycle may run through a body never inlined).
    let node: IdMap<GlobalId, usize> = funs.iter().enumerate().map(|(i, (g, _))| (*g, i)).collect();
    let succ: Vec<Vec<usize>> = funs
        .iter()
        .map(|(_, f)| {
            let mut refs = IdSet::default();
            collect_global_refs(&f.body, &mut refs);
            refs.iter().filter_map(|g| node.get(g).copied()).collect()
        })
        .collect();
    let cyclic = on_cycle(&succ);

    funs.iter()
        .zip(cyclic)
        .map(|(&(g, f), recursive)| {
            let usable = !recursive && !f.body.size_exceeds(threshold);
            let def = usable.then(|| Rc::new(f.clone()));
            (g, GlobalFun { def, recursive })
        })
        .collect()
}

/// The constant every global defined once to a literal holds, plus the
/// representation globals (constants of rep type).
pub fn global_constants(
    main_body: &Expr,
    rep_globals: &std::collections::HashMap<GlobalId, RepId>,
) -> IdMap<GlobalId, Literal> {
    let set_counts = count_sets(main_body);
    let mut out: IdMap<GlobalId, Literal> = single_defs(main_body, &set_counts)
        .into_iter()
        .filter_map(|(g, def)| match def {
            Def::Const(l) => Some((g, l.clone())),
            Def::Fun(_) => None,
        })
        .collect();
    for (g, rid) in rep_globals {
        if set_counts.get(g) == Some(&1) {
            out.insert(*g, Literal::Rep(*rid));
        }
    }
    out
}

/// What a single definition stores.
enum Def<'e> {
    Const(&'e Literal),
    Fun(&'e FunDef),
}

/// The globals assigned exactly once in the whole program, by a spine
/// binding that stores a literal or a lambda bound earlier on the spine.
fn single_defs<'e>(
    main_body: &'e Expr,
    set_counts: &IdMap<GlobalId, usize>,
) -> Vec<(GlobalId, Def<'e>)> {
    let mut lambdas: IdMap<VarId, &FunDef> = IdMap::default();
    let mut out = Vec::new();
    let mut e = main_body;
    while let Expr::Let(v, b, body) = e {
        match b {
            Bound::Lambda(f) => {
                lambdas.insert(*v, f);
            }
            Bound::GlobalSet(g, a) if set_counts.get(g) == Some(&1) => match a {
                Atom::Lit(l) => out.push((*g, Def::Const(l))),
                Atom::Var(src) => {
                    if let Some(f) = lambdas.get(src) {
                        out.push((*g, Def::Fun(f)));
                    }
                }
            },
            _ => {}
        }
        e = body;
    }
    out
}

fn count_sets(e: &Expr) -> IdMap<GlobalId, usize> {
    let mut out = IdMap::default();
    e.visit::<()>(|node| {
        if let Expr::Let(_, Bound::GlobalSet(g, _), _) = node {
            *out.entry(*g).or_insert(0) += 1;
        }
        Walk::Enter
    });
    out
}

fn collect_global_refs(e: &Expr, out: &mut IdSet<GlobalId>) {
    e.visit::<()>(|node| {
        if let Expr::Let(_, Bound::GlobalGet(g) | Bound::GlobalSet(g, _), _) = node {
            out.insert(*g);
        }
        Walk::Enter
    });
}

/// For each node of the graph `succ`, whether it can reach itself: it is
/// in a strongly connected component of two or more nodes, or has a
/// self-loop. Tarjan's algorithm with an explicit stack, so linear in
/// nodes plus edges and independent of the depth of the graph.
fn on_cycle(succ: &[Vec<usize>]) -> Vec<bool> {
    const UNSEEN: usize = usize::MAX;
    let n = succ.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut cyclic = vec![false; n];
    let mut next = 0;
    // (node, position of the next successor to visit)
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        work.push((root, 0));
        while let Some(top) = work.last_mut() {
            let v = top.0;
            if let Some(&w) = succ[v].get(top.1) {
                top.1 += 1;
                if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            work.pop();
            if let Some(&(parent, _)) = work.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let start = stack
                    .iter()
                    .rposition(|&x| x == v)
                    .expect("a component root is on the stack");
                let component = stack.split_off(start);
                let is_cycle = component.len() > 1 || succ[v].contains(&v);
                for x in component {
                    on_stack[x] = false;
                    cyclic[x] = is_cycle;
                }
            }
        }
    }
    cyclic
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use sxr_ast::{convert_assignments, Expander};
    use sxr_ir::lower_program;
    use sxr_sexp::parse_all;

    const THRESHOLD: usize = 48;

    fn lower(src: &str) -> (Expr, sxr_ast::Program) {
        let mut ex = Expander::new();
        let unit = ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let keep = ex.into_program(vec![unit]);
        let mut p = keep.clone();
        convert_assignments(&mut p).unwrap();
        (lower_program(p).unwrap().main_body, keep)
    }

    fn analyze(src: &str) -> (IdMap<GlobalId, GlobalFun>, sxr_ast::Program) {
        let (e, prog) = lower(src);
        (analyze_globals(&e, &HashMap::new(), THRESHOLD), prog)
    }

    fn recursive(info: &IdMap<GlobalId, GlobalFun>, prog: &sxr_ast::Program, name: &str) -> bool {
        let g = prog.global_by_name(name).unwrap();
        let f = &info[&g];
        assert_eq!(
            f.def.is_some(),
            !f.recursive,
            "{name}: only a non-recursive def is kept"
        );
        f.recursive
    }

    #[test]
    fn single_def_lambda_is_known() {
        let (info, prog) = analyze("(define (id x) x)");
        assert!(!recursive(&info, &prog, "id"));
    }

    #[test]
    fn const_global_is_known() {
        let (e, prog) = lower("(define limit 100)");
        let g = prog.global_by_name("limit").unwrap();
        assert!(global_constants(&e, &HashMap::new()).contains_key(&g));
        assert!(!analyze_globals(&e, &HashMap::new(), THRESHOLD).contains_key(&g));
    }

    #[test]
    fn reassigned_global_is_unknown() {
        let (e, prog) = lower("(define x 1) (set! x 2) (define (f) 1) (set! f 2)");
        let x = prog.global_by_name("x").unwrap();
        let f = prog.global_by_name("f").unwrap();
        assert!(!global_constants(&e, &HashMap::new()).contains_key(&x));
        assert!(!analyze_globals(&e, &HashMap::new(), THRESHOLD).contains_key(&f));
    }

    #[test]
    fn self_recursion_marked() {
        let (info, prog) = analyze("(define (loop n) (loop n))");
        assert!(recursive(&info, &prog, "loop"));
    }

    #[test]
    fn mutual_recursion_marked() {
        let (info, prog) = analyze(
            "(define (even? n) (if (%word=? n 0) #t (odd? (%word- n 8))))
             (define (odd? n) (if (%word=? n 0) #f (even? (%word- n 8))))
             (define (leaf x) x)",
        );
        assert!(recursive(&info, &prog, "even?"));
        assert!(recursive(&info, &prog, "odd?"));
        assert!(!recursive(&info, &prog, "leaf"));
    }

    #[test]
    fn cycle_through_a_large_global_marks_the_small_one_recursive() {
        // `big` is far over the threshold, so it is never snapshotted, but
        // `small -> big -> small` is still a cycle.
        let big_body = (0..200)
            .map(|i| format!("(%word+ n {i})"))
            .collect::<Vec<_>>()
            .join(" ");
        let (alone, prog) = analyze(&format!("(define (big n) {big_body} n)"));
        let big = &alone[&prog.global_by_name("big").unwrap()];
        assert!(
            !big.recursive && big.def.is_none(),
            "big is over the threshold"
        );
        let (info, prog) = analyze(&format!(
            "(define (small n) (big n))
             (define (big n) {big_body} (small n))
             (define (caller n) (small n))"
        ));
        let big = &info[&prog.global_by_name("big").unwrap()];
        assert!(big.recursive && big.def.is_none());
        assert!(recursive(&info, &prog, "small"));
        assert!(!recursive(&info, &prog, "caller"));
    }

    #[test]
    fn large_definitions_are_not_snapshotted() {
        let (e, prog) = lower("(define (f n) (%word+ n 1) (%word+ n 2) (%word+ n 3))");
        let g = prog.global_by_name("f").unwrap();
        let size = e.size();
        let small = analyze_globals(&e, &HashMap::new(), size);
        assert!(small[&g].def.is_some());
        let none = analyze_globals(&e, &HashMap::new(), 0);
        assert!(none[&g].def.is_none() && !none[&g].recursive);
    }

    #[test]
    fn on_cycle_finds_exactly_the_cyclic_nodes() {
        // 0 -> 1 -> 2 -> 0 is a cycle, 3 -> 3 a self-loop, 4 -> 0 and
        // 5 (isolated) reach no cycle of their own; a long chain ends in
        // a two-node cycle.
        let mut succ = vec![vec![1], vec![2], vec![0], vec![3], vec![0], vec![]];
        let chain = 10_000;
        for i in 0..chain {
            succ.push(vec![6 + i + 1]);
        }
        succ.push(vec![6 + chain - 1]);
        let cyclic = on_cycle(&succ);
        assert_eq!(&cyclic[..6], &[true, true, true, true, false, false]);
        assert!(cyclic[6..6 + chain - 1].iter().all(|c| !c));
        assert!(cyclic[6 + chain - 1] && cyclic[6 + chain]);
    }
}
