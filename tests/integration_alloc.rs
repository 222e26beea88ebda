//! Allocations per compile stay bounded.
//!
//! A counting global allocator tallies every allocator call (`alloc`,
//! `alloc_zeroed`, `realloc`) made while one corpus program compiles, under
//! AbstractOpt and Traditional. The counts are deterministic, so a change
//! that makes the optimizer copy the program again (re-boxing every node
//! in every pass, deep-copying every definition every round) shows up here
//! without any wall-clock noise.
//!
//! This must stay the only test in its binary: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use sxr::{Compiler, PipelineConfig};
use sxr_bench::BENCHMARKS;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocator calls one corpus compile may make, per
/// configuration: about 10% over what a compile of only the library
/// procedures the program reaches measures (at most 9,384 for AbstractOpt
/// and 7,612 for Traditional, both on `deriv`). Compiling the whole
/// library for every program measured at most 47,391 and 38,154; the
/// by-value optimizer passes before that, which rebuilt the tree in every
/// pass and copied definitions every round, at most 150,942 and 136,831.
const BOUNDS: [(&str, u64); 2] = [("AbstractOpt", 10_300), ("Traditional", 8_400)];

#[test]
fn corpus_compiles_stay_within_their_allocation_bounds() {
    for (label, bound) in BOUNDS {
        let mut config = match label {
            "AbstractOpt" => PipelineConfig::abstract_optimized(),
            _ => PipelineConfig::traditional(),
        };
        // Measure the pipeline itself, not the debug-build re-checks.
        config.verify_passes = false;
        let compiler = Compiler::new(config);
        // The first compile also expands and memoizes the prelude.
        compiler.compile("0").unwrap();
        let mut worst = (0, "");
        for b in BENCHMARKS {
            let before = CALLS.load(Ordering::Relaxed);
            let compiled = compiler.compile(b.source).unwrap();
            let calls = CALLS.load(Ordering::Relaxed) - before;
            drop(compiled);
            eprintln!("{label:<12} {:<8} {calls:>8} allocator calls", b.name);
            worst = worst.max((calls, b.name));
        }
        assert!(
            worst.0 <= bound,
            "{label}: compiling {} made {} allocator calls (bound {bound})",
            worst.1,
            worst.0
        );
    }
}
