//! Regression gate: the service loop makes at most 1.5 heap allocations
//! per session under threshold defrag and at most 0.1 without defrag, on
//! 20 000 Poisson sessions over 16 nodes and 8 λ with a `max_wait` of
//! 5 000 cycles (the `serve-churn-16n` benchmark's shape). It reads 1.08
//! and 0.006 today: grants reuse the conflict buffers and released
//! conflict lists, so what remains is each re-pack's conflict graph and
//! the growth of the log and its companions.
//!
//! A counting global allocator is armed around the `serve` call only; the
//! workload is generated before. This file holds a single test, so no
//! other test thread allocates while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use onoc_serve::{DefragPolicy, PoissonWorkload, ServiceConfig, serve};
use onoc_sim::NullProbe;
use onoc_wa::GrantPolicy;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap allocations made by `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    drop(out);
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn the_serve_loop_allocates_at_most_one_and_a_half_blocks_per_session() {
    const SESSIONS: usize = 20_000;
    let requests = PoissonWorkload {
        nodes: 16,
        sessions: SESSIONS,
        arrival_rate: 0.02,
        mean_hold: 400.0,
        max_demand: 3,
        seed: 1,
    }
    .generate();
    for (defrag, bound) in [
        (DefragPolicy::OnThreshold { min_free_run: 0.25 }, 1.5),
        (DefragPolicy::Never, 0.1),
    ] {
        let config = ServiceConfig {
            nodes: 16,
            wavelengths: 8,
            policy: GrantPolicy::Disjoint,
            defrag,
            max_wait: Some(5_000),
        };
        let made = allocations_in(|| serve(&config, &requests, &mut NullProbe).unwrap());
        #[allow(clippy::cast_precision_loss)]
        let per_session = made as f64 / SESSIONS as f64;
        assert!(
            per_session <= bound,
            "{defrag}: the serve loop made {made} allocations, {per_session:.2} per session \
             (bound {bound})"
        );
    }
}
