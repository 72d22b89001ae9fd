//! Command-line entry point; see the library docs and README.md.

use perfbench::trace::COUNT_ALLOCS;
use perfbench::Args;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

/// Routes allocations through `ptb_obs::alloc::CountingAlloc` only while
/// [`COUNT_ALLOCS`] is set (the traced simulator pass), so the timed
/// runs never pay for counting.
struct SwitchAlloc;

// SAFETY: both arms forward the caller's layout unchanged to an
// allocator backed by `System` (`CountingAlloc` counts, then calls
// `System`), so a pointer from either arm is a `System` allocation and
// `dealloc` may always return it to `System`.
unsafe impl GlobalAlloc for SwitchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { ptb_obs::alloc::CountingAlloc.alloc(layout) }
        } else {
            // SAFETY: as above.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // Untraced, growth and zeroed allocations take `System`'s own paths
    // (in-place growth, calloc), as the repository's binaries do. Traced,
    // they take `CountingAlloc`'s default paths, which count them.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
            // contract.
            unsafe { ptb_obs::alloc::CountingAlloc.alloc_zeroed(layout) }
        } else {
            // SAFETY: as above.
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
            // and `ptr` is a `System` allocation, which `CountingAlloc`
            // frees with `System`.
            unsafe { ptb_obs::alloc::CountingAlloc.realloc(ptr, layout, new_size) }
        } else {
            // SAFETY: as above.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOC: SwitchAlloc = SwitchAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = perfbench::run(&args).and_then(|out| out.to_json(args.trace));
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
