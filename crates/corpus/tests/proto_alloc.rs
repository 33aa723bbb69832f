//! A frame's length prefix must not decide how much the reader allocates:
//! a peer that claims a 200 MiB frame and then hangs up must cost the
//! reader a bounded chunk, not 200 MiB. A global allocator records the
//! largest single request while `recv_frame` runs.
//!
//! This lives in its own integration-test binary so the recording
//! allocator cannot perturb any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::{AtomicUsize, Ordering};

use ccfuzz_corpus::proto::recv_frame;

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

#[test]
fn huge_length_prefix_then_eof_errs_without_allocating_the_claim() {
    let claimed: u32 = 200 * 1024 * 1024;
    let mut stream = Cursor::new(claimed.to_be_bytes().to_vec());
    LARGEST.store(0, Ordering::Relaxed);
    let err = recv_frame(&mut stream).unwrap_err();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        largest < 1024 * 1024,
        "recv_frame allocated {largest} bytes for a body that never arrived"
    );
}
