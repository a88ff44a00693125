//! A frame reader allocates for the bytes that arrive, not for the length a
//! header claims: a 4-byte prefix declaring `MAX_FRAME_LEN` (64 MiB)
//! followed by EOF must fail without allocating anywhere near 64 MiB. A
//! counting global allocator wraps the system allocator and charges every
//! requested byte to the calling thread.

use infprop_core::serve::{read_frame, write_frame, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};

/// System allocator with a per-thread allocated-bytes counter. The count is
/// per thread because the test harness runs sibling tests on parallel
/// threads, and their allocations must not be charged here.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Charges `bytes` to the calling thread. `try_with` because the allocator
/// also runs while thread-locals are being torn down.
fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Bytes allocated so far by the calling thread.
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Hands out at most `step` bytes per `read` call, like a slow peer.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn max_length_header_then_eof_allocates_under_a_mebibyte() {
    let header = MAX_FRAME_LEN.to_le_bytes();
    let before = allocated();
    let err = read_frame(&mut &header[..]).unwrap_err();
    let spent = allocated() - before;
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(spent < 1 << 20, "read_frame allocated {spent} bytes");

    // A peer that sends part of the claimed payload before hanging up costs
    // about twice what it sent, not what it claimed.
    let mut partial = header.to_vec();
    partial.extend(std::iter::repeat_n(7u8, 300 << 10));
    let before = allocated();
    assert!(read_frame(&mut &partial[..]).is_err());
    let spent = allocated() - before;
    assert!(spent < 2 << 20, "read_frame allocated {spent} bytes");
}

#[test]
fn frames_past_the_preallocation_round_trip() {
    for len in [0usize, 1, 17_400, 64 << 10, (64 << 10) + 1, 300_001] {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for step in [1usize, 4_093, usize::MAX] {
            if step == 1 && len > 70_000 {
                continue;
            }
            let mut r = Trickle { bytes: &wire, step };
            assert_eq!(
                read_frame(&mut r).unwrap(),
                Some(payload.clone()),
                "len {len}"
            );
            assert_eq!(
                read_frame(&mut r).unwrap(),
                None,
                "clean EOF after the frame"
            );
        }
    }
}
