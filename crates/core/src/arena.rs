//! Owned arena byte storage: the backing store of the frozen oracles.
//!
//! [`ArenaBytes`] owns one contiguous read-only byte image — a frozen
//! arena file (IPFE v2 / IPFA v4, see the `persist` layer) or an image
//! built in memory by `freeze()` — and hands out `&[u8]` views the frozen
//! oracles borrow their sections from. Two acquisition paths exist:
//!
//! * **Bulk read** ([`ArenaBytes::read`], and [`ArenaBytes::open`] on the
//!   default build): one `read_exact` into a heap buffer over-allocated by
//!   [`ARENA_ALIGN`] so the image starts on a cache-line boundary — the
//!   same alignment the on-disk section layout guarantees, so every
//!   borrowed section starts on a cache line.
//! * **Memory map** ([`ArenaBytes::open`] with `--features mmap` on unix):
//!   the file is mapped `PROT_READ | MAP_PRIVATE` and borrowed in place —
//!   no copy, no per-section allocation, pages fault in on first touch.
//!   The `unsafe` lives in one cfg-gated module; everything else in the
//!   workspace stays `forbid(unsafe_code)`.
//!
//! Safety of the mapped variant rests on the persist layer's write
//! discipline: arena files are written whole to a temporary and atomically
//! renamed into place, never truncated or rewritten in place, so a live
//! mapping can never observe a shrinking file (the SIGBUS hazard of
//! mapping mutable files). See DESIGN.md §15 for the full argument.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// Alignment (bytes) of every section inside a frozen arena image, and of
/// the image itself in memory: one cache line, so every section borrowed
/// from an [`ArenaBytes`] starts on a cache line.
pub const ARENA_ALIGN: usize = 64;

/// One contiguous, immutable, cache-line-aligned byte image (see module
/// docs). Cheap to share by reference; [`Clone`] copies the bytes into a
/// fresh owned buffer.
pub struct ArenaBytes {
    repr: Repr,
}

enum Repr {
    /// Heap copy, aligned by over-allocation: the image lives at
    /// `buf[start .. start + len]` with `start` chosen so the first byte
    /// is [`ARENA_ALIGN`]-aligned.
    Owned {
        buf: Vec<u8>,
        start: usize,
        len: usize,
    },
    /// A read-only private file mapping (zero-copy load path).
    #[cfg(all(feature = "mmap", unix))]
    Mapped(mmap_impl::Mapping),
}

impl ArenaBytes {
    /// Wraps in-memory image bytes (the `freeze()` construction path).
    /// Realigns into a fresh buffer only when the vector's allocation is
    /// not already [`ARENA_ALIGN`]-aligned.
    pub fn from_vec(bytes: Vec<u8>) -> ArenaBytes {
        if bytes.as_ptr().align_offset(ARENA_ALIGN) == 0 {
            let len = bytes.len();
            ArenaBytes {
                repr: Repr::Owned {
                    buf: bytes,
                    start: 0,
                    len,
                },
            }
        } else {
            ArenaBytes::copy_aligned(&bytes)
        }
    }

    /// A `len`-byte aligned image, zeroed and then written by `fill` before
    /// it becomes read-only — the `freeze()` construction path, which
    /// writes every section in place. (Large heap blocks are not
    /// cache-line aligned, so a finished `Vec` would cost a second copy in
    /// [`from_vec`](Self::from_vec).)
    pub(crate) fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> ArenaBytes {
        let mut buf = vec![0u8; len + ARENA_ALIGN];
        // `align_offset` on `*const u8` always succeeds for power-of-two
        // alignments in practice; the modulo keeps a hypothetical `MAX`
        // sentinel in bounds (alignment is a performance nicety, never a
        // soundness requirement — all decoding is byte-based).
        let start = buf.as_ptr().align_offset(ARENA_ALIGN) % ARENA_ALIGN;
        fill(&mut buf[start..start + len]);
        ArenaBytes {
            repr: Repr::Owned { buf, start, len },
        }
    }

    /// Reads `r` to its end into one aligned owned buffer. The bytes are
    /// read behind [`ARENA_ALIGN`] bytes of slack and then moved down, in
    /// place, to the first aligned address, so reading a slice costs one
    /// allocation of its length plus the slack — never a second copy of
    /// the image.
    pub fn read_from(r: &mut impl Read) -> io::Result<ArenaBytes> {
        let mut buf = vec![0u8; ARENA_ALIGN];
        r.read_to_end(&mut buf)?;
        let len = buf.len() - ARENA_ALIGN;
        let start = buf.as_ptr().align_offset(ARENA_ALIGN) % ARENA_ALIGN;
        buf.copy_within(ARENA_ALIGN.., start);
        Ok(ArenaBytes {
            repr: Repr::Owned { buf, start, len },
        })
    }

    /// Copies `bytes` into a fresh aligned owned buffer.
    fn copy_aligned(bytes: &[u8]) -> ArenaBytes {
        ArenaBytes::build(bytes.len(), |img| img.copy_from_slice(bytes))
    }

    /// Loads `path` with one aligned bulk `read_exact` — the fallback load
    /// path, and the baseline the `oracle_load_ns` bench row compares the
    /// mapped path against.
    pub fn read(path: &Path) -> io::Result<ArenaBytes> {
        let mut file = File::open(path)?;
        let len = file_len(&file)?;
        let mut buf = vec![0u8; len + ARENA_ALIGN];
        let start = buf.as_ptr().align_offset(ARENA_ALIGN) % ARENA_ALIGN;
        file.read_exact(&mut buf[start..start + len])?;
        Ok(ArenaBytes {
            repr: Repr::Owned { buf, start, len },
        })
    }

    /// Opens `path` for borrowing: a `PROT_READ | MAP_PRIVATE` memory map
    /// when built with `--features mmap` on unix (zero-copy — no bytes are
    /// touched until a query faults their pages in), an aligned bulk read
    /// otherwise. Empty files yield an empty owned image on either build.
    #[cfg(all(feature = "mmap", unix))]
    pub fn open(path: &Path) -> io::Result<ArenaBytes> {
        let file = File::open(path)?;
        let len = file_len(&file)?;
        if len == 0 {
            return Ok(ArenaBytes::from_vec(Vec::new()));
        }
        Ok(ArenaBytes {
            repr: Repr::Mapped(mmap_impl::Mapping::map(&file, len)?),
        })
    }

    /// Opens `path` for borrowing — this build has no `mmap` feature, so
    /// the image is acquired with one aligned bulk read.
    #[cfg(not(all(feature = "mmap", unix)))]
    pub fn open(path: &Path) -> io::Result<ArenaBytes> {
        ArenaBytes::read(path)
    }

    /// The whole image. Frozen oracles borrow their sections out of this
    /// slice; the `'&self`-tied lifetime is what makes the zero-copy load
    /// sound.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Owned { buf, start, len } => &buf[*start..*start + *len],
            #[cfg(all(feature = "mmap", unix))]
            Repr::Mapped(m) => m.as_slice(),
        }
    }

    /// Image length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned { len, .. } => *len,
            #[cfg(all(feature = "mmap", unix))]
            Repr::Mapped(m) => m.as_slice().len(),
        }
    }

    /// `true` iff the image is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff this image is a live file mapping (the `mmap` load path)
    /// rather than an owned heap buffer.
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            Repr::Owned { .. } => false,
            #[cfg(all(feature = "mmap", unix))]
            Repr::Mapped(_) => true,
        }
    }

    /// Heap bytes owned by the image — zero for a mapping (its pages
    /// belong to the page cache, not this process's heap).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned { buf, .. } => buf.capacity(),
            #[cfg(all(feature = "mmap", unix))]
            Repr::Mapped(_) => 0,
        }
    }
}

impl std::ops::Deref for ArenaBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Clone for ArenaBytes {
    /// Materializes an owned aligned copy (a mapping is not duplicated —
    /// the clone is always heap-backed).
    fn clone(&self) -> ArenaBytes {
        ArenaBytes::copy_aligned(self.as_slice())
    }
}

impl PartialEq for ArenaBytes {
    fn eq(&self, other: &ArenaBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ArenaBytes {}

impl std::fmt::Debug for ArenaBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaBytes")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A file's length as `usize`, erroring (instead of truncating) on the
/// 32-bit-target edge where it would not fit.
fn file_len(file: &File) -> io::Result<usize> {
    let len = file.metadata()?.len();
    usize::try_from(len).map_err(|_| io::Error::new(io::ErrorKind::FileTooLarge, "arena too large"))
}

/// The zero-copy mapping: raw `mmap`/`munmap` bindings (std already links
/// libc on unix targets — no new dependency), cfg-gated behind
/// `--features mmap`, so the default build keeps `forbid(unsafe_code)`
/// intact.
///
/// # Safety argument
///
/// * The mapping is `PROT_READ | MAP_PRIVATE`: the kernel will never let
///   this process write through it, and writes by other processes to the
///   underlying file are not required to be visible — but the persist
///   layer's tmp+rename write discipline means arena files are never
///   modified in place at all, so the bytes are stable for the mapping's
///   lifetime and the truncation SIGBUS hazard cannot arise.
/// * `as_slice` hands out `&[u8]` tied to `&self`; the pages outlive every
///   borrow because `munmap` only runs in `Drop`.
/// * `Send`/`Sync` are sound because the memory is immutable for the
///   mapping's lifetime and `munmap` requires `&mut self` (drop).
#[cfg(all(feature = "mmap", unix))]
#[allow(unsafe_code)]
mod mmap_impl {
    use std::ffi::{c_int, c_long, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// `PROT_READ` — identical on every unix this crate targets.
    const PROT_READ: c_int = 0x1;
    /// `MAP_PRIVATE` — identical on linux and the BSD family.
    const MAP_PRIVATE: c_int = 0x2;

    /// One live `mmap` region, unmapped on drop.
    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    impl Mapping {
        /// Maps the first `len` bytes of `file` read-only and private.
        /// `len` must be nonzero (zero-length mappings are `EINVAL`; the
        /// caller special-cases empty files).
        pub(super) fn map(file: &File, len: usize) -> io::Result<Mapping> {
            // SAFETY: we request a fresh kernel-chosen placement (`addr =
            // null`, no MAP_FIXED), pass a file descriptor we own for the
            // duration of the call, and check for MAP_FAILED before using
            // the result. A successful PROT_READ | MAP_PRIVATE mapping of
            // `len` in-range bytes is valid to read for its lifetime.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            // MAP_FAILED is (void*)-1, i.e. the all-ones address.
            if ptr.addr() == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        /// The mapped bytes.
        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr .. ptr + len` is a live PROT_READ mapping owned
            // by `self` (unmapped only in `Drop`), immutable for its whole
            // lifetime per the module safety argument, and the returned
            // borrow is tied to `&self`.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe exactly the region `map`
            // acquired; after drop no borrow of it can exist (all
            // `as_slice` borrows are tied to the now-gone `&self`).
            let _ = unsafe { munmap(self.ptr, self.len) };
        }
    }

    // SAFETY: the region is immutable for the mapping's lifetime (see the
    // module safety argument); moving the owner across threads or sharing
    // `&Mapping` only ever yields shared reads.
    unsafe impl Send for Mapping {}
    // SAFETY: as above — `&Mapping` exposes read-only access.
    unsafe impl Sync for Mapping {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_round_trips_and_aligns() {
        let data: Vec<u8> = (0..200u8).collect();
        let arena = ArenaBytes::from_vec(data.clone());
        assert_eq!(arena.as_slice(), &data[..]);
        assert_eq!(arena.len(), 200);
        assert!(!arena.is_mapped());
        assert_eq!(arena.as_slice().as_ptr().align_offset(ARENA_ALIGN), 0);
        let cloned = arena.clone();
        assert_eq!(cloned, arena);
        assert_eq!(cloned.as_slice().as_ptr().align_offset(ARENA_ALIGN), 0);
    }

    #[test]
    fn read_and_open_return_identical_aligned_bytes() {
        let dir = std::env::temp_dir().join(format!("infprop-arena-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arena.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        std::fs::write(&path, &data).unwrap();

        let read = ArenaBytes::read(&path).unwrap();
        assert_eq!(read.as_slice(), &data[..]);
        assert!(!read.is_mapped());
        assert_eq!(read.as_slice().as_ptr().align_offset(ARENA_ALIGN), 0);

        let opened = ArenaBytes::open(&path).unwrap();
        assert_eq!(opened.as_slice(), &data[..]);
        assert_eq!(opened, read);

        for len in [0, 1, 63, 64, 5000] {
            let from_reader = ArenaBytes::read_from(&mut &data[..len]).unwrap();
            assert_eq!(from_reader.as_slice(), &data[..len]);
            assert_eq!(from_reader.as_slice().as_ptr().align_offset(ARENA_ALIGN), 0);
        }
        assert_eq!(
            opened.is_mapped(),
            cfg!(all(feature = "mmap", unix)),
            "open() maps exactly when the feature is compiled in"
        );

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, []).unwrap();
        let e = ArenaBytes::open(&empty).unwrap();
        assert!(e.is_empty() && !e.is_mapped());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_zero_fills_what_fill_leaves_and_aligns() {
        for len in [0usize, 1, 64, 1000] {
            let arena = ArenaBytes::build(len, |img| {
                assert_eq!(img.len(), len);
                assert!(img.iter().all(|&b| b == 0), "build hands fill zeroed bytes");
                if let Some(last) = img.last_mut() {
                    *last = 7;
                }
            });
            assert_eq!(arena.len(), len);
            assert_eq!(arena.is_empty(), len == 0);
            assert_eq!(arena.as_slice().as_ptr().align_offset(ARENA_ALIGN), 0);
            if len > 0 {
                assert_eq!(arena[len - 1], 7);
                assert!(arena[..len - 1].iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn owned_heap_bytes_cover_the_image() {
        let arena = ArenaBytes::from_vec(vec![1u8; 300]);
        assert!(arena.heap_bytes() >= arena.len());
        let built = ArenaBytes::build(300, |img| img.fill(1));
        assert!(built.heap_bytes() >= built.len());
        assert_eq!(built, arena);
        let read = ArenaBytes::read_from(&mut &[2u8; 100][..]).unwrap();
        assert!(read.heap_bytes() >= read.len());
    }

    #[test]
    fn read_from_reports_reader_errors() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
        }
        let err = ArenaBytes::read_from(&mut Failing).unwrap_err();
        assert_eq!(err.to_string(), "disk gone");
    }

    #[test]
    fn read_and_open_of_a_missing_file_fail() {
        let path = std::env::temp_dir().join(format!(
            "infprop-arena-missing-{}/absent.bin",
            std::process::id()
        ));
        assert_eq!(
            ArenaBytes::read(&path).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            ArenaBytes::open(&path).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn deref_and_debug_describe_the_image() {
        let arena = ArenaBytes::from_vec(vec![5u8, 6, 7]);
        let bytes: &[u8] = &arena;
        assert_eq!(bytes, arena.as_slice());
        assert_eq!(format!("{arena:?}"), "ArenaBytes { len: 3, mapped: false }");
        assert_ne!(arena, ArenaBytes::from_vec(vec![5u8, 6]));
    }

    #[cfg(all(feature = "mmap", unix))]
    #[test]
    fn mapped_arena_is_shareable_across_threads() {
        let dir = std::env::temp_dir().join(format!("infprop-arena-mt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arena.bin");
        let data: Vec<u8> = (0..64u8).cycle().take(4096).collect();
        std::fs::write(&path, &data).unwrap();
        let arena = ArenaBytes::open(&path).unwrap();
        assert!(arena.is_mapped());
        assert_eq!(arena.heap_bytes(), 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert_eq!(arena.as_slice(), &data[..]));
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
