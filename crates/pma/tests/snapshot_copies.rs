//! Count pins for what a snapshot save and load copy. A load allocates
//! the payload once — the arrays it is read into are the ones the loaded
//! set keeps — and a save allocates nothing the size of the image: the
//! arrays stream from their allocations to the file. Bytes are counted by
//! a global allocator that tallies this thread's requests, not by a clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use cpma_api::{BatchSet, Persist, PersistError};
use cpma_pma::{Cpma, Pma};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the tally touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocated on this thread.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpma-copies-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 200 k keys spread over 40 bits: delta leaves, a payload of ≈ 1.3 MB
/// on the CPMA and ≈ 4 MB on the PMA, far above the file buffers.
fn keys() -> Vec<u64> {
    (0..200_000u64).map(|i| i * 5_497_558 + (i % 7)).collect()
}

/// Save `set` to `path` and load it back, checking what each allocated
/// against the file's size.
fn check<S: BatchSet + Persist + PartialEq + std::fmt::Debug>(
    set: &S,
    image: impl Fn(&S) -> Vec<u8>,
    path: &Path,
) {
    let (bytes, in_memory) = allocated_by(|| image(set));
    let file_len = bytes.len();
    // The in-memory image is one exact allocation, never regrown, plus
    // the meta section.
    assert!(
        (file_len..file_len + 1024).contains(&in_memory),
        "{}: {in_memory} B allocated for a {file_len} B image",
        S::NAME
    );

    let (saved, save_alloc) = allocated_by(|| set.save(path));
    saved.unwrap();
    assert_eq!(std::fs::read(path).unwrap(), bytes, "{}", S::NAME);
    // The file buffer and the meta section, not a staged image.
    assert!(
        save_alloc < file_len / 8,
        "{}: save allocated {save_alloc} B for a {file_len} B file",
        S::NAME
    );

    let (loaded, load_alloc) = allocated_by(|| S::load(path));
    assert_eq!(&loaded.unwrap(), set, "{}", S::NAME);
    // The arrays the payload becomes, plus derived state (the occupancy
    // bitset, the overflow slots) and the file buffer: well under the
    // two copies of a load that stages the file first.
    assert!(
        load_alloc < file_len + file_len / 4,
        "{}: load allocated {load_alloc} B for a {file_len} B file",
        S::NAME
    );
}

#[test]
fn cpma_save_stages_nothing_and_load_copies_the_payload_once() {
    let dir = tmp_dir("cpma");
    check(
        &Cpma::build_sorted(&keys()),
        Cpma::to_snapshot_bytes,
        &dir.join("s"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pma_save_stages_nothing_and_load_copies_the_payload_once() {
    let dir = tmp_dir("pma");
    check(
        &Pma::build_sorted(&keys()),
        Pma::to_snapshot_bytes,
        &dir.join("s"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A header declaring more payload than the file holds (its digest
/// resealed over the lie, so only the lengths can refuse it) is
/// `Truncated`, from a file before any buffer the payload's size is
/// allocated, and from memory alike.
#[test]
fn a_length_past_the_file_is_refused_before_the_payload_is_allocated() {
    use cpma_persist::checksum::xxh64;
    let dir = tmp_dir("liar");
    let path = dir.join("s");
    let bytes = Cpma::build_sorted(&keys()).to_snapshot_bytes();
    let meta_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    for declared in [payload_len + 1, payload_len + (1 << 40), u64::MAX] {
        let mut liar = bytes.clone();
        liar[20..28].copy_from_slice(&declared.to_le_bytes());
        let digest = xxh64(&liar[..28 + meta_len]);
        liar[28 + meta_len..36 + meta_len].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(&path, &liar).unwrap();
        let (loaded, alloc) = allocated_by(|| Cpma::load(&path));
        assert!(
            matches!(loaded, Err(PersistError::Truncated(_))),
            "declared {declared}"
        );
        assert!(
            alloc < payload_len as usize / 8,
            "allocated {alloc} B refusing a {payload_len} B payload declared as {declared}"
        );
        assert!(matches!(
            Cpma::from_snapshot_bytes(&liar),
            Err(PersistError::Truncated(_))
        ));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A load hashes each byte of the file once, but for the two digest
/// words themselves (the tally exists in builds with debug assertions).
#[cfg(debug_assertions)]
#[test]
fn a_load_hashes_each_byte_once() {
    use cpma_persist::checksum::tally::hashed_by;
    let dir = tmp_dir("hashed");
    let path = dir.join("s");
    let set = Cpma::build_sorted(&keys());
    let ((), wrote) = hashed_by(|| set.save(&path).unwrap());
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let (_, read) = hashed_by(|| Cpma::load(&path).unwrap());
    assert_eq!((wrote, read), (file_len - 16, file_len - 16));
    std::fs::remove_dir_all(&dir).unwrap();
}
