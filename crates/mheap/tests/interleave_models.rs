//! Interleaving models for the shared old-gen allocation window
//! (`Heap::begin_shared_old_alloc` / `shared_alloc_raw_old` /
//! `end_shared_old_alloc`) and the segment base claim and trim
//! (`segment::claim_base_from`, `segment::trim_claim_on`), re-expressed
//! over the `interleave` shim's wrapped atomics so the scheduler can drive
//! the races the real heap only hits under load.
//!
//! The positive models mirror the shipped orderings (AcqRel claim CAS,
//! Release open / Acquire close) and must pass the whole seed sweep; the
//! negative models relax exactly one edge and must be caught, pinning
//! *why* each ordering is load-bearing.

use std::sync::Arc;

use interleave::{model, AtomicU64, Config, Data, Ordering};

fn cfg() -> Config {
    Config::from_env()
}

/// One CAS claim of `len` bytes against the shared cursor, mirroring
/// `Heap::shared_alloc_raw_old`'s loop with the shipped orderings.
fn claim(cursor: &AtomicU64, len: u64, end: u64, success: Ordering) -> Option<u64> {
    let mut cur = cursor.load(Ordering::Relaxed);
    loop {
        if cur + len > end {
            return None;
        }
        match cursor.compare_exchange_weak(cur, cur + len, success, Ordering::Relaxed) {
            Ok(_) => return Some(cur),
            Err(now) => cur = now,
        }
    }
}

model! {
    /// Two workers claim disjoint regions from the shared window and fill
    /// them; the window closer (Acquire load of the cursor) observes both
    /// claims and both fills. This is the post-fix protocol end to end.
    fn shared_window_claims_are_disjoint_and_published() {
        let cursor = Arc::new(AtomicU64::new(0));
        let slots = Arc::new([Data::named("slot-0", 0u64), Data::named("slot-1", 0u64)]);
        let handles: Vec<_> = (0..2u64)
            .map(|w| {
                let (c2, s2) = (Arc::clone(&cursor), Arc::clone(&slots));
                interleave::spawn(move || {
                    let base = claim(&c2, 1, 2, Ordering::AcqRel).expect("window has room");
                    s2[base as usize].set(w + 1);
                    base
                })
            })
            .collect();
        let bases: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
        assert_ne!(bases[0], bases[1], "CAS claims must not overlap");
        // Window close: the Acquire load pairs with the claimers' AcqRel
        // CAS chain, so every filled slot below the cursor is visible.
        let top = cursor.load(Ordering::Acquire);
        assert_eq!(top, 2);
        assert_eq!(slots[bases[0] as usize].get(), 1);
        assert_eq!(slots[bases[1] as usize].get(), 2);
    }

    /// The base-region claim (`segment::claim_base_from`) is a pure
    /// address-space reservation: all-Relaxed is sound because nobody
    /// reads memory *through* the cursor value — uniqueness is the only
    /// invariant, and the CAS provides it at any ordering.
    fn segment_base_claims_are_unique_even_relaxed() {
        let cursor = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2u64)
            .map(|_| {
                let c2 = Arc::clone(&cursor);
                interleave::spawn(move || claim(&c2, 4, 16, Ordering::Relaxed).expect("room"))
            })
            .collect();
        let a = handles.into_iter().map(|h| h.join()).collect::<Vec<_>>();
        assert_ne!(a[0], a[1], "base claims must never alias");
        assert_eq!(cursor.load(Ordering::Relaxed), 8);
    }

    /// A seal claims an upper bound (8) before traversing and gives the
    /// unused tail back afterwards (`segment::trim_claim_on`, keeping 2).
    /// The trim CAS succeeds only while the claim is still the newest, so
    /// whichever way two seals interleave the kept spans stay disjoint and
    /// the cursor ends above both.
    fn trimmed_base_claims_stay_disjoint() {
        let cursor = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2u64)
            .map(|_| {
                let c2 = Arc::clone(&cursor);
                interleave::spawn(move || {
                    let base = claim(&c2, 8, 64, Ordering::Relaxed).expect("room");
                    let _ = c2.compare_exchange(
                        base + 8,
                        base + 2,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    base
                })
            })
            .collect();
        let a = handles.into_iter().map(|h| h.join()).collect::<Vec<_>>();
        let (lo, hi) = (a[0].min(a[1]), a[0].max(a[1]));
        assert!(lo + 2 <= hi, "kept spans overlap: {lo} and {hi}");
        assert!(cursor.load(Ordering::Relaxed) >= hi + 2, "cursor fell into a kept span");
    }
}

/// Pre-fix pin: with a Relaxed success ordering on the claim CAS, a
/// concurrent reader that sees the bumped cursor does *not* see the
/// claimer's fill — the exact race the AcqRel ordering (and its `ORDER:`
/// comment) exists to prevent.
#[test]
fn relaxed_claim_cas_lets_reader_race_the_fill() {
    let msg = interleave::fails(cfg(), || {
        let cursor = Arc::new(AtomicU64::new(0));
        let slot = Arc::new(Data::named("window-slot", 0u64));
        let (c2, s2) = (Arc::clone(&cursor), Arc::clone(&slot));
        let t = interleave::spawn(move || {
            s2.set(7);
            // Publish *after* the fill, but with no Release half.
            claim(&c2, 1, 1, Ordering::Relaxed).expect("room");
        });
        if cursor.load(Ordering::Acquire) == 1 {
            // Reader believes the region is claimed and inspects it.
            slot.with(|v| assert_eq!(*v, 7));
        }
        t.join();
    });
    assert!(msg.contains("data race") || msg.contains("window-slot"), "{msg}");
}
