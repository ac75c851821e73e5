//! Interleaving models for the sender's concurrent protocol.
//!
//! The `baddr` claim (`GraphSender::lookup_visited` + `claim`): streams of
//! one shuffle phase race to record an object they both reach in its
//! `baddr` word. The visited check loads the word once and the claim's CAS
//! expects exactly that value, so a claim made between the two makes the
//! CAS lose: the object has one owner, and every other stream keeps its
//! own copy in its thread-local table.

use std::sync::Arc;

use interleave::{model, AtomicU64, Config, Ordering};
use mheap::layout::baddr;

/// The shuffle phase both streams send in.
const SID: u8 = 3;

/// One stream's side of the `baddr` protocol: its id, its thread-local
/// fallback entry for the one object, and its lost claims.
struct Stream {
    id: u16,
    fallback: Option<u64>,
    cas_conflicts: u64,
}

/// How a claim writes the `baddr` word: `(word, expected, new)`, returning
/// whether the stream now owns the word.
type ClaimFn = fn(&AtomicU64, u64, u64) -> bool;

/// The shipped claim: `Arena::cas_word`'s CAS, with its orderings.
fn cas_claim(word: &AtomicU64, expected: u64, new: u64) -> bool {
    word.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire).is_ok()
}

/// One visit of the shared object by stream `s`, which would give it
/// logical position `logical` if it is new to the stream — mirrors
/// `GraphSender::visit`: the visited check loads the word once, and the
/// claim's CAS expects that very word. Returns the object's position in
/// this stream.
fn visit(word: &AtomicU64, s: &mut Stream, logical: u64, claim: ClaimFn) -> u64 {
    let w = word.load(Ordering::Acquire);
    if baddr::sid_of(w) == SID {
        if baddr::stream_of(w) == s.id {
            return baddr::rel_of(w);
        }
        if let Some(rel) = s.fallback {
            return rel;
        }
    }
    if baddr::sid_of(w) != SID && claim(word, w, baddr::compose(SID, s.id, logical)) {
        return logical;
    }
    s.cas_conflicts += 1;
    s.fallback = Some(logical);
    logical
}

/// Two streams of phase `SID` each visit the object twice; the word starts
/// out holding a claim from an earlier phase. Returns each stream's
/// (first visit, second visit, final state) and the final word.
fn race(claim: ClaimFn) -> (Vec<(u64, u64, Stream)>, u64) {
    let word = Arc::new(AtomicU64::new(baddr::compose(SID - 1, 1, 40)));
    let handles: Vec<_> = [1u16, 2]
        .into_iter()
        .map(|id| {
            let w2 = Arc::clone(&word);
            interleave::spawn(move || {
                let mut s = Stream { id, fallback: None, cas_conflicts: 0 };
                let first = visit(&w2, &mut s, 8 * u64::from(id), claim);
                let again = visit(&w2, &mut s, 1000 + u64::from(id), claim);
                (first, again, s)
            })
        })
        .collect();
    let streams = handles.into_iter().map(|h| h.join()).collect();
    (streams, word.load(Ordering::Acquire))
}

model! {
    /// Two streams with the same `sID` race check-then-CAS on one `baddr`
    /// word: exactly one owns it, the other records the object in its
    /// fallback table after exactly one conflict, and each stream finds its
    /// own position again on a second visit — never the other's.
    fn baddr_claim_is_exclusive() {
        let (streams, w) = race(cas_claim);
        assert_eq!(baddr::sid_of(w), SID, "nobody claimed the word");
        let owner = baddr::stream_of(w);
        for (first, again, s) in &streams {
            assert_eq!(*first, 8 * u64::from(s.id), "stream {} got another position", s.id);
            assert_eq!(again, first, "stream {} read another stream's claim as its own", s.id);
            if s.id == owner {
                assert_eq!(baddr::rel_of(w), *first);
                assert_eq!((s.fallback, s.cas_conflicts), (None, 0));
            } else {
                assert_eq!((s.fallback, s.cas_conflicts), (Some(*first), 1));
            }
        }
    }
}

/// Pin: a claim that stores instead of CAS-ing the word it checked lets a
/// stream overwrite a claim made since its check, so the overwritten stream
/// later takes the other's claim for a new object — the race the CAS's
/// expected value exists to lose.
#[test]
fn store_instead_of_cas_double_claims() {
    fn store_claim(word: &AtomicU64, _expected: u64, new: u64) -> bool {
        word.store(new, Ordering::Release);
        true
    }
    let msg = interleave::fails(Config::from_env(), || {
        let (streams, _) = race(store_claim);
        for (first, again, s) in &streams {
            assert_eq!(again, first, "stream {} lost its own claim", s.id);
        }
    });
    assert!(msg.contains("lost its own claim"), "{msg}");
}
