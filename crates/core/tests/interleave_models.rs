//! Interleaving models for the sender's two concurrent protocols.
//!
//! The work-stealing transfer scheduler (`sender::StealSet`): per-worker
//! queues behind mutexes, local pops racing steal-half grabs from a victim
//! queue. The invariants the model drives across schedules: a chunk is
//! claimed by exactly one worker (uniqueness), nothing is lost or duplicated
//! in a steal hand-off (conservation), and the claim loop terminates under
//! every schedule the sweep explores (the harness's step bound converts
//! livelock into a failure).
//!
//! The `baddr` claim (`GraphSender::lookup_visited` + `claim`): streams of
//! one shuffle phase race to record an object they both reach in its
//! `baddr` word. The visited check loads the word once and the claim's CAS
//! expects exactly that value, so a claim made between the two makes the
//! CAS lose: the object has one owner, and every other stream keeps its
//! own copy in its thread-local table.

use std::sync::Arc;

use interleave::{model, AtomicU64, Config, Mutex, Ordering};
use mheap::layout::baddr;

/// A bounded claim loop mirroring `StealSet::next`: pop locally, then
/// steal the back half of the other worker's queue into our own.
fn run_worker(queues: &[Mutex<Vec<u64>>; 2], w: usize) -> Vec<u64> {
    let mut mine = Vec::new();
    for _ in 0..16 {
        let popped = queues[w].lock().pop();
        if let Some(chunk) = popped {
            mine.push(chunk);
            continue;
        }
        // Steal half (rounded up) from the victim, oldest first — the
        // guard is dropped before we touch our own queue, so the two
        // locks are never held together.
        let mut stolen = {
            let mut victim = queues[1 - w].lock();
            let keep = victim.len() / 2;
            victim.split_off(keep)
        };
        if stolen.is_empty() {
            break;
        }
        queues[w].lock().append(&mut stolen);
    }
    mine
}

model! {
    /// Two workers race pops against steal-half grabs: every chunk ends
    /// up claimed exactly once or still queued — never duplicated, never
    /// lost — under every explored schedule.
    fn steal_half_conserves_and_never_duplicates() {
        let queues = Arc::new([Mutex::new(vec![1u64, 2, 3]), Mutex::new(vec![4u64, 5, 6])]);
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let q2 = Arc::clone(&queues);
                interleave::spawn(move || run_worker(&q2, w))
            })
            .collect();
        let mut seen: Vec<u64> = handles.into_iter().flat_map(|h| h.join()).collect();
        // Anything still queued after both workers gave up is unclaimed
        // but must not have been cloned or dropped along the way.
        for q in queues.iter() {
            seen.extend(q.lock().iter().copied());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6], "chunks lost or duplicated in steal hand-off");
    }

    /// A worker with an empty queue drains the victim to completion: the
    /// steal-then-pop loop claims the whole backlog.
    fn lone_worker_drains_via_steals() {
        let queues = Arc::new([Mutex::new(Vec::new()), Mutex::new(vec![7u64, 8, 9])]);
        let q2 = Arc::clone(&queues);
        let t = interleave::spawn(move || run_worker(&q2, 0));
        let mut mine = t.join();
        mine.extend(queues[0].lock().iter().copied());
        mine.extend(queues[1].lock().iter().copied());
        mine.sort_unstable();
        assert_eq!(mine, vec![7, 8, 9], "steal-half left chunks stranded");
    }
}

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
