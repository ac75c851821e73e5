//! The Skyway library API (paper §3.3) beside the transfer itself:
//! shuffle-phase management (`shuffleStart`) and post-transfer field-update
//! hooks (`registerUpdate`). `writeObject` is [`GraphSender::write_root`]
//! and `readObject` is [`GraphReceiver::finish`]; [`crate::SkywaySerializer`]
//! wraps both behind the standard serializer interface.
//!
//! [`GraphSender::write_root`]: crate::GraphSender::write_root
//! [`GraphReceiver::finish`]: crate::GraphReceiver::finish

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use mheap::layout::Addr;
use mheap::Vm;
use parking_lot::RwLock;

use crate::{Error, Result};

/// Per-sending-VM shuffle-phase state. `shuffle_start()` increments the
/// phase; the phase id (`sID`) occupies one byte of the `baddr` word, so it
/// cycles through 1..=255 — [`ShuffleController::start_phase`] reports when
/// a wrap occurs so the engine can scrub stale `baddr` words (a heap walk;
/// the price of the one-byte encoding, paid every 255 phases).
#[derive(Debug)]
pub struct ShuffleController {
    phase: AtomicU64,
    stream_counter: AtomicU32,
}

impl Default for ShuffleController {
    fn default() -> Self {
        ShuffleController { phase: AtomicU64::new(1), stream_counter: AtomicU32::new(0) }
    }
}

impl ShuffleController {
    /// Creates the controller at phase 1.
    pub fn new() -> Self {
        ShuffleController::default()
    }

    /// The current shuffle phase's one-byte `sID` (never 0 — 0 means
    /// "never visited", the state of a freshly allocated object).
    pub fn sid(&self) -> u8 {
        // ORDER: Acquire — pairs with the AcqRel phase bump in
        // `start_phase`: a sender that reads the new phase also sees the
        // stream-counter reset ordered before it became visible.
        ((self.phase.load(Ordering::Acquire) - 1) % 255 + 1) as u8
    }

    /// Monotonic phase number (diagnostics).
    pub fn phase(&self) -> u64 {
        // ORDER: Acquire — same pairing as `sid`.
        self.phase.load(Ordering::Acquire)
    }

    /// Starts the next shuffle phase (`shuffleStart` in the paper).
    /// Returns `true` when the one-byte `sID` wrapped around, in which case
    /// the caller must run [`scrub_baddrs`] before sending.
    pub fn start_phase(&self) -> bool {
        // ORDER: AcqRel — the Release half publishes the phase transition
        // to `sid`/`phase` Acquire readers; the Acquire half orders this
        // bump after any previous phase's bump it follows.
        let p = self.phase.fetch_add(1, Ordering::AcqRel) + 1;
        // ORDER: Release — the counter reset must not be reordered after
        // the phase becomes visible, or a racing `next_stream` could hand
        // out a stale high id inside the new phase.
        self.stream_counter.store(0, Ordering::Release);
        let wrapped = (p - 1).is_multiple_of(255);
        let reg = obs::global();
        reg.counter(obs::names::SHUFFLE_PHASES_STARTED).inc();
        reg.gauge(obs::names::SHUFFLE_CURRENT_PHASE).set(p as i64);
        if wrapped {
            reg.counter(obs::names::SHUFFLE_SID_WRAPS).inc();
        }
        wrapped
    }

    /// Allocates a fresh stream id within the current phase (each
    /// destination buffer / sender thread gets its own).
    pub fn next_stream(&self) -> u16 {
        obs::global().counter(obs::names::SHUFFLE_STREAMS_ALLOCATED).inc();
        // ORDER: AcqRel — the Acquire half orders the allocation after the
        // phase-start counter reset (Release in `start_phase`); the
        // Release half keeps the RMW chain a release sequence so later
        // allocators inherit that edge.
        (self.stream_counter.fetch_add(1, Ordering::AcqRel) % 0xfffe) as u16 + 1
    }

    /// Allocates `n` *contiguous* stream ids within the current phase and
    /// returns the first — the engine's lane `t` sends as stream
    /// `base + t`, so one reservation covers every lane of a transfer. A
    /// block lies in `1..=0xfffe` and never straddles the top of the range.
    ///
    /// # Errors
    /// [`Error::StreamIdsExhausted`] when the phase has fewer than `n` ids
    /// left; the counter is then left as it was.
    pub fn next_stream_block(&self, n: u16) -> Result<u16> {
        let n = n.max(1);
        // ORDER: AcqRel on success, Acquire on failure — the same pairing
        // as `next_stream`; a refused block publishes nothing.
        let claimed = self.stream_counter.fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
            c.checked_add(u32::from(n)).filter(|&end| end <= 0xfffe)
        });
        let base = claimed.map_err(|_| Error::StreamIdsExhausted(n))?;
        obs::global().counter(obs::names::SHUFFLE_STREAMS_ALLOCATED).add(u64::from(n));
        Ok(base as u16 + 1)
    }

    /// Allocates a per-transfer trace context under `parent` (a stage
    /// root, or [`obs::TraceCtx::NONE`] for a standalone transfer).
    /// Sender, wire, receiver, and GC spans of the transfer all stitch
    /// under the returned context. [`obs::TraceCtx::NONE`] while tracing
    /// is disabled, which keeps the whole path span-free.
    pub fn begin_transfer(&self, parent: obs::TraceCtx) -> obs::TraceCtx {
        if parent.is_none() {
            obs::global().tracer().new_trace()
        } else {
            parent
        }
    }
}

/// Zeroes every `baddr` word in the heap — required when the one-byte
/// phase id wraps, so 255-phase-old entries cannot alias the new phase.
///
/// # Errors
/// Heap walking errors; [`Error::NeedsBaddr`] if the format has no `baddr`.
pub fn scrub_baddrs(vm: &mut Vm) -> Result<()> {
    let off = vm.spec().baddr_off().map_err(Error::Heap)?;
    let mut addrs: Vec<u64> = Vec::new();
    vm.walk_heap(|_, a, _| {
        addrs.push(a.0);
        Ok(())
    })
    .map_err(Error::Heap)?;
    let reg = obs::global();
    reg.counter(obs::names::SHUFFLE_BADDR_SCRUBS).inc();
    reg.counter(obs::names::SHUFFLE_BADDR_WORDS_SCRUBBED).add(addrs.len() as u64);
    for a in addrs {
        vm.heap().arena().store_word(a + off, 0).map_err(Error::Heap)?;
    }
    Ok(())
}

type UpdateFn = Box<dyn Fn(&mut Vm, Addr) -> Result<()> + Send + Sync>;

/// Post-transfer field-update hooks (`registerUpdate`, §3.3): a function
/// registered per class runs on every transferred object of that class
/// right after absolutization — e.g. re-initializing a timestamp field.
#[derive(Default)]
pub struct UpdateRegistry {
    hooks: RwLock<Vec<(String, UpdateFn)>>,
}

impl std::fmt::Debug for UpdateRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateRegistry").field("hooks", &self.hooks.read().len()).finish()
    }
}

impl UpdateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        UpdateRegistry::default()
    }

    /// Registers an update function for a class.
    // tidy:allow(unreached-pub, §3.3 registerUpdate; read by update_hooks_run_after_transfer)
    pub fn register_update(
        &self,
        class: impl Into<String>,
        f: impl Fn(&mut Vm, Addr) -> Result<()> + Send + Sync + 'static,
    ) {
        self.hooks.write().push((class.into(), Box::new(f)));
    }

    /// Index of the hook for `class`, if any.
    pub(crate) fn hook_index(&self, class: &str) -> Option<usize> {
        self.hooks.read().iter().position(|(c, _)| c == class)
    }

    /// Applies hook `idx` to `obj`.
    pub(crate) fn apply(&self, vm: &mut Vm, obj: Addr, idx: usize) -> Result<()> {
        let hooks = self.hooks.read();
        let (_, f) = hooks.get(idx).ok_or(Error::NoSuchHook(idx))?;
        f(vm, obj)
    }

    /// Number of registered hooks.
    pub fn len(&self) -> usize {
        self.hooks.read().len()
    }

    /// True when no hooks are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn sid_never_zero_and_wraps() {
        let c = ShuffleController::new();
        assert_eq!(c.sid(), 1);
        let mut wrapped = 0;
        for _ in 0..600 {
            if c.start_phase() {
                wrapped += 1;
            }
            assert_ne!(c.sid(), 0);
        }
        assert!(wrapped >= 2, "600 phases must wrap the 255-value sid at least twice");
    }

    #[test]
    fn stream_ids_unique_within_phase() {
        let c = ShuffleController::new();
        let a = c.next_stream();
        let b = c.next_stream();
        assert_ne!(a, b);
        assert_ne!(a, 0);
        c.start_phase();
        assert_eq!(c.next_stream(), a, "stream counter resets each phase");
    }

    #[test]
    fn a_block_reserves_every_id_in_it() {
        let c = ShuffleController::new();
        c.next_stream();
        let base = c.next_stream_block(4).unwrap();
        assert_eq!(c.next_stream(), base + 4, "ids base..base+4 belong to the block's owner");
    }

    proptest! {
        /// Whatever ids a phase already handed out — singly, in blocks, or
        /// up to and past the top of the range — every block it still
        /// grants lies in `1..=0xfffe` and shares no id with them.
        #[test]
        fn a_block_stays_in_range_and_clear_of_handed_out_ids(
            first in (0usize..3, 1u16..=0xfffe, 0u16..16)
                .prop_map(|(pick, anywhere, below_top)| [0, anywhere, 0xfffe - below_top][pick]),
            singles in 0usize..4,
            blocks in proptest::collection::vec(1u16..=8, 0..4),
            n in 1u16..=8,
        ) {
            let c = ShuffleController::new();
            let mut taken = BTreeSet::new();
            let take_block = |m: u16, taken: &mut BTreeSet<u32>| {
                if let Ok(base) = c.next_stream_block(m) {
                    let ids = u32::from(base)..u32::from(base) + u32::from(m);
                    prop_assert!(ids.start >= 1 && ids.end - 1 <= 0xfffe, "{ids:?}");
                    prop_assert!(ids.clone().all(|id| !taken.contains(&id)), "{ids:?} reused");
                    taken.extend(ids);
                }
                Ok(())
            };
            if first > 0 {
                take_block(first, &mut taken)?;
            }
            for _ in 0..singles {
                taken.insert(u32::from(c.next_stream()));
            }
            for m in blocks {
                take_block(m, &mut taken)?;
            }
            take_block(n, &mut taken)?;
        }
    }
}
