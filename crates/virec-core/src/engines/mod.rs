//! Context-engine implementations: ViReC and the baselines it is evaluated
//! against (banked, software switching, full/exact context prefetching).

mod banked;
mod prefetch;
mod software;
mod virec;

pub use banked::BankedEngine;
pub use prefetch::PrefetchEngine;
pub use software::SoftwareEngine;
pub use virec::{VirecEngine, ROLLBACK_DEPTH};

use virec_mem::{AccessKind, AccessResult, Cache, Fabric, MshrId};

/// A queue of timing-only line/word transfers through the dcache, shared by
/// the banked first-activation loads, software save/restore sequences, and
/// the prefetch engines' context movement.
#[derive(Clone)]
pub(crate) struct Xfer {
    queued: std::collections::VecDeque<(u64, bool)>,
    outstanding: Vec<XferWait>,
}

#[derive(Clone, Copy)]
pub(crate) enum XferWait {
    At(u64),
    Mshr(MshrId),
}

impl Xfer {
    pub(crate) fn new() -> Xfer {
        Xfer {
            queued: std::collections::VecDeque::new(),
            outstanding: Vec::new(),
        }
    }

    /// Queues a load of `addr` (timing only).
    pub(crate) fn enqueue_load(&mut self, addr: u64) {
        self.queued.push_back((addr, true));
    }

    /// Queues a store to `addr` (timing only).
    pub(crate) fn enqueue_store(&mut self, addr: u64) {
        self.queued.push_back((addr, false));
    }

    /// No transfers queued or in flight.
    pub(crate) fn idle(&self) -> bool {
        self.queued.is_empty() && self.outstanding.is_empty()
    }

    /// Issues queued transfers and completes outstanding ones. Returns the
    /// next cycle the queue has work, as [`ContextEngine::tick`] does.
    ///
    /// [`ContextEngine::tick`]: crate::engine::ContextEngine::tick
    pub(crate) fn tick(
        &mut self,
        now: u64,
        dcache: &mut Cache,
        fabric: &mut Fabric,
    ) -> Option<u64> {
        let mut wake = u64::MAX;
        let mut i = 0;
        while i < self.outstanding.len() {
            let done = match self.outstanding[i] {
                XferWait::At(t) if t > now => {
                    wake = wake.min(t);
                    false
                }
                XferWait::At(_) => true,
                XferWait::Mshr(id) => {
                    if dcache.mshr_ready(id, now) {
                        // Guarded by mshr_ready, so a retire failure means the
                        // id itself was corrupted; the transfer is complete
                        // either way (timing-only model), so degrade silently
                        // here and let the golden checker catch state damage.
                        let _ = dcache.mshr_retire(id);
                        true
                    } else {
                        false
                    }
                }
            };
            if done {
                self.outstanding.swap_remove(i);
            } else {
                i += 1;
            }
        }
        while let Some(&(addr, is_load)) = self.queued.front() {
            let kind = if is_load {
                AccessKind::DataLoad
            } else {
                AccessKind::DataStore
            };
            match dcache.access(now, addr, kind, fabric) {
                AccessResult::Hit { ready_at } => {
                    self.queued.pop_front();
                    self.outstanding.push(XferWait::At(ready_at));
                    wake = wake.min(ready_at);
                }
                AccessResult::Miss { mshr } => {
                    self.queued.pop_front();
                    self.outstanding.push(XferWait::Mshr(mshr));
                }
                AccessResult::NoMshr | AccessResult::NoPort => return Some(now + 1),
            }
        }
        (wake < u64::MAX).then_some(wake)
    }
}
