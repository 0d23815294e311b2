//! Runtime state of synchronization objects.

use crate::addr::Addr;
use crate::ids::{SyncId, SyncVar, ThreadId};
use crate::program::SyncKind;

/// Synthetic address region where synchronization objects live, so every
/// object has an address-like [`SyncVar`] as in Table 1 of the paper.
pub const SYNC_OBJ_BASE: u64 = 0x2000_0000;

/// Bytes of simulated address space per synchronization object.
pub const SYNC_OBJ_STRIDE: u64 = 64;

/// The address of a synchronization object (its `SyncVar` for lock/unlock
/// and wait/notify records).
pub fn sync_obj_addr(id: SyncId) -> Addr {
    Addr(SYNC_OBJ_BASE + id.index() as u64 * SYNC_OBJ_STRIDE)
}

/// The `SyncVar` of a synchronization object.
pub fn sync_obj_var(id: SyncId) -> SyncVar {
    SyncVar(sync_obj_addr(id).raw())
}

/// Runtime state of one declared synchronization object.
#[derive(Debug, Clone)]
pub struct SyncState {
    /// The declared kind.
    pub kind: SyncKind,
    /// For mutexes: the current owner.
    pub owner: Option<ThreadId>,
    /// For events: whether the event is signaled.
    pub signaled: bool,
    /// For semaphores: the current count.
    pub count: u32,
    /// For barriers: threads that have arrived in the current generation.
    pub arrived: Vec<ThreadId>,
    /// For barriers: threads released from the rendezvous but which have not
    /// yet re-executed the barrier instruction to depart.
    pub departing: Vec<ThreadId>,
    /// Threads blocked on this object, in arrival order. Waking them
    /// clears the list in place, so its buffer serves the next blockers.
    pub waiters: Vec<ThreadId>,
}

impl SyncState {
    /// Fresh state for an object of the given kind.
    pub fn new(kind: SyncKind) -> SyncState {
        let count = match kind {
            SyncKind::Semaphore { initial } => initial,
            _ => 0,
        };
        SyncState {
            kind,
            owner: None,
            signaled: false,
            count,
            arrived: Vec::new(),
            departing: Vec::new(),
            waiters: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrClass;

    #[test]
    fn sync_object_addresses_are_distinct_and_global_class() {
        let a = sync_obj_addr(SyncId::from_index(0));
        let b = sync_obj_addr(SyncId::from_index(1));
        assert_ne!(a, b);
        assert_eq!(a.class(), AddrClass::Global);
    }
}
