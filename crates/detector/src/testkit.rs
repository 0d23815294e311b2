//! Record constructors shared by the detector's unit tests.

use literace_log::{Record, SamplerMask};
use literace_sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

pub(crate) fn t(i: usize) -> ThreadId {
    ThreadId::from_index(i)
}

pub(crate) fn pc(i: usize) -> Pc {
    Pc::new(FuncId::from_index(0), i)
}

/// An access by `tid` at site `pcv` to global word `addr`.
pub(crate) fn mem(tid: ThreadId, pcv: usize, addr: u64, w: bool) -> Record {
    Record::Mem {
        tid,
        pc: pc(pcv),
        addr: Addr::global(addr),
        is_write: w,
        mask: SamplerMask::FULL,
    }
}

/// A sync operation by `tid` on variable `var`, logged at `ts`.
pub(crate) fn sync(tid: ThreadId, kind: SyncOpKind, var: u64, ts: u64) -> Record {
    Record::Sync {
        tid,
        pc: pc(99),
        kind,
        var: SyncVar(var),
        timestamp: ts,
    }
}
