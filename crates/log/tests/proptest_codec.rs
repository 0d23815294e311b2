//! Property tests for the v1 log codec: arbitrary records round-trip
//! through `encode_all` and the one log reader, and arbitrary corruption
//! never panics (it decodes or errors cleanly).

use literace_log::{encode_all, encoded_len, read_log_auto, LogResult, Record, SamplerMask};
use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};
use proptest::prelude::*;

/// Every record of a v1 buffer, read strictly.
fn read_v1(bytes: &[u8]) -> LogResult<Vec<Record>> {
    read_log_auto(bytes).map(|log| log.records().to_vec())
}

fn arb_kind() -> impl Strategy<Value = SyncOpKind> {
    use SyncOpKind::*;
    prop::sample::select(vec![
        LockAcquire,
        LockRelease,
        Notify,
        WaitReturn,
        Reset,
        SemRelease,
        SemAcquire,
        BarrierArrive,
        BarrierDepart,
        Fork,
        ThreadStart,
        ThreadExit,
        Join,
        AtomicRmw,
        AllocPage,
    ])
}

fn arb_record() -> impl Strategy<Value = Record> {
    let sync = (any::<u32>(), any::<u64>(), arb_kind(), any::<u64>(), any::<u64>()).prop_map(
        |(tid, pc, kind, var, timestamp)| Record::Sync {
            tid: ThreadId::from_index(tid as usize),
            pc: Pc(pc),
            kind,
            var: SyncVar(var),
            timestamp,
        },
    );
    let mem = (any::<u32>(), any::<u64>(), any::<u64>(), any::<bool>(), any::<u32>()).prop_map(
        |(tid, pc, addr, is_write, mask)| Record::Mem {
            tid: ThreadId::from_index(tid as usize),
            pc: Pc(pc),
            addr: Addr(addr),
            is_write,
            mask: SamplerMask(mask),
        },
    );
    let begin = any::<u32>().prop_map(|tid| Record::ThreadBegin {
        tid: ThreadId::from_index(tid as usize),
    });
    let end = any::<u32>().prop_map(|tid| Record::ThreadEnd {
        tid: ThreadId::from_index(tid as usize),
    });
    prop_oneof![sync, mem, begin, end]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode ∘ decode is the identity on arbitrary record sequences.
    #[test]
    fn round_trip(records in prop::collection::vec(arb_record(), 0..64)) {
        let bytes = encode_all(&records);
        let decoded = read_v1(&bytes).unwrap();
        prop_assert_eq!(records, decoded);
    }

    /// Encoded length matches the per-record constants.
    #[test]
    fn encoded_len_is_exact(record in arb_record()) {
        let bytes = encode_all(std::iter::once(&record));
        prop_assert_eq!(bytes.len(), encoded_len(&record));
    }

    /// Decoding arbitrary bytes never panics: it either produces records or
    /// a clean error.
    #[test]
    fn decoding_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_v1(&bytes);
    }

    /// Flipping one byte of a valid stream never panics either, and any
    /// successful decode still yields records of the original count or a
    /// decode error (corruption is detected or benign, never UB).
    #[test]
    fn single_byte_corruption_is_handled(
        records in prop::collection::vec(arb_record(), 1..16),
        pos_seed: usize,
        flip: u8,
    ) {
        let bytes = encode_all(&records);
        let mut corrupted = bytes.to_vec();
        let pos = pos_seed % corrupted.len();
        corrupted[pos] ^= flip | 1; // guarantee a real change
        let _ = read_v1(&corrupted);
    }

    /// A truncated valid stream reports corruption rather than inventing
    /// records beyond the cut (a prefix of whole records may legitimately
    /// decode).
    #[test]
    fn truncation_is_detected_or_clean_prefix(
        records in prop::collection::vec(arb_record(), 1..16),
        cut_seed: usize,
    ) {
        let bytes = encode_all(&records);
        let cut = cut_seed % bytes.len();
        if let Ok(decoded) = read_v1(&bytes[..cut]) {
            prop_assert!(decoded.len() <= records.len());
            prop_assert_eq!(&records[..decoded.len()], &decoded[..]);
        }
    }
}
