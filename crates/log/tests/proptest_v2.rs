//! Property tests for the v2 codec and the streaming readers: arbitrary
//! records round-trip through any block size, and arbitrary corruption
//! never panics (it decodes a clean prefix or errors).

use literace_log::{
    encode_v2, read_log_auto, EncodeOpts, LogWriterV2, Record, RecordBlocks, SamplerMask,
};
use literace_sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};
use proptest::prelude::*;

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

    /// Encode ∘ decode is the identity on arbitrary record sequences,
    /// through the auto-detecting reader.
    #[test]
    fn round_trip(records in prop::collection::vec(arb_record(), 0..64)) {
        let bytes = encode_v2(&records);
        let log = read_log_auto(&bytes[..]).unwrap();
        prop_assert_eq!(&records[..], log.records());
    }

    /// Block size never affects the decoded stream — delta state resets at
    /// every boundary, so any partitioning into blocks is equivalent.
    #[test]
    fn round_trip_any_block_size(
        records in prop::collection::vec(arb_record(), 1..64),
        block_records in 1usize..64,
    ) {
        let opts = EncodeOpts::default().block_records(block_records);
        let mut w = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let log = read_log_auto(&bytes[..]).unwrap();
        prop_assert_eq!(&records[..], log.records());
    }

    /// Arbitrary bytes behind a valid header never panic the block reader.
    #[test]
    fn decoding_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut stream = encode_v2([]).to_vec(); // header only
        stream.extend_from_slice(&bytes);
        for block in RecordBlocks::open(&stream[..]).unwrap() {
            if block.is_err() {
                break;
            }
        }
    }

    /// Flipping one byte of a valid stream never panics; decoding either
    /// errors cleanly or yields records.
    #[test]
    fn single_byte_corruption_is_handled(
        records in prop::collection::vec(arb_record(), 1..32),
        pos_seed: usize,
        flip: u8,
    ) {
        let mut bytes = encode_v2(&records).to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip | 1; // guarantee a real change
        let _ = read_log_auto(&bytes[..]);
    }

    /// A truncated stream never panics, and whatever decodes before the
    /// error is a prefix of the original records (whole blocks decode
    /// independently; the cut block errors).
    #[test]
    fn truncation_yields_a_clean_prefix(
        records in prop::collection::vec(arb_record(), 1..64),
        block_records in 1usize..16,
        cut_seed: usize,
    ) {
        let opts = EncodeOpts::default().block_records(block_records);
        let mut w = LogWriterV2::with_opts(Vec::new(), opts).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let cut = 5 + cut_seed % (bytes.len() - 4);
        let truncated = &bytes[..cut.min(bytes.len())];
        // A cut header is a typed error; otherwise whatever decodes before
        // the first block error must be a prefix.
        if let Ok(blocks) = RecordBlocks::open(truncated) {
            let mut decoded = Vec::new();
            for block in blocks {
                match block {
                    Ok(b) => decoded.extend(b),
                    Err(_) => break,
                }
            }
            prop_assert!(decoded.len() <= records.len());
            prop_assert_eq!(&records[..decoded.len()], &decoded[..]);
        }
    }
}
