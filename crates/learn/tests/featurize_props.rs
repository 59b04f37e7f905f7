//! Featurizer equivalence properties.
//!
//! The training pipeline featurizes *in-stream* (a [`FeatureSink`] teed
//! off the recorder, no trace materialized), while offline users may
//! featurize a DVFT2 trace file written earlier. These must be the same
//! function: for any reference stream, feeding the sink directly is
//! bit-identical to round-tripping the stream through the v2 binary
//! codec and feeding the decoded chunks. The comparison is on the
//! serialized feature JSON, so "identical" means byte-identical —
//! exactly what `dvf learn featurize` would emit either way.

use dvf_cachesim::{write_binary_v2, DsId, MemRef, Trace, TraceReader};
use dvf_learn::{FeatureSet, FeatureSink};
use proptest::prelude::*;

/// Feed a stream straight into the sink (the fused, in-stream path).
fn featurize_fused(refs: &[MemRef]) -> FeatureSet {
    let mut sink = FeatureSink::new();
    for &r in refs {
        sink.record(r);
    }
    sink.finish()
}

/// Materialize the stream as a DVFT2 file in memory, decode it back in
/// bounded chunks, and featurize the decoded records.
fn featurize_via_dvft2(trace: &Trace, chunk: usize) -> FeatureSet {
    let mut bytes = Vec::new();
    write_binary_v2(trace, &mut bytes).expect("v2 encode");
    let mut reader = TraceReader::new(&bytes[..]).expect("v2 header");
    let mut sink = FeatureSink::new();
    let mut buf = Vec::new();
    while reader.read_chunk(&mut buf, chunk).expect("v2 decode") > 0 {
        for &r in &buf {
            sink.record(r);
        }
    }
    sink.finish()
}

/// Check that two feature sets serialize identically for every data
/// structure either side saw.
fn same_features(a: &FeatureSet, b: &FeatureSet, n_ds: u16) -> Result<(), String> {
    for ds in 0..n_ds {
        let (l, r) = (a.ds(DsId(ds)).to_json(), b.ds(DsId(ds)).to_json());
        if l != r {
            return Err(format!(
                "feature vectors diverge for ds {ds}\n fused: {l}\n file:  {r}"
            ));
        }
    }
    Ok(())
}

/// Expand generated access segments — strided runs from one data
/// structure — into a flat reference stream. Strided segments exercise
/// the v2 codec's delta/run encoding; `stride == 0` and negative
/// strides hit its escape paths.
fn expand(segments: &[(u16, u64, i64, usize, bool)]) -> Vec<MemRef> {
    let mut refs = Vec::new();
    for &(ds, start, stride, len, write) in segments {
        let mut addr = start as i64;
        for _ in 0..len {
            let a = addr.rem_euclid(1 << 40) as u64;
            refs.push(if write {
                MemRef::write(DsId(ds), a)
            } else {
                MemRef::read(DsId(ds), a)
            });
            addr += stride;
        }
    }
    refs
}

fn trace_of(refs: &[MemRef]) -> Trace {
    let mut trace = Trace::new();
    for name in ["A", "B", "C", "D"] {
        trace.registry.register(name);
    }
    for &r in refs {
        trace.push(r);
    }
    trace
}

proptest! {
    /// Fused in-stream featurization ≡ featurizing the materialized
    /// DVFT2 trace, for arbitrary interleavings of strided segments.
    #[test]
    fn fused_sink_matches_dvft2_roundtrip(
        segments in prop::collection::vec(
            (
                0u16..4,
                0u64..(1 << 24),
                prop::sample::select(vec![0i64, 8, 64, 4096, -8, -64, 3, -177]),
                1usize..64,
                prop::bool::ANY,
            ),
            0..24,
        ),
        chunk in prop::sample::select(vec![1usize, 7, 1024, usize::MAX]),
    ) {
        let refs = expand(&segments);
        let fused = featurize_fused(&refs);
        let via_file = featurize_via_dvft2(&trace_of(&refs), chunk);
        same_features(&fused, &via_file, 4)?;
    }

    /// Fully random (unstructured) addresses — nothing for the codec's
    /// run detection to latch onto, so every record takes the wide path.
    #[test]
    fn fused_sink_matches_dvft2_on_random_streams(
        raw in prop::collection::vec((0u16..4, 0u64..(1 << 40), prop::bool::ANY), 0..512),
    ) {
        let refs: Vec<MemRef> = raw
            .iter()
            .map(|&(ds, addr, write)| {
                if write { MemRef::write(DsId(ds), addr) } else { MemRef::read(DsId(ds), addr) }
            })
            .collect();
        let fused = featurize_fused(&refs);
        let via_file = featurize_via_dvft2(&trace_of(&refs), 1024);
        same_features(&fused, &via_file, 4)?;
    }
}

/// The same property on a real kernel stream: record one VM run into a
/// pair of a materializing `Trace` and an in-stream `FeatureSink`, then
/// check the sink against featurizing the trace's DVFT2 serialization.
#[test]
fn kernel_tee_matches_dvft2_roundtrip() {
    let (registry, (mut trace, sink)) =
        dvf_kernels::record_into((Trace::new(), FeatureSink::new()), |rec| {
            dvf_kernels::vm::run_traced(dvf_kernels::vm::VmParams::verification(), rec);
        });
    trace.registry = registry;
    assert!(!trace.is_empty(), "VM run must produce references");

    let fused = sink.finish();
    let via_file = featurize_via_dvft2(&trace, 4096);
    let n_ds = trace.registry.len() as u16;
    assert!(n_ds > 0);
    for ds in 0..n_ds {
        assert_eq!(
            fused.ds(DsId(ds)).to_json(),
            via_file.ds(DsId(ds)).to_json(),
            "feature vectors diverge for ds {ds}"
        );
    }
}
