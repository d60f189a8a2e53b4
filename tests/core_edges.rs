//! Coverage for previously untested `ironhide-core` edges: extreme
//! `ReallocPolicy::FixedOffset` clamping, and the secure kernel's
//! attestation-rejection and mutually-distrusting admission paths.

use ironhide::ironhide_core::kernel::{AppDomain, AttestationError, SecureKernel, TrustRelation};
use ironhide::ironhide_core::realloc::ReallocDecision;
use ironhide::ironhide_sim::process::ProcessId;
use ironhide::prelude::*;

/// A convex predicted-cost surface with its minimum at `opt`.
fn convex(opt: usize) -> impl FnMut(usize) -> f64 {
    move |n: usize| ((n as f64) - opt as f64).powi(2) + 10.0
}

#[test]
fn fixed_offset_extremes_clamp_to_valid_cluster_sizes() {
    // ±100% of the machine shifts past either end of the feasible range
    // [1, cores - 1]; the decision must clamp, not wrap or panic.
    let plus: ReallocDecision = ReallocPolicy::FixedOffset(100).decide(64, 32, convex(40));
    assert_eq!(plus.secure_cores, 63);
    assert!(plus.charge_overhead);

    let minus = ReallocPolicy::FixedOffset(-100).decide(64, 32, convex(40));
    assert_eq!(minus.secure_cores, 1);

    // A zero offset degenerates to the Optimal allocation but still charges
    // its reconfiguration (it is a "prediction", not the idealised bound).
    let zero = ReallocPolicy::FixedOffset(0).decide(64, 32, convex(17));
    assert_eq!(zero.secure_cores, 17);
    assert!(zero.charge_overhead);

    // The smallest machine that can host two clusters.
    let tiny = ReallocPolicy::FixedOffset(100).decide(2, 1, convex(1));
    assert_eq!(tiny.secure_cores, 1);
}

#[test]
fn fixed_offset_extremes_survive_an_end_to_end_run() {
    // On the 4-core test machine a +100% offset pins the secure cluster at
    // 3 of 4 cores; the full runner must reconfigure to the clamp and finish
    // with clean isolation.
    let params = ArchParams { warmup_interactions: 1, predictor_sample: 1, ..Default::default() };
    for (offset, expected_cores) in [(100, 3), (-100, 1)] {
        let runner = ExperimentRunner::new(MachineConfig::small_test())
            .with_params(params)
            .with_realloc(ReallocPolicy::FixedOffset(offset));
        let mut app = AppId::QueryAes.instantiate(&ScaleFactor::Smoke);
        let report = runner.run(Architecture::Ironhide, app.as_mut()).expect("run succeeds");
        assert_eq!(report.secure_cores, expected_cores, "offset {offset}");
        assert!(report.isolation.is_clean(), "{:?}", report.isolation.violations);
    }
}

const KEY: u64 = 0x5EC0_0ED6E;
const OTHER_KEY: u64 = 0x0123_4567;

#[test]
fn kernel_rejects_foreign_signatures_and_tampered_admissions() {
    let mut kernel = SecureKernel::new();
    let image = b"enclave image v1";

    // A signature minted under a different author key must be rejected.
    let forged = SecureKernel::sign(image, OTHER_KEY);
    let err = kernel.register(ProcessId(0), image, forged, KEY, AppDomain(1)).unwrap_err();
    assert!(matches!(err, AttestationError::BadSignature { pid } if pid == ProcessId(0)));
    assert!(kernel.measurement_of(ProcessId(0)).is_none());

    // A valid registration admits only the registered image.
    let sig = SecureKernel::sign(image, KEY);
    kernel.register(ProcessId(0), image, sig, KEY, AppDomain(1)).expect("registers");
    let err = kernel.admit(ProcessId(0), b"enclave image v2").unwrap_err();
    assert!(matches!(err, AttestationError::MeasurementMismatch { .. }));
    assert!(!kernel.is_admitted(ProcessId(0)));
    kernel.admit(ProcessId(0), image).expect("admits the pristine image");
    assert!(kernel.is_admitted(ProcessId(0)));

    // Never-registered processes cannot be admitted or related.
    assert!(matches!(
        kernel.admit(ProcessId(9), image),
        Err(AttestationError::Unknown { pid }) if pid == ProcessId(9)
    ));
    assert!(kernel.trust_relation(ProcessId(0), ProcessId(9)).is_err());
}

#[test]
fn mutually_distrusting_admissions_require_purges_between_them() {
    let mut kernel = SecureKernel::new();
    for (pid, domain, image) in
        [(1usize, 7u64, &b"app A worker 1"[..]), (2, 7, b"app A worker 2"), (3, 8, b"app B")]
    {
        kernel.attest(ProcessId(pid), image, AppDomain(domain)).expect("attests");
        assert!(kernel.is_admitted(ProcessId(pid)));
    }

    // Same interactive application: co-execution without purging.
    assert_eq!(
        kernel.trust_relation(ProcessId(1), ProcessId(2)).unwrap(),
        TrustRelation::MutuallyTrusting
    );
    assert!(!kernel.requires_purge_between(ProcessId(1), ProcessId(2)));

    // Different applications: the secure cluster must be purged on the
    // context switch, in both directions.
    assert_eq!(
        kernel.trust_relation(ProcessId(2), ProcessId(3)).unwrap(),
        TrustRelation::MutuallyDistrusting
    );
    assert!(kernel.requires_purge_between(ProcessId(2), ProcessId(3)));
    assert!(kernel.requires_purge_between(ProcessId(3), ProcessId(1)));

    // An unknown counterparty never silently skips the purge decision.
    assert!(!kernel.requires_purge_between(ProcessId(1), ProcessId(42)));
    assert!(kernel.trust_relation(ProcessId(1), ProcessId(42)).is_err());
}
