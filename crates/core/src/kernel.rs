//! The light-weight secure kernel.
//!
//! IRONHIDE (like MI6's security monitor) relies on a small trusted kernel
//! that executes inside the secure cluster. Its jobs in the paper are to
//! (1) attest and authenticate secure processes before they are admitted to
//! the secure cluster, (2) track which secure processes are mutually trusting
//! (same interactive application) versus mutually distrusting (different
//! applications, which must be separated by a purge when they time-share the
//! secure cluster), and (3) orchestrate cluster reconfiguration.

use std::collections::HashMap;
use std::fmt;

use ironhide_sim::process::ProcessId;

/// Signing key of the simulated enclave author every runner attests its
/// secure processes with. The kernel only needs signatures to be
/// *verifiable* inside the simulation, not secret.
const AUTHOR_KEY: u64 = 0x1234_5678_9ABC_DEF0;

/// A measurement (hash) of a process image, as produced by attestation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub u64);

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of an interactive application (trust domain). Secure processes
/// of the same application are mutually trusting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppDomain(pub u64);

/// The trust relation between two secure processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustRelation {
    /// Same interactive application: may co-execute in the secure cluster
    /// without purging between them.
    MutuallyTrusting,
    /// Different applications: the secure cluster's per-core state must be
    /// purged when switching between them.
    MutuallyDistrusting,
}

/// Errors returned by the secure kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestationError {
    /// The supplied signature does not match the process image.
    BadSignature {
        /// The process that failed attestation.
        pid: ProcessId,
    },
    /// The process was never registered with the kernel.
    Unknown {
        /// The unknown process.
        pid: ProcessId,
    },
    /// The process is registered but its current measurement no longer
    /// matches the one recorded at registration.
    MeasurementMismatch {
        /// The process whose measurement changed.
        pid: ProcessId,
        /// Measurement recorded at registration time.
        expected: Measurement,
        /// Measurement presented now.
        found: Measurement,
    },
}

impl fmt::Display for AttestationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestationError::BadSignature { pid } => {
                write!(f, "signature check failed for {pid}")
            }
            AttestationError::Unknown { pid } => write!(f, "{pid} was never attested"),
            AttestationError::MeasurementMismatch { pid, expected, found } => {
                write!(f, "measurement of {pid} changed (expected {expected}, found {found})")
            }
        }
    }
}

impl std::error::Error for AttestationError {}

/// The secure kernel: attestation registry and trust-domain tracking.
#[derive(Debug, Clone, Default)]
pub struct SecureKernel {
    registry: HashMap<ProcessId, (Measurement, AppDomain)>,
    admitted: Vec<ProcessId>,
}

impl SecureKernel {
    /// Creates a kernel with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Measures a process image. The reproduction uses a 64-bit FNV-1a hash:
    /// there is no hardware root of trust to anchor a real SHA-2 measurement
    /// chain in a simulation, and only equality of measurements matters for
    /// the execution model.
    pub fn measure(image: &[u8]) -> Measurement {
        Measurement(crate::fnv1a(image.iter().copied()))
    }

    /// Signs an image with the enclave author's key. The simulated signature
    /// is the measurement XOR-folded with the key.
    pub fn sign(image: &[u8], key: u64) -> u64 {
        Self::measure(image).0 ^ key.rotate_left(17)
    }

    /// Registers a secure process: verifies the author signature, records the
    /// measurement, and assigns the process to its application trust domain.
    ///
    /// # Errors
    ///
    /// Returns [`AttestationError::BadSignature`] if the signature does not
    /// verify against the image.
    pub fn register(
        &mut self,
        pid: ProcessId,
        image: &[u8],
        signature: u64,
        key: u64,
        domain: AppDomain,
    ) -> Result<Measurement, AttestationError> {
        let expected = Self::sign(image, key);
        if signature != expected {
            return Err(AttestationError::BadSignature { pid });
        }
        let m = Self::measure(image);
        self.registry.insert(pid, (m, domain));
        Ok(m)
    }

    /// Re-verifies a process before admitting it to the secure cluster.
    ///
    /// # Errors
    ///
    /// Returns an error if the process is unknown or its measurement changed.
    pub fn admit(&mut self, pid: ProcessId, image: &[u8]) -> Result<(), AttestationError> {
        let (expected, _) = self.registry.get(&pid).ok_or(AttestationError::Unknown { pid })?;
        let found = Self::measure(image);
        if found != *expected {
            return Err(AttestationError::MeasurementMismatch { pid, expected: *expected, found });
        }
        if !self.admitted.contains(&pid) {
            self.admitted.push(pid);
        }
        Ok(())
    }

    /// Attests a secure process end to end: signs `image` with the enclave
    /// author's key, [registers](SecureKernel::register) it in `domain` and
    /// [admits](SecureKernel::admit) it. Touches no machine state.
    ///
    /// # Errors
    ///
    /// Returns an [`AttestationError`] if registration or admission fails.
    pub fn attest(
        &mut self,
        pid: ProcessId,
        image: &[u8],
        domain: AppDomain,
    ) -> Result<Measurement, AttestationError> {
        let measurement =
            self.register(pid, image, Self::sign(image, AUTHOR_KEY), AUTHOR_KEY, domain)?;
        self.admit(pid, image)?;
        Ok(measurement)
    }

    /// Whether `pid` has been admitted to the secure cluster.
    pub fn is_admitted(&self, pid: ProcessId) -> bool {
        self.admitted.contains(&pid)
    }

    /// The recorded measurement of `pid`, if registered.
    pub fn measurement_of(&self, pid: ProcessId) -> Option<Measurement> {
        self.registry.get(&pid).map(|(m, _)| *m)
    }

    /// The trust relation between two registered secure processes.
    ///
    /// # Errors
    ///
    /// Returns [`AttestationError::Unknown`] if either process is not
    /// registered.
    pub fn trust_relation(
        &self,
        a: ProcessId,
        b: ProcessId,
    ) -> Result<TrustRelation, AttestationError> {
        let (_, da) = self.registry.get(&a).ok_or(AttestationError::Unknown { pid: a })?;
        let (_, db) = self.registry.get(&b).ok_or(AttestationError::Unknown { pid: b })?;
        Ok(if da == db {
            TrustRelation::MutuallyTrusting
        } else {
            TrustRelation::MutuallyDistrusting
        })
    }

    /// Whether a context switch between the two secure processes requires the
    /// secure cluster's per-core state to be purged first.
    pub fn requires_purge_between(&self, a: ProcessId, b: ProcessId) -> bool {
        matches!(self.trust_relation(a, b), Ok(TrustRelation::MutuallyDistrusting))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: u64 = 0xDEAD_BEEF_0042;

    #[test]
    fn measurement_is_deterministic_and_collision_resistant_enough() {
        let a = SecureKernel::measure(b"aes-256 enclave image");
        let b = SecureKernel::measure(b"aes-256 enclave image");
        let c = SecureKernel::measure(b"pagerank enclave image");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn register_and_admit() {
        let mut k = SecureKernel::new();
        let img = b"sssp image";
        let sig = SecureKernel::sign(img, KEY);
        let m = k.register(ProcessId(1), img, sig, KEY, AppDomain(7)).unwrap();
        assert_eq!(k.measurement_of(ProcessId(1)), Some(m));
        assert!(!k.is_admitted(ProcessId(1)));
        k.admit(ProcessId(1), img).unwrap();
        assert!(k.is_admitted(ProcessId(1)));
    }

    #[test]
    fn bad_signature_rejected() {
        let mut k = SecureKernel::new();
        let err = k.register(ProcessId(2), b"img", 0x1234, KEY, AppDomain(1)).unwrap_err();
        assert!(matches!(err, AttestationError::BadSignature { .. }));
    }

    #[test]
    fn tampered_image_rejected_at_admission() {
        let mut k = SecureKernel::new();
        let img = b"original";
        let sig = SecureKernel::sign(img, KEY);
        k.register(ProcessId(3), img, sig, KEY, AppDomain(1)).unwrap();
        let err = k.admit(ProcessId(3), b"tampered").unwrap_err();
        assert!(matches!(err, AttestationError::MeasurementMismatch { .. }));
        assert!(!k.is_admitted(ProcessId(3)));
    }

    #[test]
    fn unknown_process_cannot_be_admitted() {
        let mut k = SecureKernel::new();
        assert!(matches!(k.admit(ProcessId(9), b"x"), Err(AttestationError::Unknown { .. })));
    }

    #[test]
    fn trust_relations_follow_app_domains() {
        let mut k = SecureKernel::new();
        for (pid, domain) in [(1usize, 10u64), (2, 10), (3, 11)] {
            let img = format!("proc{pid}");
            let m = k.attest(ProcessId(pid), img.as_bytes(), AppDomain(domain)).unwrap();
            assert_eq!(k.measurement_of(ProcessId(pid)), Some(m));
            assert!(k.is_admitted(ProcessId(pid)));
        }
        assert_eq!(
            k.trust_relation(ProcessId(1), ProcessId(2)).unwrap(),
            TrustRelation::MutuallyTrusting
        );
        assert_eq!(
            k.trust_relation(ProcessId(1), ProcessId(3)).unwrap(),
            TrustRelation::MutuallyDistrusting
        );
        assert!(!k.requires_purge_between(ProcessId(1), ProcessId(2)));
        assert!(k.requires_purge_between(ProcessId(2), ProcessId(3)));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = AttestationError::Unknown { pid: ProcessId(4) };
        assert!(e.to_string().contains("pid4"));
    }
}
