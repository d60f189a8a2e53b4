//! Network packet classes.
//!
//! The timing model in this reproduction is analytical (latency is derived
//! from hop counts and link load rather than from flit-by-flit simulation),
//! but every packet is still counted by its class in [`NocStats`], whose
//! cross-cluster and IPC counters the isolation auditor reads.
//!
//! [`NocStats`]: crate::stats::NocStats

/// The protocol class of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A coherence/cache request (read or write miss) travelling from a core
    /// to a home L2 slice or memory controller.
    Request,
    /// A data response carrying a cache line.
    Response,
    /// A write-back / eviction of a dirty line.
    WriteBack,
    /// An inter-process-communication message through the shared IPC buffer.
    Ipc,
    /// Traffic generated by a purge or reconfiguration operation.
    Maintenance,
}

impl PacketKind {
    /// Size of the packet in flits, using the common 1-flit request /
    /// 5-flit data convention (64-byte line over a 16-byte link).
    pub fn flits(self) -> usize {
        match self {
            PacketKind::Request => 1,
            PacketKind::Response | PacketKind::WriteBack => 5,
            PacketKind::Ipc => 5,
            PacketKind::Maintenance => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_sizes() {
        assert_eq!(PacketKind::Request.flits(), 1);
        assert_eq!(PacketKind::Response.flits(), 5);
        assert_eq!(PacketKind::WriteBack.flits(), 5);
        assert_eq!(PacketKind::Maintenance.flits(), 1);
    }
}
