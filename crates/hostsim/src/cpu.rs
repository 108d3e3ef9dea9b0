//! CPU topology: sockets, cores, SMT threads.

use serde::{Deserialize, Serialize};

/// A physical core identifier (dense, across sockets).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub(crate) struct CoreId(pub u32);

/// A hardware (SMT) thread identifier (dense, across cores).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct HwThreadId(pub u32);

/// Socket/core/SMT geometry of a host.
///
/// # Example
///
/// ```
/// use hostsim::cpu::CpuTopology;
///
/// // The AC922 of the prototype: 2 sockets x 16 cores x SMT4.
/// let t = CpuTopology::ac922();
/// assert_eq!(t.cores(), 32);
/// assert_eq!(t.hw_threads(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuTopology {
    sockets: u32,
    cores_per_socket: u32,
    smt: u32,
}

impl CpuTopology {
    /// Builds a topology.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(sockets: u32, cores_per_socket: u32, smt: u32) -> Self {
        assert!(
            sockets > 0 && cores_per_socket > 0 && smt > 0,
            "topology dimensions must be positive"
        );
        CpuTopology {
            sockets,
            cores_per_socket,
            smt,
        }
    }

    /// The AC922 geometry: dual-socket POWER9, 32 physical cores and 128
    /// parallel hardware threads.
    pub fn ac922() -> Self {
        Self::new(2, 16, 4)
    }

    /// Socket count.
    pub(crate) fn sockets(&self) -> u32 {
        self.sockets
    }

    /// Total physical cores.
    pub fn cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Total hardware threads.
    pub fn hw_threads(&self) -> u32 {
        self.cores() * self.smt
    }

    /// The socket a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range.
    pub(crate) fn socket_of(&self, core: CoreId) -> u32 {
        assert!(core.0 < self.cores(), "core {core:?} out of range");
        core.0 / self.cores_per_socket
    }

    /// The core a hardware thread belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the thread is out of range.
    pub(crate) fn core_of(&self, thread: HwThreadId) -> CoreId {
        assert!(thread.0 < self.hw_threads(), "thread {thread:?} out of range");
        CoreId(thread.0 / self.smt)
    }

    /// Iterates over all hardware threads.
    pub fn threads(&self) -> impl Iterator<Item = HwThreadId> {
        (0..self.hw_threads()).map(HwThreadId)
    }

    /// The hardware threads hosted by one socket.
    pub(crate) fn threads_of_socket(&self, socket: u32) -> Vec<HwThreadId> {
        self.threads()
            .filter(|t| self.socket_of(self.core_of(*t)) == socket)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ac922_geometry() {
        let t = CpuTopology::ac922();
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.cores(), 32);
        assert_eq!(t.hw_threads(), 128);
    }

    #[test]
    fn mapping_is_consistent() {
        let t = CpuTopology::ac922();
        assert_eq!(t.socket_of(CoreId(0)), 0);
        assert_eq!(t.socket_of(CoreId(15)), 0);
        assert_eq!(t.socket_of(CoreId(16)), 1);
        assert_eq!(t.core_of(HwThreadId(0)), CoreId(0));
        assert_eq!(t.core_of(HwThreadId(3)), CoreId(0));
        assert_eq!(t.core_of(HwThreadId(4)), CoreId(1));
        assert_eq!(t.core_of(HwThreadId(127)), CoreId(31));
    }

    #[test]
    fn socket_threads_are_even_halves() {
        let t = CpuTopology::ac922();
        let s0 = t.threads_of_socket(0);
        let s1 = t.threads_of_socket(1);
        assert_eq!(s0.len(), 64);
        assert_eq!(s1.len(), 64);
        assert!(s0.iter().all(|th| th.0 < 64));
        assert!(s1.iter().all(|th| th.0 >= 64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        CpuTopology::ac922().socket_of(CoreId(99));
    }
}
