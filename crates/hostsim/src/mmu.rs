//! The processor MMU's page size.
//!
//! The first stage of the paper's Fig. 3 pipeline translates an
//! effective address into a real address in the processor MMU. The
//! model needs only the kernel's page size from it: NUMA nodes count
//! their memory in pages.

/// Page size used by the prototype kernel (64 KiB pages on ppc64).
pub const PAGE_BYTES: u64 = 64 * 1024;
