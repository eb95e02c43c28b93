//! RAID 5 / RAID 10 block fan-out inside an I/O node.
//!
//! "An I/O node further stripes a block across its disks for performance
//! and reliability purposes" (§II, citing Patterson's RAID paper); Table II
//! lists RAID levels 5 and 10. Power management happens at the node level —
//! all member disks of a node see the same busy/idle pattern — so the RAID
//! layer's job is to translate one node-local block access into the member
//! disk requests whose timing the disk model simulates.

use sdds_disk::RequestKind;

use crate::error::StorageError;

/// Supported RAID organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaidLevel {
    /// One disk per I/O node, no intra-node striping — the configuration
    /// the paper's node-level power discussion assumes ("we use the terms
    /// I/O node and disk interchangeably", §II).
    Single,
    /// Block-interleaved distributed parity.
    Raid5,
    /// Striped mirrors.
    Raid10,
}

impl std::fmt::Display for RaidLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaidLevel::Single => f.write_str("single-disk"),
            RaidLevel::Raid5 => f.write_str("RAID-5"),
            RaidLevel::Raid10 => f.write_str("RAID-10"),
        }
    }
}

/// One request to a member disk of the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberRequest {
    /// Index of the member disk inside the node.
    pub disk: usize,
    /// Read or write.
    pub kind: RequestKind,
    /// Starting sector on the member disk.
    pub lba: u64,
    /// Length in sectors.
    pub sectors: u32,
}

/// RAID geometry of one I/O node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaidConfig {
    level: RaidLevel,
    disks: usize,
    block_bytes: u64,
    sector_bytes: u32,
}

impl RaidConfig {
    /// Creates a RAID configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::RaidDisks`] if the disk count is invalid
    /// for the level (RAID 5 needs at least 3 disks, RAID 10 an even count
    /// of at least 2), [`StorageError::BlockNotSectorMultiple`] if the
    /// block size is not a positive multiple of the sector size, and
    /// [`StorageError::BlockSectors`] if a block holds more sectors than a
    /// disk request can cover.
    pub fn new(
        level: RaidLevel,
        disks: usize,
        block_bytes: u64,
        sector_bytes: u32,
    ) -> Result<Self, StorageError> {
        let disks_ok = match level {
            RaidLevel::Single => disks == 1,
            RaidLevel::Raid5 => disks >= 3,
            RaidLevel::Raid10 => disks >= 2 && disks.is_multiple_of(2),
        };
        if !disks_ok {
            return Err(StorageError::RaidDisks { level, disks });
        }
        if sector_bytes == 0 || block_bytes == 0 || !block_bytes.is_multiple_of(sector_bytes as u64)
        {
            return Err(StorageError::BlockNotSectorMultiple {
                block_bytes,
                sector_bytes,
            });
        }
        if block_bytes / u64::from(sector_bytes) > u64::from(u32::MAX) {
            return Err(StorageError::BlockSectors {
                block_bytes,
                sector_bytes,
            });
        }
        Ok(RaidConfig {
            level,
            disks,
            block_bytes,
            sector_bytes,
        })
    }

    /// RAID 5 over 4 disks with 64 KB blocks and 512 B sectors (the
    /// organizations Table II lists).
    pub fn paper_defaults() -> Self {
        RaidConfig {
            level: RaidLevel::Raid5,
            disks: 4,
            block_bytes: 64 * 1024,
            sector_bytes: 512,
        }
    }

    /// One disk per node (the paper's node-level power abstraction).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BlockNotSectorMultiple`] if the block size
    /// is not a positive multiple of the sector size, and
    /// [`StorageError::BlockSectors`] if a block holds more sectors than a
    /// disk request can cover.
    pub fn single(block_bytes: u64, sector_bytes: u32) -> Result<Self, StorageError> {
        RaidConfig::new(RaidLevel::Single, 1, block_bytes, sector_bytes)
    }

    /// The RAID level.
    pub fn level(&self) -> RaidLevel {
        self.level
    }

    /// Number of member disks.
    pub fn disks(&self) -> usize {
        self.disks
    }

    /// Number of data-bearing chunks per block (RAID 5: disks − 1;
    /// RAID 10: disks / 2).
    pub fn data_chunks(&self) -> usize {
        match self.level {
            RaidLevel::Single => 1,
            RaidLevel::Raid5 => self.disks - 1,
            RaidLevel::Raid10 => self.disks / 2,
        }
    }

    /// Sectors per chunk (a block split evenly over the data chunks,
    /// rounded up to whole sectors).
    pub fn chunk_sectors(&self) -> u32 {
        // `RaidConfig::new` rejects a block whose sector count overflows.
        let block_sectors = (self.block_bytes / self.sector_bytes as u64) as u32;
        block_sectors.div_ceil(self.data_chunks() as u32)
    }

    /// The member-disk sector where block `index`'s chunk begins. Blocks
    /// are laid out sequentially on the members.
    fn chunk_lba(&self, block_index: u64) -> u64 {
        block_index * self.chunk_sectors() as u64
    }

    /// The node-local block whose chunk contains member-disk sector `lba`
    /// (the inverse of the internal chunk placement).
    pub fn block_of_lba(&self, lba: u64) -> u64 {
        lba / self.chunk_sectors() as u64
    }

    /// Whether the level can reconstruct one member's chunk from the
    /// surviving members (everything but [`RaidLevel::Single`]).
    pub fn has_redundancy(&self) -> bool {
        !matches!(self.level, RaidLevel::Single)
    }

    /// Translates a degraded read of block `index` — member `failed` is
    /// unreadable — into the surviving member requests that recover the
    /// lost chunk.
    ///
    /// RAID 5 reads every surviving member (the other data chunks plus
    /// the rotating parity chunk) and XOR-reconstructs; RAID 10 reads the
    /// mirror of the failed member. [`RaidLevel::Single`] has no
    /// redundancy, so the only option is to retry the same disk.
    pub fn map_degraded_read(&self, block_index: u64, failed: usize) -> Vec<MemberRequest> {
        debug_assert!(failed < self.disks, "failed member out of range");
        let lba = self.chunk_lba(block_index);
        let sectors = self.chunk_sectors();
        match self.level {
            RaidLevel::Single => vec![MemberRequest {
                disk: failed,
                kind: RequestKind::Read,
                lba,
                sectors,
            }],
            RaidLevel::Raid5 => (0..self.disks)
                .filter(|&d| d != failed)
                .map(|d| MemberRequest {
                    disk: d,
                    kind: RequestKind::Read,
                    lba,
                    sectors,
                })
                .collect(),
            RaidLevel::Raid10 => vec![MemberRequest {
                disk: failed ^ 1,
                kind: RequestKind::Read,
                lba,
                sectors,
            }],
        }
    }

    /// Translates a read of node-local block `index` into member requests.
    ///
    /// RAID 5 reads the `disks − 1` data chunks (the parity chunk is not
    /// read); RAID 10 reads one replica of each chunk, alternating mirror
    /// sides across blocks for balance.
    pub fn map_read(&self, block_index: u64) -> Vec<MemberRequest> {
        let lba = self.chunk_lba(block_index);
        let sectors = self.chunk_sectors();
        match self.level {
            RaidLevel::Single => vec![MemberRequest {
                disk: 0,
                kind: RequestKind::Read,
                lba,
                sectors,
            }],
            RaidLevel::Raid5 => {
                let parity = (block_index % self.disks as u64) as usize;
                (0..self.disks)
                    .filter(|&d| d != parity)
                    .map(|d| MemberRequest {
                        disk: d,
                        kind: RequestKind::Read,
                        lba,
                        sectors,
                    })
                    .collect()
            }
            RaidLevel::Raid10 => {
                let side = (block_index % 2) as usize;
                (0..self.disks / 2)
                    .map(|pair| MemberRequest {
                        disk: pair * 2 + side,
                        kind: RequestKind::Read,
                        lba,
                        sectors,
                    })
                    .collect()
            }
        }
    }

    /// Translates a write of node-local block `index` into member requests.
    ///
    /// A block is a full stripe, so RAID 5 performs a full-stripe write
    /// (all data chunks plus the rotating parity chunk, no read-modify-
    /// write); RAID 10 writes both replicas of every chunk.
    pub fn map_write(&self, block_index: u64) -> Vec<MemberRequest> {
        let lba = self.chunk_lba(block_index);
        let sectors = self.chunk_sectors();
        match self.level {
            RaidLevel::Single => vec![MemberRequest {
                disk: 0,
                kind: RequestKind::Write,
                lba,
                sectors,
            }],
            RaidLevel::Raid5 => (0..self.disks)
                .map(|d| MemberRequest {
                    disk: d,
                    kind: RequestKind::Write,
                    lba,
                    sectors,
                })
                .collect(),
            RaidLevel::Raid10 => (0..self.disks)
                .map(|d| MemberRequest {
                    disk: d,
                    kind: RequestKind::Write,
                    lba,
                    sectors,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raid5_read_skips_parity() {
        let r = RaidConfig::paper_defaults();
        let reqs = r.map_read(0);
        assert_eq!(reqs.len(), 3);
        assert!(reqs.iter().all(|m| m.disk != 0), "parity disk 0 not read");
        let reqs1 = r.map_read(1);
        assert!(reqs1.iter().all(|m| m.disk != 1), "parity rotates");
    }

    #[test]
    fn raid5_write_touches_all_disks() {
        let r = RaidConfig::paper_defaults();
        let reqs = r.map_write(5);
        assert_eq!(reqs.len(), 4);
        let mut disks: Vec<usize> = reqs.iter().map(|m| m.disk).collect();
        disks.sort_unstable();
        assert_eq!(disks, vec![0, 1, 2, 3]);
        assert!(reqs.iter().all(|m| !m.kind.is_read()));
    }

    #[test]
    fn raid10_read_alternates_mirror_sides() {
        let r = RaidConfig::new(RaidLevel::Raid10, 4, 64 * 1024, 512).unwrap();
        let even: Vec<usize> = r.map_read(0).iter().map(|m| m.disk).collect();
        let odd: Vec<usize> = r.map_read(1).iter().map(|m| m.disk).collect();
        assert_eq!(even, vec![0, 2]);
        assert_eq!(odd, vec![1, 3]);
    }

    #[test]
    fn raid10_write_hits_both_replicas() {
        let r = RaidConfig::new(RaidLevel::Raid10, 4, 64 * 1024, 512).unwrap();
        let reqs = r.map_write(7);
        assert_eq!(reqs.len(), 4);
    }

    #[test]
    fn block_sector_count_must_fit_a_request() {
        // 2^32 and 3 * 2^31 sectors: a 32-bit count reads 0 and 2^31.
        for block_bytes in [512 << 32, 3 * (512 << 31)] {
            assert_eq!(
                RaidConfig::new(RaidLevel::Raid5, 4, block_bytes, 512),
                Err(StorageError::BlockSectors {
                    block_bytes,
                    sector_bytes: 512
                })
            );
        }
        let largest = RaidConfig::new(RaidLevel::Single, 1, 512 * u64::from(u32::MAX), 512);
        assert_eq!(largest.unwrap().chunk_sectors(), u32::MAX);
    }

    #[test]
    fn chunk_sizes() {
        let r5 = RaidConfig::paper_defaults();
        // 128 sectors per 64 KB block over 3 data disks -> ceil(128/3) = 43.
        assert_eq!(r5.chunk_sectors(), 43);
        let r10 = RaidConfig::new(RaidLevel::Raid10, 4, 64 * 1024, 512).unwrap();
        assert_eq!(r10.chunk_sectors(), 64);
    }

    #[test]
    fn sequential_blocks_have_sequential_lbas() {
        let r = RaidConfig::paper_defaults();
        let a = r.map_read(10)[0].lba;
        let b = r.map_read(11)[0].lba;
        assert_eq!(b - a, r.chunk_sectors() as u64);
    }

    #[test]
    fn raid5_too_few_disks_rejected() {
        let err = RaidConfig::new(RaidLevel::Raid5, 2, 64 * 1024, 512).unwrap_err();
        assert!(err.to_string().contains("RAID-5 needs"));
    }

    #[test]
    fn raid10_odd_disks_rejected() {
        let err = RaidConfig::new(RaidLevel::Raid10, 3, 64 * 1024, 512).unwrap_err();
        assert!(err.to_string().contains("even disk count"));
    }

    #[test]
    fn block_must_be_sector_multiple() {
        let err = RaidConfig::new(RaidLevel::Raid5, 4, 1000, 512).unwrap_err();
        assert!(err.to_string().contains("multiple of the sector size"));
        assert!(RaidConfig::new(RaidLevel::Raid5, 4, 0, 512).is_err());
    }

    #[test]
    fn raid5_degraded_read_uses_all_survivors() {
        let r = RaidConfig::paper_defaults();
        // Block 0: parity on disk 0, data on 1..3. Lose data disk 2.
        let reqs = r.map_degraded_read(0, 2);
        let mut disks: Vec<usize> = reqs.iter().map(|m| m.disk).collect();
        disks.sort_unstable();
        assert_eq!(disks, vec![0, 1, 3], "other data chunks plus parity");
        assert!(reqs.iter().all(|m| m.kind.is_read()));
        assert!(reqs.iter().all(|m| m.lba == r.map_read(0)[0].lba));
    }

    #[test]
    fn raid10_degraded_read_uses_mirror() {
        let r = RaidConfig::new(RaidLevel::Raid10, 4, 64 * 1024, 512).unwrap();
        let reqs = r.map_degraded_read(5, 2);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].disk, 3, "mirror of member 2");
        let reqs = r.map_degraded_read(5, 3);
        assert_eq!(reqs[0].disk, 2, "mirror of member 3");
    }

    #[test]
    fn single_has_no_redundancy() {
        let r = RaidConfig::single(64 * 1024, 512).unwrap();
        assert!(!r.has_redundancy());
        assert!(RaidConfig::paper_defaults().has_redundancy());
        let reqs = r.map_degraded_read(3, 0);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].disk, 0, "only option is the same disk");
    }

    #[test]
    fn block_of_lba_inverts_chunk_placement() {
        let r = RaidConfig::paper_defaults();
        for block in [0u64, 1, 7, 1000] {
            let lba = r.map_read(block)[0].lba;
            assert_eq!(r.block_of_lba(lba), block);
            assert_eq!(r.block_of_lba(lba + r.chunk_sectors() as u64 - 1), block);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(RaidLevel::Raid5.to_string(), "RAID-5");
        assert_eq!(RaidLevel::Raid10.to_string(), "RAID-10");
    }
}
