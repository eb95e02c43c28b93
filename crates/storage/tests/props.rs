//! Property tests for the storage substrate.

use proptest::prelude::*;
use sdds_storage::{FileId, LruCache, NodeSet, RaidConfig, RaidLevel, StripingLayout};

proptest! {
    /// split_range pieces tile the requested byte range exactly, and their
    /// node set equals nodes_for_range.
    #[test]
    fn striping_split_tiles_exactly(
        stripe_kb in 1u64..256,
        nodes in 1usize..64,
        file in 0u32..8,
        offset in 0u64..10_000_000,
        len in 1u64..10_000_000,
    ) {
        let layout = StripingLayout::new(stripe_kb * 1024, nodes).unwrap();
        let pieces = layout.split_range(FileId(file), offset, len);
        // Pieces are contiguous and cover [offset, offset + len).
        let mut cursor = offset;
        let mut seen = NodeSet::EMPTY;
        for (node, _block, _off_in_stripe, piece_len) in &pieces {
            prop_assert!(*piece_len > 0);
            seen.insert(*node);
            cursor += piece_len;
        }
        prop_assert_eq!(cursor, offset + len);
        prop_assert_eq!(seen, layout.nodes_for_range(FileId(file), offset, len));
        // Every piece stays within one stripe.
        for (_, _, off_in_stripe, piece_len) in &pieces {
            prop_assert!(off_in_stripe + piece_len <= stripe_kb * 1024);
        }
    }

    /// Distinct pieces of one range never share a (node, local block)
    /// pair, so the storage system issues each piece as its own block op.
    #[test]
    fn striping_pieces_are_distinct_blocks(
        stripe_kb in 1u64..256,
        nodes in 1usize..64,
        file in 0u32..64,
        offset in 0u64..100_000_000,
        len in 1u64..20_000_000,
    ) {
        let layout = StripingLayout::new(stripe_kb * 1024, nodes).unwrap();
        let pieces = layout.split_range(FileId(file), offset, len);
        let blocks: std::collections::BTreeSet<(usize, u64)> =
            pieces.iter().map(|&(node, block, _, _)| (node, block)).collect();
        prop_assert_eq!(blocks.len(), pieces.len());
    }

    /// The node of a byte equals the node of its containing stripe, and
    /// consecutive stripes rotate round-robin.
    #[test]
    fn striping_round_robin(
        nodes in 1usize..64,
        file in 0u32..8,
        stripe_idx in 0u64..100_000,
    ) {
        let layout = StripingLayout::new(64 * 1024, nodes).unwrap();
        let a = layout.node_of(FileId(file), stripe_idx * 64 * 1024);
        let b = layout.node_of(FileId(file), (stripe_idx + 1) * 64 * 1024);
        prop_assert_eq!((a + 1) % nodes, b);
    }

    /// NodeSet algebra behaves like a set of integers.
    #[test]
    fn node_set_algebra(
        xs in prop::collection::btree_set(0usize..64, 0..20),
        ys in prop::collection::btree_set(0usize..64, 0..20),
    ) {
        let a = NodeSet::from_nodes(xs.iter().copied());
        let b = NodeSet::from_nodes(ys.iter().copied());
        let union: std::collections::BTreeSet<_> = xs.union(&ys).copied().collect();
        let inter: std::collections::BTreeSet<_> = xs.intersection(&ys).copied().collect();
        let sym: std::collections::BTreeSet<_> =
            xs.symmetric_difference(&ys).copied().collect();
        prop_assert_eq!(a.union(b).iter().collect::<Vec<_>>(), union.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.intersection(b).iter().collect::<Vec<_>>(), inter.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.symmetric_difference(b).iter().collect::<Vec<_>>(), sym.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.len(), xs.len());
    }

    /// Every RAID mapping sends a block to valid member disks, reads touch
    /// data_chunks() members, writes touch all members, and distinct blocks
    /// on the same member never overlap.
    #[test]
    fn raid_mappings_are_well_formed(
        level_pick in 0usize..3,
        disks_raw in 1usize..8,
        block_a in 0u64..10_000,
        block_b in 0u64..10_000,
    ) {
        let (level, disks) = match level_pick {
            0 => (RaidLevel::Single, 1),
            1 => (RaidLevel::Raid5, disks_raw.max(3)),
            _ => (RaidLevel::Raid10, (disks_raw.div_ceil(2) * 2).max(2)),
        };
        let cfg = RaidConfig::new(level, disks, 64 * 1024, 512).unwrap();
        let reads = cfg.map_read(block_a);
        prop_assert_eq!(reads.len(), cfg.data_chunks());
        for m in &reads {
            prop_assert!(m.disk < disks);
            prop_assert!(m.kind.is_read());
            prop_assert_eq!(m.sectors, cfg.chunk_sectors());
        }
        let writes = cfg.map_write(block_a);
        prop_assert_eq!(writes.len(), disks.min(match level {
            RaidLevel::Single => 1,
            _ => disks,
        }));
        // Distinct blocks never overlap on any member disk.
        if block_a != block_b {
            let other = cfg.map_write(block_b);
            for x in &writes {
                for y in &other {
                    if x.disk == y.disk {
                        let (xs, xe) = (x.lba, x.lba + x.sectors as u64);
                        let (ys, ye) = (y.lba, y.lba + y.sectors as u64);
                        prop_assert!(xe <= ys || ye <= xs, "blocks overlap on disk {}", x.disk);
                    }
                }
            }
        }
    }

    /// The LRU cache behaves exactly like a naive reference model under an
    /// arbitrary operation sequence.
    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..12,
        ops in prop::collection::vec((0u8..3, 0u64..30), 1..400),
    ) {
        let mut cache = LruCache::new(capacity);
        let mut model: Vec<u64> = Vec::new(); // MRU at the back
        for (op, key) in ops {
            match op {
                0 => {
                    // insert
                    cache.insert(key, key);
                    model.retain(|&k| k != key);
                    model.push(key);
                    if model.len() > capacity {
                        model.remove(0);
                    }
                }
                1 => {
                    // get
                    let hit = cache.get(&key).is_some();
                    let model_hit = model.contains(&key);
                    prop_assert_eq!(hit, model_hit);
                    if model_hit {
                        model.retain(|&k| k != key);
                        model.push(key);
                    }
                }
                _ => {
                    // remove
                    let removed = cache.remove(&key).is_some();
                    let model_had = model.contains(&key);
                    prop_assert_eq!(removed, model_had);
                    model.retain(|&k| k != key);
                }
            }
            prop_assert_eq!(cache.len(), model.len());
        }
        // Final recency order agrees.
        let mru: Vec<u64> = cache.keys_mru().copied().collect();
        let expected: Vec<u64> = model.iter().rev().copied().collect();
        prop_assert_eq!(mru, expected);
    }
}
