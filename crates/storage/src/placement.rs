//! k-replica object placement across a shuffled disk pool with a hot
//! spare reserve.
//!
//! The paper's striping layout spreads *one file* across I/O nodes; a
//! replicated object store instead places *whole objects* k times across
//! a flat disk pool. The assignment here follows the disk-manager idiom
//! of the exemplar repositories:
//!
//! * every replica choice walks the disks in a **seed-shuffled order**
//!   (a fresh shuffle per object, drawn from the placement's own
//!   [`DetRng`] substream), so load spreads without any global counter;
//! * a disk already holding an earlier replica of the same object is
//!   skipped, so the k replicas always land on k distinct disks;
//! * **tag locality**: the first pass prefers disks that already hold a
//!   segment of the object's tag (co-locating related objects improves
//!   sequential read behaviour); only when no tagged disk has room does
//!   the second pass take any disk with free capacity, tagging it as it
//!   goes;
//! * the last `spares` disks are a **hot-spare reserve**: they receive
//!   no objects at placement time and exist to absorb a rebuild after a
//!   member failure ([`Placement::promote_spare`]).
//!
//! The build is a pure function of `(params, objects)`, so two builds
//! from the same inputs are identical — the routing and rebuild layers
//! above rely on that for byte-deterministic reports.

use simkit::{DetRng, StreamId};

use crate::error::StorageError;

/// Geometry and tuning of a replicated object placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementParams {
    /// Data disks objects may be placed on (disks `0..data_disks`).
    pub data_disks: usize,
    /// Hot spares reserved after the data disks (disks
    /// `data_disks..data_disks + spares`); never placed on.
    pub spares: usize,
    /// Replicas per object; each lands on a distinct data disk.
    pub replicas: usize,
    /// Capacity of every disk in bytes.
    pub disk_capacity: u64,
    /// Seed of the placement shuffle stream.
    pub seed: u64,
}

impl PlacementParams {
    /// Checks the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError::Placement`] naming the offending field
    /// when there are no data disks, no replicas, more replicas than
    /// data disks, or no capacity.
    pub fn validate(&self) -> Result<(), StorageError> {
        if self.data_disks == 0 {
            return Err(StorageError::Placement {
                field: "data_disks",
                reason: "need at least one data disk",
            });
        }
        if self.replicas == 0 {
            return Err(StorageError::Placement {
                field: "replicas",
                reason: "need at least one replica",
            });
        }
        if self.replicas > self.data_disks {
            return Err(StorageError::Placement {
                field: "replicas",
                reason: "cannot exceed the data disk count",
            });
        }
        if self.disk_capacity == 0 {
            return Err(StorageError::Placement {
                field: "disk_capacity",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// One object to place: identity, locality tag and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectSpec {
    /// Object identity; must be unique within one build.
    pub id: u64,
    /// Locality tag: objects sharing a tag prefer sharing disks.
    pub tag: u32,
    /// Object size in bytes (each replica stores the full size).
    pub bytes: u64,
}

/// Per-disk placement state.
#[derive(Debug, Clone, Default)]
struct DiskSlot {
    /// Bytes of replicas stored on this disk.
    used: u64,
    /// Tags with a segment on this disk, in adoption order.
    tags: Vec<u32>,
    /// Objects (by index into the object table) with a replica here.
    objects: Vec<usize>,
}

/// A fully built k-replica assignment with a spare reserve.
#[derive(Debug, Clone)]
pub struct Placement {
    params: PlacementParams,
    objects: Vec<ObjectSpec>,
    /// `replicas[i]` lists the disks holding object `i`, primary first.
    replicas: Vec<Vec<usize>>,
    disks: Vec<DiskSlot>,
    /// Spares handed out by [`Placement::promote_spare`] so far.
    promoted: usize,
}

impl Placement {
    /// Places `objects` (in order) under `params`.
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError::Placement`] when the geometry is
    /// invalid or the pool cannot hold every replica of every object.
    pub fn build(params: &PlacementParams, objects: &[ObjectSpec]) -> Result<Self, StorageError> {
        params.validate()?;
        let mut root = DetRng::for_stream(params.seed, StreamId::Workload).substream("placement");
        let total = params.data_disks + params.spares;
        let mut disks = vec![DiskSlot::default(); total];
        let mut replicas: Vec<Vec<usize>> = Vec::with_capacity(objects.len());
        let mut order: Vec<usize> = (0..params.data_disks).collect();
        for (idx, obj) in objects.iter().enumerate() {
            // A fresh shuffled walk order per object, like the exemplar
            // disk managers: load spreads by construction, and the walk
            // is independent of how earlier objects landed.
            order.sort_unstable();
            root.shuffle(&mut order);
            let mut chosen: Vec<usize> = Vec::with_capacity(params.replicas);
            for _ in 0..params.replicas {
                let fits = |slot: &DiskSlot| slot.used + obj.bytes <= params.disk_capacity;
                // First pass: a disk already holding this tag (locality).
                let mut pick = order.iter().copied().find(|&d| {
                    !chosen.contains(&d) && disks[d].tags.contains(&obj.tag) && fits(&disks[d])
                });
                // Second pass: any data disk with room, adopting the tag.
                if pick.is_none() {
                    pick = order
                        .iter()
                        .copied()
                        .find(|&d| !chosen.contains(&d) && fits(&disks[d]));
                }
                let Some(d) = pick else {
                    return Err(StorageError::Placement {
                        field: "disk_capacity",
                        reason: "pool too small to hold every replica",
                    });
                };
                if !disks[d].tags.contains(&obj.tag) {
                    disks[d].tags.push(obj.tag);
                }
                disks[d].used += obj.bytes;
                disks[d].objects.push(idx);
                chosen.push(d);
            }
            replicas.push(chosen);
        }
        Ok(Placement {
            params: params.clone(),
            objects: objects.to_vec(),
            replicas,
            disks,
            promoted: 0,
        })
    }

    /// The parameters this placement was built under.
    pub fn params(&self) -> &PlacementParams {
        &self.params
    }

    /// Total disks in the pool (data disks plus spares).
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Objects placed, in build order.
    pub fn objects(&self) -> &[ObjectSpec] {
        &self.objects
    }

    /// The disks holding object `obj` (an index into [`Self::objects`]),
    /// primary first.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range (a wiring bug, not data).
    pub fn replicas_of(&self, obj: usize) -> &[usize] {
        &self.replicas[obj]
    }

    /// Object indices with a replica on `disk`, in placement order.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range (a wiring bug, not data).
    pub fn objects_on(&self, disk: usize) -> &[usize] {
        &self.disks[disk].objects
    }

    /// Bytes of replicas stored on `disk`.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range (a wiring bug, not data).
    pub fn used_bytes(&self, disk: usize) -> u64 {
        self.disks[disk].used
    }

    /// Hands out the next unpromoted hot spare (lowest index first), or
    /// `None` when the reserve is exhausted. Promotion order is
    /// deterministic, so rebuild targets are reproducible.
    pub fn promote_spare(&mut self) -> Option<usize> {
        let next = self.params.data_disks + self.promoted;
        if next < self.disks.len() {
            self.promoted += 1;
            Some(next)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PlacementParams {
        PlacementParams {
            data_disks: 8,
            spares: 2,
            replicas: 3,
            disk_capacity: 64 * 1024 * 1024,
            seed: 42,
        }
    }

    fn objects(n: u64) -> Vec<ObjectSpec> {
        (0..n)
            .map(|id| ObjectSpec {
                id,
                tag: (id % 4) as u32,
                bytes: 1024 * 1024,
            })
            .collect()
    }

    #[test]
    fn build_is_deterministic() {
        let objs = objects(64);
        let a = Placement::build(&params(), &objs).unwrap();
        let b = Placement::build(&params(), &objs).unwrap();
        assert_eq!(a.replicas, b.replicas);
        let mut other = params();
        other.seed = 43;
        let c = Placement::build(&other, &objs).unwrap();
        assert_ne!(a.replicas, c.replicas, "seed must matter");
    }

    #[test]
    fn replicas_are_distinct_data_disks() {
        let p = Placement::build(&params(), &objects(64)).unwrap();
        for obj in 0..64 {
            let r = p.replicas_of(obj);
            assert_eq!(r.len(), 3);
            for (i, &d) in r.iter().enumerate() {
                assert!(d < params().data_disks, "replica landed on a spare");
                assert!(!r[..i].contains(&d), "duplicate replica disk");
            }
        }
    }

    #[test]
    fn spares_stay_empty_and_promote_in_order() {
        let mut p = Placement::build(&params(), &objects(64)).unwrap();
        assert_eq!(p.used_bytes(8), 0);
        assert_eq!(p.used_bytes(9), 0);
        assert!(p.objects_on(8).is_empty());
        assert_eq!(p.promote_spare(), Some(8));
        assert_eq!(p.promote_spare(), Some(9));
        assert_eq!(p.promote_spare(), None);
    }

    #[test]
    fn accounting_reconciles() {
        let objs = objects(32);
        let p = Placement::build(&params(), &objs).unwrap();
        let placed: u64 = (0..p.disk_count()).map(|d| p.used_bytes(d)).sum();
        let expected: u64 = objs.iter().map(|o| o.bytes * 3).sum();
        assert_eq!(placed, expected);
        for d in 0..p.disk_count() {
            let on_disk: u64 = p.objects_on(d).iter().map(|&o| objs[o].bytes).sum();
            assert_eq!(on_disk, p.used_bytes(d));
        }
    }

    #[test]
    fn tag_locality_groups_objects() {
        // With one tag per disk's worth of objects and plenty of room,
        // tagged objects cluster: the disks a tag touches stay well
        // below the object count (pure random spread would touch more).
        let spec = PlacementParams {
            data_disks: 16,
            spares: 0,
            replicas: 1,
            disk_capacity: u64::MAX / 2,
            seed: 7,
        };
        let objs: Vec<ObjectSpec> = (0..64)
            .map(|id| ObjectSpec {
                id,
                tag: (id % 4) as u32,
                bytes: 1,
            })
            .collect();
        let p = Placement::build(&spec, &objs).unwrap();
        for tag in 0..4u32 {
            let mut disks: Vec<usize> = objs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.tag == tag)
                .map(|(i, _)| p.replicas_of(i)[0])
                .collect();
            disks.sort_unstable();
            disks.dedup();
            assert!(
                disks.len() <= 4,
                "tag {tag} spread over {} disks, locality not applied",
                disks.len()
            );
        }
    }

    #[test]
    fn rejects_bad_geometry() {
        let objs = objects(4);
        let mut p = params();
        p.replicas = 9;
        assert!(Placement::build(&p, &objs).is_err());
        let mut p = params();
        p.data_disks = 0;
        assert!(Placement::build(&p, &objs).is_err());
        let mut p = params();
        p.disk_capacity = 1;
        assert!(Placement::build(&p, &objs).is_err());
        let mut p = params();
        p.replicas = 0;
        assert!(Placement::build(&p, &objs).is_err());
    }
}
