//! Message-tag registry: the single source of truth for how the 32-bit
//! tag space is carved up.
//!
//! Tags serve two purposes: receivers verify them to catch protocol
//! desyncs early, and the shared [`crate::net::NetworkStats`] uses them to
//! attribute traffic to variant blocks. Both uses break silently if two
//! subsystems ever claim overlapping tag values, so every named range
//! lives here, the [`REGISTRY`] table enumerates them exhaustively, and a
//! compile-time assertion ([`is_partition`]) stops the build unless the
//! ranges are pairwise disjoint and cover the whole `u32` space. A
//! `const` named with a whole `TAG` word anywhere else in `crates/mpc/src`
//! or `crates/core/src/secure` fails `scripts/check.sh`'s seeded stage.
//!
//! | range | tags | who issues them |
//! |-------|------|-----------------|
//! | `reserved` | `0..=999` | hand-picked tags in tests and examples; the top two are transport-internal: [`HEARTBEAT_TAG`] (`999`), the liveness beacon, and [`CLOSE_TAG`] (`998`), the close record |
//! | `protocol` | `1000..=BLOCK_TAG_BASE-1` | the lockstep [`crate::party::PartyCtx::fresh_tag`] counter |
//! | `blocks` | `BLOCK_TAG_BASE..=BLOCK_TAG_LAST` | per-block scopes ([`crate::party::PartyCtx::enter_block`]), 1024 tags per block |
//! | `block-tail` | `BLOCK_TAG_LAST+1..=u32::MAX` | nobody — the partial stride above the last whole block, kept unissuable |

/// First tag of the reserved range (hand-picked tags in tests/examples).
pub const RESERVED_TAG_FIRST: u32 = 0;

/// Last tag of the reserved range.
pub const RESERVED_TAG_LAST: u32 = 999;

/// Transport-internal heartbeat frames (`crate::tcp` link supervision).
/// Heartbeats ride the framed wire format with the sentinel sequence
/// number `u64::MAX`, are consumed by the link's machine, and are excluded
/// from traffic accounting, so the tag exists purely to make the frames
/// self-describing on the wire. Hand-picked from the top of the reserved
/// range so no test tag collides with it by accident.
pub const HEARTBEAT_TAG: u32 = RESERVED_TAG_LAST;

/// The transport-internal close record (`crate::tcp`): the last frame a
/// party that finished its run writes on each link, so the FIN behind it
/// reads as "finished", not "crashed". Same sentinel sequence number as a
/// heartbeat, empty payload, consumed by the reader and uncounted.
pub const CLOSE_TAG: u32 = RESERVED_TAG_LAST - 1;

/// First value of the ordinary lockstep counter range. The counter starts
/// *at* this value and pre-increments, so the first issued tag is
/// `PROTOCOL_TAG_FIRST + 1`.
pub const PROTOCOL_TAG_FIRST: u32 = 1000;

/// Last tag of the ordinary lockstep counter range.
pub const PROTOCOL_TAG_LAST: u32 = BLOCK_TAG_BASE - 1;

/// First tag of the block-scoped tag range. Tags below this value belong
/// to the ordinary lockstep counter (see
/// [`crate::party::PartyCtx::fresh_tag`]); tags at or above it are
/// attributed to a variant block by [`block_of_tag`], so the shared
/// [`crate::net::NetworkStats`] can account traffic per block even though
/// parties enter blocks at different wall-clock times.
pub const BLOCK_TAG_BASE: u32 = 1 << 20;

/// Tags reserved per block: block `b` owns
/// `[BLOCK_TAG_BASE + b·STRIDE, BLOCK_TAG_BASE + (b+1)·STRIDE)`.
pub const BLOCK_TAG_STRIDE: u32 = 1 << 10;

/// Largest block id representable in the tag range.
pub const MAX_BLOCK_ID: u32 = (u32::MAX - BLOCK_TAG_BASE) / BLOCK_TAG_STRIDE - 1;

/// Last tag of the last whole block stride. The remainder of the `u32`
/// space above it (`block-tail` in the [`REGISTRY`]) is smaller than one
/// stride and is never issued: [`crate::party::PartyCtx::enter_block`]
/// rejects block ids beyond [`MAX_BLOCK_ID`].
pub const BLOCK_TAG_LAST: u32 = BLOCK_TAG_BASE + (MAX_BLOCK_ID + 1) * BLOCK_TAG_STRIDE - 1;

/// A named, inclusive range of message tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagRange {
    /// Registry name of the range.
    pub name: &'static str,
    /// First tag of the range (inclusive).
    pub first: u32,
    /// Last tag of the range (inclusive).
    pub last: u32,
}

impl TagRange {
    /// Whether `tag` falls inside this range.
    pub const fn contains(&self, tag: u32) -> bool {
        self.first <= tag && tag <= self.last
    }
}

/// Every named tag range, in ascending order. The ranges are pairwise
/// disjoint and together cover `0..=u32::MAX` exactly — asserted at
/// compile time below.
pub const REGISTRY: [TagRange; 4] = [
    TagRange {
        name: "reserved",
        first: RESERVED_TAG_FIRST,
        last: RESERVED_TAG_LAST,
    },
    TagRange {
        name: "protocol",
        first: PROTOCOL_TAG_FIRST,
        last: PROTOCOL_TAG_LAST,
    },
    TagRange {
        name: "blocks",
        first: BLOCK_TAG_BASE,
        last: BLOCK_TAG_LAST,
    },
    TagRange {
        name: "block-tail",
        first: BLOCK_TAG_LAST + 1,
        last: u32::MAX,
    },
];

/// Whether `ranges` partition the tag space: ascending, contiguous, none
/// inverted, starting at 0 and ending at `u32::MAX`.
pub const fn is_partition(mut ranges: &[TagRange]) -> bool {
    // First tag not covered yet; `None` once `u32::MAX` is.
    let mut next = Some(0u32);
    while let [r, rest @ ..] = ranges {
        match next {
            Some(n) if r.first == n && r.first <= r.last => {}
            _ => return false,
        }
        next = r.last.checked_add(1);
        ranges = rest;
    }
    next.is_none()
}

const _: () = ::core::assert!(
    is_partition(&REGISTRY),
    "REGISTRY must partition 0..=u32::MAX: ascending, contiguous, no inverted range"
);

/// The registry range a tag belongs to (total: every tag is in exactly
/// one range, so the fallback below is unreachable in practice).
pub fn range_of_tag(tag: u32) -> &'static TagRange {
    const FALLBACK: TagRange = TagRange {
        name: "reserved",
        first: 0,
        last: 0,
    };
    REGISTRY
        .iter()
        .find(|r| r.contains(tag))
        .unwrap_or(&FALLBACK)
}

/// The block id a tag is scoped to, or `None` for ordinary tags.
///
/// Tags in the `block-tail` range map to the (unissuable) partial block
/// `MAX_BLOCK_ID + 1`, so an adversarially crafted tail tag still gets a
/// deterministic attribution rather than corrupting a real block's
/// counters.
pub fn block_of_tag(tag: u32) -> Option<u32> {
    (tag >= BLOCK_TAG_BASE).then(|| (tag - BLOCK_TAG_BASE) / BLOCK_TAG_STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn r(first: u32, last: u32) -> TagRange {
        TagRange {
            name: "r",
            first,
            last,
        }
    }

    /// The same check the compile-time assertion makes, on the same value.
    #[test]
    fn registry_disjoint_and_exhaustive() {
        assert!(is_partition(&REGISTRY));
    }

    #[test]
    fn is_partition_rejects_every_defect() {
        assert!(is_partition(&[r(0, u32::MAX)]));
        assert!(is_partition(&[r(0, 0), r(1, 9), r(10, u32::MAX)]));
        assert!(!is_partition(&[]), "empty");
        assert!(!is_partition(&[r(0, 9), r(9, u32::MAX)]), "overlap");
        assert!(!is_partition(&[r(0, 9), r(11, u32::MAX)]), "gap");
        assert!(
            !is_partition(&[r(0, 9), r(10, 5), r(6, u32::MAX)]),
            "inverted"
        );
        assert!(!is_partition(&[r(1, u32::MAX)]), "not from 0");
        assert!(!is_partition(&[r(0, 9), r(10, u32::MAX - 1)]), "not to MAX");
        assert!(!is_partition(&[r(10, u32::MAX), r(0, 9)]), "descending");
        assert!(!is_partition(&[r(0, u32::MAX), r(0, u32::MAX)]), "past MAX");
    }

    #[test]
    fn transport_internal_tags_are_reserved_and_distinct() {
        for tag in [HEARTBEAT_TAG, CLOSE_TAG] {
            assert_eq!(range_of_tag(tag).name, "reserved");
            assert_eq!(block_of_tag(tag), None);
        }
        assert_ne!(HEARTBEAT_TAG, CLOSE_TAG);
    }

    #[test]
    fn range_names_unique_and_non_empty() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(!a.name.is_empty(), "range {i} has no name");
            for b in REGISTRY.iter().skip(i + 1) {
                assert_ne!(a.name, b.name, "duplicate range name");
            }
        }
    }

    #[test]
    fn range_of_tag_consistent_with_registry() {
        for tag in [
            0,
            999,
            1000,
            1001,
            BLOCK_TAG_BASE - 1,
            BLOCK_TAG_BASE,
            BLOCK_TAG_LAST,
            BLOCK_TAG_LAST + 1,
            u32::MAX,
        ] {
            let r = range_of_tag(tag);
            assert!(r.contains(tag), "tag {tag} not in its own range {}", r.name);
        }
        assert_eq!(range_of_tag(500).name, "reserved");
        assert_eq!(range_of_tag(2000).name, "protocol");
        assert_eq!(range_of_tag(BLOCK_TAG_BASE).name, "blocks");
        assert_eq!(range_of_tag(u32::MAX).name, "block-tail");
    }

    /// `block_of_tag` must agree with the stride constants and only ever
    /// exceed `MAX_BLOCK_ID` inside the unissuable tail.
    #[test]
    fn block_attribution_matches_strides() {
        assert_eq!(block_of_tag(0), None);
        assert_eq!(block_of_tag(BLOCK_TAG_BASE - 1), None);
        assert_eq!(block_of_tag(BLOCK_TAG_BASE), Some(0));
        assert_eq!(block_of_tag(BLOCK_TAG_BASE + BLOCK_TAG_STRIDE), Some(1));
        assert_eq!(
            block_of_tag(BLOCK_TAG_BASE + MAX_BLOCK_ID * BLOCK_TAG_STRIDE),
            Some(MAX_BLOCK_ID)
        );
        assert_eq!(block_of_tag(BLOCK_TAG_LAST), Some(MAX_BLOCK_ID));
        // The tail attributes to the partial block beyond MAX_BLOCK_ID.
        assert_eq!(block_of_tag(BLOCK_TAG_LAST + 1), Some(MAX_BLOCK_ID + 1));
        assert_eq!(block_of_tag(u32::MAX), Some(MAX_BLOCK_ID + 1));
    }

    #[test]
    fn whole_blocks_fit_below_the_tail() {
        // Every enterable block's full stride fits inside the `blocks`
        // range, so block-scoped fresh_tag can never wander into the tail.
        let last_block_start =
            BLOCK_TAG_BASE as u64 + MAX_BLOCK_ID as u64 * BLOCK_TAG_STRIDE as u64;
        assert_eq!(
            last_block_start + BLOCK_TAG_STRIDE as u64 - 1,
            BLOCK_TAG_LAST as u64
        );
        // ... and a non-empty tail sits above the last block.
        assert_eq!(range_of_tag(u32::MAX).name, "block-tail");
        assert_ne!(range_of_tag(BLOCK_TAG_LAST).name, "block-tail");
    }
}
