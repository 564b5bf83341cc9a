//! Seeded violation: a tag constant declared outside the registry.
//! `scripts/check.sh` compiles this file as a module of `dash-mpc`, and
//! again of dash-core's `secure` module, where the stage's textual check
//! (no `const` named with a whole `TAG` word outside `tags.rs`) must
//! reject each line marked `// seeded: tag_range`, and nothing else.

/// VIOLATION: this belongs in dash_mpc::tags.
pub const SIDE_CHANNEL_TAG_BASE: u32 = 7_000; // seeded: tag_range

/// VIOLATION: likewise, crate-private and with `TAG` last.
pub(crate) const RESYNC_TAG: u32 = 7_001; // seeded: tag_range

/// OK: not a tag.
pub const WORD_BYTES: u32 = 8;

/// OK: `TAG` is not a whole word of the name.
pub const TAGGED_WORDS: u32 = 2;
