//! Known-bad fixture: FL006 — a documented `unsafe` block is still a
//! finding outside the sanctioned module.

pub fn first(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assert above proves index 0 is in bounds.
    unsafe { *bytes.get_unchecked(0) }
}
