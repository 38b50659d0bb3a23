//! Known-bad fixture: FL006 — an `unsafe` block with no `// SAFETY:`
//! comment directly above it is a finding even in the sanctioned module.

pub fn first(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // The assert above proves index 0 is in bounds.
    unsafe { *bytes.get_unchecked(0) }
}
