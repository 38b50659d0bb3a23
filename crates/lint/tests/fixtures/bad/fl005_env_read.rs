//! Known-bad: an environment read in library code selects behaviour.

pub fn lanes_enabled() -> bool {
    std::env::var("FLEXCORE_FORCE_SCALAR").is_err()
}
