//! The benchmark's registry: every builtin family plus the `longhorn`
//! profile, registered exactly as `palsim` registers it.

use pal_bench::{longhorn_profile, PROFILE_SEED};
use pal_config::Registry;

/// Builtins plus the `longhorn` profile.
pub fn bench_registry() -> Registry {
    let mut registry = Registry::with_builtins();
    registry.register_profile("longhorn", |args, ctx| {
        let seed = args.get_or("seed", PROFILE_SEED)?;
        Ok(longhorn_profile(ctx.gpus, seed))
    });
    registry
}
