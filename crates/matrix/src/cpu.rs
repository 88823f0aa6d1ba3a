//! Which instantiation of the tiled representation's hot code runs.
//!
//! A release build targets baseline x86-64, which lacks POPCNT, BMI and
//! AVX2: there every `count_ones` is a SWAR sequence, every
//! `trailing_zeros` a BSF behind a zero test, and a 64-word tile pass
//! moves two words per operation. So the tile kernels, set operations,
//! build and popcount are one source compiled twice: as baseline code,
//! and inside `featured`, which enables AVX2, BMI1, BMI2, LZCNT and
//! POPCNT. The CPU picks at run time; nothing else can, and a CPU
//! without the five features (or another architecture) runs the
//! baseline code.

/// The instantiation a call runs. A featured `Level` comes only from
/// [`level`], once it found every feature `featured` enables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Level {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    featured: bool,
}

impl Level {
    /// The baseline instantiation, which runs on every CPU.
    pub(crate) const BASELINE: Level = Level { featured: false };

    /// Runs `f`, compiled inside the featured trampoline if this level is
    /// featured. Only code inlined into `f` is compiled there, so `f` is
    /// an `#[inline(always)]` closure and everything it calls on the hot
    /// path is `#[inline(always)]` too: what LLVM leaves out of line is
    /// baseline code, called from the trampoline.
    #[inline(always)]
    pub(crate) fn run<R>(self, f: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        if self.featured {
            // SAFETY: a featured `Level` is made only by `level()`, after
            // `is_x86_feature_detected!` found on this CPU every feature
            // that `featured` enables.
            return unsafe { featured(f) };
        }
        f()
    }
}

/// The best instantiation this CPU runs (std caches the detection).
#[inline]
pub(crate) fn level() -> Level {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("bmi1")
        && is_x86_feature_detected!("bmi2")
        && is_x86_feature_detected!("lzcnt")
        && is_x86_feature_detected!("popcnt")
    {
        return Level { featured: true };
    }
    Level::BASELINE
}

/// Runs `f` on the best instantiation this CPU runs; see [`Level::run`].
#[inline(always)]
pub(crate) fn dispatch<R>(f: impl FnOnce() -> R) -> R {
    level().run(f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
fn featured<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A misspelt or missing feature in `level()` would quietly run the
    /// baseline code everywhere, and every other test would still pass.
    #[test]
    fn the_featured_instantiation_runs_on_a_cpu_with_its_features() {
        #[cfg(target_arch = "x86_64")]
        {
            let has_all = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("bmi1")
                && std::arch::is_x86_feature_detected!("bmi2")
                && std::arch::is_x86_feature_detected!("lzcnt")
                && std::arch::is_x86_feature_detected!("popcnt");
            if !has_all {
                eprintln!("skipped: this CPU lacks one of AVX2, BMI1, BMI2, LZCNT, POPCNT");
                return;
            }
            assert_ne!(level(), Level::BASELINE, "the featured code runs");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(level(), Level::BASELINE);
        assert_eq!(dispatch(|| 6 * 7), 42);
    }
}
