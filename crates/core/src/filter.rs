//! FILTERENDBR — drop end-branches that are not function entries
//! (Algorithm 1 line 4, §IV-C).
//!
//! Two non-entry locations exist (§III-B): the instruction after a call
//! to an *indirect-return* function (`setjmp` family), and C++ exception
//! landing pads. Both are recognized from metadata that cannot be
//! stripped: the PLT/relocation machinery and `.gcc_except_table`.
//!
//! This module holds the indirect-return list. The filter itself is the
//! end-branch classification of [`crate::AnalysisPlan`] (see
//! [`crate::EndbrClass`]); [`crate::reference::filter_endbr`] transcribes
//! it on sets.

/// GCC's list of indirect-return functions (from `special_function_p` in
/// gcc/calls.c): calls to these are followed by an end-branch that is a
/// *return point*, not a function entry.
pub const INDIRECT_RETURN_FUNCTIONS: &[&str] =
    &["setjmp", "_setjmp", "sigsetjmp", "__sigsetjmp", "vfork", "getcontext", "savectx"];

/// Checks whether a PLT callee name is an indirect-return function.
///
/// Matches GCC's semantics: the unprefixed name and common
/// leading-underscore aliases both count (e.g. `__vfork`).
pub fn is_indirect_return_name(name: &str) -> bool {
    let trimmed = name.trim_start_matches('_');
    INDIRECT_RETURN_FUNCTIONS.iter().any(|f| name == *f || trimmed == f.trim_start_matches('_'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Parsed;
    use crate::reference::filter_endbr;
    use funseeker_elf::PltMap;
    use std::collections::BTreeSet;

    #[test]
    fn name_matching_covers_aliases() {
        for n in [
            "setjmp",
            "_setjmp",
            "sigsetjmp",
            "__sigsetjmp",
            "vfork",
            "__vfork",
            "getcontext",
            "savectx",
        ] {
            assert!(is_indirect_return_name(n), "{n}");
        }
        for n in ["longjmp", "fork", "malloc", "setjmp2", "mysetjmp"] {
            assert!(!is_indirect_return_name(n), "{n}");
        }
    }

    fn set(addrs: &[u64]) -> BTreeSet<u64> {
        addrs.iter().copied().collect()
    }

    fn parsed_with(plt: PltMap, pads: &[u64]) -> Parsed<'static> {
        let mut p = Parsed::from_region(0x1000, &[], true);
        p.landing_pads = pads.iter().copied().collect();
        p.plt = plt;
        p
    }

    #[test]
    fn filters_setjmp_return_points() {
        let plt = PltMap::from_pairs([(0x500u64, "setjmp"), (0x510, "puts")]);
        let p = parsed_with(plt, &[]);
        // call setjmp@plt ending at 0x1040; call puts@plt ending at 0x1080.
        let call_sites = [(0x1040, 0x500), (0x1080, 0x510)];
        let e = filter_endbr(&p, &call_sites, &set(&[0x1000, 0x1040, 0x1080]));
        assert!(e.contains(&0x1000));
        assert!(!e.contains(&0x1040), "post-setjmp endbr must be dropped");
        assert!(e.contains(&0x1080), "post-puts endbr is a coincidence and stays");
    }

    #[test]
    fn filters_landing_pads() {
        let p = parsed_with(PltMap::default(), &[0x1100, 0x1200]);
        let e = filter_endbr(&p, &[], &set(&[0x1000, 0x1100, 0x1200]));
        assert_eq!(e, set(&[0x1000]));
    }

    #[test]
    fn no_metadata_means_no_filtering() {
        let p = parsed_with(PltMap::default(), &[]);
        assert_eq!(filter_endbr(&p, &[], &set(&[1, 2, 3])).len(), 3);
    }
}
