//! Reusable working-set arena for the Algorithm-1 stages.
//!
//! Every [`crate::AnalysisPlan`] build and derivation needs a handful of
//! temporaries: the classified end-branch list, the PLT stub table,
//! the staged candidate run, SELECTTAILCALL's referer pairs. Allocating
//! them per call is invisible for one binary but measurable over a
//! corpus of thousands — the batch engine analyzes one binary per task
//! on a persistent worker pool, so the same buffers can serve every
//! binary a worker ever sees.
//!
//! [`Scratch`] owns those buffers. Each stage clears and refills them,
//! which keeps capacity: after the first few binaries of a batch the
//! arena has grown to the workload's high-water mark and the working
//! sets of later binaries allocate nothing. (The returned
//! [`crate::Analysis`] still owns its `functions` set — the arena only
//! absorbs the *intermediate* allocations.)
//!
//! The one-shot entry points ([`crate::FunSeeker::identify`],
//! [`crate::FunSeeker::identify_prepared`]) build a fresh arena
//! internally; batch callers hold one per worker next to their plan.

/// Cumulative per-stage wall time and candidate counts for the
/// Algorithm-1 back end.
///
/// [`crate::AnalysisPlan`] charges its work here (the counters live in
/// [`Scratch`], accumulating across every analysis a worker runs).
/// `experiments -- perf` and the batch report read them to show where
/// the back end spends its time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// FILTERENDBR (or the plain `E` sort/dedup when filtering is off),
    /// including the optional pattern-scan union.
    pub filter_ns: u64,
    /// SELECTTAILCALL: interval construction, referer accumulation, and
    /// the selected-target union.
    pub tailcall_ns: u64,
    /// Candidate-set construction: the `E′ ∪ C` and `∪ J` merges, the
    /// `J` dedup, and reachability pruning.
    pub boundaries_ns: u64,
    /// Interprocedural summaries (CFGs + call graph), when requested.
    pub interproc_ns: u64,
    /// Σ |E′| over all runs — entry candidates surviving FILTERENDBR.
    pub entry_candidates: u64,
    /// Σ |J′| over all runs — tail-call targets selected.
    pub tail_candidates: u64,
    /// Σ |functions| over all runs — final identified entries.
    pub final_candidates: u64,
}

impl StageStats {
    /// Adds another accumulator's counters into this one.
    pub fn merge(&mut self, other: &StageStats) {
        self.filter_ns += other.filter_ns;
        self.tailcall_ns += other.tailcall_ns;
        self.boundaries_ns += other.boundaries_ns;
        self.interproc_ns += other.interproc_ns;
        self.entry_candidates += other.entry_candidates;
        self.tail_candidates += other.tail_candidates;
        self.final_candidates += other.final_candidates;
    }

    /// Total stage wall time, summed over the four buckets.
    pub fn total_ns(&self) -> u64 {
        self.filter_ns + self.tailcall_ns + self.boundaries_ns + self.interproc_ns
    }
}

/// Reusable buffers for one analysis worker.
///
/// Obtain with [`Scratch::new`], pass to [`crate::AnalysisPlan::rebuild`]
/// and [`crate::AnalysisPlan::derive`], reuse for the next binary. The
/// contents between calls are unspecified; every user clears before use.
#[derive(Debug, Default)]
pub struct Scratch {
    /// PLT stub addresses, ascending, each flagged when the stub
    /// dispatches to an indirect-return function — FILTERENDBR's lookup
    /// table.
    pub(crate) plt_stubs: Vec<(u64, bool)>,
    /// `E` sorted, when the sweep's is not ascending or is widened by the
    /// pattern scan.
    pub(crate) sorted_endbrs: Vec<u64>,
    /// The call sites sorted, when the sweep's are not ascending.
    pub(crate) sorted_call_sites: Vec<(u64, u64)>,
    /// `E` tagged with evidence classes — the x86 adapter's
    /// [`crate::Evidence::endbrs`].
    pub(crate) endbrs: Vec<(u64, crate::EndbrClass)>,
    /// Region start addresses (interval breaks for SELECTTAILCALL).
    pub(crate) region_starts: Vec<u64>,
    /// The staged candidate run `base ∪ J` or `base ∪ J′`, sorted.
    pub(crate) functions: Vec<u64>,
    /// SELECTTAILCALL's `(target, referring interval)` accumulator.
    pub(crate) referers: Vec<(u64, Option<u64>)>,
    /// `J′` at the configuration's threshold.
    pub(crate) tails: Vec<u64>,
    /// Reachability pruning's BFS worklist of instruction indices.
    pub(crate) work: Vec<u32>,
    /// Cumulative per-stage timing and candidate counters; never
    /// cleared by the stages — callers snapshot or reset via
    /// [`Scratch::take_stats`].
    pub stats: StageStats,
}

impl Scratch {
    /// An empty arena; buffers grow on first use and are kept thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap capacity currently retained, in bytes — what a batch
    /// scheduler accounts against its in-flight memory budget.
    pub fn capacity_bytes(&self) -> usize {
        let u64s = self.sorted_endbrs.capacity()
            + self.region_starts.capacity()
            + self.functions.capacity()
            + self.tails.capacity();
        u64s * std::mem::size_of::<u64>()
            + self.plt_stubs.capacity() * std::mem::size_of::<(u64, bool)>()
            + self.sorted_call_sites.capacity() * std::mem::size_of::<(u64, u64)>()
            + self.endbrs.capacity() * std::mem::size_of::<(u64, crate::EndbrClass)>()
            + self.referers.capacity() * std::mem::size_of::<(u64, Option<u64>)>()
            + self.work.capacity() * std::mem::size_of::<u32>()
    }

    /// Takes the accumulated [`StageStats`], resetting the counters —
    /// how a scheduler charges one task's stage time to its own
    /// aggregate without double counting.
    pub fn take_stats(&mut self) -> StageStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_retained_across_reuse() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = crate::prepare(&bytes).unwrap();
        let (parsed, index) = (&prepared.parsed, &prepared.index);
        let mut plan = crate::AnalysisPlan::new();
        let mut scratch = Scratch::new();
        assert_eq!(scratch.capacity_bytes(), 0);
        plan.rebuild(parsed, index, &mut scratch);
        let first = plan.derive(&crate::Config::c4(), parsed, index, &mut scratch);
        let warm = scratch.capacity_bytes();
        assert!(warm > 0, "analysis of a real binary fills the arena");
        assert_eq!(first, crate::reference::identify(&crate::Config::c4(), &prepared));

        // Re-analyzing the same binary must not grow the arena further —
        // the buffers are at their high-water mark already.
        plan.rebuild(parsed, index, &mut scratch);
        let second = plan.derive(&crate::Config::c4(), parsed, index, &mut scratch);
        assert_eq!(first, second, "scratch reuse must not change results");
        assert_eq!(scratch.capacity_bytes(), warm, "warm arena stops growing");
    }
}
