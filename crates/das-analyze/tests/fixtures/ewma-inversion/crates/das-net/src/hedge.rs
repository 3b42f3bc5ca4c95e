//! Seeded defect: `observe` holds `ewma` (rank 8; only the span
//! recorder ranks below it) while calling `reorder`, which
//! acquires `sched` (rank 4) — an inversion of the hierarchy's
//! tail-tolerance ranks that only the inter-procedural lockgraph pass
//! can see. Must fail `--deny --pass lockgraph` with DA407.

pub struct LoadTracker;

impl LoadTracker {
    fn observe(&self) {
        let e = lock(&self.ewma);
        self.reorder();
        drop(e);
    }

    fn reorder(&self) {
        let s = lock(&self.sched);
        let _ = s;
    }
}
