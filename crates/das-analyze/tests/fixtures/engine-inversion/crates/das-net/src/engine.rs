//! Seeded defect: `route_done` holds `done` (rank 5) while calling
//! `adopt`, which acquires `inbox` (rank 3) — an inversion of the
//! event-loop engine's shard-queue lock order that only the
//! inter-procedural lockgraph pass can see. Must fail
//! `--deny --pass lockgraph` with DA407.

pub struct Shard;

impl Shard {
    fn route_done(&self) {
        let d = lock(&self.done);
        self.adopt();
        drop(d);
    }

    fn adopt(&self) {
        let q = lock(&self.inbox);
        let _ = q;
    }
}
