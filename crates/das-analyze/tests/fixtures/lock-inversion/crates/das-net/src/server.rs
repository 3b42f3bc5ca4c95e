//! Seeded defect: `outer` holds `inner` (rank 1) while calling
//! `helper`, which acquires `conns` (rank 0) — a cross-function
//! inversion of the declared hierarchy that only an inter-procedural
//! pass can see. Must fail `--deny --pass lockgraph` with DA407.

pub struct Srv;

impl Srv {
    fn outer(&self) {
        let g = lock(&self.inner);
        self.helper();
        drop(g);
    }

    fn helper(&self) {
        let c = lock(&self.conns);
        let _ = c;
    }
}
