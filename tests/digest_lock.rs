//! Digest lock: the golden architectural digest of four suite kernels is
//! pinned to literal values. Sweep journals record `arch_digest` and the
//! serve layer caches golden digests, so a change to how memory is stored
//! or hashed must leave these values exactly as they are.

use virec::sim::runner::golden_arch_digest;
use virec::workloads::{kernels, Layout, Workload};

const N: u64 = 1024;
const THREADS: usize = 8;

fn digest(w: Workload) -> u64 {
    golden_arch_digest(&w, THREADS, 1 << 40).expect("golden run halts")
}

#[test]
fn golden_digests_are_pinned() {
    let l = Layout::for_core(0);
    assert_eq!(
        digest(kernels::spatter::gather(N, l)),
        0xba68_1bce_d9c3_588a
    );
    assert_eq!(
        digest(kernels::stream::reduction(N, l)),
        0x8935_c1be_5bdb_4288
    );
    assert_eq!(digest(kernels::meabo::meabo(N, l)), 0x9582_8389_33ff_3e33);
    assert_eq!(
        digest(kernels::sparse::histogram(N, l)),
        0x112b_76f3_d545_a096
    );
}
