//! Property-based tests for the mesh NoC (DESIGN §4k), driven through the
//! public [`virec::mem::Fabric`] API over arbitrary mesh shapes and
//! request mixes:
//!
//! 1. **XY delivery** — on a defect-free mesh, every submitted request
//!    completes (reaches the memory controller and its response returns),
//!    the network drains, and the watchdog never fires.
//! 2. **Route-around liveness** — after retiring an arbitrary bounded set
//!    of links (each absorbed as a reroute or a fence), every request
//!    still completes: the adaptive tables never livelock traffic, and
//!    the link census stays consistent.
//! 3. **Credit conservation** — at every cycle, the buffer credits held
//!    equal the flits in flight (each flit holds exactly one), and both
//!    drain to zero when the network empties.

use proptest::prelude::*;
use virec::mem::{Fabric, FabricConfig, FabricTopology};

fn mesh_fabric(cols: usize, rows: usize) -> Fabric {
    Fabric::new(FabricConfig {
        topology: FabricTopology::Mesh { cols, rows },
        ..FabricConfig::default()
    })
}

/// Submits every request (staggered a few cycles apart), then ticks until
/// all complete, checking credit conservation at every cycle. Returns the
/// final cycle.
fn drive(fabric: &mut Fabric, reqs: &[(usize, u64, bool)]) -> u64 {
    let mut now = 0u64;
    let mut pending = Vec::new();
    for (i, &(port, addr, is_write)) in reqs.iter().enumerate() {
        for _ in 0..(i % 5) {
            now += 1;
            fabric.tick(now);
        }
        pending.push(fabric.submit(now, port, addr & !63, is_write));
    }
    while !pending.is_empty() {
        now += 1;
        fabric.tick(now);
        assert_eq!(
            fabric.noc_credits_held().expect("mesh fabric"),
            fabric.noc_in_network().expect("mesh fabric") as u32,
            "cycle {now}: credits diverged from flits in flight"
        );
        assert!(
            fabric.noc_fault().is_none(),
            "watchdog fired: {:?}",
            fabric.noc_fault()
        );
        pending.retain(|&t| !fabric.is_done(t, now));
        assert!(
            now < 300_000,
            "requests never drained ({} left)",
            pending.len()
        );
    }
    now
}

fn dims() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=4, 1usize..=3)
}

fn reqs() -> impl Strategy<Value = Vec<(usize, u64, bool)>> {
    prop::collection::vec((0usize..12, 0u64..0x1_0000, any::<bool>()), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: XY routing delivers every request on a defect-free
    /// mesh of any shape, and the network drains completely.
    #[test]
    fn xy_delivers_every_request(dims in dims(), reqs in reqs()) {
        let (cols, rows) = dims;
        let mut fabric = mesh_fabric(cols, rows);
        drive(&mut fabric, &reqs);
        prop_assert_eq!(fabric.noc_in_network(), Some(0));
        prop_assert_eq!(fabric.noc_credits_held(), Some(0));
        prop_assert!(fabric.stats().noc_hops > 0);
        prop_assert_eq!(fabric.stats().noc_crc_detected, 0, "defect-free run saw a CRC hit");
    }

    /// Invariant 2: with up to 4 arbitrary links retired (rerouted or
    /// fenced), traffic still delivers — no livelock, no watchdog — and
    /// the link census partitions the population.
    #[test]
    fn route_around_never_livelocks(
        dims in dims(),
        retire in prop::collection::vec(0usize..24, 0..=4),
        reqs in reqs(),
    ) {
        let (cols, rows) = dims;
        let mut fabric = mesh_fabric(cols, rows);
        for &l in &retire {
            fabric.retire_link(l).expect("mesh fabric retires links");
        }
        let h = fabric.link_health().expect("mesh fabric");
        prop_assert_eq!(h.healthy + h.retired + h.fenced, h.total, "census must partition");
        drive(&mut fabric, &reqs);
        prop_assert_eq!(fabric.noc_in_network(), Some(0));
    }

    /// Invariant 3: credits equal flits in flight at every cycle (checked
    /// inside `drive`) and both drain to zero — even when links sit
    /// retired or fenced and traffic detours through shared paths.
    #[test]
    fn credits_conserve_under_detours(
        dims in dims(),
        retire in prop::collection::vec(0usize..8, 0..=2),
        reqs in reqs(),
    ) {
        let (cols, rows) = dims;
        let mut fabric = mesh_fabric(cols, rows);
        for &l in &retire {
            fabric.retire_link(l);
        }
        drive(&mut fabric, &reqs);
        prop_assert_eq!(fabric.noc_credits_held(), Some(0));
        prop_assert_eq!(fabric.noc_in_network(), Some(0));
    }
}
