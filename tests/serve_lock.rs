//! Serve behaviour lock: six seeded service runs pinned to literal values.
//! Word upsets under SEC-DED, parity and no protection, stuck-at cores
//! under RAS, and link wear on a mesh and on a crossbar each produce exactly
//! these cycle counts, latencies, accounting counters and fabric traffic.
//! A change to how serve routes faults or enforces attempt limits must
//! leave every value as it is.

use virec::core::CoreConfig;
use virec::mem::{FabricStats, FabricTopology};
use virec::sim::serve::{default_mix, ServeConfig, ServeFaultPlan};
use virec::sim::{run_service, ProtectionConfig, RasConfig};

/// Everything a lock compares.
#[derive(Debug, PartialEq)]
struct Pinned {
    cycles: u64,
    latencies: Vec<u64>,
    completed: usize,
    failed: usize,
    retries: usize,
    failovers: usize,
    quarantined_cores: usize,
    repairs: usize,
    fenced_cores: usize,
    faults_injected: usize,
    faults_corrected: usize,
    faults_uncorrectable: usize,
    capacity_millicore_cycles: u64,
    fabric: FabricStats,
}

fn observe(cfg: ServeConfig) -> Pinned {
    let r = run_service(cfg).expect("serve run completes");
    Pinned {
        cycles: r.cycles,
        latencies: r.latencies,
        completed: r.completed,
        failed: r.failed,
        retries: r.retries,
        failovers: r.failovers,
        quarantined_cores: r.quarantined_cores,
        repairs: r.repairs,
        fenced_cores: r.fenced_cores,
        faults_injected: r.faults_injected,
        faults_corrected: r.faults_corrected,
        faults_uncorrectable: r.faults_uncorrectable,
        capacity_millicore_cycles: r.capacity_millicore_cycles,
        fabric: r.fabric,
    }
}

fn base(ncores: usize, core: CoreConfig, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::streaming(ncores, core, 24, seed);
    cfg.mix = default_mix(32);
    cfg.mean_interarrival = 512;
    cfg
}

/// Transient task upsets plus one sticky core under `protection`.
fn word_upsets(protection: ProtectionConfig) -> ServeConfig {
    let mut cfg = base(3, CoreConfig::virec(2, 16), 0x5EED_0001);
    cfg.faults = ServeFaultPlan::campaign(6, 1);
    cfg.protection = protection;
    cfg
}

fn stuck_cores() -> ServeConfig {
    let mut cfg = base(4, CoreConfig::virec(2, 16), 0x5EED_0002);
    cfg.faults = ServeFaultPlan::stuck(2);
    cfg.protection = ProtectionConfig::secded();
    cfg.ras = Some(RasConfig::default());
    cfg
}

fn mesh_link_wear() -> ServeConfig {
    let mut cfg = base(4, CoreConfig::banked(2), 0x5EED_0003);
    cfg.fabric.topology = FabricTopology::Mesh { cols: 2, rows: 2 };
    cfg.faults = ServeFaultPlan::links(9);
    cfg.ras = Some(RasConfig::default());
    cfg
}

fn crossbar_link_campaign() -> ServeConfig {
    let mut cfg = base(2, CoreConfig::banked(2), 0x5EED_0004);
    cfg.faults = ServeFaultPlan::links(6);
    cfg
}

/// Single-bit transients correct in place; the sticky core's double-bit bursts
/// are detected-uncorrectable and quarantine it.
#[test]
fn secded_word_upsets() {
    assert_eq!(
        observe(word_upsets(ProtectionConfig::secded())),
        Pinned {
            cycles: 12531,
            latencies: vec![
                975, 1031, 1185, 1207, 1212, 1232, 1234, 1260, 1311, 1590, 1592, 1598, 1615, 1620,
                1643, 1856, 1921, 1921, 1965, 1971, 2089, 2321, 2466
            ],
            completed: 23,
            failed: 1,
            retries: 1,
            failovers: 1,
            quarantined_cores: 1,
            repairs: 0,
            fenced_cores: 0,
            faults_injected: 8,
            faults_corrected: 5,
            faults_uncorrectable: 3,
            capacity_millicore_cycles: 28390000,
            fabric: FabricStats {
                reads: 346,
                writes: 0,
                row_hits: 90,
                row_conflicts: 244,
                row_empty: 12,
                queue_cycles: 7041,
                scrub_reads: 0,
                per_port: [
                    [4, 0],
                    [40, 0],
                    [11, 0],
                    [135, 0],
                    [10, 0],
                    [146, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0]
                ],
                noc_hops: 0,
                noc_crc_detected: 0,
                noc_retransmissions: 0,
                noc_links_retired: 0,
                noc_links_fenced: 0
            }
        }
    );
}

/// Parity detects the single-bit transients and misses the even-weight bursts,
/// which the golden check then fails.
#[test]
fn parity_word_upsets() {
    assert_eq!(
        observe(word_upsets(ProtectionConfig::parity())),
        Pinned {
            cycles: 13141,
            latencies: vec![
                947, 1127, 1146, 1193, 1209, 1230, 1234, 1290, 1398, 1458, 1580, 1682, 1953, 1954,
                2127, 2452, 2469, 2512, 2571, 2589, 2951, 3076, 3177
            ],
            completed: 23,
            failed: 1,
            retries: 7,
            failovers: 1,
            quarantined_cores: 1,
            repairs: 0,
            fenced_cores: 0,
            faults_injected: 9,
            faults_corrected: 0,
            faults_uncorrectable: 6,
            capacity_millicore_cycles: 32773000,
            fabric: FabricStats {
                reads: 403,
                writes: 0,
                row_hits: 85,
                row_conflicts: 306,
                row_empty: 12,
                queue_cycles: 8460,
                scrub_reads: 0,
                per_port: [
                    [5, 0],
                    [68, 0],
                    [11, 0],
                    [151, 0],
                    [15, 0],
                    [153, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0]
                ],
                noc_hops: 0,
                noc_crc_detected: 0,
                noc_retransmissions: 0,
                noc_links_retired: 0,
                noc_links_fenced: 0
            }
        }
    );
}

/// Every upset lands; the golden check fails each corrupted attempt.
#[test]
fn unprotected_word_upsets() {
    assert_eq!(
        observe(word_upsets(ProtectionConfig::none())),
        Pinned {
            cycles: 15499,
            latencies: vec![
                975, 1316, 2532, 2582, 2666, 2667, 2697, 2763, 3207, 3663, 3669, 3692, 3708, 4000,
                4205, 4236, 4345, 4351, 4469, 4591, 4673, 4971, 5643
            ],
            completed: 23,
            failed: 1,
            retries: 7,
            failovers: 1,
            quarantined_cores: 1,
            repairs: 0,
            fenced_cores: 0,
            faults_injected: 9,
            faults_corrected: 0,
            faults_uncorrectable: 0,
            capacity_millicore_cycles: 37822000,
            fabric: FabricStats {
                reads: 471,
                writes: 0,
                row_hits: 105,
                row_conflicts: 354,
                row_empty: 12,
                queue_cycles: 9757,
                scrub_reads: 0,
                per_port: [
                    [5, 0],
                    [81, 0],
                    [14, 0],
                    [189, 0],
                    [13, 0],
                    [169, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0]
                ],
                noc_hops: 0,
                noc_crc_detected: 0,
                noc_retransmissions: 0,
                noc_links_retired: 0,
                noc_links_fenced: 0
            }
        }
    );
}

/// Two stuck-at cores repaired from the spare pool.
#[test]
fn stuck_cores_under_ras() {
    assert_eq!(
        observe(stuck_cores()),
        Pinned {
            cycles: 14188,
            latencies: vec![
                865, 955, 955, 1290, 1356, 1409, 1479, 1718, 1816, 1818, 1913, 2304, 2318, 2332,
                2348, 2475, 2476, 2536, 2634, 2760, 2776, 2882, 2977, 3264
            ],
            completed: 24,
            failed: 0,
            retries: 0,
            failovers: 2,
            quarantined_cores: 0,
            repairs: 2,
            fenced_cores: 0,
            faults_injected: 2,
            faults_corrected: 0,
            faults_uncorrectable: 2,
            capacity_millicore_cycles: 34085000,
            fabric: FabricStats {
                reads: 394,
                writes: 0,
                row_hits: 117,
                row_conflicts: 265,
                row_empty: 12,
                queue_cycles: 7872,
                scrub_reads: 0,
                per_port: [
                    [11, 0],
                    [163, 0],
                    [1, 0],
                    [20, 0],
                    [11, 0],
                    [166, 0],
                    [2, 0],
                    [20, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0]
                ],
                noc_hops: 0,
                noc_crc_detected: 0,
                noc_retransmissions: 0,
                noc_links_retired: 0,
                noc_links_fenced: 0
            }
        }
    );
}

/// Nine link upsets on a 2x2 mesh: CRC retransmission and predictive link
/// retirement.
#[test]
fn mesh_link_wear_under_ras() {
    assert_eq!(
        observe(mesh_link_wear()),
        Pinned {
            cycles: 12697,
            latencies: vec![
                611, 647, 649, 662, 724, 745, 745, 762, 765, 772, 779, 820, 859, 867, 882, 892,
                906, 912, 921, 969, 1003, 1030, 1164, 1197
            ],
            completed: 24,
            failed: 0,
            retries: 0,
            failovers: 0,
            quarantined_cores: 0,
            repairs: 0,
            fenced_cores: 0,
            faults_injected: 6,
            faults_corrected: 0,
            faults_uncorrectable: 0,
            capacity_millicore_cycles: 41950000,
            fabric: FabricStats {
                reads: 453,
                writes: 0,
                row_hits: 89,
                row_conflicts: 352,
                row_empty: 12,
                queue_cycles: 7983,
                scrub_reads: 0,
                per_port: [
                    [6, 0],
                    [110, 0],
                    [6, 0],
                    [113, 0],
                    [6, 0],
                    [101, 0],
                    [6, 0],
                    [105, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0]
                ],
                noc_hops: 1518,
                noc_crc_detected: 1,
                noc_retransmissions: 1,
                noc_links_retired: 2,
                noc_links_fenced: 0
            }
        }
    );
}

/// A link campaign on the crossbar finds no links and stays inert.
#[test]
fn crossbar_link_campaign_is_inert() {
    assert_eq!(
        observe(crossbar_link_campaign()),
        Pinned {
            cycles: 12887,
            latencies: vec![
                711, 719, 761, 778, 781, 791, 817, 960, 1005, 1008, 1032, 1150, 1222, 1340, 1377,
                1403, 1436, 1474, 1514, 1530, 1541, 1619, 1619, 1768
            ],
            completed: 24,
            failed: 0,
            retries: 0,
            failovers: 0,
            quarantined_cores: 0,
            repairs: 0,
            fenced_cores: 0,
            faults_injected: 0,
            faults_corrected: 0,
            faults_uncorrectable: 0,
            capacity_millicore_cycles: 25774000,
            fabric: FabricStats {
                reads: 456,
                writes: 0,
                row_hits: 97,
                row_conflicts: 347,
                row_empty: 12,
                queue_cycles: 9356,
                scrub_reads: 0,
                per_port: [
                    [12, 0],
                    [220, 0],
                    [12, 0],
                    [212, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0],
                    [0, 0]
                ],
                noc_hops: 0,
                noc_crc_detected: 0,
                noc_retransmissions: 0,
                noc_links_retired: 0,
                noc_links_fenced: 0
            }
        }
    );
}
