//! The system crossbar and DRAM timing model.
//!
//! Near-memory processors in the paper attach to the system crossbar next to
//! the memory controller (configuration from \[8, 11\] in the paper). The
//! [`Fabric`] models both pieces: a crossbar with a fixed hop latency and a
//! bounded per-cycle accept rate, and a DDR5-like DRAM with per-bank
//! row-buffer state, bank busy times, and channel data-bus occupancy.
//!
//! The model is timing-only: functional data lives in the flat memory owned
//! by the system. Requests are identified by opaque tokens; once bank
//! scheduling decides a response's cycle, the fabric files it under the
//! requester's port, and the requester collects it with
//! [`Fabric::take_done`] on the cycle [`Fabric::due`] names.

use crate::noc::{FabricTopology, LinkHealth, LinkRetireOutcome, Noc};
use crate::remap::{RemapTable, RetireOutcome};
use std::collections::VecDeque;

/// Identifies the requester port (one per cache that talks to the fabric).
pub type PortId = usize;

/// Ports tracked individually in [`FabricStats::per_port`]; higher port ids
/// alias modulo this (32 cores' worth of cache ports before aliasing).
pub const MAX_STAT_PORTS: usize = 16;

/// Opaque identifier of an in-flight fabric request.
pub type ReqToken = u64;

/// DRAM timing and geometry parameters (all times in core cycles at 1 GHz).
///
/// Defaults approximate the paper's DDR5_6400, 1 rank, 2 channels,
/// tRP-tCL-tRCD = 14-14-14 (Table 1) as seen from a 1 GHz near-memory core.
#[derive(Clone, Copy, Debug)]
pub struct DramConfig {
    /// Number of channels (power of two).
    pub channels: usize,
    /// Banks per channel (power of two).
    pub banks_per_channel: usize,
    /// Consecutive cache lines mapped to one row (row-buffer size / 64).
    pub lines_per_row: u64,
    /// Precharge latency.
    pub t_rp: u32,
    /// Activate (row-to-column) latency.
    pub t_rcd: u32,
    /// Column access (CAS) latency.
    pub t_cl: u32,
    /// Data-burst time for one 64B line on the channel bus.
    pub t_burst: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 16,
            lines_per_row: 128, // 8 KiB row buffer
            t_rp: 14,
            t_rcd: 14,
            t_cl: 14,
            t_burst: 8,
        }
    }
}

impl DramConfig {
    /// Latency of a row-buffer hit (CAS + burst).
    pub fn row_hit_latency(&self) -> u32 {
        self.t_cl + self.t_burst
    }
}

/// Crossbar + DRAM configuration.
///
/// The default crossbar hop (18 cycles each way) yields an unloaded load
/// latency of roughly 80 cycles at 1 GHz — near-memory placement at the
/// memory-controller crossbar removes only 20–30% of the host's latency
/// (§1 of the paper, citing \[54\]), and the remainder must be hidden by
/// multithreading.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// One-way crossbar hop latency in cycles. Under a mesh topology this
    /// budget is amortised over the mesh diameter as the per-hop latency.
    pub xbar_latency: u32,
    /// Requests the crossbar accepts per cycle (shared across ports).
    pub xbar_accepts_per_cycle: usize,
    /// Interconnect topology (crossbar by default; see [`FabricTopology`]).
    pub topology: FabricTopology,
    /// DRAM parameters.
    pub dram: DramConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            xbar_latency: 18,
            xbar_accepts_per_cycle: 4,
            topology: FabricTopology::Crossbar,
            dram: DramConfig::default(),
        }
    }
}

/// Aggregate fabric statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Read-line requests serviced.
    pub reads: u64,
    /// Write-line requests serviced.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that conflicted with an open row (precharge + activate).
    pub row_conflicts: u64,
    /// Accesses to a bank with no open row (activate only).
    pub row_empty: u64,
    /// Total cycles requests spent queued before bank service.
    pub queue_cycles: u64,
    /// Patrol-scrub reads serviced (fire-and-forget RAS traffic; these
    /// occupy banks and bus slots like demand reads but deliver no data).
    pub scrub_reads: u64,
    /// Per-requester-port `[reads, writes]` submitted, indexed by
    /// `port % MAX_STAT_PORTS` (every topology, crossbar included).
    pub per_port: [[u64; 2]; MAX_STAT_PORTS],
    /// Mesh flits that completed a hop (link traversals).
    pub noc_hops: u64,
    /// Flits whose per-hop CRC check failed at the receiving router.
    pub noc_crc_detected: u64,
    /// Nacked flits retransmitted by their sending router.
    pub noc_retransmissions: u64,
    /// Links predictively retired and routed around.
    pub noc_links_retired: u64,
    /// Links fenced to half bandwidth (retirement would have disconnected
    /// a node from the memory controller).
    pub noc_links_fenced: u64,
}

impl FabricStats {
    /// Mean cycles a memory request queued before service — the
    /// "observed latency" increase of Figure 11 (0.0 with no requests).
    pub fn mean_queue_delay(&self) -> f64 {
        let reqs = self.reads + self.writes;
        if reqs == 0 {
            0.0
        } else {
            self.queue_cycles as f64 / reqs as f64
        }
    }

    /// The DRAM-side counters with their journal keys, in journal order.
    /// `per_port` is an array of its own, and the NoC counters are
    /// [`FabricStats::noc_counters_mut`].
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 7] {
        [
            ("reads", &mut self.reads),
            ("writes", &mut self.writes),
            ("row_hits", &mut self.row_hits),
            ("row_conflicts", &mut self.row_conflicts),
            ("row_empty", &mut self.row_empty),
            ("queue_cycles", &mut self.queue_cycles),
            ("scrub_reads", &mut self.scrub_reads),
        ]
    }

    /// The mesh NoC counters with their journal keys, in journal order
    /// (all zero on the crossbar).
    pub fn noc_counters_mut(&mut self) -> [(&'static str, &mut u64); 5] {
        [
            ("noc_hops", &mut self.noc_hops),
            ("noc_crc_detected", &mut self.noc_crc_detected),
            ("noc_retransmissions", &mut self.noc_retransmissions),
            ("noc_links_retired", &mut self.noc_links_retired),
            ("noc_links_fenced", &mut self.noc_links_fenced),
        ]
    }

    /// True when every counter is zero (nothing worth journaling).
    pub fn is_empty(&self) -> bool {
        *self == FabricStats::default()
    }
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    token: ReqToken,
    addr: u64,
    is_write: bool,
    /// Fire-and-forget patrol read: occupies the bank and bus but is
    /// never filed as a completion (nobody collects it).
    is_scrub: bool,
    /// Requester port (drives the mesh response route; `0` for scrubs).
    port: PortId,
    submitted: u64,
    /// Cycle the request reaches the memory controller.
    arrive_at: u64,
}

/// One requester port's scheduled but uncollected responses.
#[derive(Clone, Debug)]
struct PortDone {
    /// `(token, cycle the response is available)`, in scheduling order.
    entries: Vec<(ReqToken, u64)>,
    /// Earliest cycle in `entries` (`u64::MAX` when empty).
    due: u64,
    /// Tokens below this belong to a released requester: their responses
    /// are dropped instead of filed.
    floor: ReqToken,
}

impl PortDone {
    const EMPTY: PortDone = PortDone {
        entries: Vec::new(),
        due: u64::MAX,
        floor: 0,
    };
}

/// Scheduled responses by requester port: the fabric records each
/// response's cycle here when it schedules it, and the requester collects
/// it on that cycle.
#[derive(Clone, Debug, Default)]
struct Completions(Vec<PortDone>);

impl Completions {
    fn port_mut(&mut self, port: PortId) -> &mut PortDone {
        if self.0.len() <= port {
            self.0.resize(port + 1, PortDone::EMPTY);
        }
        &mut self.0[port]
    }

    fn file(&mut self, port: PortId, token: ReqToken, at: u64) {
        let d = self.port_mut(port);
        if token >= d.floor {
            d.due = d.due.min(at);
            d.entries.push((token, at));
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The crossbar + DRAM fabric shared by all near-memory cores.
#[derive(Clone)]
pub struct Fabric {
    cfg: FabricConfig,
    banks: Vec<Bank>,
    chan_bus_free: Vec<u64>,
    /// Submitted but not yet accepted by the crossbar.
    accept_queue: VecDeque<Pending>,
    /// Accepted, waiting for bank service.
    inflight: Vec<Pending>,
    /// Scheduled responses not yet collected.
    done: Completions,
    next_token: ReqToken,
    stats: FabricStats,
    /// RAS spare-row remap table consulted on every address mapping.
    remap: RemapTable,
    /// Mesh NoC state when the topology is [`FabricTopology::Mesh`];
    /// `None` for the crossbar (whose paths are untouched).
    noc: Option<Box<Noc>>,
}

impl Fabric {
    /// Creates a fabric.
    pub fn new(cfg: FabricConfig) -> Fabric {
        let nbanks = cfg.dram.channels * cfg.dram.banks_per_channel;
        let noc = match cfg.topology {
            FabricTopology::Crossbar => None,
            FabricTopology::Mesh { cols, rows } => {
                Some(Box::new(Noc::new(cols, rows, cfg.xbar_latency)))
            }
        };
        Fabric {
            cfg,
            banks: vec![Bank::default(); nbanks],
            chan_bus_free: vec![0; cfg.dram.channels],
            accept_queue: VecDeque::new(),
            inflight: Vec::new(),
            done: Completions::default(),
            next_token: 0,
            stats: FabricStats::default(),
            remap: RemapTable::default(),
            noc,
        }
    }

    /// Provisions `n` spare DRAM rows for RAS retirement. Replaces the
    /// remap table; call once at machine construction, before any
    /// retirement.
    pub fn provision_spare_rows(&mut self, n: u32) {
        self.remap = RemapTable::new(n);
    }

    /// The RAS remap table (retired-row count, spares left).
    pub fn remap(&self) -> &RemapTable {
        &self.remap
    }

    /// Packed `(channel, bank, row)` region key of `addr` under the *raw*
    /// (pre-remap) mapping — the key the CE tracker and the remap table
    /// index by.
    pub fn row_key(&self, addr: u64) -> u64 {
        let (chan, bank, row) = self.map_addr_raw(addr);
        RemapTable::pack(chan, bank, row)
    }

    /// Retires the DRAM row behind `addr`: remaps it onto a spare row if
    /// one is left, otherwise fences it onto the shared remnant row.
    /// Idempotent per row.
    pub fn retire_row(&mut self, addr: u64) -> RetireOutcome {
        let key = self.row_key(addr);
        self.remap.retire(key)
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Best-case (unloaded, row-hit) read latency through the fabric.
    pub fn unloaded_read_latency(&self) -> u32 {
        2 * self.cfg.xbar_latency + self.cfg.dram.row_hit_latency()
    }

    /// The interconnect topology this fabric was built with.
    pub fn topology(&self) -> FabricTopology {
        self.cfg.topology
    }

    /// Latched NoC watchdog fault (flit age cap exceeded or retransmission
    /// budget exhausted), if any. Always `None` on the crossbar.
    pub fn noc_fault(&self) -> Option<&str> {
        self.noc.as_deref().and_then(|n| n.fault())
    }

    /// Injects one transit upset onto the mesh link selected by `index`
    /// (modulo the link population): the next flit crossing it is
    /// corrupted and must be caught by the receiver's CRC. Returns the
    /// concrete link id, or `None` when there is no mesh or the selected
    /// link is already retired/fenced (nothing left to corrupt).
    pub fn inject_link_fault(&mut self, index: u64) -> Option<usize> {
        self.noc.as_deref_mut()?.inject_link_fault(index)
    }

    /// Retires a mesh link (adaptive route-around), falling back to
    /// fencing it at half bandwidth when retirement would disconnect a
    /// node from the memory controller. Idempotent; `None` on the
    /// crossbar.
    pub fn retire_link(&mut self, link: usize) -> Option<LinkRetireOutcome> {
        let noc = self.noc.as_deref_mut()?;
        Some(noc.retire_link(link, &mut self.stats))
    }

    /// Health counts of the mesh link population (`None` on the crossbar).
    pub fn link_health(&self) -> Option<LinkHealth> {
        self.noc.as_deref().map(|n| n.link_health())
    }

    /// Flits currently inside the mesh (`None` on the crossbar).
    pub fn noc_in_network(&self) -> Option<usize> {
        self.noc.as_deref().map(|n| n.in_network())
    }

    /// Total mesh buffer credits currently held; drains to zero with the
    /// network (`None` on the crossbar).
    pub fn noc_credits_held(&self) -> Option<u32> {
        self.noc.as_deref().map(|n| n.credits_held())
    }

    /// Submits a 64B line request. Returns the token its response is
    /// filed under at `port` (see [`Fabric::take_done`]). Under a mesh
    /// topology the request is injected at `port`'s mesh node and routed
    /// hop by hop to the memory controller; the crossbar enqueues it for
    /// fixed-latency acceptance.
    pub fn submit(&mut self, now: u64, port: PortId, addr: u64, is_write: bool) -> ReqToken {
        let token = self.next_token;
        self.next_token += 1;
        self.stats.per_port[port % MAX_STAT_PORTS][is_write as usize] += 1;
        if let Some(noc) = self.noc.as_deref_mut() {
            noc.inject_request(now, port, token, addr, is_write, &mut self.stats);
            return token;
        }
        self.accept_queue.push_back(Pending {
            token,
            addr,
            is_write,
            is_scrub: false,
            port,
            submitted: now,
            arrive_at: 0,
        });
        token
    }

    /// Submits a fire-and-forget patrol-scrub read of the line at `addr`.
    /// The read takes a real trip through the crossbar and occupies its
    /// bank like any demand read — scrub bandwidth contends with demand
    /// traffic — but completes silently (nothing to collect, counted in
    /// [`FabricStats::scrub_reads`]).
    pub fn submit_scrub(&mut self, now: u64, addr: u64) {
        let token = self.next_token;
        self.next_token += 1;
        self.accept_queue.push_back(Pending {
            token,
            addr,
            is_write: false,
            is_scrub: true,
            port: 0,
            submitted: now,
            arrive_at: 0,
        });
    }

    /// Earliest cycle at which one of `port`'s scheduled responses is
    /// available, or `u64::MAX` when none is scheduled. Requests still
    /// queued or in flight have no cycle yet and do not count: bank
    /// scheduling (a [`Fabric::tick`]) decides it, so a requester that
    /// finds nothing due at `now` has nothing to collect this cycle.
    pub fn due(&self, port: PortId) -> u64 {
        self.done.0.get(port).map_or(u64::MAX, |d| d.due)
    }

    /// Whether `token`'s response is filed, available at cycle `now` and
    /// not yet collected. A check over every port's table, for tests and
    /// debug assertions; requesters gate on [`Fabric::due`] and collect
    /// with [`Fabric::take_done`].
    pub fn is_done(&self, token: ReqToken, now: u64) -> bool {
        self.done
            .0
            .iter()
            .flat_map(|d| &d.entries)
            .any(|&(t, at)| t == token && at <= now)
    }

    /// Collects every response of `port` available at cycle `now`:
    /// appends its token to `out` and forgets it.
    pub fn take_done(&mut self, port: PortId, now: u64, out: &mut Vec<ReqToken>) {
        let Some(d) = self.done.0.get_mut(port).filter(|d| d.due <= now) else {
            return;
        };
        let mut due = u64::MAX;
        d.entries.retain(|&(token, at)| {
            if at <= now {
                out.push(token);
                return false;
            }
            due = due.min(at);
            true
        });
        d.due = due;
    }

    /// Forgets `port`'s requester: drops its uncollected responses, and
    /// the responses of its requests still in flight when they are
    /// scheduled. A later requester on the same port starts with nothing
    /// due. Timing is untouched: the dropped requests still occupy their
    /// banks and links.
    pub fn release_port(&mut self, port: PortId) {
        *self.done.port_mut(port) = PortDone {
            floor: self.next_token,
            ..PortDone::EMPTY
        };
    }

    /// Scheduled responses not yet collected, over every port.
    pub fn uncollected(&self) -> usize {
        self.done.0.iter().map(|d| d.entries.len()).sum()
    }

    /// Earliest future cycle at which [`Fabric::tick`] could do anything,
    /// assuming no new submissions arrive. Call after `tick(now)`. `None`
    /// means the fabric is quiescent (no queued or in-flight requests);
    /// filed but uncollected responses need no further fabric ticks (their
    /// requesters wake on [`Fabric::due`]).
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let noc_next = self.noc.as_deref().and_then(|n| n.next_event(now));
        if !self.accept_queue.is_empty() {
            // Crossbar acceptance happens every tick while the queue is
            // non-empty.
            return Some(now + 1);
        }
        // An in-flight request is serviceable once it has arrived at the
        // controller and its bank is free. Bank busy times only shrink via
        // other services, which themselves require a tick at or after this
        // minimum, so the min over requests is a safe wakeup.
        let bank_next = self
            .inflight
            .iter()
            .map(|p| {
                let (chan, bank_idx, _) = self.map_addr(p.addr);
                let bidx = chan * self.cfg.dram.banks_per_channel + bank_idx;
                p.arrive_at.max(self.banks[bidx].busy_until).max(now + 1)
            })
            .min();
        match (noc_next, bank_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of requests somewhere in the fabric (excluding completed).
    pub fn outstanding(&self) -> usize {
        self.accept_queue.len() + self.inflight.len()
    }

    /// Fault-injection hook: line address of one in-flight request (`nth`
    /// wraps modulo the number outstanding), or `None` when the fabric is
    /// idle. The fabric carries timing only — campaigns model a corrupted
    /// response by flipping a bit of the functional line this request will
    /// deliver.
    pub fn inflight_addr(&self, nth: usize) -> Option<u64> {
        let total = self.accept_queue.len() + self.inflight.len();
        if total == 0 {
            return None;
        }
        let k = nth % total;
        if k < self.accept_queue.len() {
            Some(self.accept_queue[k].addr)
        } else {
            Some(self.inflight[k - self.accept_queue.len()].addr)
        }
    }

    fn map_addr_raw(&self, addr: u64) -> (usize, usize, u64) {
        let d = &self.cfg.dram;
        let line = addr >> 6;
        let chan = (line as usize) & (d.channels - 1);
        let bank = ((line as usize) >> d.channels.trailing_zeros()) & (d.banks_per_channel - 1);
        let row = line / (d.channels as u64 * d.banks_per_channel as u64) / d.lines_per_row;
        (chan, bank, row)
    }

    /// Raw mapping plus the RAS remap indirection: a retired row's
    /// accesses land on its spare (or the fence row) instead.
    fn map_addr(&self, addr: u64) -> (usize, usize, u64) {
        let (chan, bank, row) = self.map_addr_raw(addr);
        if self.remap.is_empty() {
            return (chan, bank, row);
        }
        match self.remap.resolve(RemapTable::pack(chan, bank, row)) {
            Some(replacement) => (chan, bank, replacement),
            None => (chan, bank, row),
        }
    }

    /// Advances the fabric by one cycle: moves mesh flits (if any),
    /// accepts crossbar requests, and schedules bank accesses. Call once
    /// per core cycle with the current cycle number (monotonically
    /// non-decreasing).
    pub fn tick(&mut self, now: u64) {
        if let Some(noc) = self.noc.as_deref_mut() {
            noc.tick(now, &mut self.stats);
            // Request flits delivered at the memory controller enter bank
            // scheduling this cycle; response flits delivered at their
            // source node complete their token.
            for d in noc.delivered_req.drain(..) {
                self.inflight.push(Pending {
                    token: d.token,
                    addr: d.addr,
                    is_write: d.is_write,
                    is_scrub: false,
                    port: d.port,
                    submitted: d.submitted,
                    arrive_at: now,
                });
            }
            for (token, port, at) in noc.delivered_resp.drain(..) {
                self.done.file(port, token, at);
            }
        }

        // Crossbar acceptance: bounded number of requests per cycle. Under
        // a mesh only patrol scrubs flow here (the MC-local patrol engine).
        for _ in 0..self.cfg.xbar_accepts_per_cycle {
            let Some(mut p) = self.accept_queue.pop_front() else {
                break;
            };
            p.arrive_at = now + self.cfg.xbar_latency as u64;
            self.inflight.push(p);
        }

        // Bank scheduling, FR-FCFS-lite: row hits first, then FCFS.
        self.schedule_pass(now, true);
        self.schedule_pass(now, false);
    }

    fn schedule_pass(&mut self, now: u64, row_hits_only: bool) {
        let mut i = 0;
        while i < self.inflight.len() {
            let p = self.inflight[i];
            if p.arrive_at > now {
                i += 1;
                continue;
            }
            let (chan, bank_idx, row) = self.map_addr(p.addr);
            let bidx = chan * self.cfg.dram.banks_per_channel + bank_idx;
            let bank = self.banks[bidx];
            if bank.busy_until > now {
                i += 1;
                continue;
            }
            let is_row_hit = bank.open_row == Some(row);
            if row_hits_only && !is_row_hit {
                i += 1;
                continue;
            }
            let d = &self.cfg.dram;
            let access = if is_row_hit {
                self.stats.row_hits += 1;
                d.t_cl
            } else if bank.open_row.is_some() {
                self.stats.row_conflicts += 1;
                d.t_rp + d.t_rcd + d.t_cl
            } else {
                self.stats.row_empty += 1;
                d.t_rcd + d.t_cl
            };
            // Data burst serializes on the channel bus.
            let data_start = (now + access as u64).max(self.chan_bus_free[chan]);
            let data_end = data_start + d.t_burst as u64;
            self.chan_bus_free[chan] = data_end;
            self.banks[bidx] = Bank {
                open_row: Some(row),
                busy_until: data_end,
            };
            if p.is_scrub {
                // Patrol traffic: occupies the bank and bus (already
                // charged above) but is fire-and-forget — no done entry,
                // and demand-queueing metrics stay demand-only.
                self.stats.scrub_reads += 1;
            } else {
                self.stats.queue_cycles += now.saturating_sub(p.submitted);
                if p.is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                if let Some(noc) = self.noc.as_deref_mut() {
                    // Mesh: the data burst rides a response flit back to
                    // the requester's node instead of a fixed return hop.
                    noc.schedule_response(data_end, p.token, p.addr, p.port);
                } else {
                    let at = data_end + self.cfg.xbar_latency as u64;
                    self.done.file(p.port, p.token, at);
                }
            }
            self.inflight.swap_remove(i);
            // Do not advance i: swap_remove moved a new element here.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_from_until_done(f: &mut Fabric, start: u64, token: ReqToken, limit: u64) -> u64 {
        for now in start..start + limit {
            f.tick(now);
            if f.is_done(token, now) {
                return now;
            }
        }
        panic!("request did not complete within {limit} cycles");
    }

    fn run_until_done(f: &mut Fabric, token: ReqToken, limit: u64) -> u64 {
        run_from_until_done(f, 0, token, limit)
    }

    #[test]
    fn single_read_latency_bounds() {
        let mut f = Fabric::new(FabricConfig::default());
        let t = f.submit(0, 0, 0x1000, false);
        let done = run_until_done(&mut f, t, 1000);
        let cfg = FabricConfig::default();
        // Cold bank: activate + CAS + burst + 2 crossbar hops.
        let expect =
            (cfg.dram.t_rcd + cfg.dram.t_cl + cfg.dram.t_burst + 2 * cfg.xbar_latency) as u64;
        assert!(
            done >= expect && done <= expect + 2,
            "done={done} expect≈{expect}"
        );
        assert_eq!(f.due(0), done);
        let mut got = Vec::new();
        f.take_done(0, done, &mut got);
        assert_eq!(got, [t]);
        assert!(!f.is_done(t, done + 1));
        assert_eq!(f.due(0), u64::MAX);
    }

    #[test]
    fn row_hit_faster_than_conflict() {
        let mut f = Fabric::new(FabricConfig::default());
        // Same bank & row (stride = channels * banks lines): row hit.
        let d0 = f.config().dram;
        let same_row_stride = 64 * d0.channels as u64 * d0.banks_per_channel as u64;
        let t1 = f.submit(0, 0, 0x1000, false);
        let e1 = run_until_done(&mut f, t1, 1000);
        let t2 = f.submit(e1, 0, 0x1000 + same_row_stride, false);
        let e2 = run_from_until_done(&mut f, e1, t2, 10_000) - e1;
        // Different row, same bank: conflict.
        let d = f.config().dram;
        let stride = d.channels as u64 * d.banks_per_channel as u64 * d.lines_per_row * 64;
        let t3 = f.submit(e1 + e2, 0, 0x1000 + stride, false);
        let e3 = run_from_until_done(&mut f, e1 + e2, t3, 100_000) - (e1 + e2);
        assert!(e2 < e3, "row hit {e2} must beat conflict {e3}");
        assert!(f.stats().row_hits >= 1);
        assert!(f.stats().row_conflicts >= 1);
    }

    #[test]
    fn bank_parallelism_beats_serialization() {
        // Two requests to different banks should overlap; to the same bank
        // they serialize.
        let cfg = FabricConfig::default();
        let mut f = Fabric::new(cfg);
        let d = cfg.dram;
        let bank_stride = 64 * d.channels as u64; // next bank, same channel
        let a = f.submit(0, 0, 0x0, false);
        let b = f.submit(0, 0, bank_stride, false);
        let done_a = run_until_done(&mut f, a, 10_000);
        let done_b = run_until_done(&mut f, b, 10_000);
        let parallel_span = done_a.max(done_b);

        let mut f2 = Fabric::new(cfg);
        let row_stride = d.channels as u64 * d.banks_per_channel as u64 * d.lines_per_row * 64;
        let c = f2.submit(0, 0, 0x0, false);
        let e = f2.submit(0, 0, row_stride, false); // same bank, different row
        let done_c = run_until_done(&mut f2, c, 10_000);
        let done_e = run_until_done(&mut f2, e, 10_000);
        let serial_span = done_c.max(done_e);
        assert!(
            parallel_span < serial_span,
            "bank-parallel {parallel_span} vs serialized {serial_span}"
        );
    }

    #[test]
    fn accept_rate_limits_throughput() {
        let slow = FabricConfig {
            xbar_accepts_per_cycle: 1,
            ..FabricConfig::default()
        };
        let fast = FabricConfig {
            xbar_accepts_per_cycle: 16,
            ..FabricConfig::default()
        };

        let run = |cfg: FabricConfig| -> u64 {
            let mut f = Fabric::new(cfg);
            let tokens: Vec<_> = (0..32).map(|i| f.submit(0, 0, i * 64, false)).collect();
            let mut now = 0;
            loop {
                f.tick(now);
                if tokens.iter().all(|&t| f.is_done(t, now)) {
                    return now;
                }
                now += 1;
                assert!(now < 100_000);
            }
        };
        assert!(run(fast) <= run(slow));
    }

    #[test]
    fn writes_complete_and_count() {
        let mut f = Fabric::new(FabricConfig::default());
        let t = f.submit(0, 1, 0x2000, true);
        run_until_done(&mut f, t, 1000);
        assert_eq!(f.stats().writes, 1);
        assert_eq!(f.stats().reads, 0);
    }

    #[test]
    fn outstanding_drains() {
        let mut f = Fabric::new(FabricConfig::default());
        let t = f.submit(0, 0, 0, false);
        assert_eq!(f.outstanding(), 1);
        let done = run_until_done(&mut f, t, 1000);
        assert_eq!(f.outstanding(), 0);
        assert_eq!(f.uncollected(), 1);
        f.take_done(0, done, &mut Vec::new());
        assert_eq!(f.uncollected(), 0);
    }

    #[test]
    fn responses_are_filed_by_port_and_collected_when_due() {
        let mut f = Fabric::new(FabricConfig::default());
        let a = f.submit(0, 1, 0x1000, false);
        let b = f.submit(0, 3, 0x2000, false);
        assert_eq!(
            (f.due(1), f.due(3), f.due(7)),
            (u64::MAX, u64::MAX, u64::MAX)
        );
        let done_a = run_until_done(&mut f, a, 10_000);
        let done_b = run_until_done(&mut f, b, 10_000);
        assert_eq!((f.due(1), f.due(3)), (done_a, done_b));
        // Nothing of port 3 is taken before it is due, or by port 1.
        let mut got = Vec::new();
        f.take_done(3, done_b - 1, &mut got);
        f.take_done(1, done_b + 10, &mut got);
        assert_eq!(got, [a]);
        f.take_done(3, done_b, &mut got);
        assert_eq!(got, [a, b]);
        assert_eq!(f.uncollected(), 0);
    }

    /// Ticks `f` from `now` until nothing is queued or in flight.
    fn drain(f: &mut Fabric, mut now: u64) -> u64 {
        while f.outstanding() > 0 {
            f.tick(now);
            now += 1;
            assert!(now < 100_000, "fabric never drained");
        }
        now
    }

    #[test]
    fn released_port_drops_its_responses() {
        let mut f = Fabric::new(FabricConfig::default());
        // Released with one response filed and one still in flight.
        let filed = f.submit(0, 2, 0x1000, false);
        let done = run_until_done(&mut f, filed, 10_000);
        let in_flight = f.submit(done, 2, 0x2000, false);
        f.release_port(2);
        assert_eq!((f.due(2), f.uncollected()), (u64::MAX, 0));
        // The released request still runs (and counts) but files nothing;
        // a request made after the release files as usual.
        let fresh = f.submit(done, 2, 0x3000, false);
        let end = drain(&mut f, done);
        assert!(!f.is_done(in_flight, u64::MAX));
        assert!(f.is_done(fresh, u64::MAX));
        assert_eq!((f.stats().reads, f.uncollected()), (3, 1));
        // Released before anything of it was filed.
        let early = f.submit(end, 5, 0x4000, false);
        f.release_port(5);
        drain(&mut f, end);
        assert!(!f.is_done(early, u64::MAX));
        assert_eq!((f.due(5), f.uncollected()), (u64::MAX, 1));
    }

    #[test]
    fn scrub_reads_count_and_contend() {
        let cfg = FabricConfig::default();
        let mut f = Fabric::new(cfg);
        // Patrol the same bank the demand read needs: the demand read must
        // wait behind the scrub's bank occupancy.
        f.submit_scrub(0, 0x1000);
        let t = f.submit(0, 0, 0x1000, false);
        let done = run_until_done(&mut f, t, 10_000);
        assert_eq!(f.stats().scrub_reads, 1);
        assert_eq!(f.stats().reads, 1);
        assert!(
            done > f.unloaded_read_latency() as u64,
            "demand read at {done} should queue behind the scrub"
        );
        assert_eq!(f.outstanding(), 0, "scrubs drain without collection");
    }

    #[test]
    fn retired_row_still_serves_traffic() {
        let mut f = Fabric::new(FabricConfig::default());
        f.provision_spare_rows(2);
        let addr = 0x4000;
        let key = f.row_key(addr);
        assert!(matches!(
            f.retire_row(addr),
            crate::remap::RetireOutcome::Spared { spare: 0 }
        ));
        assert!(f.remap().is_retired(key));
        // Accesses to the retired row transparently land on the spare.
        let t = f.submit(0, 0, addr, false);
        run_until_done(&mut f, t, 10_000);
        assert_eq!(f.stats().reads, 1);
        // Retirement is idempotent: no second spare is consumed.
        f.retire_row(addr);
        assert_eq!(f.remap().spares_left(), 1);
    }

    #[test]
    fn fenced_rows_share_the_remnant_row() {
        let cfg = FabricConfig::default();
        let d = cfg.dram;
        let mut f = Fabric::new(cfg);
        f.provision_spare_rows(0);
        // Two different rows of the same bank, both fenced: their accesses
        // now collapse onto one remnant row and row-hit each other.
        let row_stride = d.channels as u64 * d.banks_per_channel as u64 * d.lines_per_row * 64;
        assert_eq!(f.retire_row(0), crate::remap::RetireOutcome::Fenced);
        assert_eq!(
            f.retire_row(row_stride),
            crate::remap::RetireOutcome::Fenced
        );
        let a = f.submit(0, 0, 0, false);
        let done_a = run_until_done(&mut f, a, 10_000);
        let b = f.submit(done_a, 0, row_stride, false);
        run_from_until_done(&mut f, done_a, b, 10_000);
        assert!(
            f.stats().row_hits >= 1,
            "fenced rows collapse onto one row buffer"
        );
    }

    fn mesh_cfg(cols: usize, rows: usize) -> FabricConfig {
        FabricConfig {
            topology: FabricTopology::Mesh { cols, rows },
            ..FabricConfig::default()
        }
    }

    #[test]
    fn per_port_counters_attribute_traffic() {
        let mut f = Fabric::new(FabricConfig::default());
        let a = f.submit(0, 2, 0x1000, false);
        let b = f.submit(0, 3, 0x2000, true);
        run_until_done(&mut f, a, 10_000);
        run_until_done(&mut f, b, 10_000);
        assert_eq!(f.stats().per_port[2], [1, 0]);
        assert_eq!(f.stats().per_port[3], [0, 1]);
        // High ports alias modulo MAX_STAT_PORTS.
        let c = f.submit(0, MAX_STAT_PORTS + 2, 0x3000, false);
        run_until_done(&mut f, c, 10_000);
        assert_eq!(f.stats().per_port[2], [2, 0]);
    }

    #[test]
    fn mesh_request_completes_and_counts_hops() {
        let mut f = Fabric::new(mesh_cfg(2, 2));
        let t = f.submit(0, 0, 0x1000, false);
        let done = run_until_done(&mut f, t, 10_000);
        let mut got = Vec::new();
        f.take_done(0, done, &mut got);
        assert_eq!(got, [t]);
        assert_eq!(f.stats().reads, 1);
        assert!(f.stats().noc_hops >= 4, "corner round trip is >= 4 hops");
        assert_eq!(f.outstanding(), 0);
        // Unloaded mesh latency stays in the same regime as the crossbar.
        let mut xbar = Fabric::new(FabricConfig::default());
        let tx = xbar.submit(0, 0, 0x1000, false);
        let done_x = run_until_done(&mut xbar, tx, 10_000);
        assert!(
            done < done_x * 3,
            "mesh {done} should not blow up vs crossbar {done_x}"
        );
    }

    #[test]
    fn mesh_link_fault_retransmits_and_retires() {
        let mut f = Fabric::new(mesh_cfg(2, 2));
        let link = f.inject_link_fault(0).expect("mesh has links");
        let t = f.submit(0, 0, 0x40, false);
        run_until_done(&mut f, t, 100_000);
        assert_eq!(f.stats().noc_crc_detected, 1);
        assert_eq!(f.stats().noc_retransmissions, 1);
        assert!(f.noc_fault().is_none());
        assert_eq!(f.retire_link(link), Some(LinkRetireOutcome::Rerouted));
        assert_eq!(f.stats().noc_links_retired, 1);
        let t2 = f.submit(200_000, 0, 0x80, false);
        let start = 200_000;
        let done = run_from_until_done(&mut f, start, t2, 100_000);
        assert!(done > start, "route-around still delivers");
        let h = f.link_health().unwrap();
        assert_eq!(h.retired, 1);
    }

    #[test]
    fn crossbar_has_no_noc_surface() {
        let mut f = Fabric::new(FabricConfig::default());
        assert_eq!(f.topology(), FabricTopology::Crossbar);
        assert!(f.inject_link_fault(0).is_none());
        assert!(f.retire_link(0).is_none());
        assert!(f.link_health().is_none());
        assert!(f.noc_fault().is_none());
    }

    #[test]
    fn mesh_scrubs_still_flow() {
        let mut f = Fabric::new(mesh_cfg(2, 2));
        f.submit_scrub(0, 0x1000);
        let mut now = 0;
        while f.stats().scrub_reads == 0 {
            f.tick(now);
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(f.outstanding(), 0);
    }

    #[test]
    fn queueing_under_load_increases_latency() {
        // A burst of same-bank requests: the last one waits far longer than
        // an unloaded request.
        let cfg = FabricConfig::default();
        let d = cfg.dram;
        let row_stride = d.channels as u64 * d.banks_per_channel as u64 * d.lines_per_row * 64;
        let mut f = Fabric::new(cfg);
        let tokens: Vec<_> = (0..8)
            .map(|i| f.submit(0, 0, i as u64 * row_stride, false))
            .collect();
        let mut now = 0;
        while !tokens.iter().all(|&t| f.is_done(t, now)) {
            f.tick(now);
            now += 1;
            assert!(now < 100_000);
        }
        assert!(
            now > f.unloaded_read_latency() as u64 * 4,
            "8 same-bank conflicts must serialize (took {now})"
        );
    }
}
