//! Correctness checks run on every operation, and the digest of its
//! virtual outcome.

use crate::workload::{Op, Workload};
use ncsw_serve::ServeOutcome;

/// Seed whose full-size digests are pinned in [`PINNED`].
pub const DEFAULT_SEED: u64 = 2012;

/// Seed kept out of development: a later performance claim is confirmed
/// on it, since nothing was tuned against it.
pub const HELD_OUT_SEED: u64 = 20_180_521;

/// Virtual-outcome digest of each workload's full-size operation at
/// [`DEFAULT_SEED`]. A speed-up must leave every one unchanged.
pub const PINNED: [(Workload, u64); 4] = [
    (Workload::MixedSteady, 0x69eb_b1dd_9469_e83d),
    (Workload::HostCostaware, 0x55f9_54a8_a464_93c2),
    (Workload::HostTraced, 0xb15c_d398_3f3a_b464),
    (Workload::ElasticChaos, 0x21c9_6fad_4074_4dfc),
];

pub fn pinned(w: Workload) -> u64 {
    PINNED.iter().find(|(p, _)| *p == w).map(|(_, d)| *d).expect("every workload is pinned")
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of the virtual outcome: every completed record, every shed
/// record and the fleet energy in picojoules.
pub fn digest(o: &ServeOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(o.completed.len() as u64);
    for r in &o.completed {
        for v in [
            r.id,
            r.arrival.nanos(),
            r.dispatched.nanos(),
            r.service_start.nanos(),
            r.completed.nanos(),
            r.worker as u64,
            r.batch as u64,
            u64::from(r.attempts),
        ] {
            h.word(v);
        }
    }
    h.word(o.shed.len() as u64);
    for s in &o.shed {
        h.word(s.id);
        h.word(s.arrival.nanos());
        h.word(s.shed_at.nanos());
        h.word(s.cause as u64);
    }
    h.word(fleet_pj(o));
    h.0
}

pub fn fleet_pj(o: &ServeOutcome) -> u64 {
    o.energy.totals(o.energy_horizon()).fleet_pj()
}

/// Nearest-rank `q` quantile of sorted values (0 when empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact nearest-rank p99 of completed end-to-end latency, in ms.
pub fn p99_ms(o: &ServeOutcome) -> f64 {
    let mut ns: Vec<u64> = o.completed.iter().map(|r| r.latency().nanos()).collect();
    ns.sort_unstable();
    nearest_rank(&ns, 0.99) as f64 / 1e6
}

/// Every check of one operation; returns the violations found.
pub fn check(w: Workload, op: &Op) -> Vec<String> {
    let mut v = Vec::new();
    let o = &op.outcome;
    let n = op.n;

    // Conservation with exactly-once request ids.
    if o.generated != n || o.completed.len() + o.shed.len() != n {
        v.push(format!(
            "conservation: {} completed + {} shed of {} generated, {n} requested",
            o.completed.len(),
            o.shed.len(),
            o.generated
        ));
    }
    let mut seen = vec![false; n];
    for id in o.completed.iter().map(|r| r.id).chain(o.shed.iter().map(|s| s.id)) {
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            Some(_) => v.push(format!("exactly-once: request {id} delivered twice")),
            None => v.push(format!("exactly-once: unknown request id {id}")),
        }
    }

    // Latency segments telescope in integer nanoseconds.
    if let Some(r) = o
        .completed
        .iter()
        .find(|r| r.formation_wait() + r.queue_wait() + r.service_time() != r.latency())
    {
        v.push(format!("telescoping: request {} segments do not sum to its latency", r.id));
    }

    // Integer energy conservation on the ledger.
    let horizon = o.energy_horizon();
    let sum: u64 = (0..o.workers.len()).map(|i| o.energy.worker_pj(i, horizon)).sum();
    if fleet_pj(o) != sum {
        v.push(format!("energy: fleet {} pJ != per-worker sum {sum} pJ", fleet_pj(o)));
    }

    if let Some(a) = &op.analyzed {
        if let Some(e) = &a.parse_error {
            v.push(format!("parse: exported trace does not parse back: {e}"));
        } else if a.inexact > 0 || a.breakdowns != o.completed.len() {
            v.push(format!(
                "attribution: {} of {} breakdowns inexact, {} completed",
                a.inexact,
                a.breakdowns,
                o.completed.len()
            ));
        }
    }

    if w == Workload::ElasticChaos && (o.gray.corrupt_surfaced > 0 || o.gray.drops_surfaced > 0) {
        v.push(format!(
            "integrity: {} corrupt and {} dropped results surfaced",
            o.gray.corrupt_surfaced, o.gray.drops_surfaced
        ));
    }
    v
}
