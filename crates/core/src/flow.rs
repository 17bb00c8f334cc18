//! Sharded per-worker flow state (ISSUE 10, ROADMAP item 5).
//!
//! NBA's RSS steering gives every worker exclusive ownership of a set of
//! flow buckets (`hash & 0x7f`, [`nba_io::rss::RSS_BUCKETS`] of them per
//! socket). A [`FlowTable`] exploits that exclusivity: one table *shard*
//! per worker, touched only from that worker's thread, so the hot path
//! takes no locks. Internally a shard is further split into one
//! open-addressing sub-table per RSS *bucket*, and — crucially — each
//! bucket keeps its **own** logical clock, advanced by the packets that
//! bucket receives (packet-count epochs, the same device-independent
//! trick as [`crate::audit::DecisionClock`]).
//!
//! Why per-bucket rather than per-shard clocks: the set of buckets a
//! worker owns depends on the worker count and on re-steering, but the
//! packet sequence *within* one bucket is a pure function of the traffic
//! — identical in the DES, in live(1), and in live(4). Keying every
//! decision that can diverge (idle expiry, NAT port allocation order,
//! capacity eviction order, the op journal) to the bucket clock makes
//! flow state differentially testable across runtimes and worker counts,
//! exactly like TX conformance.
//!
//! Shards publish their counters into a run-wide [`FlowRegistry`] living
//! in node-local storage, which also carries the explicit [`FlowOp`]
//! journal (insert/hit/evict/migrate) — integer-only records that
//! round-trip as JSONL and replay offline, mirroring
//! [`crate::supervise::SupervisorLog`].
//!
//! # Worker-death policy: invalidate
//!
//! When the supervisor declares a worker dead it calls
//! [`FlowRegistry::invalidate_shard`]: the dead shard's flows are
//! *invalidated*, not migrated — the replacement worker starts from an
//! empty shard, and survivors that receive re-steered packets rebuild
//! state on demand (those foreign-bucket inserts are journaled as
//! [`FlowOpKind::Migrate`]). Migration of live table memory was rejected
//! because the dead thread owns its shard exclusively — prying it loose
//! would put a lock or an epoch scheme on every hot-path access, which is
//! the cost the sharding exists to avoid. Every invalidated flow is
//! accounted (`evict_death`, `lost_flows`) so kill drills can attribute
//! the entire blast radius in the ledger.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{self, str_field, u64_field, Value};
use crate::nls::NodeLocalStorage;

/// Flow buckets per shard — one sub-table per RSS indirection bucket, so
/// bucket ownership moves (re-steering) never split a sub-table.
pub const FLOW_BUCKETS: usize = nba_io::rss::RSS_BUCKETS;

/// Maps a packet's flow id (its RSS hash, seeded into the `FLOW_ID`
/// annotation by the framework) to its bucket. Must agree with
/// [`nba_io::rss::RssTable::bucket_of`].
pub fn bucket_of(flow_id: u64) -> u16 {
    (flow_id as usize & (FLOW_BUCKETS - 1)) as u16
}

/// A connection key: the IPv4 5-tuple, with "don't care" fields zeroed
/// (NAT's endpoint-independent mapping zeroes the destination half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowKey {
    /// IP protocol number.
    pub proto: u8,
    /// Source address.
    pub src_ip: u32,
    /// Destination address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl FlowKey {
    /// A stable 64-bit digest of the key (FNV-1a over the packed tuple),
    /// used for probing and as the journal's key identity.
    pub fn digest(&self) -> u64 {
        let mut bytes = [0u8; 13];
        bytes[0] = self.proto;
        bytes[1..5].copy_from_slice(&self.src_ip.to_be_bytes());
        bytes[5..9].copy_from_slice(&self.dst_ip.to_be_bytes());
        bytes[9..11].copy_from_slice(&self.src_port.to_be_bytes());
        bytes[11..13].copy_from_slice(&self.dst_port.to_be_bytes());
        crate::capture::fnv1a(&bytes)
    }
}

/// Why an entry left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictReason {
    /// Idle longer than the TTL (in bucket epochs).
    Idle,
    /// An embryonic (e.g. half-open TCP) entry idled past the shorter
    /// embryonic TTL.
    Embryonic,
    /// The owner closed it explicitly (FIN/RST).
    Closed,
    /// The owning worker died; the supervisor invalidated the shard.
    Death,
}

impl EvictReason {
    /// Stable label, used in journal records and metric breakdowns.
    pub fn as_str(self) -> &'static str {
        match self {
            EvictReason::Idle => "idle",
            EvictReason::Embryonic => "embryonic",
            EvictReason::Closed => "closed",
            EvictReason::Death => "death",
        }
    }

    fn parse(s: &str) -> Result<EvictReason, String> {
        Ok(match s {
            "idle" => EvictReason::Idle,
            "embryonic" => EvictReason::Embryonic,
            "closed" => EvictReason::Closed,
            "death" => EvictReason::Death,
            other => return Err(format!("unknown evict reason {other:?}")),
        })
    }
}

/// Sizing and expiry knobs of one [`FlowTable`] shard.
#[derive(Debug, Clone, Copy)]
pub struct FlowTableConfig {
    /// Total slots across the shard (rounded up to a power of two per
    /// bucket). Zero is legal and means "table always full".
    pub capacity: u64,
    /// Idle expiry, in bucket epochs. An entry whose last hit is `>= ttl`
    /// epochs behind the bucket clock is expired. `u64::MAX` never
    /// expires.
    pub ttl_epochs: u64,
    /// Idle expiry for entries flagged embryonic; 0 means "same as
    /// `ttl_epochs`".
    pub embryonic_ttl_epochs: u64,
    /// Packets per bucket epoch: the logical-clock divisor. 0 freezes the
    /// clock (nothing ever expires).
    pub epoch_pkts: u64,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            capacity: 1 << 16,
            ttl_epochs: 8,
            embryonic_ttl_epochs: 0,
            epoch_pkts: 1024,
        }
    }
}

/// An entry the table expired or closed, handed back to the caller so
/// owners can release attached resources (NAT ports).
#[derive(Debug, Clone, Copy)]
pub struct Evicted {
    /// The evicted key.
    pub key: FlowKey,
    /// Its value at eviction.
    pub value: u64,
    /// Why.
    pub reason: EvictReason,
}

/// Insert failure: the bucket sub-table has no free or expirable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

const SLOT_EMPTY: u8 = 0;
const SLOT_LIVE: u8 = 1;

#[derive(Debug, Clone, Copy)]
struct Slot {
    state: u8,
    embryonic: bool,
    key: FlowKey,
    digest: u64,
    value: u64,
    last_hit: u64,
}

const EMPTY_SLOT: Slot = Slot {
    state: SLOT_EMPTY,
    embryonic: false,
    key: FlowKey {
        proto: 0,
        src_ip: 0,
        dst_ip: 0,
        src_port: 0,
        dst_port: 0,
    },
    digest: 0,
    value: 0,
    last_hit: 0,
};

/// One bucket's open-addressing sub-table plus its logical clock. The
/// slot array is allocated lazily on the first insert, so building a
/// table sized for millions of flows (or an adversarially fuzzed size)
/// costs nothing until traffic actually lands in the bucket.
#[derive(Debug, Default)]
struct Bucket {
    slots: Box<[Slot]>,
    mask: usize,
    live: u32,
    /// Bumped by every insert and removal: the slot layout a [`Probe`]
    /// found its key in is still current while this is unchanged.
    layout: u32,
    /// Packets left until the next epoch boundary. It counts down from
    /// `epoch_pkts`, so the boundaries fall where `pkts % epoch_pkts == 0`
    /// would put them, without a division per packet.
    until_epoch: u64,
    /// Epoch boundaries crossed so far — the bucket's logical clock.
    epoch: u64,
    /// Per-bucket op sequence number for the journal: unlike wall time it
    /// is identical across runtimes and worker counts.
    bseq: u64,
}

/// One flow key's probe into a [`FlowTable`] bucket, made once and
/// carried through the table operations on that key: the key's digest,
/// hashed once, and where a read-only probe found the key.
///
/// A batch body makes every packet's probe first, in a pass that changes
/// nothing, so the cache misses of the batch's lookups overlap; then it
/// runs the table operations in packet order. An operation trusts the
/// found slot only while the bucket's slot layout is the one the probe
/// saw (no insert or removal in between) and probes again otherwise, so
/// a stale probe costs a re-probe, never a different answer.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    bucket: u16,
    key: FlowKey,
    digest: u64,
    /// The bucket's layout generation when `found` was read; `None` if
    /// the table was never probed.
    seen: Option<u32>,
    found: Option<usize>,
}

impl Probe {
    /// A probe for `key` in `bucket` that has not looked at the table
    /// yet: the digest only.
    pub fn new(bucket: u16, key: FlowKey) -> Probe {
        Probe {
            bucket,
            key,
            digest: key.digest(),
            seen: None,
            found: None,
        }
    }

    /// The probed bucket.
    pub fn bucket(&self) -> u16 {
        self.bucket
    }

    /// [`FlowKey::digest`] of the key.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// One worker's lock-free flow shard: [`FLOW_BUCKETS`] open-addressing
/// sub-tables, each with its own packet-count epoch clock. All methods
/// take `&mut self` — the owning worker thread is the only toucher.
pub struct FlowTable {
    cfg: FlowTableConfig,
    worker: u32,
    /// Slots per bucket (power of two; 0 for a zero-capacity table).
    per_bucket: usize,
    buckets: Vec<Bucket>,
    shard: Arc<ShardFlowState>,
}

impl FlowTable {
    /// Builds the shard for `worker`, registering its counters (and
    /// journal sink) with the run's registry. Rebuilding for the same
    /// worker (a supervisor respawn) reattaches to the same counters.
    pub fn new(worker: usize, cfg: FlowTableConfig, registry: &FlowRegistry) -> FlowTable {
        let per_bucket = per_bucket_slots(cfg.capacity);
        let shard = registry.shard(worker);
        FlowTable {
            cfg,
            worker: worker as u32,
            per_bucket,
            buckets: (0..FLOW_BUCKETS)
                .map(|_| Bucket {
                    until_epoch: cfg.epoch_pkts,
                    ..Bucket::default()
                })
                .collect(),
            shard,
        }
    }

    /// The table's capacity in slots (after per-bucket rounding).
    pub fn capacity(&self) -> u64 {
        self.per_bucket as u64 * FLOW_BUCKETS as u64
    }

    /// Live entries across all buckets.
    pub fn live(&self) -> u64 {
        self.buckets.iter().map(|b| u64::from(b.live)).sum()
    }

    /// The given bucket's logical clock.
    pub fn epoch(&self, bucket: u16) -> u64 {
        self.buckets[usize::from(bucket)].epoch
    }

    /// Advances the bucket's logical clock by one packet. On an epoch
    /// boundary the bucket is swept: every idle-expired entry is evicted
    /// into `evicted`. Call once per packet, before lookups.
    pub fn tick(&mut self, bucket: u16, evicted: &mut Vec<Evicted>) {
        if self.cfg.epoch_pkts == 0 {
            return;
        }
        let b = &mut self.buckets[usize::from(bucket)];
        b.until_epoch -= 1;
        if b.until_epoch == 0 {
            b.until_epoch = self.cfg.epoch_pkts;
            b.epoch += 1;
            self.sweep(bucket, evicted);
        }
    }

    /// Why an expired entry leaves: embryonic entries expire by their own
    /// TTL when one is configured.
    fn expiry_reason(&self, embryonic: bool) -> EvictReason {
        if embryonic && self.cfg.embryonic_ttl_epochs != 0 {
            EvictReason::Embryonic
        } else {
            EvictReason::Idle
        }
    }

    fn expired(&self, slot: &Slot, epoch: u64) -> bool {
        let ttl = match self.expiry_reason(slot.embryonic) {
            EvictReason::Embryonic => self.cfg.embryonic_ttl_epochs,
            _ => self.cfg.ttl_epochs,
        };
        slot.state == SLOT_LIVE && epoch.saturating_sub(slot.last_hit) >= ttl
    }

    /// Sweeps one bucket, evicting every idle-expired entry. Expiry is a
    /// pure function of the bucket clock: the same packet sequence yields
    /// the same evictions on every runtime. Probe chains are kept intact
    /// by backward-shift compaction after each removal.
    fn sweep(&mut self, bucket: u16, evicted: &mut Vec<Evicted>) {
        let b = usize::from(bucket);
        let epoch = self.buckets[b].epoch;
        // Slot scan in index order: deterministic given identical insert
        // order, which per-bucket packet sequences guarantee. After a
        // removal the scan resumes at the same index: backward shift may
        // have moved a later entry into it.
        let mut i = 0usize;
        while let Some(off) = self.buckets[b].slots[i..]
            .iter()
            .position(|slot| self.expired(slot, epoch))
        {
            i += off;
            let reason = self.expiry_reason(self.buckets[b].slots[i].embryonic);
            self.remove_at(bucket, i, reason, evicted);
        }
    }

    /// Records in `p` where its key is live, changing nothing in the
    /// table: the read-only half of a batch body (see [`Probe`]).
    pub fn probe(&self, p: &mut Probe) {
        p.seen = Some(self.buckets[usize::from(p.bucket)].layout);
        p.found = self.find(p);
    }

    /// The slot `p`'s key is live in: the probe's answer while the bucket
    /// layout is unchanged, a fresh probe otherwise.
    fn locate(&self, p: &Probe) -> Option<usize> {
        if p.seen == Some(self.buckets[usize::from(p.bucket)].layout) {
            p.found
        } else {
            self.find(p)
        }
    }

    /// Looks up `key`, refreshing its last-hit epoch on success. An entry
    /// found expired is reaped (evicted into `evicted`) and reported as a
    /// miss, so lazy expiry and sweep expiry agree.
    pub fn lookup(
        &mut self,
        bucket: u16,
        key: &FlowKey,
        evicted: &mut Vec<Evicted>,
    ) -> Option<u64> {
        self.lookup_probed(&Probe::new(bucket, *key), evicted)
    }

    /// [`lookup`](Self::lookup) through a probe made earlier.
    pub fn lookup_probed(&mut self, p: &Probe, evicted: &mut Vec<Evicted>) -> Option<u64> {
        let Some(i) = self.locate(p) else {
            owner_add(&self.shard.stats.misses, 1);
            return None;
        };
        let b = usize::from(p.bucket);
        let epoch = self.buckets[b].epoch;
        let slot = self.buckets[b].slots[i];
        if self.expired(&slot, epoch) {
            let reason = self.expiry_reason(slot.embryonic);
            self.remove_at(p.bucket, i, reason, evicted);
            owner_add(&self.shard.stats.misses, 1);
            return None;
        }
        self.buckets[b].slots[i].last_hit = epoch;
        owner_add(&self.shard.stats.hits, 1);
        self.journal(p.bucket, FlowOpKind::Hit, p.digest, slot.value);
        Some(slot.value)
    }

    /// Inserts a new entry. `foreign` marks a re-steered flow arriving at
    /// a shard that is not the bucket's home (journaled as `Migrate` —
    /// the observable half of the invalidate-on-death policy).
    pub fn insert(
        &mut self,
        bucket: u16,
        key: FlowKey,
        value: u64,
        embryonic: bool,
        foreign: bool,
        evicted: &mut Vec<Evicted>,
    ) -> Result<(), TableFull> {
        let p = Probe::new(bucket, key);
        self.insert_probed(&p, value, embryonic, foreign, evicted)
    }

    /// [`insert`](Self::insert) through a probe made earlier (its digest
    /// is reused; where it found the key does not matter to an insert).
    pub fn insert_probed(
        &mut self,
        p: &Probe,
        value: u64,
        embryonic: bool,
        foreign: bool,
        evicted: &mut Vec<Evicted>,
    ) -> Result<(), TableFull> {
        let (bucket, digest) = (p.bucket, p.digest);
        let b = usize::from(bucket);
        if self.buckets[b].slots.is_empty() {
            if self.per_bucket == 0 {
                owner_add(&self.shard.stats.table_full_drops, 1);
                return Err(TableFull);
            }
            // Lazy allocation: the sub-table materializes on first use.
            self.buckets[b].slots = vec![EMPTY_SLOT; self.per_bucket].into_boxed_slice();
            self.buckets[b].mask = self.per_bucket - 1;
        }
        let epoch = self.buckets[b].epoch;
        // First pass: reap an expired entry on the probe path (keeps the
        // chain correct and frees a slot), remember the first free slot.
        let len = self.buckets[b].slots.len();
        let mut idx = (digest as usize) & self.buckets[b].mask;
        let mut free: Option<usize> = None;
        for _ in 0..len {
            let slot = self.buckets[b].slots[idx];
            match slot.state {
                SLOT_EMPTY => {
                    if free.is_none() {
                        free = Some(idx);
                    }
                    break;
                }
                _ => {
                    if self.expired(&slot, epoch) {
                        let reason = self.expiry_reason(slot.embryonic);
                        self.remove_at(bucket, idx, reason, evicted);
                        // Compaction may have pulled a live entry into
                        // `idx`; re-probe from scratch for simplicity.
                        return self.insert_probed(p, value, embryonic, foreign, evicted);
                    }
                }
            }
            idx = (idx + 1) & self.buckets[b].mask;
        }
        let Some(free) = free else {
            owner_add(&self.shard.stats.table_full_drops, 1);
            return Err(TableFull);
        };
        let bt = &mut self.buckets[b];
        bt.slots[free] = Slot {
            state: SLOT_LIVE,
            embryonic,
            key: p.key,
            digest,
            value,
            last_hit: epoch,
        };
        bt.live += 1;
        bt.layout = bt.layout.wrapping_add(1);
        let stats = &self.shard.stats;
        owner_add(&stats.inserts, 1);
        owner_add(&stats.live, 1);
        if foreign {
            owner_add(&stats.migrated_in, 1);
            self.journal(bucket, FlowOpKind::Migrate, digest, value);
        } else {
            self.journal(bucket, FlowOpKind::Insert, digest, value);
        }
        Ok(())
    }

    /// Rewrites the probed entry's value and embryonic flag in place
    /// (conntrack state promotion). Returns `false` on miss. Not
    /// journaled: the promotion is derivable from the packet stream.
    pub fn promote(&mut self, p: &Probe, value: u64, embryonic: bool) -> bool {
        match self.locate(p) {
            Some(i) => {
                let slot = &mut self.buckets[usize::from(p.bucket)].slots[i];
                slot.value = value;
                slot.embryonic = embryonic;
                true
            }
            None => false,
        }
    }

    /// Removes an entry (FIN/RST close). The eviction is journaled with
    /// the given reason and returned via `evicted`.
    pub fn remove(
        &mut self,
        bucket: u16,
        key: &FlowKey,
        reason: EvictReason,
        evicted: &mut Vec<Evicted>,
    ) -> Option<u64> {
        self.remove_probed(&Probe::new(bucket, *key), reason, evicted)
    }

    /// [`remove`](Self::remove) through a probe made earlier.
    pub fn remove_probed(
        &mut self,
        p: &Probe,
        reason: EvictReason,
        evicted: &mut Vec<Evicted>,
    ) -> Option<u64> {
        let i = self.locate(p)?;
        let value = self.buckets[usize::from(p.bucket)].slots[i].value;
        self.remove_at(p.bucket, i, reason, evicted);
        Some(value)
    }

    /// Finds the live slot holding the probe's key, if any (expired
    /// entries are still "found" — callers decide whether to reap).
    fn find(&self, p: &Probe) -> Option<usize> {
        let b = &self.buckets[usize::from(p.bucket)];
        if b.slots.is_empty() {
            return None;
        }
        let mut idx = (p.digest as usize) & b.mask;
        for _ in 0..b.slots.len() {
            let slot = &b.slots[idx];
            match slot.state {
                SLOT_EMPTY => return None,
                _ if slot.digest == p.digest && slot.key == p.key => return Some(idx),
                _ => idx = (idx + 1) & b.mask,
            }
        }
        None
    }

    /// Removes the entry at `i`, journals the eviction, and compacts the
    /// probe chain by backward shifting (no tombstones, so long-running
    /// churn never degrades probes).
    fn remove_at(
        &mut self,
        bucket: u16,
        i: usize,
        reason: EvictReason,
        evicted: &mut Vec<Evicted>,
    ) {
        let b = usize::from(bucket);
        let slot = self.buckets[b].slots[i];
        debug_assert_eq!(slot.state, SLOT_LIVE);
        evicted.push(Evicted {
            key: slot.key,
            value: slot.value,
            reason,
        });
        let stat = match reason {
            EvictReason::Idle => &self.shard.stats.evict_idle,
            EvictReason::Embryonic => &self.shard.stats.evict_embryonic,
            EvictReason::Closed => &self.shard.stats.evict_closed,
            EvictReason::Death => &self.shard.stats.evict_death,
        };
        owner_add(stat, 1);
        owner_sub(&self.shard.stats.live, 1);
        self.journal(bucket, FlowOpKind::Evict(reason), slot.digest, slot.value);

        let bt = &mut self.buckets[b];
        bt.live -= 1;
        bt.layout = bt.layout.wrapping_add(1);
        let mask = bt.mask;
        // Backward-shift deletion (Knuth 6.4R): walk the chain after `i`,
        // moving back any entry whose home position is cyclically outside
        // (hole, current].
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            let s = bt.slots[j];
            if s.state == SLOT_EMPTY {
                break;
            }
            let home = (s.digest as usize) & mask;
            let dist_home = j.wrapping_sub(home) & mask;
            let dist_hole = j.wrapping_sub(hole) & mask;
            if dist_home >= dist_hole {
                bt.slots[hole] = s;
                hole = j;
            }
            j = (j + 1) & mask;
            if j == i {
                break;
            }
        }
        bt.slots[hole] = EMPTY_SLOT;
    }

    fn journal(&mut self, bucket: u16, op: FlowOpKind, key_digest: u64, value: u64) {
        let b = &mut self.buckets[usize::from(bucket)];
        b.bseq += 1;
        if !self.shard.journal_on.load(Ordering::Relaxed) {
            return;
        }
        let rec = FlowOp {
            shard: self.worker,
            bucket,
            bseq: b.bseq,
            epoch: b.epoch,
            op,
            key_digest,
            value,
        };
        self.shard.journal.lock().expect("flow journal").push(rec);
    }
}

/// Slots per bucket: `capacity / FLOW_BUCKETS` rounded up to a power of
/// two, zero staying zero (an always-full table is legal configuration,
/// not a panic). Adversarially huge capacities are clamped — combined
/// with lazy bucket allocation, no configuration can force a pathological
/// allocation.
fn per_bucket_slots(capacity: u64) -> usize {
    if capacity == 0 {
        return 0;
    }
    let per = capacity.div_ceil(FLOW_BUCKETS as u64).clamp(1, 1 << 20);
    per.next_power_of_two() as usize
}

// --- The op journal ---

/// What a journaled op did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowOpKind {
    /// A new flow entered its home shard.
    Insert,
    /// An existing flow was refreshed.
    Hit,
    /// An entry left the table.
    Evict(EvictReason),
    /// A re-steered flow entered a shard that is not the bucket's home
    /// (worker-death recovery traffic).
    Migrate,
    /// The supervisor invalidated a dead worker's shard; `value` carries
    /// the number of flows lost.
    Invalidate,
}

impl FlowOpKind {
    /// Stable label, used in journal records and canonical comparisons.
    pub fn as_str(self) -> &'static str {
        match self {
            FlowOpKind::Insert => "insert",
            FlowOpKind::Hit => "hit",
            FlowOpKind::Evict(EvictReason::Idle) => "evict_idle",
            FlowOpKind::Evict(EvictReason::Embryonic) => "evict_embryonic",
            FlowOpKind::Evict(EvictReason::Closed) => "evict_closed",
            FlowOpKind::Evict(EvictReason::Death) => "evict_death",
            FlowOpKind::Migrate => "migrate",
            FlowOpKind::Invalidate => "invalidate",
        }
    }

    fn parse(s: &str) -> Result<FlowOpKind, String> {
        Ok(match s {
            "insert" => FlowOpKind::Insert,
            "hit" => FlowOpKind::Hit,
            "migrate" => FlowOpKind::Migrate,
            "invalidate" => FlowOpKind::Invalidate,
            other => match other.strip_prefix("evict_") {
                Some(r) => FlowOpKind::Evict(EvictReason::parse(r)?),
                None => return Err(format!("unknown flow op {other:?}")),
            },
        })
    }
}

/// One journaled flow-table operation. Integer-only, so JSONL round-trips
/// are bit-exact (the [`crate::supervise::SupervisionEvent`] convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowOp {
    /// Worker shard the op executed on.
    pub shard: u32,
    /// RSS bucket (sub-table) the op touched; `u16::MAX` for shard-wide
    /// ops (`Invalidate`).
    pub bucket: u16,
    /// Per-bucket op sequence number (1-based). Runtime-independent,
    /// unlike wall time.
    pub bseq: u64,
    /// The bucket's logical clock at the op.
    pub epoch: u64,
    /// What happened.
    pub op: FlowOpKind,
    /// [`FlowKey::digest`] of the key (0 for `Invalidate`).
    pub key_digest: u64,
    /// Op value: the table value for insert/hit/evict/migrate, the lost
    /// flow count for `Invalidate`.
    pub value: u64,
}

impl FlowOp {
    fn to_json_line(self) -> String {
        // The key digest is a full 64-bit value: hex-string encoded, since
        // JSON numbers (f64) only carry 53 bits exactly.
        format!(
            "{{\"shard\":{},\"bucket\":{},\"bseq\":{},\"epoch\":{},\"op\":\"{}\",\
             \"key\":\"{:016x}\",\"value\":{}}}",
            self.shard,
            self.bucket,
            self.bseq,
            self.epoch,
            self.op.as_str(),
            self.key_digest,
            self.value,
        )
    }

    fn from_json(v: &Value) -> Result<FlowOp, String> {
        let key = str_field(v, "key")?;
        let key_digest = u64::from_str_radix(key, 16).map_err(|e| format!("field `key`: {e}"))?;
        Ok(FlowOp {
            shard: u64_field(v, "shard")? as u32,
            bucket: u64_field(v, "bucket")? as u16,
            bseq: u64_field(v, "bseq")?,
            epoch: u64_field(v, "epoch")?,
            op: FlowOpKind::parse(str_field(v, "op")?)?,
            key_digest,
            value: u64_field(v, "value")?,
        })
    }
}

/// Replay summary of a [`FlowOpsLog`]: live flows per shard at the end,
/// the flows each dead shard lost, and the migrated set.
#[derive(Debug, Clone, Default)]
pub struct FlowReplay {
    /// Key digests live per shard after replaying every op.
    pub live: BTreeMap<u32, std::collections::BTreeSet<u64>>,
    /// Key digests lost to each shard invalidation (live at the moment
    /// the `Invalidate` op fired).
    pub invalidated: BTreeMap<u32, std::collections::BTreeSet<u64>>,
    /// Key digests journaled as `Migrate` (re-steered flows rebuilt on a
    /// survivor shard).
    pub migrated: std::collections::BTreeSet<u64>,
}

/// The explicit flow-op journal: an append-only record of every insert /
/// hit / evict / migrate / invalidate, replayable offline and JSONL
/// round-trippable — the flow plane's [`crate::supervise::SupervisorLog`].
#[derive(Debug, Clone, Default)]
pub struct FlowOpsLog {
    /// The ops, in per-shard execution order (shards concatenated in
    /// worker order).
    pub ops: Vec<FlowOp>,
}

/// The `schema` of a [`FlowOpsLog`]'s JSONL header.
const LOG_SCHEMA: &str = "nba-flow-ops";

impl FlowOpsLog {
    /// Bit-exact equality (all-integer records).
    pub fn bit_eq(&self, other: &FlowOpsLog) -> bool {
        self.ops == other.ops
    }

    /// A runtime-independent canonical ordering: ops sorted by
    /// `(bucket, bseq)`. Within one bucket the packet sequence — and so
    /// the op sequence — is invariant across DES/live(1)/live(N), while
    /// the interleaving *across* buckets is not; sorting strips exactly
    /// the non-deterministic part. Shard-wide ops (`Invalidate`) sort
    /// last. Clean runs of the same workload must agree canonically on
    /// every runtime; that is asserted by the differential suite.
    pub fn canonical(&self) -> Vec<FlowOp> {
        let mut ops = self.ops.clone();
        ops.sort_by_key(|o| (o.bucket, o.bseq, o.key_digest));
        ops
    }

    /// Serializes to JSON lines (header first, one op per line).
    pub fn to_jsonl(&self) -> String {
        json::write_log(LOG_SCHEMA, "ops", "", &self.ops, |op| op.to_json_line())
    }

    /// Parses [`FlowOpsLog::to_jsonl`] output.
    pub fn from_jsonl(s: &str) -> Result<FlowOpsLog, String> {
        let (_, ops) = json::read_log(s, LOG_SCHEMA, "ops", FlowOp::from_json)?;
        Ok(FlowOpsLog { ops })
    }

    /// Replays the journal: tracks each shard's live set through inserts,
    /// hits, evictions, migrations, and invalidations, verifying that
    /// hits and evictions refer to live keys and that per-(shard, bucket)
    /// sequence numbers are strictly increasing.
    pub fn replay(&self) -> Result<FlowReplay, String> {
        let mut out = FlowReplay::default();
        let mut last_bseq: BTreeMap<(u32, u16), u64> = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            if op.op != FlowOpKind::Invalidate {
                let k = (op.shard, op.bucket);
                let prev = last_bseq.get(&k).copied().unwrap_or(0);
                if op.bseq <= prev {
                    return Err(format!(
                        "op {i}: bseq {} not increasing on shard {} bucket {}",
                        op.bseq, op.shard, op.bucket
                    ));
                }
                last_bseq.insert(k, op.bseq);
            }
            let live = out.live.entry(op.shard).or_default();
            match op.op {
                FlowOpKind::Insert | FlowOpKind::Migrate => {
                    if !live.insert(op.key_digest) {
                        return Err(format!("op {i}: insert of already-live key"));
                    }
                    if op.op == FlowOpKind::Migrate {
                        out.migrated.insert(op.key_digest);
                    }
                }
                FlowOpKind::Hit => {
                    if !live.contains(&op.key_digest) {
                        return Err(format!("op {i}: hit on a key that is not live"));
                    }
                }
                FlowOpKind::Evict(_) => {
                    if !live.remove(&op.key_digest) {
                        return Err(format!("op {i}: evict of a key that is not live"));
                    }
                }
                FlowOpKind::Invalidate => {
                    if live.len() as u64 != op.value {
                        return Err(format!(
                            "op {i}: invalidate declares {} lost flows, shard had {} live",
                            op.value,
                            live.len()
                        ));
                    }
                    let lost = std::mem::take(live);
                    out.invalidated.entry(op.shard).or_default().extend(lost);
                    // A respawned worker builds a fresh table, so the
                    // shard's per-bucket sequence numbers restart after
                    // the invalidation boundary.
                    last_bseq.retain(|(s, _), _| *s != op.shard);
                }
            }
        }
        Ok(out)
    }
}

// --- Run-wide registry ---

/// Per-shard counters, all monotonic except the `live` and
/// `nat_ports_in_use` gauges.
///
/// **One writer at a time.** The shard's owning worker is the only thread
/// that writes these on the hot path, and it does so with a plain load and
/// store ([`owner_add`], [`owner_sub`]) rather than a locked
/// read-modify-write; readers (reports, `/metrics`) only load, so every
/// value they see is one the owner stored. The one other writer is
/// [`FlowRegistry::invalidate_shard`], and the supervisor calls it only on
/// a `Crash` conviction, when the owning thread is already gone; a
/// respawned owner starts after it.
#[derive(Debug, Default)]
pub struct ShardFlowStats {
    /// Successful inserts (including migrations).
    pub inserts: AtomicU64,
    /// Lookup hits.
    pub hits: AtomicU64,
    /// Lookup misses (including lazily reaped expiries).
    pub misses: AtomicU64,
    /// Evictions by idle TTL.
    pub evict_idle: AtomicU64,
    /// Evictions of embryonic entries by the embryonic TTL.
    pub evict_embryonic: AtomicU64,
    /// Explicit closes (FIN/RST).
    pub evict_closed: AtomicU64,
    /// Flows invalidated by a worker death.
    pub evict_death: AtomicU64,
    /// Foreign-bucket (re-steered) inserts on this shard.
    pub migrated_in: AtomicU64,
    /// Inserts refused because the bucket sub-table was full.
    pub table_full_drops: AtomicU64,
    /// Out-of-state packets dropped by stateful elements (e.g. conntrack
    /// TCP packets with no matching flow).
    pub out_of_state_drops: AtomicU64,
    /// Live entries right now (gauge).
    pub live: AtomicU64,
    /// NAT external ports currently allocated (gauge).
    pub nat_ports_in_use: AtomicU64,
}

/// Adds `n` to a shard counter from its owning thread (see
/// [`ShardFlowStats`]): a plain load and store, no locked instruction.
pub fn owner_add(counter: &AtomicU64, n: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// Subtracts `n` from a shard gauge from its owning thread; see
/// [`owner_add`].
pub fn owner_sub(counter: &AtomicU64, n: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_sub(n),
        Ordering::Relaxed,
    );
}

/// One shard's slot in the registry: counters plus the journal sink.
#[derive(Debug, Default)]
pub struct ShardFlowState {
    /// The counters.
    pub stats: ShardFlowStats,
    /// Mirrors the registry's journal switch (checked on the hot path
    /// without touching the registry).
    journal_on: AtomicBool,
    /// Journaled ops, pushed only by the owning worker thread (the mutex
    /// is uncontended; it exists so the supervisor can append
    /// `Invalidate` after the owner died).
    journal: Mutex<Vec<FlowOp>>,
}

/// An integer snapshot of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowShardSnapshot {
    /// See [`ShardFlowStats::inserts`].
    pub inserts: u64,
    /// See [`ShardFlowStats::hits`].
    pub hits: u64,
    /// See [`ShardFlowStats::misses`].
    pub misses: u64,
    /// See [`ShardFlowStats::evict_idle`].
    pub evict_idle: u64,
    /// See [`ShardFlowStats::evict_embryonic`].
    pub evict_embryonic: u64,
    /// See [`ShardFlowStats::evict_closed`].
    pub evict_closed: u64,
    /// See [`ShardFlowStats::evict_death`].
    pub evict_death: u64,
    /// See [`ShardFlowStats::migrated_in`].
    pub migrated_in: u64,
    /// See [`ShardFlowStats::table_full_drops`].
    pub table_full_drops: u64,
    /// See [`ShardFlowStats::out_of_state_drops`].
    pub out_of_state_drops: u64,
    /// See [`ShardFlowStats::live`].
    pub live: u64,
    /// See [`ShardFlowStats::nat_ports_in_use`].
    pub nat_ports_in_use: u64,
}

impl FlowShardSnapshot {
    /// Evictions across every reason.
    pub fn evictions_total(&self) -> u64 {
        self.evict_idle + self.evict_embryonic + self.evict_closed + self.evict_death
    }
}

impl ShardFlowStats {
    fn snapshot(&self) -> FlowShardSnapshot {
        FlowShardSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evict_idle: self.evict_idle.load(Ordering::Relaxed),
            evict_embryonic: self.evict_embryonic.load(Ordering::Relaxed),
            evict_closed: self.evict_closed.load(Ordering::Relaxed),
            evict_death: self.evict_death.load(Ordering::Relaxed),
            migrated_in: self.migrated_in.load(Ordering::Relaxed),
            table_full_drops: self.table_full_drops.load(Ordering::Relaxed),
            out_of_state_drops: self.out_of_state_drops.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            nat_ports_in_use: self.nat_ports_in_use.load(Ordering::Relaxed),
        }
    }
}

/// The flow plane's end-of-run accounting: per-shard counter snapshots
/// plus the merged op journal (empty unless journaling was enabled).
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Snapshot per worker shard.
    pub shards: BTreeMap<u32, FlowShardSnapshot>,
    /// The merged journal.
    pub journal: FlowOpsLog,
}

impl FlowReport {
    /// Sums every shard's snapshot.
    pub fn totals(&self) -> FlowShardSnapshot {
        let mut t = FlowShardSnapshot::default();
        for s in self.shards.values() {
            t.inserts += s.inserts;
            t.hits += s.hits;
            t.misses += s.misses;
            t.evict_idle += s.evict_idle;
            t.evict_embryonic += s.evict_embryonic;
            t.evict_closed += s.evict_closed;
            t.evict_death += s.evict_death;
            t.migrated_in += s.migrated_in;
            t.table_full_drops += s.table_full_drops;
            t.out_of_state_drops += s.out_of_state_drops;
            t.live += s.live;
            t.nat_ports_in_use += s.nat_ports_in_use;
        }
        t
    }
}

struct RegistryInner {
    shards: Mutex<BTreeMap<u32, Arc<ShardFlowState>>>,
    journal_on: AtomicBool,
    /// Worker count of the run (0 = unknown): lets elements detect
    /// foreign-bucket inserts (`bucket % workers != worker`) after a
    /// re-steer.
    workers: AtomicU64,
}

/// The run-wide rendezvous between stateful elements (which own the
/// shards), the supervisor (which invalidates shards on worker death),
/// and report assembly. A cheap clonable handle published in node-local
/// storage under [`FlowRegistry::NLS_KEY`]: runtimes pre-publish their
/// instance before building pipelines, and elements attach via
/// [`FlowRegistry::from_nls`] — no `BuildCtx` change needed.
#[derive(Clone, Default)]
pub struct FlowRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for RegistryInner {
    fn default() -> Self {
        RegistryInner {
            shards: Mutex::new(BTreeMap::new()),
            journal_on: AtomicBool::new(false),
            workers: AtomicU64::new(0),
        }
    }
}

impl FlowRegistry {
    /// The node-local storage key the run's registry lives under.
    pub const NLS_KEY: &'static str = "flow.registry";

    /// A fresh, empty registry.
    pub fn new() -> FlowRegistry {
        FlowRegistry::default()
    }

    /// The registry published in `nls`, creating one on first use.
    pub fn from_nls(nls: &NodeLocalStorage) -> FlowRegistry {
        (*nls.get_or_init(Self::NLS_KEY, FlowRegistry::new)).clone()
    }

    /// Publishes this registry in `nls` (runtimes call this before
    /// building pipeline replicas so every worker attaches to it).
    pub fn publish(&self, nls: &NodeLocalStorage) {
        let got = nls.get_or_init(Self::NLS_KEY, || self.clone());
        assert!(
            Arc::ptr_eq(&got.inner, &self.inner),
            "a different flow registry is already published"
        );
    }

    /// The shard slot for `worker`, created on first use. Re-attaching
    /// (respawn, or the spec-collection throwaway replica) returns the
    /// same slot, so counters survive element rebuilds.
    pub fn shard(&self, worker: usize) -> Arc<ShardFlowState> {
        let mut shards = self.inner.shards.lock().expect("flow registry");
        let slot = shards.entry(worker as u32).or_default();
        slot.journal_on.store(
            self.inner.journal_on.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        slot.clone()
    }

    /// Records the run's worker count (runtimes call this at publish
    /// time) so elements can tell home-bucket inserts from re-steered
    /// foreign ones.
    pub fn set_workers(&self, n: usize) {
        self.inner.workers.store(n as u64, Ordering::Relaxed);
    }

    /// The run's worker count, or 0 when no runtime recorded one (all
    /// inserts then count as home).
    pub fn workers(&self) -> usize {
        self.inner.workers.load(Ordering::Relaxed) as usize
    }

    /// True once any stateful element attached a shard.
    pub fn is_active(&self) -> bool {
        !self.inner.shards.lock().expect("flow registry").is_empty()
    }

    /// Turns the op journal on (before the run; existing shards pick the
    /// switch up too).
    pub fn enable_journal(&self) {
        self.inner.journal_on.store(true, Ordering::Relaxed);
        for s in self.inner.shards.lock().expect("flow registry").values() {
            s.journal_on.store(true, Ordering::Relaxed);
        }
    }

    /// The invalidate half of the worker-death policy: account every flow
    /// the dead shard held as lost (`evict_death`), zero its gauges, and
    /// journal a shard-wide `Invalidate` op carrying the count. Returns
    /// the number of flows invalidated. Idempotent per death (a second
    /// call sees zero live flows).
    pub fn invalidate_shard(&self, worker: usize) -> u64 {
        let slot = {
            let shards = self.inner.shards.lock().expect("flow registry");
            match shards.get(&(worker as u32)) {
                Some(s) => s.clone(),
                None => return 0,
            }
        };
        let lost = slot.stats.live.swap(0, Ordering::Relaxed);
        slot.stats.evict_death.fetch_add(lost, Ordering::Relaxed);
        slot.stats.nat_ports_in_use.store(0, Ordering::Relaxed);
        if slot.journal_on.load(Ordering::Relaxed) {
            slot.journal.lock().expect("flow journal").push(FlowOp {
                shard: worker as u32,
                bucket: u16::MAX,
                bseq: 0,
                epoch: 0,
                op: FlowOpKind::Invalidate,
                key_digest: 0,
                value: lost,
            });
        }
        lost
    }

    /// Assembles the end-of-run report: counter snapshots per shard and
    /// the merged journal. `None` when no stateful element ever attached
    /// (so stateless runs carry no flow section at all).
    pub fn report(&self) -> Option<FlowReport> {
        let shards = self.inner.shards.lock().expect("flow registry");
        if shards.is_empty() {
            return None;
        }
        let mut report = FlowReport::default();
        for (w, slot) in shards.iter() {
            report.shards.insert(*w, slot.stats.snapshot());
            report
                .journal
                .ops
                .extend(slot.journal.lock().expect("flow journal").iter().copied());
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> FlowKey {
        FlowKey {
            proto: 17,
            src_ip: 0x0a00_0000 | n,
            dst_ip: 0xc0a8_0001,
            src_port: 1024 + (n % 60000) as u16,
            dst_port: 80,
        }
    }

    fn table(cap: u64, ttl: u64, epoch_pkts: u64) -> (FlowTable, FlowRegistry) {
        let reg = FlowRegistry::new();
        reg.enable_journal();
        let t = FlowTable::new(
            0,
            FlowTableConfig {
                capacity: cap,
                ttl_epochs: ttl,
                embryonic_ttl_epochs: 0,
                epoch_pkts,
            },
            &reg,
        );
        (t, reg)
    }

    #[test]
    fn insert_then_lookup_hits() {
        let (mut t, _reg) = table(1024, 8, 16);
        let mut ev = Vec::new();
        t.insert(3, key(1), 77, false, false, &mut ev).unwrap();
        assert_eq!(t.lookup(3, &key(1), &mut ev), Some(77));
        assert_eq!(t.lookup(3, &key(2), &mut ev), None);
        assert!(ev.is_empty());
        assert_eq!(t.live(), 1);
    }

    #[test]
    fn idle_expiry_is_a_pure_function_of_the_bucket_clock() {
        let (mut t, _reg) = table(1024, 2, 4);
        let mut ev = Vec::new();
        t.insert(0, key(1), 1, false, false, &mut ev).unwrap();
        // 7 ticks: epoch reaches 1 — not expired (ttl 2).
        for _ in 0..7 {
            t.tick(0, &mut ev);
        }
        assert!(ev.is_empty());
        assert_eq!(t.lookup(0, &key(1), &mut ev), Some(1));
        // The hit refreshed last_hit to epoch 1; 4 more ticks (epoch 3 -
        // last_hit 1 >= ttl 2) expire it on the sweep.
        for _ in 0..8 {
            t.tick(0, &mut ev);
        }
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].reason, EvictReason::Idle);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn zero_capacity_never_panics() {
        let (mut t, _reg) = table(0, 8, 16);
        let mut ev = Vec::new();
        assert_eq!(
            t.insert(0, key(1), 1, false, false, &mut ev),
            Err(TableFull)
        );
        assert_eq!(t.lookup(0, &key(1), &mut ev), None);
        t.tick(0, &mut ev);
        assert_eq!(t.capacity(), 0);
    }

    #[test]
    fn occupancy_never_exceeds_per_bucket_capacity() {
        let (mut t, _reg) = table(FLOW_BUCKETS as u64 * 4, u64::MAX, 0);
        let mut ev = Vec::new();
        let mut ok = 0;
        for n in 0..64 {
            if t.insert(5, key(n), 0, false, false, &mut ev).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 4, "bucket must hold exactly its slot count");
        assert_eq!(t.live(), 4);
    }

    #[test]
    fn remove_keeps_probe_chains_intact() {
        let (mut t, _reg) = table(FLOW_BUCKETS as u64 * 16, u64::MAX, 0);
        let mut ev = Vec::new();
        let keys: Vec<FlowKey> = (0..12).map(key).collect();
        for k in &keys {
            t.insert(9, *k, 1, false, false, &mut ev).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.remove(9, k, EvictReason::Closed, &mut ev).is_some());
            }
        }
        for (i, k) in keys.iter().enumerate() {
            let got = t.lookup(9, k, &mut ev);
            if i % 3 == 0 {
                assert_eq!(got, None, "removed key resurfaced");
            } else {
                assert_eq!(got, Some(1), "survivor key lost by compaction");
            }
        }
    }

    #[test]
    fn stale_probes_probe_again() {
        // Two slots per bucket: every key shares one probe chain.
        let (mut t, _reg) = table(FLOW_BUCKETS as u64 * 2, u64::MAX, 0);
        let mut ev = Vec::new();
        let mut a = Probe::new(4, key(1));
        let mut b = Probe::new(4, key(2));
        t.probe(&mut a);
        t.probe(&mut b);
        // Both probes saw an empty bucket; the inserts move the layout on.
        t.insert_probed(&a, 10, false, false, &mut ev).unwrap();
        t.insert_probed(&b, 20, false, false, &mut ev).unwrap();
        assert_eq!(t.lookup_probed(&b, &mut ev), Some(20));
        t.probe(&mut b);
        // Removing `a` may shift `b` back into `a`'s slot.
        assert_eq!(t.remove_probed(&a, EvictReason::Closed, &mut ev), Some(10));
        assert!(t.promote(&b, 21, false));
        assert_eq!(t.lookup_probed(&b, &mut ev), Some(21));
        assert_eq!(t.lookup_probed(&a, &mut ev), None);
    }

    #[test]
    fn journal_roundtrips_and_replays() {
        let (mut t, reg) = table(1024, 2, 2);
        let mut ev = Vec::new();
        t.insert(1, key(1), 10, false, false, &mut ev).unwrap();
        t.insert(1, key(2), 20, true, true, &mut ev).unwrap();
        t.lookup(1, &key(1), &mut ev);
        t.remove(1, &key(2), EvictReason::Closed, &mut ev);
        for _ in 0..8 {
            t.tick(1, &mut ev);
        }
        reg.invalidate_shard(0);
        let report = reg.report().expect("active registry");
        let parsed = FlowOpsLog::from_jsonl(&report.journal.to_jsonl()).unwrap();
        assert!(parsed.bit_eq(&report.journal));
        let replay = parsed.replay().unwrap();
        assert!(replay.migrated.contains(&key(2).digest()));
        // key(1) idled out before the invalidation, so nothing was live.
        assert_eq!(report.totals().evict_death, 0);
        assert_eq!(report.totals().evict_idle, 1);
        assert!(replay.live.values().all(|s| s.is_empty()));
    }

    #[test]
    fn journal_wire_bytes_are_pinned() {
        // A replayable log written by an older build must still read back.
        let log = FlowOpsLog {
            ops: vec![
                FlowOp {
                    shard: 1,
                    bucket: 7,
                    bseq: 1,
                    epoch: 3,
                    op: FlowOpKind::Insert,
                    key_digest: key(5).digest(),
                    value: 42,
                },
                FlowOp {
                    shard: 1,
                    bucket: 7,
                    bseq: 2,
                    epoch: 9,
                    op: FlowOpKind::Evict(EvictReason::Idle),
                    key_digest: key(5).digest(),
                    value: 42,
                },
                FlowOp {
                    shard: 1,
                    bucket: u16::MAX,
                    bseq: 0,
                    epoch: 0,
                    op: FlowOpKind::Invalidate,
                    key_digest: 0,
                    value: 0,
                },
            ],
        };
        assert_eq!(
            log.to_jsonl(),
            concat!(
                r#"{"schema":"nba-flow-ops","version":1,"ops":3}"#,
                "\n",
                r#"{"shard":1,"bucket":7,"bseq":1,"epoch":3,"op":"insert","key":"10d27ebb60931ee5","value":42}"#,
                "\n",
                r#"{"shard":1,"bucket":7,"bseq":2,"epoch":9,"op":"evict_idle","key":"10d27ebb60931ee5","value":42}"#,
                "\n",
                r#"{"shard":1,"bucket":65535,"bseq":0,"epoch":0,"op":"invalidate","key":"0000000000000000","value":0}"#,
                "\n",
            )
        );
        assert!(FlowOpsLog::from_jsonl(&log.to_jsonl())
            .unwrap()
            .bit_eq(&log));
    }

    #[test]
    fn invalidate_accounts_live_flows() {
        let (mut t, reg) = table(1024, u64::MAX, 0);
        let mut ev = Vec::new();
        for n in 0..10 {
            t.insert(bucket_of(u64::from(n)), key(n), 0, false, false, &mut ev)
                .unwrap();
        }
        assert_eq!(reg.invalidate_shard(0), 10);
        let report = reg.report().unwrap();
        assert_eq!(report.totals().evict_death, 10);
        assert_eq!(report.totals().live, 0);
        let replay = report.journal.replay().unwrap();
        assert_eq!(replay.invalidated.get(&0).map(|s| s.len()), Some(10));
    }

    proptest::proptest! {
        /// The countdown epoch clock crosses its boundaries where the
        /// modulo clock it replaced did (`pkts % epoch_pkts == 0`, never for
        /// 0), and sweeps exactly there: with a 1-epoch TTL, the entry a
        /// bucket holds leaves at each boundary and at no other tick.
        #[test]
        fn countdown_clock_equals_modulo_clock(
            epoch_pkts in proptest::sample::select(vec![0u64, 1, 2, 3, 1024, u64::MAX]),
            picks in proptest::collection::vec(0u16..3, 0..4000),
        ) {
            let (mut t, _reg) = table(1024, 1, epoch_pkts);
            let mut ev = Vec::new();
            let mut pkts = [0u64; 3];
            for b in 0..3u16 {
                t.insert(b, key(u32::from(b)), 0, false, false, &mut ev).unwrap();
            }
            for b in picks {
                let n = &mut pkts[usize::from(b)];
                *n += 1;
                let boundary = epoch_pkts != 0 && *n % epoch_pkts == 0;
                t.tick(b, &mut ev);
                let want = n.checked_div(epoch_pkts).unwrap_or(0);
                proptest::prop_assert_eq!(t.epoch(b), want);
                proptest::prop_assert_eq!(ev.len(), usize::from(boundary));
                if boundary {
                    ev.clear();
                    t.insert(b, key(u32::from(b)), 0, false, false, &mut ev).unwrap();
                }
            }
        }
    }

    #[test]
    fn max_ttl_never_expires() {
        let (mut t, _reg) = table(256, u64::MAX, 1);
        let mut ev = Vec::new();
        t.insert(0, key(1), 1, false, false, &mut ev).unwrap();
        for _ in 0..10_000 {
            t.tick(0, &mut ev);
        }
        assert!(ev.is_empty());
        assert_eq!(t.lookup(0, &key(1), &mut ev), Some(1));
    }
}
