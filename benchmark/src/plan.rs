//! Seeded inputs: the path table, the read schedule and the update
//! schedule with its change-sets. Everything the served program receives
//! is generated here from `--seed`; the program itself never sees the
//! seed. An FNV-1a digest over the generated inputs pins the baseline:
//! for the default seed a mismatch fails the run, so drift in
//! `nagano-workload` / `nagano-db` seeding cannot silently change what is
//! measured.

use std::sync::Arc;

use nagano::{ServingSite, SiteConfig};
use nagano_cache::CacheConfig;
use nagano_db::ChangeOp;
use nagano_pagegen::PageKey;
use nagano_simcore::DeterministicRng;
use nagano_workload::{RequestModel, ScheduledUpdate, UpdateKind, UpdateSchedule};

/// Seed used when `--seed` is not given; its digest is pinned below.
pub const DEFAULT_SEED: u64 = 1998;

/// Digest of the full-size inputs generated from [`DEFAULT_SEED`].
pub const DEFAULT_SEED_DIGEST: u64 = 0x3574_4d8a_b665_4c7d;

/// Mid-Games day whose popularity table shapes the read mix.
const DAY: u32 = 8;

/// Share of reads that revalidate with `If-None-Match`, sending the last
/// entity tag their connection saw for the page.
const INM_SHARE: f64 = 0.30;

/// Length of the cyclic read schedule. Connection `c` of `n` starts at
/// slot `c * READ_SLOTS / n` and wraps.
pub const READ_SLOTS: usize = 1 << 18;

/// One scheduled read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    /// Index into [`Inputs::paths`].
    pub page: u32,
    /// Send `If-None-Match` when a validator for the page is known.
    pub conditional: bool,
}

/// SplitMix64: the benchmark's own generator for the read schedule, so
/// the schedule does not move when the product's generator does.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a byte stream.
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The generated inputs of one run. All four workloads draw on the same
/// inputs; they differ in cache bound, load shape and which pipeline
/// dominates.
pub struct Inputs {
    /// Small Games (tests and `--smoke`) instead of the paper-scale site.
    pub smoke: bool,
    /// Servable paths, in registry order.
    pub paths: Vec<String>,
    /// `keys[i]` is the page behind `paths[i]`.
    pub keys: Vec<PageKey>,
    /// The cyclic read schedule.
    pub reads: Vec<Read>,
    /// The 16-day update schedule, time-sorted.
    pub updates: Vec<ScheduledUpdate>,
    /// Bytes one unbounded, prewarmed fleet member holds.
    pub site_bytes: u64,
    /// Seed of the generator `UpdateSchedule::apply` draws placements from.
    apply_seed: u64,
    /// FNV-1a digest of paths, reads, updates and change-sets.
    pub digest: u64,
}

impl Inputs {
    /// Generate the inputs for `seed`. Builds one throwaway site to read
    /// the registry, the popularity table and the event calendar from,
    /// and commits the schedule into its database once to learn the
    /// change-sets.
    pub fn generate(seed: u64, smoke: bool) -> Inputs {
        let site = ServingSite::build(base_config(smoke));
        let (paths, keys, weights) = page_table(&site);
        let reads = read_schedule(seed, &weights);
        let schedule = UpdateSchedule::generate(
            site.db(),
            &mut DeterministicRng::seed_from_u64(seed ^ 0x5550_4441_5445),
        );
        let mut inputs = Inputs {
            smoke,
            paths,
            keys,
            reads,
            updates: schedule.updates().to_vec(),
            site_bytes: site.fleet().member(0).bytes(),
            apply_seed: seed ^ 0x0041_5050_4c59,
            digest: 0,
        };
        inputs.digest = inputs.digest_with_changes(&site);
        inputs
    }

    /// Site configuration for a workload: the standard site with the
    /// given per-node cache configuration.
    pub fn site_config(&self, cache: CacheConfig) -> SiteConfig {
        SiteConfig {
            cache,
            ..base_config(self.smoke)
        }
    }

    /// A fresh placement generator: every replay of the schedule commits
    /// the same transactions.
    pub fn apply_rng(&self) -> DeterministicRng {
        DeterministicRng::seed_from_u64(self.apply_seed)
    }

    fn digest_with_changes(&self, site: &ServingSite) -> u64 {
        let mut h = Fnv1a::new();
        for p in &self.paths {
            h.eat(p.as_bytes());
            h.eat(&[0]);
        }
        for r in &self.reads {
            h.eat(&r.page.to_le_bytes());
            h.eat(&[u8::from(r.conditional)]);
        }
        let mut rng = self.apply_rng();
        for u in &self.updates {
            h.eat(&u.at.as_micros().to_le_bytes());
            h.eat(&u.day.to_le_bytes());
            match u.kind {
                UpdateKind::Results { event, is_final } => {
                    h.eat(&[1, u8::from(is_final)]);
                    h.eat(&event.0.to_le_bytes());
                }
                UpdateKind::News { seq, about } => {
                    h.eat(&[2]);
                    h.eat(&seq.to_le_bytes());
                    h.eat(&about.map_or(0, |e| e.0 + 1).to_le_bytes());
                }
                UpdateKind::Photo { event, seq } => {
                    h.eat(&[3]);
                    h.eat(&event.0.to_le_bytes());
                    h.eat(&seq.to_le_bytes());
                }
            }
            let txn = UpdateSchedule::apply(u, site.db(), &mut rng);
            for c in &txn.changes {
                h.eat(c.data_key.as_bytes());
                h.eat(&[match c.op {
                    ChangeOp::Insert => 1,
                    ChangeOp::Update => 2,
                    ChangeOp::Delete => 3,
                }]);
            }
        }
        h.finish()
    }
}

fn base_config(smoke: bool) -> SiteConfig {
    if smoke {
        SiteConfig::small()
    } else {
        SiteConfig::full()
    }
}

/// Paths, keys and day-[`DAY`] popularity weights, in registry order.
fn page_table(site: &ServingSite) -> (Vec<String>, Vec<PageKey>, Vec<f64>) {
    let model = RequestModel::new(site.db(), Arc::clone(site.registry()), 1.0);
    let table = model.popularity_weights(DAY);
    let paths = table.iter().map(|(k, _)| k.to_url()).collect();
    let keys = table.iter().map(|(k, _)| *k).collect();
    let weights = table.iter().map(|(_, w)| w.max(0.0)).collect();
    (paths, keys, weights)
}

fn read_schedule(seed: u64, weights: &[f64]) -> Vec<Read> {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "popularity weights sum to zero");
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mut rng = SplitMix64(seed);
    (0..READ_SLOTS)
        .map(|_| {
            let u = rng.unit();
            let page = cdf.partition_point(|&p| p <= u).min(weights.len() - 1);
            Read {
                page: page as u32,
                conditional: rng.unit() < INM_SHARE,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.eat(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.eat(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(7, true);
        let b = Inputs::generate(7, true);
        let c = Inputs::generate(8, true);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.reads, b.reads);
        assert_ne!(a.digest, c.digest);
        assert_eq!(
            a.paths, c.paths,
            "the path table does not depend on the seed"
        );
        assert_eq!(a.reads.len(), READ_SLOTS);
        assert!(!a.updates.is_empty());
        let conditional = a.reads.iter().filter(|r| r.conditional).count() as f64;
        let share = conditional / READ_SLOTS as f64;
        assert!(
            (share - INM_SHARE).abs() < 0.01,
            "conditional share {share}"
        );
    }

    #[test]
    fn default_seed_digest_is_pinned() {
        let inputs = Inputs::generate(DEFAULT_SEED, false);
        assert_eq!(
            inputs.digest, DEFAULT_SEED_DIGEST,
            "inputs for the default seed drifted: {:#018x}",
            inputs.digest
        );
    }
}
