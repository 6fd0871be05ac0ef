//! The correctness gate, run after the clock has stopped: per-key
//! invocation/response histories of a bounded sample of keys go through
//! `vrr_checker::check_regularity`, and no READ may ever return the value
//! the Byzantine objects forge.

use std::collections::BTreeMap;

use vrr_checker::{check_regularity, OpHistory};

use crate::deploy::prebind_value;
use crate::load::{ClientLog, OpRecord};
use crate::spec::{FORGED, KEYS};
use crate::stats::SplitMix64;

/// Keys checked per run: the hottest ones, where concurrency concentrates,
/// plus seeded-random ones from the tail.
const HOT_KEYS: usize = 8;
const RANDOM_KEYS: usize = 24;
/// READs kept per checked key (evenly strided); every WRITE is kept.
/// Dropping READs cannot hide or create a violation of a kept one.
const READS_PER_KEY: usize = 4000;

pub struct Verdict {
    /// Violations found: forged values returned plus checker findings.
    pub violations: u64,
    pub keys_checked: usize,
    pub ops_checked: usize,
    pub first_violation: Option<String>,
}

pub fn check(logs: &[ClientLog], seed: u64) -> Verdict {
    let mut verdict = Verdict {
        violations: 0,
        keys_checked: 0,
        ops_checked: 0,
        first_violation: None,
    };
    let note = |verdict: &mut Verdict, what: String| {
        verdict.violations += 1;
        verdict.first_violation.get_or_insert(what);
    };

    let mut per_key: BTreeMap<u16, Vec<(usize, &OpRecord)>> = BTreeMap::new();
    for (client, log) in logs.iter().enumerate() {
        for rec in &log.records {
            if rec.ok && !rec.is_write && rec.value == FORGED {
                note(
                    &mut verdict,
                    format!("READ of key {} returned the forged value", rec.key),
                );
            }
            per_key.entry(rec.key).or_default().push((client, rec));
        }
    }

    let mut by_heat: Vec<u16> = per_key.keys().copied().collect();
    by_heat.sort_by_key(|k| std::cmp::Reverse(per_key[k].len()));
    let mut sample: Vec<u16> = by_heat.iter().copied().take(HOT_KEYS).collect();
    let mut rng = SplitMix64(seed ^ 0x5EED_C4EC);
    for _ in 0..RANDOM_KEYS {
        let key = (rng.next() % KEYS) as u16;
        if per_key.contains_key(&key) && !sample.contains(&key) {
            sample.push(key);
        }
    }

    for key in sample {
        let ops = &per_key[&key];
        // A failed WRITE leaves the key's write order unknown to us; it is
        // already counted as a failed op.
        if ops.iter().any(|(_, r)| r.is_write && !r.ok) {
            continue;
        }
        let reads = ops.iter().filter(|(_, r)| !r.is_write && r.ok).count();
        let stride = reads.div_ceil(READS_PER_KEY).max(1);
        let mut history = OpHistory::new();
        history.push_write(1, prebind_value(u64::from(key)), 0, Some(0));
        let mut nth_read = 0;
        for (client, rec) in ops.iter().filter(|(_, r)| r.ok) {
            // Load timestamps start well after the pre-bind's [0, 0].
            let (invoked, completed) = (rec.start_ns + 1, Some(rec.end_ns + 1));
            if rec.is_write {
                history.push_write(rec.ts, rec.value, invoked, completed);
            } else {
                if nth_read % stride == 0 {
                    history.push_read(*client, rec.ts, Some(rec.value), invoked, completed);
                }
                nth_read += 1;
            }
        }
        verdict.keys_checked += 1;
        verdict.ops_checked += history.ops().len();
        for violation in check_regularity(&history).err().into_iter().flatten() {
            note(&mut verdict, format!("key {key}: {violation}"));
        }
    }
    verdict
}
