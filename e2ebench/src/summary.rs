//! Rounds of the timed phase, and how a run turns them into one value per
//! metric.
//!
//! The host's speed drifts in episodes of seconds to minutes, and a slow
//! episode only ever adds time. So every unit is repeated many times over
//! the run, on identical state, and each metric is taken from the best
//! repetition of each unit: the steadiest estimate of its cost. Rounds
//! that hold different inputs (slots) are each reduced to their best, and
//! the run reports the median over slots, which also averages over inputs.

use crate::stats;

/// One round of the timed phase: its own set-up, then a fixed slice of
/// work (passes over a grid, or one replay of a request stream on fresh
/// state).
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall time of the round's set-up: everything before its first unit.
    pub setup_s: f64,
    /// Latency of each unit, in order.
    pub unit_ms: Vec<f64>,
    /// Wall time of the timed work.
    pub wall_s: f64,
    /// Peak resident memory while the timed work ran, in MiB.
    pub peak_rss_mb: f64,
}

/// A round's set-up (s), rate (units/s), p50 (ms), tail (ms) and peak
/// memory (MiB), in the order of [`METRICS`].
pub type Values = [f64; 5];

/// The end-to-end metric each entry of [`Values`] is reported as: name,
/// unit, and the detail line's key for the per-round values.
pub const METRICS: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "round_setup_s"),
    ("units_per_s", "1/s", "round_units_per_s"),
    ("unit_p50_ms", "ms", "round_p50_ms"),
    ("unit_tail_ms", "ms", "round_tail_ms"),
    ("peak_rss_mb", "MiB", "round_peak_rss_mb"),
];

/// The values of one round. An error when the round has too few units for
/// a tail ([`stats::tail`]).
pub fn values(r: &Round) -> Result<Values, String> {
    let tail = stats::tail(&r.unit_ms).ok_or("a round has too few units for a tail")?;
    Ok([
        r.setup_s,
        r.unit_ms.len() as f64 / r.wall_s,
        stats::median(&r.unit_ms).expect("a round with a tail is not empty"),
        tail.1,
        r.peak_rss_mb,
    ])
}

/// The best of a slot's rounds so far.
#[derive(Debug, Default)]
struct Slot {
    best_ms: Vec<f64>,
    setup_s: f64,
    peak_rss_mb: f64,
}

/// The rounds of a run, folded as they finish, so the benchmark's own
/// bookkeeping does not grow with the run (and does not creep into later
/// rounds' peak memory).
///
/// Round `r` belongs to slot `r % slots`, and every round of a slot does
/// the same work on identical state; within a round, units repeat every
/// `period` units (a grid pass inside a round of several passes). A
/// slot's best round holds each unit at the lowest latency any repetition
/// of it had, the shortest set-up, and the lowest peak memory of the
/// slot's rounds.
#[derive(Debug)]
pub struct RoundLog {
    period: usize,
    slots: Vec<Slot>,
    per_round: Vec<Values>,
    units: u64,
}

impl RoundLog {
    /// A log for rounds cycling through `slots` slots, whose units repeat
    /// every `period` units within a round.
    pub fn new(slots: usize, period: usize) -> Self {
        assert!(slots > 0 && period > 0);
        Self {
            period,
            slots: (0..slots).map(|_| Slot::default()).collect(),
            per_round: Vec::new(),
            units: 0,
        }
    }

    /// Fold in the next round.
    pub fn push(&mut self, r: Round) -> Result<(), String> {
        let own = values(&r)?;
        let k = self.per_round.len() % self.slots.len();
        let slot = &mut self.slots[k];
        if slot.best_ms.is_empty() {
            slot.best_ms = vec![f64::INFINITY; r.unit_ms.len()];
            slot.setup_s = f64::INFINITY;
            slot.peak_rss_mb = f64::INFINITY;
        }
        if slot.best_ms.len() != r.unit_ms.len() {
            return Err("rounds of one slot differ in their units".into());
        }
        for (i, &ms) in r.unit_ms.iter().enumerate() {
            let j = i % self.period;
            slot.best_ms[j] = slot.best_ms[j].min(ms);
        }
        slot.setup_s = slot.setup_s.min(r.setup_s);
        slot.peak_rss_mb = slot.peak_rss_mb.min(r.peak_rss_mb);
        self.per_round.push(own);
        self.units += r.unit_ms.len() as u64;
        Ok(())
    }

    /// Units timed so far.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Each round's own values, in order.
    pub fn per_round(&self) -> &[Values] {
        &self.per_round
    }

    /// Each slot's best round.
    fn best_rounds(&self) -> impl Iterator<Item = Round> + '_ {
        self.slots
            .iter()
            .filter(|s| !s.best_ms.is_empty())
            .map(|s| {
                let unit_ms: Vec<f64> = (0..s.best_ms.len())
                    .map(|i| s.best_ms[i % self.period])
                    .collect();
                Round {
                    setup_s: s.setup_s,
                    wall_s: unit_ms.iter().sum::<f64>() / 1e3,
                    unit_ms,
                    peak_rss_mb: s.peak_rss_mb,
                }
            })
    }

    /// The run's values: the median over slots of each slot's best round,
    /// and the tail's percentile. `None` before the first round.
    pub fn summary(&self) -> Option<(Values, f64)> {
        let best: Vec<Round> = self.best_rounds().collect();
        let vals: Vec<Values> = best.iter().map(|r| values(r).ok()).collect::<Option<_>>()?;
        let pct = stats::tail(&best.first()?.unit_ms)?.0;
        let col = |k: usize| stats::median(&vals.iter().map(|v| v[k]).collect::<Vec<_>>());
        Some(([col(0)?, col(1)?, col(2)?, col(3)?, col(4)?], pct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup_s: f64, unit_ms: Vec<f64>, peak_rss_mb: f64) -> Round {
        Round {
            setup_s,
            unit_ms,
            wall_s: 1.0,
            peak_rss_mb,
        }
    }

    /// Two units a, b, cycled six times per round (12 units, so a tail
    /// exists): the best round holds a's and b's best over every
    /// repetition in every round.
    #[test]
    fn one_slot_takes_each_units_best_repetition() {
        let mut log = RoundLog::new(1, 2);
        let a_b = |a: f64, b: f64| {
            (0..12)
                .map(|i| if i % 2 == 0 { a + i as f64 } else { b })
                .collect()
        };
        log.push(round(0.3, a_b(10.0, 50.0), 5.0)).unwrap();
        log.push(round(0.2, a_b(9.0, 60.0), 6.0)).unwrap();
        let (v, pct) = log.summary().unwrap();
        assert_eq!(v[0], 0.2); // shortest set-up
        assert_eq!(v[4], 5.0); // lowest peak memory
        assert_eq!(v[2], (9.0 + 50.0) / 2.0); // six 9s and six 50s
        assert_eq!(v[3], 9.0); // two units beyond the 10 slowest is rank 2
        assert!((v[1] - 12.0 / ((6.0 * 9.0 + 6.0 * 50.0) / 1e3)).abs() < 1e-9);
        assert!((pct - 100.0 * 2.0 / 12.0).abs() < 1e-12);
        assert_eq!((log.units(), log.per_round().len()), (24, 2));
    }

    #[test]
    fn slots_are_summarised_apart_then_by_their_median() {
        let mut log = RoundLog::new(3, 11);
        let flat = |ms: f64| vec![ms; 11];
        // Slots 0, 1, 2, then each again: slot k's best is 1, 2 or 4 ms.
        for (k, ms) in [1.0, 2.0, 8.0, 3.0, 5.0, 4.0].into_iter().enumerate() {
            log.push(round(k as f64, flat(ms), 1.0)).unwrap();
        }
        let (v, _) = log.summary().unwrap();
        assert_eq!(v[2], 2.0);
        assert_eq!(v[0], 1.0); // slot best set-ups 0, 1, 2
                               // A round whose units differ from its slot's is refused.
        assert!(log.push(round(0.0, vec![1.0; 12], 1.0)).is_err());
    }

    #[test]
    fn a_round_without_a_tail_is_refused() {
        let mut log = RoundLog::new(1, 1);
        assert!(log.push(round(0.1, vec![1.0; 10], 1.0)).is_err());
        assert!(log.summary().is_none());
    }
}
