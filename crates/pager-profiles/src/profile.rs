//! One device's location profile.
//!
//! A profile ingests sightings append-only and can produce a
//! planner-ready distribution at any moment under three estimators
//! (Laplace empirical, exponential recency, first-order Markov), all
//! subject to a staleness decay toward uniform: the longer a device
//! has gone unsighted, the less the profile claims to know.

use jsonio::Value;

use crate::estimators;
use crate::markov::MarkovModel;

/// Time is the same `f64` clock `cellnet` traces use.
pub type Time = f64;

/// Which estimator turns a profile into a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Estimator {
    /// Laplace-smoothed empirical frequencies over the whole history.
    Empirical,
    /// Exponential-recency-weighted frequencies.
    Recency,
    /// First-order Markov prediction from the last sighting and the
    /// elapsed time.
    Markov,
}

impl Estimator {
    /// Stable name for keys, metrics, and the wire protocol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Estimator::Empirical => "empirical",
            Estimator::Recency => "recency",
            Estimator::Markov => "markov",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// A message listing the valid names.
    pub fn parse(name: &str) -> Result<Estimator, String> {
        match name {
            "empirical" => Ok(Estimator::Empirical),
            "recency" => Ok(Estimator::Recency),
            "markov" => Ok(Estimator::Markov),
            other => Err(format!(
                "unknown estimator {other:?} (expected \"empirical\", \"recency\" or \"markov\")"
            )),
        }
    }

    /// Stable small integer for cache-key folding.
    #[must_use]
    pub fn tag(self) -> u64 {
        match self {
            Estimator::Empirical => 0,
            Estimator::Recency => 1,
            Estimator::Markov => 2,
        }
    }
}

/// Estimation knobs shared by every profile in a store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// Laplace smoothing mass per cell (also the Markov row smoothing).
    pub alpha: f64,
    /// Recency decay per sighting, in `(0, 1]`.
    pub decay: f64,
    /// Staleness half-life: after this long unsighted, a profile's
    /// distribution has moved halfway to uniform. `f64::INFINITY`
    /// disables staleness decay.
    pub staleness_half_life: f64,
    /// Cap on Markov prediction steps (the chain has converged long
    /// before this for any realistic mobility).
    pub markov_horizon: usize,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            alpha: 0.5,
            decay: 0.95,
            staleness_half_life: 256.0,
            markov_horizon: 32,
        }
    }
}

impl ProfileConfig {
    /// Validates the knobs (constructors of stores call this once).
    ///
    /// # Errors
    ///
    /// A message naming the offending knob.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err("alpha must be positive and finite".to_string());
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err("decay must be in (0, 1]".to_string());
        }
        if self.staleness_half_life <= 0.0 || self.staleness_half_life.is_nan() {
            return Err("staleness_half_life must be positive".to_string());
        }
        Ok(())
    }

    /// The staleness blend weight `λ = 2^(−elapsed / half_life)` for a
    /// device unsighted for `elapsed` time units. `λ = 1` means fully
    /// trusted; `λ → 0` means forgotten. Monotone non-increasing in
    /// `elapsed`.
    #[must_use]
    pub(crate) fn staleness_weight(&self, elapsed: f64) -> f64 {
        if elapsed <= 0.0 || self.staleness_half_life.is_infinite() {
            return 1.0;
        }
        (-(elapsed / self.staleness_half_life) * std::f64::consts::LN_2).exp()
    }
}

/// One device's versioned location profile.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    cells: usize,
    version: u64,
    sightings: u64,
    /// Empirical per-cell counts.
    counts: Vec<f64>,
    /// Recency weights: scaled by `decay` on every sighting, so cell
    /// weight equals `Σ decay^age` without replaying the history.
    recency: Vec<f64>,
    markov: MarkovModel,
    last: Option<(Time, usize)>,
}

impl DeviceProfile {
    /// An empty profile over `cells` cells (version 0, answers
    /// uniform until the first sighting).
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0`.
    #[must_use]
    pub fn new(cells: usize) -> DeviceProfile {
        assert!(cells > 0, "need at least one cell");
        DeviceProfile {
            cells,
            version: 0,
            sightings: 0,
            counts: vec![0.0; cells],
            recency: vec![0.0; cells],
            markov: MarkovModel::new(cells),
            last: None,
        }
    }

    /// Number of cells this profile is defined over.
    #[must_use]
    pub(crate) fn num_cells(&self) -> usize {
        self.cells
    }

    /// Monotonically increasing profile version (bumped per sighting).
    #[must_use]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The most recent sighting, if any.
    #[must_use]
    pub(crate) fn last_sighting(&self) -> Option<(Time, usize)> {
        self.last
    }

    /// Ingests one sighting, bumping the version to `version`.
    ///
    /// Sightings must arrive in non-decreasing time order per device
    /// and with a version larger than the current one (the store hands
    /// out globally increasing versions so re-admitted devices never
    /// reuse one).
    ///
    /// # Errors
    ///
    /// A message on an out-of-range cell, a time regression, or a
    /// non-increasing version.
    pub fn observe(
        &mut self,
        time: Time,
        cell: usize,
        version: u64,
        config: &ProfileConfig,
    ) -> Result<(), String> {
        if cell >= self.cells {
            return Err(format!(
                "cell {cell} out of range for a {}-cell profile",
                self.cells
            ));
        }
        if !time.is_finite() {
            return Err("sighting time must be finite".to_string());
        }
        if version <= self.version {
            return Err(format!(
                "version must increase (have {}, got {version})",
                self.version
            ));
        }
        if let Some((last_time, last_cell)) = self.last {
            if time < last_time {
                return Err(format!("sighting at {time} regresses before {last_time}"));
            }
            self.markov.observe(last_cell, cell);
        }
        self.counts[cell] += 1.0;
        for w in &mut self.recency {
            *w *= config.decay;
        }
        self.recency[cell] += 1.0;
        self.sightings += 1;
        self.last = Some((time, cell));
        self.version = version;
        Ok(())
    }

    /// The staleness blend weight of this profile at `now`.
    #[must_use]
    pub(crate) fn staleness_weight(&self, now: Time, config: &ProfileConfig) -> f64 {
        match self.last {
            None => 0.0, // never sighted: fully uniform
            Some((time, _)) => config.staleness_weight(now - time),
        }
    }

    /// The planner-ready distribution at `now`: the chosen estimator's
    /// output blended toward uniform by the staleness weight. Every
    /// entry is strictly positive and the row sums to 1 within 1e-12
    /// (the paper's model requirement) for any ingest history.
    #[must_use]
    pub fn distribution(
        &self,
        estimator: Estimator,
        now: Time,
        config: &ProfileConfig,
    ) -> Vec<f64> {
        let base = match (estimator, self.last) {
            (_, None) => estimators::uniform(self.cells),
            (Estimator::Empirical, _) => {
                estimators::empirical_from_counts(&self.counts, config.alpha)
            }
            (Estimator::Recency, _) => {
                estimators::empirical_from_counts(&self.recency, config.alpha)
            }
            (Estimator::Markov, Some((time, cell))) => {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let steps = (now - time).max(0.0).round().min(1e9) as usize;
                self.markov
                    .predict(cell, steps.min(config.markov_horizon), config.alpha)
            }
        };
        estimators::blend_toward_uniform(&base, self.staleness_weight(now, config))
    }

    /// Snapshot as a JSON object.
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        let (last_time, last_cell) = match self.last {
            Some((t, c)) => (Value::Float(t), Value::from(c)),
            None => (Value::Null, Value::Null),
        };
        Value::object(vec![
            ("cells", Value::from(self.cells)),
            ("version", Value::from(self.version)),
            ("sightings", Value::from(self.sightings)),
            (
                "counts",
                Value::Array(self.counts.iter().map(|&n| Value::Float(n)).collect()),
            ),
            (
                "recency",
                Value::Array(self.recency.iter().map(|&w| Value::Float(w)).collect()),
            ),
            ("markov", self.markov.to_json()),
            ("last_time", last_time),
            ("last_cell", last_cell),
        ])
    }

    /// Rebuilds a profile from [`DeviceProfile::to_json`] output.
    ///
    /// # Errors
    ///
    /// A message on malformed or inconsistent payloads.
    pub(crate) fn from_json(value: &Value) -> Result<DeviceProfile, String> {
        let cells = value
            .get("cells")
            .and_then(Value::as_usize)
            .filter(|&c| c > 0)
            .ok_or_else(|| "profile needs a positive \"cells\"".to_string())?;
        let version = read_u64_field(value, "profile", "version")?;
        let sightings = read_u64_field(value, "profile", "sightings")?;
        let counts = read_f64s(value, "counts", cells)?;
        let recency = read_f64s(value, "recency", cells)?;
        let markov = MarkovModel::from_json(
            value
                .get("markov")
                .ok_or_else(|| "profile needs \"markov\"".to_string())?,
        )?;
        if markov.num_cells() != cells {
            return Err("markov shape disagrees with \"cells\"".to_string());
        }
        let last = match (value.get("last_time"), value.get("last_cell")) {
            (Some(Value::Null), _) | (None, _) => None,
            (Some(t), Some(c)) => {
                let t = t
                    .as_f64()
                    .ok_or_else(|| "\"last_time\" must be a number".to_string())?;
                let c = c
                    .as_usize()
                    .filter(|&c| c < cells)
                    .ok_or_else(|| "\"last_cell\" must be an in-range cell".to_string())?;
                Some((t, c))
            }
            _ => return Err("\"last_time\" without \"last_cell\"".to_string()),
        };
        Ok(DeviceProfile {
            cells,
            version,
            sightings,
            counts,
            recency,
            markov,
            last,
        })
    }
}

/// Reads a required counter field, distinguishing a missing key from a
/// malformed value: negative, fractional, and `u64`-overflowing
/// numbers (jsonio degrades the latter to floats) all fail `as_u64`
/// and get an error naming the offending value instead of a generic
/// "needs field".
pub(crate) fn read_u64_field(value: &Value, what: &str, key: &str) -> Result<u64, String> {
    let field = value
        .get(key)
        .ok_or_else(|| format!("{what} needs {key:?}"))?;
    field
        .as_u64()
        .ok_or_else(|| format!("{what} {key:?} must be a non-negative integer, got {field}"))
}

fn read_f64s(value: &Value, key: &str, expected: usize) -> Result<Vec<f64>, String> {
    let arr = value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("profile needs an array {key:?}"))?;
    if arr.len() != expected {
        return Err(format!(
            "{key:?} has {} entries, expected {expected}",
            arr.len()
        ));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{key:?}[{i}] must be a non-negative number"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{total_variation, uniform};

    fn cfg() -> ProfileConfig {
        ProfileConfig::default()
    }

    fn row_ok(p: &[f64]) {
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        assert!(p.iter().all(|&x| x > 0.0), "{p:?}");
    }

    #[test]
    fn fresh_profile_is_uniform() {
        let p = DeviceProfile::new(4);
        assert_eq!(p.version(), 0);
        for est in [Estimator::Empirical, Estimator::Recency, Estimator::Markov] {
            let d = p.distribution(est, 10.0, &cfg());
            assert!(total_variation(&d, &uniform(4)) < 1e-15);
        }
    }

    #[test]
    fn observe_bumps_version_and_concentrates() {
        let mut p = DeviceProfile::new(4);
        for (v, t) in (1..=6u64).zip([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]) {
            p.observe(t, 2, v, &cfg()).unwrap();
        }
        assert_eq!(p.version(), 6);
        assert_eq!(p.sightings, 6);
        assert_eq!(p.last_sighting(), Some((5.0, 2)));
        for est in [Estimator::Empirical, Estimator::Recency, Estimator::Markov] {
            let d = p.distribution(est, 5.0, &cfg());
            row_ok(&d);
            let best = d
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(best, 2, "{est:?}: {d:?}");
        }
    }

    #[test]
    fn observe_rejects_bad_input() {
        let mut p = DeviceProfile::new(3);
        assert!(p.observe(0.0, 7, 1, &cfg()).is_err());
        assert!(p.observe(f64::NAN, 0, 1, &cfg()).is_err());
        p.observe(5.0, 0, 3, &cfg()).unwrap();
        assert!(p.observe(4.0, 1, 4, &cfg()).is_err(), "time regression");
        assert!(p.observe(6.0, 1, 3, &cfg()).is_err(), "version reuse");
        assert_eq!(p.version(), 3);
    }

    #[test]
    fn staleness_pulls_toward_uniform() {
        let mut p = DeviceProfile::new(3);
        p.observe(0.0, 0, 1, &cfg()).unwrap();
        let soon = p.distribution(Estimator::Empirical, 1.0, &cfg());
        let late = p.distribution(Estimator::Empirical, 10_000.0, &cfg());
        let u = uniform(3);
        assert!(total_variation(&late, &u) < total_variation(&soon, &u));
        assert!(total_variation(&late, &u) < 1e-6, "{late:?}");
    }

    #[test]
    fn markov_uses_elapsed_time() {
        let mut p = DeviceProfile::new(2);
        let mut v = 0;
        // Strict alternation 0,1,0,1,... at unit intervals.
        for t in 0..40 {
            v += 1;
            p.observe(f64::from(t), (t as usize) % 2, v, &cfg())
                .unwrap();
        }
        // Last sighting: cell 1 at t=39. One step later the chain
        // says cell 0; two steps later cell 1 again.
        let one = p.distribution(Estimator::Markov, 40.0, &cfg());
        let two = p.distribution(Estimator::Markov, 41.0, &cfg());
        assert!(one[0] > 0.8, "{one:?}");
        assert!(two[1] > 0.75, "{two:?}");
        row_ok(&one);
        row_ok(&two);
    }

    #[test]
    fn json_round_trip() {
        let mut p = DeviceProfile::new(5);
        let mut v = 0;
        for (t, cell) in [(0.0, 1), (1.5, 2), (3.0, 2), (7.0, 4)] {
            v += 1;
            p.observe(t, cell, v, &cfg()).unwrap();
        }
        let text = p.to_json().to_string();
        let back = DeviceProfile::from_json(&jsonio::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        // Distributions agree exactly after the round trip.
        let a = p.distribution(Estimator::Markov, 9.0, &cfg());
        let b = back.distribution(Estimator::Markov, 9.0, &cfg());
        assert!(total_variation(&a, &b) < 1e-15);
    }

    #[test]
    fn config_validation() {
        assert!(ProfileConfig::default().validate().is_ok());
        let bad = ProfileConfig {
            alpha: 0.0,
            ..ProfileConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ProfileConfig {
            decay: 1.5,
            ..ProfileConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ProfileConfig {
            staleness_half_life: 0.0,
            ..ProfileConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn staleness_weight_shape() {
        let c = cfg();
        assert_eq!(c.staleness_weight(0.0), 1.0);
        let half = c.staleness_weight(c.staleness_half_life);
        assert!((half - 0.5).abs() < 1e-12);
        assert!(c.staleness_weight(10.0) > c.staleness_weight(20.0));
        let forever = ProfileConfig {
            staleness_half_life: f64::INFINITY,
            ..c
        };
        assert_eq!(forever.staleness_weight(1e12), 1.0);
    }
}
