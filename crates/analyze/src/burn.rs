//! Multi-window SLO burn-rate alerting over the sampled time series.
//!
//! The classic SRE pattern: page only when the error budget is burning
//! fast *right now* (short window — catches real incidents quickly) AND
//! has been burning for a while (long window — rejects single-sample
//! blips). Both conditions are evaluated per sample over trailing means
//! of the `slo_burn` column; consecutive alerting samples merge into
//! one [`AlertWindow`], which `repro serve` also exports as `SloAlert`
//! spans on the `alerts` lane of the Chrome trace.

use desim::SimTime;
use ncsw_obs::{Ctx, Event, Lane, Phase, TimeSeries};
use serde::{Deserialize, Serialize};

/// Thresholds for the two-window burn alert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnConfig {
    /// Samples in the fast (short) trailing window.
    pub fast_samples: usize,
    /// Samples in the slow (long) trailing window.
    pub slow_samples: usize,
    /// Minimum mean miss fraction over the fast window.
    pub fast_burn: f64,
    /// Minimum mean miss fraction over the slow window.
    pub slow_burn: f64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        BurnConfig { fast_samples: 3, slow_samples: 12, fast_burn: 0.5, slow_burn: 0.25 }
    }
}

/// One merged alert window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertWindow {
    /// First alerting sample boundary.
    pub from: SimTime,
    /// Last alerting sample boundary.
    pub until: SimTime,
    /// Peak fast-window burn inside the window.
    pub peak_fast: f64,
    /// Peak slow-window burn inside the window.
    pub peak_slow: f64,
}

fn trailing_mean(v: &[f64], i: usize, n: usize) -> f64 {
    let lo = (i + 1).saturating_sub(n);
    let w = &v[lo..=i];
    w.iter().sum::<f64>() / w.len() as f64
}

/// Compute merged burn-rate alert windows from a sampled series.
pub fn burn_alerts(ts: &TimeSeries, cfg: &BurnConfig) -> Vec<AlertWindow> {
    let burns = &ts.slo_burn;
    let mut out: Vec<AlertWindow> = Vec::new();
    let mut open = false;
    // No verdict until the slower window has a full history — "has
    // been burning for a while" is meaningless two samples in.
    let need = cfg.fast_samples.max(cfg.slow_samples).max(1);
    for i in 0..burns.len() {
        let fast = trailing_mean(burns, i, cfg.fast_samples.max(1));
        let slow = trailing_mean(burns, i, cfg.slow_samples.max(1));
        let firing = i + 1 >= need && fast >= cfg.fast_burn && slow >= cfg.slow_burn;
        let t = ts.t[i];
        if firing {
            if open {
                let w = out.last_mut().unwrap();
                w.until = t;
                w.peak_fast = w.peak_fast.max(fast);
                w.peak_slow = w.peak_slow.max(slow);
            } else {
                out.push(AlertWindow { from: t, until: t, peak_fast: fast, peak_slow: slow });
                open = true;
            }
        } else {
            open = false;
        }
    }
    out
}

/// Render alert windows as `SloAlert` spans on the `alerts` lane, ready
/// to append to an [`ncsw_obs::EventLog`] before export.
pub fn alert_events(alerts: &[AlertWindow]) -> Vec<Event> {
    alerts
        .iter()
        .map(|w| Event::span(Phase::SloAlert, Lane::Alerts, w.from, w.until, Ctx::NONE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Duration;
    use ncsw_obs::TimeSeriesBuilder;

    fn series(burns: &[f64]) -> TimeSeries {
        // Build a series with the given per-window burn values by
        // feeding one completion per window (miss or hit).
        let iv = Duration::from_millis(10.0);
        let slo = Duration::from_millis(5.0);
        let mut b = TimeSeriesBuilder::new(vec![], SimTime::ZERO, iv, slo);
        let mut t = SimTime::ZERO;
        for &burn in burns {
            let lat = if burn > 0.5 { Duration::from_millis(9.0) } else { Duration::ZERO };
            b.on_complete(lat);
            t += iv;
            b.advance(t, 0);
        }
        b.finish(t, 0)
    }

    #[test]
    fn needs_both_windows_to_fire() {
        let cfg = BurnConfig { fast_samples: 1, slow_samples: 3, fast_burn: 1.0, slow_burn: 0.5 };
        // One hot sample amid cold ones: slow window rejects it.
        let blip = series(&[0.0, 1.0, 0.0, 0.0]);
        assert!(burn_alerts(&blip, &cfg).is_empty());
        // Sustained burn fires once the slow window catches up.
        let sustained = series(&[1.0, 1.0, 1.0, 1.0, 0.0]);
        let alerts = burn_alerts(&sustained, &cfg);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].from, SimTime::ZERO + Duration::from_millis(30.0));
        assert_eq!(alerts[0].until, SimTime::ZERO + Duration::from_millis(40.0));
        assert!((alerts[0].peak_fast - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consecutive_samples_merge_and_gaps_split() {
        let cfg = BurnConfig { fast_samples: 1, slow_samples: 1, fast_burn: 0.9, slow_burn: 0.9 };
        let ts = series(&[1.0, 1.0, 0.0, 1.0]);
        let alerts = burn_alerts(&ts, &cfg);
        assert_eq!(alerts.len(), 2);
        let evs = alert_events(&alerts);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, Phase::SloAlert);
        assert_eq!(evs[0].lane, Lane::Alerts);
        assert_eq!(evs[0].start, alerts[0].from);
    }
}
