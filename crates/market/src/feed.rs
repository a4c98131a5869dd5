//! Live-feed simulation for the streaming online-adaptation pipeline.
//!
//! [`stitched_dataset`] builds one continuous [`Dataset`] from a sequence of
//! [`MarketConfig`] *regime segments*. Each segment's close paths are
//! generated independently and then spliced price-continuously (segment
//! `n+1` is rescaled per asset so its first close equals segment `n`'s last
//! close), so the price-relative stream is well defined across every seam
//! and a seam *is* a regime shift — drift, volatility, momentum and
//! reversion all flip at a known bar index.
//!
//! The `ppn-stream` updater walks such a dataset's bars from its split
//! onward, one gradient step per bar, which is how it sees "new" market
//! periods without a real exchange connection. Determinism is inherited from
//! the generator — the same segment configs always produce the same bars.

use crate::dataset::{Dataset, Preset};
use crate::gbm::{generate_paths, ClosePaths, MarketConfig};
use crate::ohlc::synthesize_ohlc;
use crate::relatives::price_relatives;

/// Builds a price-continuous dataset from consecutive regime segments.
///
/// Every segment must use the same asset count; the stitched dataset has
/// `sum(periods) − (segments − 1)` periods (each later segment's first bar
/// coincides with its predecessor's last). `split` marks where the "live"
/// part of the feed begins — everything before it is pretraining history.
/// No late-listing simulation is applied: a live feed has no missing bars.
///
/// # Panics
/// Panics when `segments` is empty, asset counts disagree, or `split` is
/// not inside the stitched period range.
pub fn stitched_dataset(preset: Preset, segments: &[MarketConfig], split: usize) -> Dataset {
    assert!(!segments.is_empty(), "stitched_dataset needs at least one segment");
    let assets = segments[0].assets;
    assert!(
        segments.iter().all(|s| s.assets == assets),
        "all regime segments must share one asset universe"
    );

    let mut prices: Vec<f64> = Vec::new();
    let mut periods = 0usize;
    for (n, seg) in segments.iter().enumerate() {
        let paths = generate_paths(seg);
        if n == 0 {
            prices.extend_from_slice(&paths.prices);
            periods = paths.periods;
            continue;
        }
        // Rescale so the segment's first close lands exactly on the current
        // last close of every asset, then skip that coinciding bar.
        let last: Vec<f64> = (0..assets).map(|i| prices[(periods - 1) * assets + i]).collect();
        for t in 1..paths.periods {
            for (i, anchor) in last.iter().enumerate() {
                prices.push(paths.at(t, i) / paths.at(0, i) * anchor);
            }
        }
        periods += paths.periods - 1;
    }

    let paths = ClosePaths { assets, prices, periods };
    assert!(split + 1 < periods, "split {split} outside stitched range {periods}");
    let ohlc = synthesize_ohlc(&paths, segments[0].seed);
    let relatives = price_relatives(&ohlc);
    Dataset { preset, ohlc, relatives, split }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(periods: usize, seed: u64, drift: f64, momentum: f64) -> MarketConfig {
        MarketConfig { assets: 4, periods, seed, drift, momentum, ..MarketConfig::default() }
    }

    #[test]
    fn stitched_prices_are_continuous_at_the_seam() {
        let a = seg(100, 11, 8e-4, 0.3);
        let b = seg(60, 22, -8e-4, -0.2);
        let ds = stitched_dataset(Preset::CryptoA, &[a.clone(), b.clone()], 80);
        assert_eq!(ds.periods(), 100 + 60 - 1);
        // Every relative across the seam must be finite and positive; the
        // seam bar itself equals segment A's last close, so the relative at
        // t = 99 reflects segment B's own first move, not a rescaling jump.
        for t in 0..ds.periods() - 1 {
            for &x in ds.relative(t) {
                assert!(x.is_finite() && x > 0.0, "bad relative {x} at {t}");
            }
        }
        // Deterministic in the segment configs.
        let ds2 = stitched_dataset(Preset::CryptoA, &[a, b], 80);
        assert_eq!(ds.ohlc.close(120, 2), ds2.ohlc.close(120, 2));
    }

    #[test]
    fn regimes_actually_differ_across_the_seam() {
        // A strong up-drift then a strong down-drift must show up in the
        // realised mean relatives on either side of the seam.
        let a = seg(400, 11, 2e-3, 0.3);
        let b = seg(400, 22, -2e-3, 0.3);
        let ds = stitched_dataset(Preset::CryptoA, &[a, b], 300);
        let mean = |lo: usize, hi: usize| -> f64 {
            let mut s = 0.0;
            let mut n = 0usize;
            for t in lo..hi {
                for &x in &ds.relative(t)[1..] {
                    s += x;
                    n += 1;
                }
            }
            s / n as f64
        };
        let pre = mean(0, 399);
        let post = mean(400, ds.periods() - 1);
        assert!(pre > post, "regime shift invisible: pre {pre} post {post}");
    }
}
