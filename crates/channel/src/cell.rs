//! Shared cell environment: one ray-trace geometry, many UEs.
//!
//! Every UE of a fleet-scale cell shares the same physical scene — the
//! same gNB, walls, and carrier. In the image-source method the expensive
//! UE-independent piece of a trace is the gNB image set: each wall's
//! mirror of the gNB (and, for double bounces, each wall pair's image of
//! an image) depends only on the gNB position and the wall segments,
//! never on the UE. [`SharedSceneCache`] precomputes those images once
//! per cell; the per-UE work that remains is only the endpoint term
//! (bounce-point intersection, distance, AoD/AoA against the UE pose).
//!
//! Bit-identity: [`crate::geom2d::Segment::mirror`] is a pure function,
//! so a cached image is bitwise equal to a freshly computed one — a trace
//! served from the cache is bit-identical to an uncached
//! [`crate::environment::Scene::paths_to_into`] trace. A fleet of size 1
//! therefore reproduces the single-link pipeline exactly.
//!
//! Amortization is observable: with the `telemetry` feature the cache
//! counts the traces it served and the mirror evaluations those traces
//! skipped (shared, monotonic atomics — reads never perturb results).

use crate::environment::Scene;
use crate::geom2d::Vec2;
#[cfg(feature = "telemetry")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Precomputed UE-independent ray-trace geometry for one [`Scene`],
/// shared read-only across every UE (and worker thread) of a cell.
#[derive(Debug, Default)]
pub struct SharedSceneCache {
    /// Per-wall gNB image, in scene wall order.
    images: Vec<Vec2>,
    /// Traces served from this cache (perf observability only).
    #[cfg(feature = "telemetry")]
    traces_served: AtomicU64,
}

/// A snapshot of the cache's amortization counters. The served-trace
/// counts stay zero without the `telemetry` feature; check
/// [`SharedSceneCounters::ENABLED`] before reporting them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedSceneCounters {
    /// gNB wall images precomputed at build time (once per cell).
    pub images_built: u64,
    /// Ray traces served from the cached images.
    pub traces_served: u64,
    /// Mirror evaluations the cache absorbed: every served trace would
    /// have recomputed each wall image.
    pub mirror_ops_saved: u64,
}

impl SharedSceneCounters {
    /// True when the served-trace counters are compiled in (the
    /// `telemetry` feature). When false, `traces_served` and
    /// `mirror_ops_saved` are absent, not zero.
    pub const ENABLED: bool = cfg!(feature = "telemetry");
}

impl SharedSceneCache {
    /// Precomputes the gNB image set for `scene`. The cache is tied to the
    /// scene's gNB position and wall list; callers must rebuild it if
    /// either changes (registry scenes never do mid-run — gantry rotation
    /// is applied post-trace as an AoD shift).
    pub fn build(scene: &Scene) -> Self {
        Self {
            images: scene
                .walls
                .iter()
                .map(|w| w.seg.mirror(scene.gnb))
                .collect(),
            #[cfg(feature = "telemetry")]
            traces_served: AtomicU64::new(0),
        }
    }

    /// The cached gNB image of wall `wall_idx`.
    pub fn image(&self, wall_idx: usize) -> Vec2 {
        debug_assert!(wall_idx < self.images.len());
        self.images[wall_idx]
    }

    /// Number of cached wall images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True for a scene with no walls (LOS-only; nothing to cache).
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Accounts one trace served from the cache. Compiled away without
    /// `telemetry`.
    #[inline]
    pub fn note_trace(&self) {
        #[cfg(feature = "telemetry")]
        self.traces_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Current amortization counters.
    pub fn counters(&self) -> SharedSceneCounters {
        #[cfg(feature = "telemetry")]
        let served = self.traces_served.load(Ordering::Relaxed);
        #[cfg(not(feature = "telemetry"))]
        let served = 0u64;
        SharedSceneCounters {
            images_built: self.images.len() as u64,
            traces_served: served,
            mirror_ops_saved: served.saturating_mul(self.images.len() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom2d::v2;
    use mmwave_dsp::units::FC_28GHZ;

    #[test]
    fn cached_images_match_fresh_mirrors_bitwise() {
        let scene = Scene::conference_room(FC_28GHZ);
        let cache = SharedSceneCache::build(&scene);
        assert_eq!(cache.len(), scene.walls.len());
        for (i, w) in scene.walls.iter().enumerate() {
            let fresh = w.seg.mirror(scene.gnb);
            assert_eq!(cache.image(i).x.to_bits(), fresh.x.to_bits());
            assert_eq!(cache.image(i).y.to_bits(), fresh.y.to_bits());
        }
    }

    #[test]
    fn cached_trace_is_bit_identical_to_uncached() {
        let scene = Scene::conference_room(FC_28GHZ);
        let cache = SharedSceneCache::build(&scene);
        let mut plain = Vec::new();
        let mut cached = Vec::new();
        for (ue, facing) in [
            (v2(0.9, 7.0), 180.0),
            (v2(-2.0, 4.5), 170.0),
            (v2(3.0, 9.0), 200.0),
        ] {
            scene.paths_to_into(ue, facing, &mut plain);
            scene.paths_to_cached_into(Some(&cache), ue, facing, &mut cached);
            assert_eq!(plain.len(), cached.len());
            for (a, b) in plain.iter().zip(&cached) {
                assert_eq!(a.aod_deg.to_bits(), b.aod_deg.to_bits());
                assert_eq!(a.aoa_deg.to_bits(), b.aoa_deg.to_bits());
                assert_eq!(a.gain.re.to_bits(), b.gain.re.to_bits());
                assert_eq!(a.gain.im.to_bits(), b.gain.im.to_bits());
                assert_eq!(a.tof_ns.to_bits(), b.tof_ns.to_bits());
                assert_eq!(a.kind, b.kind);
            }
        }
    }

    #[test]
    fn double_bounce_trace_matches_through_cache() {
        let mut scene = Scene::conference_room(FC_28GHZ);
        scene.max_bounces = 2;
        let cache = SharedSceneCache::build(&scene);
        let mut plain = Vec::new();
        let mut cached = Vec::new();
        scene.paths_to_into(v2(0.9, 7.0), 180.0, &mut plain);
        scene.paths_to_cached_into(Some(&cache), v2(0.9, 7.0), 180.0, &mut cached);
        assert_eq!(plain, cached);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn counters_track_served_traces() {
        let scene = Scene::conference_room(FC_28GHZ);
        let cache = SharedSceneCache::build(&scene);
        let mut out = Vec::new();
        for _ in 0..5 {
            scene.paths_to_cached_into(Some(&cache), v2(0.9, 7.0), 180.0, &mut out);
        }
        let c = cache.counters();
        assert_eq!(c.images_built, 4);
        assert_eq!(c.traces_served, 5);
        assert_eq!(c.mirror_ops_saved, 20);
    }
}
