//! Seeded fleets shared by more than one integration suite
//! (`relay_failures.rs`, `observability.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use vod_core::{Bandwidth, Catalog, RandomPermutationAllocator, SystemParams, VideoSystem};

/// 4 poor boxes (u = 0.6) relayed by 8 rich ones (u = 2.4) at u* = 1.2,
/// one replica per stripe: the fleet is u*-compensable, but its supply is
/// too thin for poor-first multi-swarm demand.
pub fn starved_relayed_fleet() -> VideoSystem {
    let c: u16 = 4;
    let mut uploads = vec![0.6f64; 4];
    uploads.extend(vec![2.4f64; 8]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 4.0, c);
    let n = boxes.len();
    let k = 1u32;
    let catalog_size = (boxes.average_storage_videos(c) * n as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, 16, c);
    let params = SystemParams::new(n, boxes.average_upload(), 4, c, k, 1.5, 16);
    let mut rng = StdRng::seed_from_u64(29);
    VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        Some(Bandwidth::from_streams(1.2)),
        &mut rng,
    )
    .expect("fleet is u*-compensable")
}
