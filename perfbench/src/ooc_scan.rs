//! `ooc_scan`: reads that stream most cells of on-disk data larger than
//! the cell cache — parcel × point intersects joins, `CountPoints`
//! aggregates, and kNN selects, in turn.
//!
//! The result cache is off (the repeated joins would otherwise be hits)
//! and the cell cache is smaller than the data, so every join and
//! aggregate decodes cells from disk again. Resolution is lowered so a
//! read takes a fraction of a second. Cell decode, prefetch overlap,
//! host→device bytes, the layer index and the optimizer's join choice do
//! most of the work; the constraint canvas does little.

use crate::answer::Answer;
use crate::reads;
use crate::report::Outcome;
use crate::spans::Collector;
use crate::util::{ms, Rng, WorkDir};
use crate::Args;
use spade_baselines::brute;
use spade_core::dataset::{DatasetKind, IndexedDataset};
use spade_core::query::{JoinQuery, QueryResult, SelectQuery};
use spade_core::{trace, EngineConfig};
use spade_geometry::{Geometry, Point, Polygon};
use spade_index::GridIndex;
use spade_server::{QueryRequest, QueryService, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const POINTS: usize = 200_000;
const PARCELS: usize = 64;
/// 8 × 8 point cells and 4 × 4 parcel cells: few enough that one read's
/// spans fit the engine's 4,096-span ring.
const POINT_CELL: f64 = 1.0 / 8.0;
const PARCEL_CELL: f64 = 1.0 / 4.0;
const KNN_K: usize = 32;
/// The parcels are a fixed map layer: the seed draws the points and the
/// kNN probes, not the parcels. Join and aggregate time follow the parcel
/// layout, which moved them by up to a third between seeds.
const PARCEL_SEED: u64 = 1;
/// A sixth of the ~12 MB of encoded cells, so every scan decodes again.
const CELL_CACHE_BYTES: u64 = 2 << 20;
/// Lowered from 1024 and 512 so one read takes a few hundred ms.
const RESOLUTION: u32 = 128;
const LAYER_RESOLUTION: u32 = 64;

fn engine_config(trace: bool) -> (EngineConfig, Vec<String>) {
    let config = EngineConfig {
        resolution: RESOLUTION,
        layer_resolution: LAYER_RESOLUTION,
        cell_cache_bytes: CELL_CACHE_BYTES,
        result_cache_enabled: false,
        tracing: trace,
        ..Default::default()
    };
    let set = vec![
        format!("EngineConfig.resolution = {RESOLUTION}"),
        format!("EngineConfig.layer_resolution = {LAYER_RESOLUTION}"),
        format!("EngineConfig.cell_cache_bytes = {CELL_CACHE_BYTES}"),
        "EngineConfig.result_cache_enabled = false".into(),
        "ServiceConfig::default() otherwise".into(),
    ];
    (config, set)
}

struct State {
    svc: QueryService,
    grids: [Arc<GridIndex>; 2],
    pts: Vec<Point>,
    parcels: Vec<Polygon>,
    dir: PathBuf,
}

impl Drop for State {
    fn drop(&mut self) {
        self.svc.shutdown();
    }
}

fn indexed(
    dir: PathBuf,
    name: &str,
    kind: DatasetKind,
    objects: &[(u32, Geometry)],
    cell: f64,
) -> IndexedDataset {
    let grid = GridIndex::build(Some(dir), objects, cell).expect("grid build");
    // A manifest lets the traced run reopen the cells for the decode probe.
    grid.save_manifest(0).expect("save manifest");
    IndexedDataset::new(name, kind, grid)
}

fn setup(args: &Args, work: &WorkDir) -> State {
    let pts = spade_datagen::spider::uniform_points(POINTS, args.seed);
    let parcels = spade_datagen::spider::parcels(PARCELS, 0.05, PARCEL_SEED);
    let dir = work.sub("data");
    let pt_objs: Vec<(u32, Geometry)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Point(*p)))
        .collect();
    let pc_objs: Vec<(u32, Geometry)> = parcels
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Polygon(p.clone())))
        .collect();
    let d_pts = indexed(
        dir.join("pts"),
        "pts",
        DatasetKind::Points,
        &pt_objs,
        POINT_CELL,
    );
    let d_pc = indexed(
        dir.join("parcels"),
        "parcels",
        DatasetKind::Polygons,
        &pc_objs,
        PARCEL_CELL,
    );
    let grids = [d_pc.grid(), d_pts.grid()];
    let svc = QueryService::new(ServiceConfig {
        engine: engine_config(args.trace).0,
        ..Default::default()
    });
    // Set-up and warm-up run untraced: only timed requests fill the ring.
    trace::set_enabled(false);
    svc.register_indexed("pts", d_pts);
    svc.register_indexed("parcels", d_pc);
    // Warm-up: one read of each kind, so lazy set-up and the optimizer's
    // first observations happen before timing.
    let session = svc.session();
    let mut rng = Rng::new(args.seed, 0x3a3a);
    for k in 0..3 {
        session
            .submit(request(&mut rng, k))
            .wait()
            .expect("warm-up read");
    }
    State {
        svc,
        grids,
        pts,
        parcels,
        dir,
    }
}

fn request(rng: &mut Rng, k: u64) -> QueryRequest {
    match k % 3 {
        0 => QueryRequest::Join {
            left: "parcels".into(),
            right: "pts".into(),
            query: JoinQuery::Intersects,
        },
        1 => QueryRequest::Join {
            left: "parcels".into(),
            right: "pts".into(),
            query: JoinQuery::CountPoints,
        },
        _ => QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Knn(Point::new(rng.f64(), rng.f64()), KNN_K),
        },
    }
}

pub fn run(args: &Args, work: &WorkDir, out: &mut Outcome) -> Vec<String> {
    let Some((state, setup_s)) = crate::util::setup_median(args, || setup(args, work)) else {
        return Vec::new();
    };
    let mut collector = Collector::default();
    let mut rng = Rng::new(args.seed, 0x5e1ec7);
    let misp0 = reads::mispredictions(&state.svc);
    let mut counters = Vec::new();
    let (reads, elapsed) = reads::closed_loop(
        args.seconds,
        args.trace,
        3,
        &mut collector,
        |k| request(&mut rng, k),
        reads::in_process(&state.svc, &state.grids, &mut counters),
        |_| {},
    );
    let misp = reads::mispredictions(&state.svc) - misp0;
    out.set("peak_rss_mb", crate::util::peak_rss_mb());
    out.set("setup_s", setup_s);
    reads::end_to_end(out, &reads, elapsed, 0.75);
    if args.trace {
        let cells = state.grids.iter().map(|g| g.num_cells()).sum();
        reads::per_layer(out, &reads, &counters, &collector, cells, misp);
        out.set("storage.decode_ms_per_mb", decode_ms_per_mb(&state));
    }
    // Oracle: the join and the aggregate repeat, so each is computed once.
    let join = Answer::of(QueryResult::Pairs(brute::join_polygon_point(
        &state.parcels,
        &state.pts,
    )));
    let agg = Answer::of(QueryResult::Counts(brute::aggregate(
        &state.parcels,
        &state.pts,
    )));
    reads::check(out, &reads, |r| match r {
        QueryRequest::Join {
            query: JoinQuery::Intersects,
            ..
        } => join.clone(),
        QueryRequest::Join {
            query: JoinQuery::CountPoints,
            ..
        } => agg.clone(),
        QueryRequest::Select {
            query: SelectQuery::Knn(q, k),
            ..
        } => Answer::Ranked(brute::knn(&state.pts, *q, *k)),
        other => unreachable!("ooc_scan never sends {other:?}"),
    });
    let bytes: u64 = state.grids.iter().map(|g| g.total_bytes()).sum();
    out.note(format!(
        "encoded cells {bytes} B over {} cells; cell cache {CELL_CACHE_BYTES} B",
        state.grids.iter().map(|g| g.num_cells()).sum::<usize>()
    ));
    drop(state);
    engine_config(args.trace).1
}

/// Time `IndexedDataset::load_cell` (uncached decode) over every cell of
/// both datasets, reopened from their manifests after the timed phase.
fn decode_ms_per_mb(state: &State) -> f64 {
    let mut total_ms = 0.0;
    let mut bytes = 0u64;
    for (name, kind) in [
        ("parcels", DatasetKind::Polygons),
        ("pts", DatasetKind::Points),
    ] {
        let (ds, _) = IndexedDataset::open(name, kind, state.dir.join(name)).expect("reopen grid");
        let grid = ds.grid();
        for i in 0..grid.num_cells() {
            let t = Instant::now();
            let mut s = trace::span("bench.storage.decode");
            s.attr("cell", i as u64);
            std::hint::black_box(ds.load_cell(i).expect("decode cell"));
            drop(s);
            total_ms += ms(t.elapsed());
        }
        bytes += grid.total_bytes();
    }
    trace::drain();
    total_ms / (bytes as f64 / 1e6)
}
