//! `small_select`: small, never-repeating selections on 400k uniform
//! points cut into 6,400 on-disk cells, default engine and service config.
//!
//! Every selection misses the result cache (no two are alike) and touches
//! a handful of cells that the warm-up has already put in the cell cache,
//! so what is left is the per-query fixed cost: the constraint canvas at
//! the default 1024² resolution and the hull preparation of the filter
//! stage over all 6,400 cells. Cell decode, wire and joins do almost
//! nothing here.

use crate::answer::Answer;
use crate::reads;
use crate::report::Outcome;
use crate::spans::Collector;
use crate::util::{ms, Rng, Samples, WorkDir};
use crate::Args;
use spade_baselines::brute;
use spade_canvas::create::PreparedPolygon;
use spade_core::dataset::{DatasetKind, IndexedDataset};
use spade_core::distance::DistanceConstraint;
use spade_core::engine::Constraint;
use spade_core::query::{QueryResult, SelectQuery};
use spade_core::{trace, EngineConfig};
use spade_geometry::{BBox, Geometry, Point, Polygon};
use spade_index::GridIndex;
use spade_server::{QueryRequest, QueryService, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

const POINTS: usize = 400_000;
/// 80 × 80 = 6,400 cells over the unit square.
const CELL: f64 = 1.0 / 80.0;
const DATASET: &str = "pts";

struct State {
    svc: QueryService,
    grid: Arc<GridIndex>,
    pts: Vec<Point>,
}

impl Drop for State {
    fn drop(&mut self) {
        self.svc.shutdown();
    }
}

fn setup(args: &Args, work: &WorkDir) -> State {
    let pts = spade_datagen::spider::uniform_points(POINTS, args.seed);
    let objects: Vec<(u32, Geometry)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Point(*p)))
        .collect();
    let dir = work.sub("data");
    let grid = GridIndex::build(Some(dir), &objects, CELL).expect("grid build");
    let ds = IndexedDataset::new(DATASET, DatasetKind::Points, grid);
    let grid = ds.grid();
    let svc = QueryService::new(ServiceConfig {
        engine: EngineConfig {
            tracing: args.trace,
            ..Default::default()
        },
        ..Default::default()
    });
    // Set-up and warm-up run untraced: only timed requests fill the ring.
    trace::set_enabled(false);
    svc.register_indexed(DATASET, ds);
    // Warm-up: one whole-extent read puts every cell in the cell cache
    // (its fingerprint never recurs, so the result cache stays cold for
    // the timed reads), then a few small reads from their own stream.
    let session = svc.session();
    let whole = QueryRequest::Select {
        dataset: DATASET.into(),
        query: SelectQuery::Range(BBox::new(Point::new(-1.0, -1.0), Point::new(2.0, 2.0))),
    };
    session.submit(whole).wait().expect("warm-up read");
    let mut rng = Rng::new(args.seed, 0x3a3a);
    for k in 0..8 {
        session
            .submit(request(&mut rng, k))
            .wait()
            .expect("warm-up read");
    }
    State { svc, grid, pts }
}

/// A small star-shaped polygon around `c` with radius about `r`.
fn blob(rng: &mut Rng, c: Point, r: f64) -> Polygon {
    let n = 6 + rng.below(5);
    let phase = rng.range(0.0, std::f64::consts::TAU);
    Polygon::new(
        (0..n)
            .map(|k| {
                let a = phase + std::f64::consts::TAU * k as f64 / n as f64;
                let rr = r * rng.range(0.6, 1.0);
                Point::new(c.x + rr * a.cos(), c.y + rr * a.sin())
            })
            .collect(),
    )
}

/// Read `k` of a stream: in every eight, three ranges, three intersects,
/// one contained and one within-distance, each at a fresh random place
/// and size (side 0.004–0.025, so 1 to about 9 cells). The cheap kinds
/// are three quarters of the mix, so the median sits well inside one
/// cluster of latencies and the p90 inside the slowest kind.
fn request(rng: &mut Rng, k: u64) -> QueryRequest {
    let c = Point::new(rng.range(0.03, 0.97), rng.range(0.03, 0.97));
    let side = rng.range(0.004, 0.025);
    let query = match k % 8 {
        0 | 2 | 4 => {
            let h = side / 2.0 * rng.range(0.5, 1.0);
            SelectQuery::Range(BBox::new(
                Point::new(c.x - side / 2.0, c.y - h),
                Point::new(c.x + side / 2.0, c.y + h),
            ))
        }
        1 | 3 | 5 => SelectQuery::Intersects(blob(rng, c, side / 2.0)),
        6 => SelectQuery::Contained(blob(rng, c, side / 2.0)),
        _ => {
            let poly = blob(rng, c, side / 4.0);
            SelectQuery::WithinDistance(DistanceConstraint::Polygon(poly), side / 4.0)
        }
    };
    QueryRequest::Select {
        dataset: DATASET.into(),
        query,
    }
}

/// The brute-force answer to a selection.
fn oracle(pts: &[Point], request: &QueryRequest) -> Answer {
    let QueryRequest::Select { query, .. } = request else {
        unreachable!("small_select sends selections only");
    };
    let ids = match query {
        SelectQuery::Range(bb) => brute::select_points(pts, &Polygon::rect(*bb)),
        SelectQuery::Intersects(p) | SelectQuery::Contained(p) => brute::select_points(pts, p),
        SelectQuery::WithinDistance(DistanceConstraint::Polygon(p), r) => {
            brute::select_within_distance(pts, p, *r)
        }
        other => unreachable!("small_select never sends {other:?}"),
    };
    Answer::of(QueryResult::Ids(ids))
}

pub fn run(args: &Args, work: &WorkDir, out: &mut Outcome) -> Vec<String> {
    let Some((state, setup_s)) = crate::util::setup_median(args, || setup(args, work)) else {
        return Vec::new();
    };
    let mut collector = Collector::default();
    let mut rng = Rng::new(args.seed, 0x5e1ec7);
    let engine = Arc::clone(state.svc.engine());
    let mut hull_ms = Vec::new();
    let mut constraint_ms = Vec::new();
    let misp0 = reads::mispredictions(&state.svc);
    let grids = [Arc::clone(&state.grid)];
    let mut counters = Vec::new();
    let (reads, elapsed) = reads::closed_loop(
        args.seconds,
        args.trace,
        8,
        &mut collector,
        |k| request(&mut rng, k),
        reads::in_process(&state.svc, &grids, &mut counters),
        |read| {
            // Layer replays, outside the read's own timing.
            let t = Instant::now();
            {
                let mut s = trace::span("bench.index.hull_prep");
                s.attr("req", read.id);
                let hulls: Vec<PreparedPolygon> = state
                    .grid
                    .bounding_polygons()
                    .into_iter()
                    .map(|(i, h)| PreparedPolygon::prepare(i, &h))
                    .collect();
                std::hint::black_box(hulls);
            }
            hull_ms.push(ms(t.elapsed()));
            let QueryRequest::Select { query, .. } = &read.request else {
                return;
            };
            let t = Instant::now();
            {
                let mut s = trace::span("bench.canvas.constraint");
                s.attr("req", read.id);
                let c = match query {
                    SelectQuery::Range(bb) => Constraint::from_rects(&engine, &[(0, *bb)]),
                    SelectQuery::Intersects(p) | SelectQuery::Contained(p) => {
                        Constraint::from_polygons(&engine, &[PreparedPolygon::prepare(0, p)])
                    }
                    // Distance canvases are drawn by their own generators.
                    _ => return,
                };
                std::hint::black_box(c);
            }
            constraint_ms.push(ms(t.elapsed()));
        },
    );
    let misp = reads::mispredictions(&state.svc) - misp0;
    out.set("peak_rss_mb", crate::util::peak_rss_mb());
    out.set("setup_s", setup_s);
    reads::end_to_end(out, &reads, elapsed, 0.9);
    if args.trace {
        reads::per_layer(
            out,
            &reads,
            &counters,
            &collector,
            state.grid.num_cells(),
            misp,
        );
        out.set("index.hull_prep_ms", Samples::new(hull_ms).mean());
        out.set("canvas.constraint_ms", Samples::new(constraint_ms).mean());
    }
    reads::check(out, &reads, |r| oracle(&state.pts, r));
    out.note(format!("grid cells {}", state.grid.num_cells()));
    drop(state);
    vec![
        "EngineConfig::default()".into(),
        "ServiceConfig::default()".into(),
    ]
}
