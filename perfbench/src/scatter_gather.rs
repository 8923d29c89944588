//! `scatter_gather`: range-band selects and parcel × point joins through
//! `ClusterClient` over three full-copy loopback workers.
//!
//! The data is the cell-skewed gaussian data of the engine's own
//! `scatter_gather` bench: most bytes sit in the central cells, which the
//! byte-balanced shard map cuts across workers. The data is read-only —
//! fencing scatters against live writes is an open engine bug with its
//! own test, not a benchmark workload. Every answer is checked against the
//! brute-force oracle, and the first few also against worker 0's own.

use crate::answer::Answer;
use crate::reads::{self, query_stats, server_split, spans_per_layer, Reply};
use crate::report::Outcome;
use crate::spans::Collector;
use crate::util::{ms, prom_sum, Rng, Samples, WorkDir};
use crate::Args;
use spade_baselines::brute;
use spade_client::{Client, ClientConfig};
use spade_cluster::{ClusterClient, ClusterConfig};
use spade_core::dataset::{DatasetKind, IndexedDataset};
use spade_core::query::{JoinQuery, QueryResult, SelectQuery};
use spade_core::{trace, EngineConfig, QueryStats};
use spade_geometry::{BBox, Geometry, Point, Polygon};
use spade_index::GridIndex;
use spade_net::{NetServer, NetServerConfig};
use spade_server::{QueryRequest, QueryService, ResponsePayload, ServiceConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 3;
const POINTS: usize = 20_000;
const POLYS: usize = 400;
/// The boxes are a fixed map layer: the seed draws the points and the
/// range bands, not the boxes. Join time follows the boxes' layout (how
/// deep they overlap, so how many layer passes a cell pair takes), which
/// moved it by up to 70% between seeds.
const BOX_SEED: u64 = 12;
/// World extent 100 × 100 in a 3 × 3 grid. On a 4 × 4 grid the
/// byte-balanced shard cut flipped between bounds [0, 7, 11] and
/// [0, 8, 12] from seed to seed, and latency with it.
const WORLD: f64 = 100.0;
const CELL: f64 = 100.0 / 3.0;
/// Answers also compared with one worker's own, per run.
const SINGLE_WORKER_CHECKS: usize = 24;

/// The engine settings of the engine's own `scatter_gather` bench.
fn config(trace: bool) -> (EngineConfig, Vec<String>) {
    let mut c = EngineConfig::test_small();
    c.resolution = 256;
    c.layer_resolution = 256;
    c.filter_resolution = 64;
    c.distance_resolution = 128;
    // Shard executors bypass the result cache; the single worker the
    // answers are compared with must execute every query too.
    c.result_cache_enabled = false;
    // One pipeline thread per worker node: three nodes share this
    // machine's cores, and the default (all cores each) oversubscribes
    // them threefold, which made latency follow the machine's other load.
    c.workers = 1;
    c.tracing = trace;
    let set = vec![
        "EngineConfig::test_small() with resolution = 256, layer_resolution = 256, filter_resolution = 64, distance_resolution = 128, result_cache_enabled = false".into(),
        "EngineConfig.workers = 1".into(),
        "ServiceConfig { workers: 2, fairness_cap: 8 } per worker".into(),
        "ClusterConfig::default()".into(),
    ];
    (c, set)
}

struct State {
    servers: Vec<NetServer>,
    cluster: Option<ClusterClient>,
    single: Option<Client>,
    pts: Vec<Point>,
    polys: Vec<Polygon>,
}

impl State {
    fn cluster(&self) -> &ClusterClient {
        self.cluster.as_ref().expect("open until drop")
    }

    fn single(&self) -> &Client {
        self.single.as_ref().expect("open until drop")
    }
}

impl Drop for State {
    fn drop(&mut self) {
        drop(self.cluster.take());
        drop(self.single.take());
        for s in &self.servers {
            s.stop();
        }
    }
}

fn data(seed: u64) -> (Vec<Point>, Vec<Polygon>) {
    let world = BBox::new(Point::ZERO, Point::new(WORLD, WORLD));
    let pts = spade_datagen::spider::scale_points(
        &spade_datagen::spider::gaussian_points(POINTS, seed),
        &world,
    );
    let polys = spade_datagen::spider::gaussian_boxes(POLYS, 0.025, BOX_SEED)
        .into_iter()
        .map(|p| {
            Polygon::new(
                p.exterior
                    .points
                    .iter()
                    .map(|q| Point::new(q.x * WORLD, q.y * WORLD))
                    .collect(),
            )
        })
        .collect();
    (pts, polys)
}

fn worker(args: &Args, pts: &[Point], polys: &[Polygon]) -> NetServer {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine: config(args.trace).0,
        workers: 2,
        fairness_cap: 8,
        wal_dir: None,
    }));
    let p_objs: Vec<(u32, Geometry)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Point(*p)))
        .collect();
    let q_objs: Vec<(u32, Geometry)> = polys
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Polygon(p.clone())))
        .collect();
    let grid = |objs: &[(u32, Geometry)]| GridIndex::build(None, objs, CELL).expect("grid build");
    svc.register_indexed(
        "pts",
        IndexedDataset::new("pts", DatasetKind::Points, grid(&p_objs)),
    );
    svc.register_indexed(
        "polys",
        IndexedDataset::new("polys", DatasetKind::Polygons, grid(&q_objs)),
    );
    NetServer::serve(svc, "127.0.0.1:0", NetServerConfig::default()).expect("start worker")
}

fn setup(args: &Args) -> State {
    let (pts, polys) = data(args.seed);
    let servers: Vec<NetServer> = (0..WORKERS).map(|_| worker(args, &pts, &polys)).collect();
    // Set-up and warm-up run untraced: only timed requests fill the ring.
    trace::set_enabled(false);
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr()).collect();
    let cluster = ClusterClient::connect(&addrs, ClusterConfig::default()).expect("connect");
    cluster.refresh_shard_map("pts").expect("shard map");
    cluster.refresh_shard_map("polys").expect("shard map");
    let single = Client::connect(addrs[0], ClientConfig::default()).expect("connect");
    // Warm-up: one read of each kind through the cluster.
    let mut rng = Rng::new(args.seed, 0x3a3a);
    for k in [0, 3] {
        cluster.query(&request(&mut rng, k)).expect("warm-up read");
    }
    State {
        servers,
        cluster: Some(cluster),
        single: Some(single),
        pts,
        polys,
    }
}

/// Three range bands across the hot center, then a join.
fn request(rng: &mut Rng, k: u64) -> QueryRequest {
    if k % 4 == 3 {
        return QueryRequest::Join {
            left: "polys".into(),
            right: "pts".into(),
            query: JoinQuery::Intersects,
        };
    }
    let y = rng.range(20.0, 70.0);
    let h = rng.range(5.0, 25.0);
    QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Range(BBox::new(Point::new(10.0, y), Point::new(90.0, y + h))),
    }
}

pub fn run(args: &Args, _work: &WorkDir, out: &mut Outcome) -> Vec<String> {
    let Some((state, setup_s)) = crate::util::setup_median(args, || setup(args)) else {
        return Vec::new();
    };
    let mut collector = Collector::default();
    let mut rng = Rng::new(args.seed, 0x5e1ec7);
    let moved0: u64 = state.cluster().bytes_moved().iter().sum();
    let fan0 = prom_sum(
        &state.cluster().metrics_text(),
        "spade_shard_fanout_total",
        "",
    );
    // Cluster latency minus direct latency to worker 0, per read of the
    // traced run.
    let mut overhead_ms = Vec::new();
    let (reads, elapsed) = reads::closed_loop(
        args.seconds,
        args.trace,
        4,
        &mut collector,
        |k| request(&mut rng, k),
        |request| state.cluster().query(request).map_err(|e| e.to_string()),
        |read| {
            // The same request to one worker, for the coordinator's cost.
            let t = Instant::now();
            let mut s = trace::span("bench.cluster.direct");
            s.attr("req", read.id);
            let direct = state.single().query(&read.request);
            drop(s);
            if direct.is_ok() {
                overhead_ms.push(read.latency_ms - ms(t.elapsed()));
            }
        },
    );
    out.set("peak_rss_mb", crate::util::peak_rss_mb());
    out.set("setup_s", setup_s);
    reads::end_to_end(out, &reads, elapsed, 0.95);

    if args.trace {
        let n = reads.len().max(1) as f64;
        let moved: u64 = state.cluster().bytes_moved().iter().sum::<u64>() - moved0;
        let fan = prom_sum(
            &state.cluster().metrics_text(),
            "spade_shard_fanout_total",
            "",
        ) - fan0;
        out.set("cluster.fanout_per_read", fan / n);
        out.set("cluster.bytes_moved_per_read", moved as f64 / n);
        out.set("cluster.overhead_ms", Samples::new(overhead_ms).pct(0.5));
        let ok: Vec<&Reply> = reads.iter().filter_map(|r| r.reply.as_ref().ok()).collect();
        let stats: Vec<&QueryStats> = ok.iter().map(|r| &r.stats).collect();
        query_stats(out, &stats);
        out.set(
            "gpu.passes_per_read",
            stats.iter().map(|s| s.passes).sum::<u64>() as f64 / stats.len().max(1) as f64,
        );
        server_split(
            out,
            ok.iter().map(|r| r.queue_ms).collect(),
            ok.iter().map(|r| r.exec_ms).collect(),
        );
        let wire = Samples::new(
            reads
                .iter()
                .filter_map(|r| {
                    let x = r.reply.as_ref().ok()?;
                    Some(r.latency_ms - x.queue_ms - x.exec_ms)
                })
                .collect(),
        );
        out.set("net.wire_p50_ms", wire.pct(0.5));
        out.set("net.wire_p99_ms", wire.pct(0.99));
        spans_per_layer(
            out,
            reads.iter().map(|r| (r.id, r.traced, r.latency_ms)),
            &collector,
        );
    }

    // Oracle checks, outside the timed phase; the join repeats, so its
    // oracle is computed once.
    let join = Answer::of(QueryResult::Pairs(brute::join_polygon_point(
        &state.polys,
        &state.pts,
    )));
    reads::check(out, &reads, |r| match r {
        QueryRequest::Select {
            query: SelectQuery::Range(bb),
            ..
        } => Answer::of(QueryResult::Ids(brute::select_points(
            &state.pts,
            &Polygon::rect(*bb),
        ))),
        _ => join.clone(),
    });
    // The first answers again, each from worker 0 alone: one more
    // operation per comparison.
    let mut single_checks = 0;
    for r in &reads {
        let Ok(got) = &r.reply else { continue };
        if single_checks == SINGLE_WORKER_CHECKS {
            break;
        }
        single_checks += 1;
        out.attempted += 1;
        let same = match state.single().query(&r.request) {
            Ok(resp) => match resp.payload {
                ResponsePayload::Query(q) => Answer::of(q) == got.answer,
                _ => false,
            },
            Err(_) => false,
        };
        if !same {
            out.fail(format!(
                "read {} ({}): cluster answer differs from worker 0's",
                r.id,
                r.request.class()
            ));
        }
    }
    out.note(format!(
        "{single_checks} answers also compared with worker 0's own; join pairs {}",
        join.len()
    ));
    drop(state);
    config(args.trace).1
}
