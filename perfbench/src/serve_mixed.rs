//! `serve_mixed`: an open loop over TCP against a `NetServer` with a WAL.
//!
//! Two senders, one per connection, each send on a fixed schedule
//! whatever the server's pace (independent users, not callers waiting on
//! each other):
//!
//! * the tile sender reads map tiles of the read-only `tiles` dataset,
//!   chosen by a Zipf law over a fixed tile set. The result cache is sized
//!   so the hot tiles fit and the cold ones churn, so both its hit and its
//!   miss paths run;
//! * the live sender alternates writes (an insert or a delete) with small
//!   fresh reads of the `live` dataset. Every write invalidates the
//!   cached reads of `live`, and the small compaction trigger makes
//!   compaction cycle several times per run.
//!
//! Each request is timed from when it was due, so a stall also charges
//! the requests it delays; how late the senders ran is reported as
//! `loadgen.lag_p99_ms`. The live sender's writes and reads are serial, so
//! each live read is checked against the benchmark's own log of the writes
//! acknowledged before it.

use crate::answer::Answer;
use crate::reads::{class_notes, query_stats, read_latency, server_split, spans_per_layer};
use crate::report::Outcome;
use crate::spans::{self, Collector};
use crate::util::{ms, prom_sum, ratio, Rng, Samples, WorkDir};
use crate::Args;
use spade_baselines::brute;
use spade_client::{Client, ClientConfig};
use spade_core::dataset::{DatasetKind, IndexedDataset};
use spade_core::query::{QueryResult, SelectQuery};
use spade_core::{trace, EngineConfig, QueryStats};
use spade_geometry::{BBox, Geometry, Point, Polygon};
use spade_index::GridIndex;
use spade_net::proto::{decode_client, decode_server, encode_client, encode_server};
use spade_net::{ClientMsg, NetServer, NetServerConfig, ServerMsg};
use spade_server::{QueryRequest, QueryResponse, QueryService, ResponsePayload, ServiceConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TILE_POINTS: usize = 100_000;
/// 16 × 16 tiles over the unit square.
const TILES_PER_AXIS: usize = 16;
const ZIPF_S: f64 = 1.1;
const LIVE_POINTS: usize = 20_000;
/// Requests per second of each sender.
const TILE_RATE: f64 = 80.0;
const LIVE_RATE: f64 = 20.0;
const RESOLUTION: u32 = 256;
/// Holds the hottest ~225 of the 256 tiles (about 1.6 KB of ids each), so
/// the coldest tiles churn.
const RESULT_CACHE_BYTES: u64 = 360 << 10;
const COMPACT_TRIGGER_BYTES: u64 = 512;

fn config(trace: bool) -> (ServiceConfig, Vec<String>) {
    let engine = EngineConfig {
        resolution: RESOLUTION,
        result_cache_bytes: RESULT_CACHE_BYTES,
        compact_trigger_bytes: COMPACT_TRIGGER_BYTES,
        tracing: trace,
        ..Default::default()
    };
    let set = vec![
        format!("EngineConfig.resolution = {RESOLUTION}"),
        format!("EngineConfig.result_cache_bytes = {RESULT_CACHE_BYTES}"),
        format!("EngineConfig.compact_trigger_bytes = {COMPACT_TRIGGER_BYTES}"),
        "ServiceConfig.wal_dir = <scratch>/wal (EngineConfig.wal_sync default GroupCommit)".into(),
        "ClientConfig.connections = 2".into(),
    ];
    (
        ServiceConfig {
            engine,
            ..Default::default()
        },
        set,
    )
}

struct State {
    server: NetServer,
    client: Option<Client>,
    tiles_grid: Arc<GridIndex>,
    tile_pts: Vec<Point>,
    live_pts: Vec<Point>,
}

impl State {
    fn client(&self) -> &Client {
        self.client.as_ref().expect("client open until drop")
    }

    fn metrics(&self) -> String {
        self.server.service().metrics_text()
    }
}

impl Drop for State {
    fn drop(&mut self) {
        drop(self.client.take());
        self.server.stop();
    }
}

fn points_grid(dir: PathBuf, pts: &[Point], cell: f64) -> GridIndex {
    let objects: Vec<(u32, Geometry)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Point(*p)))
        .collect();
    GridIndex::build(Some(dir), &objects, cell).expect("grid build")
}

fn setup(args: &Args, work: &WorkDir) -> State {
    let dir = work.sub("data");
    let tile_pts = spade_datagen::spider::uniform_points(TILE_POINTS, args.seed);
    let live_pts = spade_datagen::spider::uniform_points(LIVE_POINTS, args.seed.wrapping_add(7));
    let tiles = IndexedDataset::new(
        "tiles",
        DatasetKind::Points,
        points_grid(dir.join("tiles"), &tile_pts, 1.0 / 8.0),
    );
    let tiles_grid = tiles.grid();
    let live = IndexedDataset::new(
        "live",
        DatasetKind::Points,
        points_grid(dir.join("live"), &live_pts, 1.0 / 8.0),
    );
    let mut sc = config(args.trace).0;
    sc.wal_dir = Some(dir.join("wal"));
    let svc = Arc::new(QueryService::new(sc));
    // Set-up and warm-up run untraced: only timed requests fill the ring.
    trace::set_enabled(false);
    svc.register_indexed("tiles", tiles);
    svc.register_indexed("live", live);
    let server =
        NetServer::serve(svc, "127.0.0.1:0", NetServerConfig::default()).expect("start server");
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 2,
            ..Default::default()
        },
    )
    .expect("connect");
    // Warm-up: every tile once, coldest first, so the cache starts out
    // holding the hottest tiles; then one live read.
    let pending: Vec<_> = (0..TILES_PER_AXIS * TILES_PER_AXIS)
        .rev()
        .map(|rank| {
            client
                .submit(&tile_request(Zipf::tile(rank)))
                .expect("warm-up read")
        })
        .collect();
    for p in pending {
        p.wait().expect("warm-up read");
    }
    let mut rng = Rng::new(args.seed, 0x3a3a);
    client.query(&live_read(&mut rng)).expect("warm-up read");
    State {
        server,
        client: Some(client),
        tiles_grid,
        tile_pts,
        live_pts,
    }
}

struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Rank 0 is the hottest. Ranks map to tiles through a fixed
    /// scramble, so the hot tiles are spread over the map.
    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        Zipf::tile(self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1))
    }

    fn tile(rank: usize) -> usize {
        (rank * 97) % (TILES_PER_AXIS * TILES_PER_AXIS)
    }
}

fn tile_bbox(tile: usize) -> BBox {
    let side = 1.0 / TILES_PER_AXIS as f64;
    let (tx, ty) = (tile % TILES_PER_AXIS, tile / TILES_PER_AXIS);
    BBox::new(
        Point::new(tx as f64 * side, ty as f64 * side),
        Point::new((tx + 1) as f64 * side, (ty + 1) as f64 * side),
    )
}

fn tile_request(tile: usize) -> QueryRequest {
    QueryRequest::Select {
        dataset: "tiles".into(),
        query: SelectQuery::Range(tile_bbox(tile)),
    }
}

fn live_read(rng: &mut Rng) -> QueryRequest {
    let c = Point::new(rng.range(0.05, 0.95), rng.range(0.05, 0.95));
    let h = rng.range(0.02, 0.05);
    QueryRequest::Select {
        dataset: "live".into(),
        query: SelectQuery::Range(BBox::new(
            Point::new(c.x - h, c.y - h),
            Point::new(c.x + h, c.y + h),
        )),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Tile,
    LiveRead,
    Write,
}

struct Op {
    id: u64,
    kind: Kind,
    request: QueryRequest,
    /// Due time to reply, the figure the end-to-end latency uses.
    latency_ms: f64,
    lag_ms: f64,
    /// Send to reply, minus the server's queue wait and execution.
    wire_ms: f64,
    traced: bool,
    reply: Result<(Option<Answer>, QueryStats, f64, f64), String>,
    codec_us: f64,
    done: Instant,
}

/// One sender of the open loop: sends `make(i)` at `start + i / rate`
/// until `end`, timing each from its due time. `drain` runs after every
/// reply (the traced run empties the span ring there).
#[allow(clippy::too_many_arguments)]
fn sender(
    client: &Client,
    start: Instant,
    end: Instant,
    rate: f64,
    id_base: u64,
    traced_run: bool,
    mut make: impl FnMut(u64) -> (Kind, QueryRequest),
    drain: impl Fn(),
) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (kind, request) = make(i);
        let id = id_base + i;
        // The traced run alternates blocks of requests with the recorder
        // on and off (process-wide), to measure its overhead.
        let traced = traced_run && (i / 8).is_multiple_of(2);
        if traced_run {
            trace::set_enabled(traced);
        }
        let sent = Instant::now();
        let reply = {
            let mut span = trace::span(spans::REQUEST);
            span.attr("req", id);
            client.query(&request).map_err(|e| e.to_string())
        };
        let done = Instant::now();
        drain();
        let (mut wire_ms, mut codec_us) = (0.0, 0.0);
        let reply = reply.map(|resp| {
            let (queue, exec) = (ms(resp.queue_wait), ms(resp.exec_time));
            wire_ms = ms(done - sent) - queue - exec;
            let resp = if traced_run {
                let (resp, us) = codec_replay(&request, resp, id);
                codec_us = us;
                resp
            } else {
                resp
            };
            let answer = match resp.payload {
                ResponsePayload::Query(r) => Some(Answer::of(r)),
                _ => None,
            };
            (answer, resp.stats, queue, exec)
        });
        ops.push(Op {
            id,
            kind,
            request,
            latency_ms: ms(done - due),
            lag_ms: ms(sent - due),
            wire_ms,
            traced,
            reply,
            codec_us,
            done,
        });
    }
    ops
}

/// Encode and decode the request and its reply as the wire does, timed.
fn codec_replay(request: &QueryRequest, resp: QueryResponse, id: u64) -> (QueryResponse, f64) {
    let t = Instant::now();
    let mut s = trace::span("bench.net.codec");
    s.attr("req", id);
    let req_bytes = encode_client(&ClientMsg::Request(request.clone()));
    let back = decode_client(&req_bytes).expect("request round-trips");
    let msg = ServerMsg::Reply(Ok(resp));
    let reply_bytes = encode_server(&msg);
    std::hint::black_box((
        back,
        decode_server(&reply_bytes).expect("reply round-trips"),
    ));
    drop(s);
    let us = t.elapsed().as_secs_f64() * 1e6;
    let ServerMsg::Reply(Ok(resp)) = msg else {
        unreachable!("built above");
    };
    (resp, us)
}

/// The `live` dataset as the benchmark's log says it is: `points[id]`,
/// `None` once deleted.
struct LiveModel {
    points: Vec<Option<Point>>,
    present: Vec<u32>,
}

impl LiveModel {
    fn new(pts: &[Point]) -> LiveModel {
        LiveModel {
            points: pts.iter().map(|p| Some(*p)).collect(),
            present: (0..pts.len() as u32).collect(),
        }
    }

    fn apply(&mut self, request: &QueryRequest) {
        match request {
            QueryRequest::Insert {
                id,
                geometry: Geometry::Point(p),
                ..
            } => {
                let id = *id as usize;
                if self.points.len() <= id {
                    self.points.resize(id + 1, None);
                }
                self.points[id] = Some(*p);
                self.present.push(id as u32);
            }
            QueryRequest::Delete { id, .. } => {
                self.points[*id as usize] = None;
                self.present.retain(|x| x != id);
            }
            _ => {}
        }
    }

    fn oracle(&self, query: &SelectQuery) -> Answer {
        let SelectQuery::Range(bb) = query else {
            unreachable!("live reads are ranges");
        };
        let (ids, pts): (Vec<u32>, Vec<Point>) = self
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i as u32, p)))
            .unzip();
        let hits = brute::select_points(&pts, &Polygon::rect(*bb));
        Answer::of(QueryResult::Ids(
            hits.into_iter().map(|i| ids[i as usize]).collect(),
        ))
    }
}

pub fn run(args: &Args, work: &WorkDir, out: &mut Outcome) -> Vec<String> {
    let Some((state, setup_s)) = crate::util::setup_median(args, || setup(args, work)) else {
        return Vec::new();
    };
    let zipf = Zipf::new(TILES_PER_AXIS * TILES_PER_AXIS, ZIPF_S);
    let m0 = state.metrics();
    let frames0 = state.client().batching_stats();
    let ledger0 = state.tiles_grid.bytes_read();
    let collector = Mutex::new(Collector::default());
    trace::set_enabled(args.trace);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(args.seconds);
    let drain = || {
        if args.trace {
            collector.lock().expect("collector lock").drain();
        }
    };
    let (tile_ops, live_ops) = std::thread::scope(|s| {
        let tiles = s.spawn(|| {
            let mut rng = Rng::new(args.seed, 0x711e);
            sender(
                state.client(),
                start,
                end,
                TILE_RATE,
                0,
                args.trace,
                |_| (Kind::Tile, tile_request(zipf.sample(&mut rng))),
                drain,
            )
        });
        let live = s.spawn(|| {
            let mut rng = Rng::new(args.seed, 0x11fe);
            // Picks the ids to delete and insert; the oracle check replays
            // the same writes from the returned log.
            let mut model = LiveModel::new(&state.live_pts);
            let mut next_id = LIVE_POINTS as u32;
            sender(
                state.client(),
                start,
                end,
                LIVE_RATE,
                1 << 32,
                false,
                |i| match i % 4 {
                    0 => {
                        let id = next_id;
                        next_id += 1;
                        let p = Point::new(rng.f64(), rng.f64());
                        let req = QueryRequest::Insert {
                            dataset: "live".into(),
                            id,
                            geometry: Geometry::Point(p),
                        };
                        model.apply(&req);
                        (Kind::Write, req)
                    }
                    2 => {
                        let id = model.present[rng.below(model.present.len())];
                        let req = QueryRequest::Delete {
                            dataset: "live".into(),
                            id,
                        };
                        model.apply(&req);
                        (Kind::Write, req)
                    }
                    _ => (Kind::LiveRead, live_read(&mut rng)),
                },
                drain,
            )
        });
        (
            tiles.join().expect("tile sender"),
            live.join().expect("live sender"),
        )
    });
    let m1 = state.metrics();
    let frames1 = state.client().batching_stats();
    let ledger = state.tiles_grid.bytes_read() - ledger0;
    trace::set_enabled(args.trace);
    out.set("peak_rss_mb", crate::util::peak_rss_mb());
    out.set("setup_s", setup_s);

    let all: Vec<&Op> = tile_ops.iter().chain(&live_ops).collect();
    let reads: Vec<&Op> = all
        .iter()
        .copied()
        .filter(|o| o.kind != Kind::Write)
        .collect();
    let writes: Vec<&Op> = all
        .iter()
        .copied()
        .filter(|o| o.kind == Kind::Write)
        .collect();
    let untraced_reads: Vec<f64> = reads
        .iter()
        .filter(|o| !o.traced)
        .map(|o| o.latency_ms)
        .collect();
    class_notes(
        out,
        all.iter().map(|o| {
            (
                match o.kind {
                    Kind::Tile => "tile read",
                    Kind::LiveRead => "live read",
                    Kind::Write => "write",
                },
                o.latency_ms,
            )
        }),
    );
    // Only replies that arrived within the run count, over the time to
    // the last of them: a server that falls behind the schedule completes
    // fewer reads in the run.
    let on_time: Vec<Instant> = reads.iter().map(|o| o.done).filter(|&d| d <= end).collect();
    let span = on_time
        .iter()
        .max()
        .map_or(args.seconds, |&d| (d - start).as_secs_f64());
    read_latency(out, untraced_reads, 0.99, on_time.len() as f64 / span);
    let w = Samples::new(writes.iter().map(|o| o.latency_ms).collect());
    out.note(format!(
        "write_p50_ms {:.4} write_p99_ms {:.4} ({} writes, {} beyond p99)",
        w.pct(0.5),
        w.pct(0.99),
        w.len(),
        w.beyond(0.99)
    ));

    if args.trace {
        let delta = |family: &str| prom_sum(&m1, family, "") - prom_sum(&m0, family, "");
        let ok_reads: Vec<&QueryStats> = reads
            .iter()
            .filter_map(|o| o.reply.as_ref().ok().map(|r| &r.1))
            .collect();
        query_stats(out, &ok_reads);
        // The ledger is the `tiles` grid's (see NOTES.md), so per tile read.
        out.set(
            "storage.bytes_read_per_read",
            ratio(ledger as f64, tile_ops.len() as f64),
        );
        let ok_all: Vec<&(Option<Answer>, QueryStats, f64, f64)> =
            all.iter().filter_map(|o| o.reply.as_ref().ok()).collect();
        server_split(
            out,
            ok_all.iter().map(|r| r.2).collect(),
            ok_all.iter().map(|r| r.3).collect(),
        );
        let wire = Samples::new(
            all.iter()
                .filter(|o| o.reply.is_ok())
                .map(|o| o.wire_ms)
                .collect(),
        );
        out.set("net.wire_p50_ms", wire.pct(0.5));
        out.set("net.wire_p99_ms", wire.pct(0.99));
        out.set(
            "net.codec_us_per_req",
            Samples::new(tile_ops.iter().map(|o| o.codec_us).collect()).mean(),
        );
        out.set(
            "net.frames_per_write",
            ratio(
                (frames1.0 - frames0.0) as f64,
                (frames1.1 - frames0.1) as f64,
            ),
        );
        let nw = writes.len() as f64;
        out.set(
            "storage.wal_fsyncs_per_write",
            ratio(delta("spade_wal_fsyncs_total"), nw),
        );
        let wal_bytes = delta("spade_wal_bytes_total");
        out.set("storage.wal_bytes_per_write", ratio(wal_bytes, nw));
        out.set("index.compactions", delta("spade_compact_runs_total"));
        out.set(
            "index.compact_bytes_per_write_byte",
            ratio(delta("spade_compact_bytes_written_total"), wal_bytes),
        );
        out.set(
            "core.optimizer_mispredictions",
            delta("spade_optimizer_mispredictions_total"),
        );
        out.set(
            "gpu.arena_hit_ratio",
            ratio(
                delta("spade_arena_hits_total"),
                delta("spade_arena_hits_total") + delta("spade_arena_misses_total"),
            ),
        );
        out.set(
            "loadgen.lag_p99_ms",
            Samples::new(all.iter().map(|o| o.lag_ms).collect()).pct(0.99),
        );
        // Only the tile sender alternates tracing; the live sender's
        // requests overlap both kinds of block and are left out.
        let collector = collector.into_inner().expect("collector lock");
        spans_per_layer(
            out,
            tile_ops.iter().map(|o| (o.id, o.traced, o.latency_ms)),
            &collector,
        );
    }

    // Oracle checks, outside the timed phase.
    let mut tile_oracle: std::collections::HashMap<usize, Answer> = Default::default();
    for o in &tile_ops {
        out.attempted += 1;
        let QueryRequest::Select {
            query: SelectQuery::Range(bb),
            ..
        } = &o.request
        else {
            unreachable!("tile reads are ranges");
        };
        let tile = (0..TILES_PER_AXIS * TILES_PER_AXIS)
            .find(|&t| tile_bbox(t) == *bb)
            .expect("a tile box");
        let want = tile_oracle.entry(tile).or_insert_with(|| {
            Answer::of(QueryResult::Ids(brute::select_points(
                &state.tile_pts,
                &Polygon::rect(*bb),
            )))
        });
        check_op(out, o, Some(want));
    }
    let mut model = LiveModel::new(&state.live_pts);
    for o in &live_ops {
        out.attempted += 1;
        match &o.request {
            QueryRequest::Select { query, .. } => check_op(out, o, Some(&model.oracle(query))),
            write => {
                check_op(out, o, None);
                model.apply(write);
            }
        }
    }
    // Final state: flush (compacts everything staged), then read all of
    // `live` and compare with the log.
    out.attempted += 1;
    let whole = SelectQuery::Range(BBox::new(Point::new(-1.0, -1.0), Point::new(2.0, 2.0)));
    let fin = state
        .client()
        .query(&QueryRequest::Flush {
            dataset: "live".into(),
        })
        .and_then(|_| {
            state.client().query(&QueryRequest::Select {
                dataset: "live".into(),
                query: whole.clone(),
            })
        });
    match fin {
        Ok(resp) => match resp.payload {
            ResponsePayload::Query(r) if Answer::of(r.clone()) == model.oracle(&whole) => {}
            _ => out.fail("final read of live after flush differs from the write log"),
        },
        Err(e) => out.fail(format!("final flush/read of live: {e}")),
    }
    drop(state);
    config(args.trace).1
}

fn check_op(out: &mut Outcome, o: &Op, want: Option<&Answer>) {
    match (&o.reply, want) {
        (Err(e), _) => out.fail(format!("op {}: {e}", o.id)),
        (Ok((got, ..)), Some(want)) => {
            if !got.as_ref().is_some_and(|g| g.matches(want)) {
                out.fail(format!(
                    "op {} ({}): {} results, oracle {}{}",
                    o.id,
                    o.request.class(),
                    got.as_ref().map_or(0, |g| g.len()),
                    want.len(),
                    got.as_ref().map_or(String::new(), |g| g.id_diff(want))
                ));
            }
        }
        (Ok(_), None) => {}
    }
}
