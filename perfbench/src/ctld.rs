//! The daemon phases: set-up, warm-up, fault-free serving, and link
//! churn with a concurrent reader. The daemon is the library's `serve`
//! on a real Unix socket; the benchmark talks to it with the wire
//! codec, one closed-loop client per thread.

use crate::checks;
use crate::inputs::{self, Rng};
use crate::trace::Tracer;
use lmpr_core::{RouterKind, SelectionEngine};
use lmpr_ctld::{
    read_frame, serve, write_frame, ChangeSpec, Controller, CtlConfig, ErrorCode, Request,
    Response, ServerConfig,
};
use std::collections::BTreeSet;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xgft::{FaultChange, FaultEvent, FaultSchedule, PnId, Topology};

pub const TOPO: &str = "16port3tree";
pub const KIND: RouterKind = RouterKind::Disjoint(4);
pub const K: u64 = 4;
pub const BATCH: usize = 64;

/// One connection speaking the length-prefixed wire protocol.
pub struct Conn(UnixStream);

impl Conn {
    /// One request/response exchange, with the client-side stages as
    /// spans. Returns the response and its encoded size.
    pub fn call(&mut self, req: &Request, tr: &mut Tracer) -> Result<(Response, usize), String> {
        let payload = tr.span("ctld.wire.request_encode", || req.to_json());
        let stream = &mut self.0;
        let raw = tr
            .span("ctld.wire.roundtrip", || {
                write_frame(stream, payload.as_bytes())?;
                read_frame(stream)
            })
            .map_err(|e| format!("wire: {e}"))?;
        let resp = tr
            .span("ctld.wire.response_decode", || Response::decode(&raw))
            .map_err(|e| format!("decode: {e}"))?;
        Ok((resp, raw.len()))
    }
}

/// A daemon serving from a thread of this process, with its checkpoint
/// directory under the benchmark's work directory.
pub struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Genesis (full certificate and first checkpoint), then `serve` on
    /// a fresh socket, until the first answered query. Returns the
    /// daemon, the connection that got the answer, and the elapsed
    /// set-up time in seconds.
    pub fn start(dir: &Path) -> Result<(Daemon, Conn, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let (ctl, report) = Controller::start(CtlConfig::new(TOPO, KIND, dir.join("state")))
            .map_err(|e| format!("controller start: {e}"))?;
        if !report.certified() {
            return Err("genesis certificate failed".to_owned());
        }
        let socket = dir.join("ctld.sock");
        let cfg = ServerConfig::new(&socket);
        let mut daemon = Daemon {
            dir: dir.to_path_buf(),
            socket: socket.clone(),
            handle: Some(std::thread::spawn(move || serve(ctl, cfg))),
        };
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(e) if t0.elapsed() > Duration::from_secs(60) => {
                    daemon.stop_quietly();
                    return Err(format!("daemon socket never came up: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let mut conn = Conn(stream);
        let first = Request::Paths {
            epoch: 0,
            deadline_ms: None,
            pairs: vec![(0, 1)],
        };
        match conn.call(&first, &mut Tracer::new(false))?.0 {
            Response::Paths { .. } => {}
            other => return Err(format!("first query answered with {other:?}")),
        }
        Ok((daemon, conn, t0.elapsed().as_secs_f64()))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        UnixStream::connect(&self.socket)
            .map(Conn)
            .map_err(|e| format!("connect: {e}"))
    }

    /// Orderly shutdown: the daemon acknowledges, its serving thread
    /// ends, and the checkpoint directory is removed.
    pub fn stop(mut self, conn: &mut Conn) -> Result<(), String> {
        let ack = conn.call(&Request::Shutdown, &mut Tracer::new(false))?.0;
        let joined = self.join();
        if !matches!(ack, Response::Shutdown { .. }) {
            return Err(format!("shutdown answered with {ack:?}"));
        }
        joined
    }

    fn join(&mut self) -> Result<(), String> {
        let result = match self.handle.take() {
            Some(h) => match h.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("daemon failed: {e}")),
                Err(_) => Err("daemon thread panicked".to_owned()),
            },
            None => Ok(()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }

    fn stop_quietly(&mut self) {
        if self.handle.is_some() {
            if let Ok(mut c) = self.connect() {
                let _ = c.call(&Request::Shutdown, &mut Tracer::new(false));
            }
            let _ = self.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_quietly();
    }
}

/// One answered pair, kept compactly until the checks run after the
/// timed window.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub epoch: u32,
    pub s: u16,
    pub d: u16,
    pub len: u8,
    pub ids: [u8; 4],
}

impl Answer {
    fn new(epoch: u64, (s, d): (u32, u32), ids: &[u64]) -> Result<Self, String> {
        if ids.len() > 4 || ids.iter().any(|&p| p > u8::MAX as u64) {
            return Err(format!("pair {s}->{d}: answer {ids:?} exceeds K = {K}"));
        }
        let mut a = Answer {
            epoch: epoch as u32,
            s: s as u16,
            d: d as u16,
            len: ids.len() as u8,
            ids: [0; 4],
        };
        for (slot, &p) in a.ids.iter_mut().zip(ids) {
            *slot = p as u8;
        }
        Ok(a)
    }

    pub fn pair(&self) -> (u32, u32) {
        (self.s as u32, self.d as u32)
    }

    pub fn ids(&self) -> Vec<u64> {
        self.ids[..self.len as usize]
            .iter()
            .map(|&p| p as u64)
            .collect()
    }
}

/// Outcome of one epoch-fenced query batch.
pub struct Batch {
    pub epoch: u64,
    pub paths: Vec<Vec<u64>>,
    pub fence_retries: u64,
    pub bytes: usize,
}

/// Send `pairs` at `*epoch`, following `epoch-fenced` rejections to the
/// epoch the daemon reports. Updates `*epoch` to the answering epoch.
pub fn query(
    conn: &mut Conn,
    epoch: &mut u64,
    pairs: &[(u32, u32)],
    tr: &mut Tracer,
) -> Result<Batch, String> {
    let mut fence_retries = 0;
    loop {
        let req = Request::Paths {
            epoch: *epoch,
            deadline_ms: None,
            pairs: pairs.to_vec(),
        };
        match conn.call(&req, tr)? {
            (
                Response::Paths {
                    epoch: e, paths, ..
                },
                bytes,
            ) => {
                if paths.len() != pairs.len() {
                    return Err(format!("{} answers for {} pairs", paths.len(), pairs.len()));
                }
                *epoch = e;
                return Ok(Batch {
                    epoch: e,
                    paths,
                    fence_retries,
                    bytes,
                });
            }
            (
                Response::Error {
                    code: ErrorCode::EpochFenced,
                    epoch: server,
                    ..
                },
                _,
            ) if server != *epoch => {
                fence_retries += 1;
                *epoch = server;
            }
            (other, _) => return Err(format!("paths answered with {other:?}")),
        }
    }
}

/// The XGFT parameters the answer checks recompute `X` from.
pub struct Shape {
    pub m: Vec<u32>,
    pub w: Vec<u32>,
}

impl Shape {
    pub fn of(topo: &Topology) -> Self {
        Shape {
            m: topo.spec().m().to_vec(),
            w: topo.spec().w().to_vec(),
        }
    }
}

/// Ask for every ordered pair once, in lexicographic 64-pair batches
/// from two connections (sources split by parity), checking each
/// fault-free answer. Untimed.
pub fn warm_up(daemon: &Daemon, shape: &Shape, n: u32) -> Result<u64, String> {
    let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u32)
            .map(|part| {
                scope.spawn(move || -> Result<u64, String> {
                    let mut conn = daemon.connect()?;
                    let mut tr = Tracer::new(false);
                    let (mut epoch, mut batches) = (0, 0);
                    let pairs: Vec<(u32, u32)> = (part..n)
                        .step_by(2)
                        .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
                        .collect();
                    for chunk in pairs.chunks(BATCH) {
                        let b = query(&mut conn, &mut epoch, chunk, &mut tr)?;
                        for (&pair, ids) in chunk.iter().zip(&b.paths) {
                            checks::check_fault_free_answer(&shape.m, &shape.w, K, pair, ids)?;
                        }
                        batches += 1;
                    }
                    Ok(batches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".to_owned()))
            })
            .collect()
    });
    results.into_iter().sum()
}

/// Measurements of fault-free serving windows.
pub struct ServeResult {
    pub batch_ms: Vec<f64>,
    pub bytes: usize,
    pub answers: Vec<Answer>,
}

impl ServeResult {
    /// Mean encoded size of a `paths` response.
    pub fn response_bytes(&self) -> f64 {
        self.bytes as f64 / self.batch_ms.len().max(1) as f64
    }
}

/// One closed-loop client sending 64-pair batches from the seeded
/// uniform pair stream for `secs` seconds.
pub fn serve_window(
    conn: &mut Conn,
    n: u32,
    rng: &mut Rng,
    secs: f64,
    tr: &mut Tracer,
) -> Result<ServeResult, String> {
    let mut epoch = 0;
    let (mut batch_ms, mut answers) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        let pairs = inputs::pair_batch(rng, n, BATCH);
        let t = Instant::now();
        let open = tr.begin("ctld.client.batch");
        let b = query(conn, &mut epoch, &pairs, tr)?;
        tr.end(open);
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes += b.bytes;
        if b.fence_retries > 0 {
            return Err("epoch-fenced on a fault-free fabric".to_owned());
        }
        for (&pair, ids) in pairs.iter().zip(&b.paths) {
            answers.push(Answer::new(b.epoch, pair, ids)?);
        }
    }
    Ok(ServeResult {
        bytes,
        batch_ms,
        answers,
    })
}

/// Checks of a fault-free window, after it: every answer holds
/// `min(4, X)` distinct ids below `X`, and every 97th matches an
/// uncached engine.
pub fn check_serve(topo: &Topology, shape: &Shape, answers: &[Answer]) -> Result<(), String> {
    let mut engine = SelectionEngine::new(KIND);
    let mut sel = Vec::new();
    for (i, a) in answers.iter().enumerate() {
        let ids = a.ids();
        checks::check_fault_free_answer(&shape.m, &shape.w, K, a.pair(), &ids)?;
        if i % 97 == 0 {
            let (s, d) = a.pair();
            engine.select(topo, PnId(s), PnId(d), &mut sel);
            let want: Vec<u64> = sel.iter().map(|p| p.0).collect();
            if want != ids {
                return Err(format!(
                    "pair {s}->{d}: daemon answered {ids:?}, uncached engine {want:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Measurements of a churn window.
pub struct ChurnResult {
    /// Send-to-ack latency of each batch that committed an epoch, in
    /// order.
    pub reconverge_ms: Vec<f64>,
    /// Batches sent (with and without events).
    pub fault_batches: u64,
    /// From the first send to the last ack.
    pub feed_s: f64,
    /// Latency of each answered reader batch, fence retries included.
    pub reader_ms: Vec<f64>,
    /// The latencies of the reader batches that met an epoch fence:
    /// those that waited behind a reconvergence.
    pub fenced_ms: Vec<f64>,
    pub fence_retries: u64,
}

/// What the reader thread collected.
type ReaderOut = (Vec<f64>, Vec<f64>, Vec<Answer>, u64, Tracer);

/// How long the feeder runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Until this much time has passed since the first batch was sent
    /// and the committed epochs are a multiple of the second value.
    Seconds(f64, usize),
    /// Until this many epochs have committed.
    Epochs(usize),
}

/// The churn stage: one closed-loop feeder sends the timeline's
/// per-step batches back to back from the caller's thread while one
/// closed-loop reader keeps querying from its own.
pub struct Churn<'t> {
    timeline: &'t [Vec<FaultChange>],
    next: usize,
    down: BTreeSet<u32>,
    epoch_downs: Vec<BTreeSet<u32>>,
    reconverge_ms: Vec<f64>,
    feed_s: f64,
    stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<Result<ReaderOut, String>>>,
}

impl<'t> Churn<'t> {
    /// Start the reader on its own connection.
    pub fn start(
        daemon: &Daemon,
        n: u32,
        timeline: &'t [Vec<FaultChange>],
        seed: u64,
        tr: &Tracer,
    ) -> Result<Self, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut conn = daemon.connect()?;
        let mut rtr = tr.fork();
        let halt = Arc::clone(&stop);
        let reader = std::thread::spawn(move || -> Result<ReaderOut, String> {
            let mut rng = Rng::stream(seed, 0xC0DE);
            let (mut lat, mut fenced, mut answers, mut fences) =
                (Vec::new(), Vec::new(), Vec::new(), 0u64);
            let mut epoch = 0;
            while !halt.load(Ordering::SeqCst) {
                let pairs = inputs::pair_batch(&mut rng, n, BATCH);
                let t = Instant::now();
                let open = rtr.begin("ctld.client.churn_batch");
                let b = query(&mut conn, &mut epoch, &pairs, &mut Tracer::new(false))?;
                rtr.end(open);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                lat.push(ms);
                if b.fence_retries > 0 {
                    fenced.push(ms);
                }
                fences += b.fence_retries;
                for (&pair, ids) in pairs.iter().zip(&b.paths) {
                    answers.push(Answer::new(b.epoch, pair, ids)?);
                }
            }
            Ok((lat, fenced, answers, fences, rtr))
        });
        Ok(Churn {
            timeline,
            next: 0,
            down: BTreeSet::new(),
            epoch_downs: vec![BTreeSet::new()],
            reconverge_ms: Vec::new(),
            feed_s: 0.0,
            stop,
            reader: Some(reader),
        })
    }

    /// Send batches, each as soon as the previous one is acknowledged,
    /// checking each ack: applied, still serving, and the epoch
    /// advanced by exactly one for a batch with events and not at all
    /// for an empty one.
    pub fn feed(&mut self, conn: &mut Conn, until: Until, tr: &mut Tracer) -> Result<(), String> {
        let t0 = Instant::now();
        let more = |done: usize| match until {
            Until::Seconds(s, whole) => {
                t0.elapsed().as_secs_f64() < s || !done.is_multiple_of(whole)
            }
            Until::Epochs(e) => done < e,
        };
        while more(self.reconverge_ms.len()) {
            let i = self.next;
            let changes = self.timeline.get(i).ok_or_else(|| {
                format!("timeline ran out after {} epochs", self.reconverge_ms.len())
            })?;
            for c in changes {
                match *c {
                    FaultChange::LinkDown(l) => self.down.insert(l.0),
                    FaultChange::LinkUp(l) => self.down.remove(&l.0),
                    _ => return Err("the timeline holds link events only".to_owned()),
                };
            }
            let req = Request::Fault {
                batch_id: i as u64 + 1,
                gen: None,
                changes: changes
                    .iter()
                    .map(|&c| ChangeSpec::from_change(c))
                    .collect(),
            };
            let t = Instant::now();
            let open = tr.begin("ctld.client.fault_batch");
            let (resp, _) = conn.call(&req, &mut Tracer::new(false))?;
            tr.end(open);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.next = i + 1;
            let before = self.epoch_downs.len() as u64 - 1;
            match resp {
                Response::Fault {
                    epoch,
                    mode,
                    applied: true,
                    ..
                } => {
                    if mode != "serving" {
                        return Err(format!("daemon is {mode} after batch {}", i + 1));
                    }
                    let want = before + u64::from(!changes.is_empty());
                    if epoch != want {
                        return Err(format!(
                            "batch {} with {} events moved the epoch {before} -> {epoch}",
                            i + 1,
                            changes.len()
                        ));
                    }
                }
                other => return Err(format!("fault batch {} answered with {other:?}", i + 1)),
            }
            if !changes.is_empty() {
                self.reconverge_ms.push(ms);
                self.epoch_downs.push(self.down.clone());
            }
        }
        self.feed_s += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Stop the reader, then check its answers against the benchmark's
    /// own timeline — distinct ids below `X`, no path across a link
    /// down at the answer's epoch — and the final state against a
    /// from-scratch recomputation.
    pub fn finish(
        mut self,
        conn: &mut Conn,
        topo: &Topology,
        shape: &Shape,
        tr: &mut Tracer,
    ) -> Result<ChurnResult, String> {
        self.stop.store(true, Ordering::SeqCst);
        let reader = self.reader.take().ok_or("reader already joined")?;
        let (reader_ms, fenced_ms, answers, fence_retries, rtr) = reader
            .join()
            .map_err(|_| "reader thread panicked".to_owned())??;
        if fenced_ms.is_empty() {
            return Err("no reader batch met an epoch fence".to_owned());
        }
        tr.merge(rtr);
        for a in &answers {
            let down = self
                .epoch_downs
                .get(a.epoch as usize)
                .ok_or_else(|| format!("reader saw epoch {} never committed", a.epoch))?;
            let (s, d) = a.pair();
            let ids = a.ids();
            checks::check_distinct_below(
                checks::path_count(&shape.m, &shape.w, s, d),
                (s, d),
                &ids,
            )?;
            checks::check_avoids_down_links(topo, (s, d), &ids, down)?;
        }
        let final_epoch = self.epoch_downs.len() as u64 - 1;
        check_final_state(
            conn,
            topo,
            self.timeline,
            self.next,
            final_epoch,
            &self.down,
        )?;
        Ok(ChurnResult {
            reconverge_ms: std::mem::take(&mut self.reconverge_ms),
            fault_batches: self.next as u64,
            feed_s: self.feed_s,
            reader_ms,
            fenced_ms,
            fence_retries,
        })
    }
}

impl Drop for Churn<'_> {
    fn drop(&mut self) {
        if let Some(reader) = self.reader.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = reader.join();
        }
    }
}

/// The daemon is still serving, and its digest equals one recomputed
/// from scratch: an uncached engine over `FaultSchedule::state_at` of
/// the timeline through the last batch sent.
fn check_final_state(
    conn: &mut Conn,
    topo: &Topology,
    timeline: &[Vec<FaultChange>],
    sent: usize,
    final_epoch: u64,
    down: &BTreeSet<u32>,
) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    match conn.call(&Request::Status, &mut tr)?.0 {
        Response::Status { epoch, mode, .. } if mode == "serving" && epoch == final_epoch => {}
        other => {
            return Err(format!(
                "final status {other:?}, want serving at {final_epoch}"
            ))
        }
    }
    let hex = match conn.call(&Request::Digest, &mut tr)?.0 {
        Response::Digest { epoch, digest, .. } if epoch == final_epoch => digest,
        other => return Err(format!("digest answered with {other:?}")),
    };
    let events: Vec<FaultEvent> = timeline[..sent]
        .iter()
        .enumerate()
        .flat_map(|(i, cs)| {
            cs.iter().map(move |&change| FaultEvent {
                at: i as u64 + 1,
                change,
            })
        })
        .collect();
    let view = FaultSchedule::scripted(events).state_at(topo, sent as u64);
    let failed: BTreeSet<u32> = view.failed_links().map(|l| l.0).collect();
    if &failed != down {
        return Err("FaultSchedule::state_at disagrees with the fed timeline".to_owned());
    }
    let mut engine = SelectionEngine::with_view(KIND, view);
    let mut sel = Vec::new();
    let expected = checks::routing_digest(final_epoch, topo.num_pns(), |s, d, out| {
        engine.select(topo, PnId(s), PnId(d), &mut sel);
        out.extend(sel.iter().map(|p| p.0));
    });
    checks::check_digest(&hex, expected)
}
