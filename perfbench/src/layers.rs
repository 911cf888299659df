//! Per-layer replays: the benchmark times single layers on the run's own
//! inputs (its scripts, its WAL records, its frame sizes) through their
//! public entry points.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use flowscript_codec::{frame, FrameReader};
use flowscript_core::{parse, schema, sema};
use flowscript_engine::StableStore;
use flowscript_plan::Plan;
use flowscript_tx::storage::{FileStorage, SharedStorage, Storage};
use flowscript_tx::{LogRecord, TxManager, Wal};

use crate::util::median;

/// How long each replay repeats its pass, at least.
const REPLAY_FOR: Duration = Duration::from_millis(300);

/// Repeats `pass` until [`REPLAY_FOR`] has elapsed; returns the passes.
fn repeat(mut pass: impl FnMut()) -> u64 {
    let clock = Instant::now();
    let mut passes = 0;
    while passes == 0 || clock.elapsed() < REPLAY_FOR {
        pass();
        passes += 1;
    }
    passes
}

/// Microseconds per KiB of source spent in parse, `sema::check` and
/// `schema::compile`.
pub fn front_end(scripts: &[(String, String)]) -> [f64; 3] {
    let mut spent = [Duration::ZERO; 3];
    let passes = repeat(|| {
        for (source, root) in scripts {
            let clock = Instant::now();
            let script = parse(black_box(source)).expect("workload scripts parse");
            let parsed = clock.elapsed();
            let checked = sema::check(&script).expect("workload scripts check");
            let checked_at = clock.elapsed();
            let compiled = schema::compile(&checked, root).expect("workload scripts compile");
            let compiled_at = clock.elapsed();
            black_box(compiled);
            spent[0] += parsed;
            spent[1] += checked_at - parsed;
            spent[2] += compiled_at - checked_at;
        }
    });
    let kib = passes as f64 * scripts.iter().map(|s| s.0.len()).sum::<usize>() as f64 / 1024.0;
    spent.map(|d| d.as_secs_f64() * 1e6 / kib)
}

/// Microseconds per task of `Plan::lower` on the workload's schemas.
pub fn lower(scripts: &[(String, String)]) -> f64 {
    let schemas: Vec<_> = scripts
        .iter()
        .map(|(source, root)| schema::compile_source(source, root).expect("scripts compile"))
        .collect();
    let tasks: usize = schemas.iter().map(|s| Plan::lower(s).tasks.len()).sum();
    let clock = Instant::now();
    let passes = repeat(|| {
        for schema in &schemas {
            black_box(Plan::lower(black_box(schema)));
        }
    });
    clock.elapsed().as_secs_f64() * 1e6 / (passes as f64 * tasks as f64)
}

/// The WAL frame payloads of `storages`, at most `cap` bytes of them.
fn payloads(storages: &[StableStore], cap: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut total = 0;
    for storage in storages {
        let bytes = storage.read_all().expect("WAL readable");
        let (frames, _torn) = FrameReader::new(&bytes)
            .read_all_tolerant()
            .expect("WAL frames intact");
        for payload in frames {
            if total >= cap {
                return out;
            }
            total += payload.len();
            out.push(payload.to_vec());
        }
    }
    out
}

/// Nanoseconds per payload byte to decode the run's log records and to
/// encode them again (up to 16 MB of them).
pub fn codec(storages: &[StableStore]) -> [f64; 2] {
    let payloads = payloads(storages, 16 << 20);
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    if bytes == 0 {
        return [0.0; 2];
    }
    let records: Vec<LogRecord> = payloads
        .iter()
        .map(|p| flowscript_codec::from_bytes(p).expect("records decode"))
        .collect();
    let clock = Instant::now();
    let passes = repeat(|| {
        for payload in &payloads {
            black_box(flowscript_codec::from_bytes::<LogRecord>(black_box(payload)).ok());
        }
    });
    let decode = clock.elapsed().as_secs_f64() * 1e9 / (passes as f64 * bytes as f64);
    let clock = Instant::now();
    let passes = repeat(|| {
        for record in &records {
            black_box(flowscript_codec::to_bytes(black_box(record)));
        }
    });
    let encode = clock.elapsed().as_secs_f64() * 1e9 / (passes as f64 * bytes as f64);
    [encode, decode]
}

/// Milliseconds per MB (10^6 bytes) to scan the run's logs with
/// `Wal::scan` and to replay them with `TxManager::open`, each on a
/// private in-memory copy (an `Rc`-shared one, so a pass copies no
/// bytes). A log the manager refuses to open (a fenced one) is left out
/// of the replay figure.
pub fn replay(storages: &[StableStore]) -> [f64; 2] {
    let copies: Vec<SharedStorage> = storages
        .iter()
        .map(|storage| {
            let mut copy = SharedStorage::new();
            copy.append(&storage.read_all().expect("WAL readable"))
                .expect("memory append");
            copy
        })
        .filter(|copy| !copy.is_empty())
        .collect();
    let mb = |logs: &[&SharedStorage]| logs.iter().map(|c| c.len()).sum::<u64>() as f64 / 1e6;
    let all: Vec<&SharedStorage> = copies.iter().collect();
    if all.is_empty() {
        return [0.0; 2];
    }
    let clock = Instant::now();
    let passes = repeat(|| {
        for copy in &all {
            black_box(Wal::new((*copy).clone()).scan().expect("WAL scans"));
        }
    });
    let scan = clock.elapsed().as_secs_f64() * 1e3 / (passes as f64 * mb(&all));
    let openable: Vec<&SharedStorage> = copies
        .iter()
        .filter(|copy| TxManager::open(0, (*copy).clone()).is_ok())
        .collect();
    if openable.is_empty() {
        return [scan, 0.0];
    }
    let clock = Instant::now();
    let passes = repeat(|| {
        for copy in &openable {
            black_box(TxManager::open(0, (*copy).clone()).ok());
        }
    });
    let replay = clock.elapsed().as_secs_f64() * 1e3 / (passes as f64 * mb(&openable));
    [scan, replay]
}

/// Median microseconds of one `FileStorage::append` (a write plus
/// fdatasync) of the run's own frames, up to `max_frames` of them, into
/// a scratch log in `dir`.
pub fn append_sync(storages: &[StableStore], dir: &Path, max_frames: usize) -> f64 {
    let payloads = payloads(storages, usize::MAX);
    let path = dir.join("append-sync.wal");
    let mut log = FileStorage::open(&path).expect("scratch log opens");
    let mut spent = Vec::new();
    for payload in payloads.iter().take(max_frames) {
        let framed = frame::encode_frame(payload).expect("frame encodes");
        let clock = Instant::now();
        log.append(&framed).expect("scratch append");
        spent.push(clock.elapsed().as_secs_f64() * 1e6);
    }
    drop(log);
    let _ = std::fs::remove_file(&path);
    median(&spent)
}
