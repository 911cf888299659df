//! `perfbench`: the flowscript engine's end-to-end and per-layer
//! benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! It repeats plain rounds of the workload for `--seconds` of wall time,
//! then one traced round of the same inputs, checks every round's
//! outputs, and prints one JSON object as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The same object, with the machine's description, is written to
//! `<out>/<workload>-seed<n>-<e2e|layers>.json`. See `README.md`.

mod alloc;
mod layers;
mod round;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use round::Round;
use util::{json_str, median, quantile, Metrics};
use workloads::Workload;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <diamond_wave|paper_mix|elastic|corpus> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// A fresh, empty directory for the storage replay's scratch WAL.
fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// The CPU's brand string, from `cpuid` (no file is read).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            // SAFETY: `cpuid` is available on every x86_64 processor, and
            // the extended brand-string leaves exist on every one that
            // runs a 64-bit OS; the instruction only reads registers.
            #[allow(unused_unsafe)]
            let regs = unsafe { __cpuid(leaf) };
            for reg in [regs.eax, regs.ebx, regs.ecx, regs.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        let model = String::from_utf8_lossy(&bytes);
        model.trim_matches(char::from(0)).trim().to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Checks that every plain round repeated the first one exactly, and
/// that the traced round reached the same virtual instant with the same
/// outcomes.
fn check_repeats(rounds: &[Round], traced: &Round) -> Vec<String> {
    let first = &rounds[0];
    let mut errors = Vec::new();
    for (i, round) in rounds.iter().enumerate().skip(1) {
        if round.final_ns != first.final_ns || round.outcomes != first.outcomes {
            errors.push(format!("plain round {i} diverged from round 0"));
        }
        if round.wal_bytes != first.wal_bytes || round.attempted != first.attempted {
            errors.push(format!("plain round {i} wrote or attempted differently"));
        }
    }
    if traced.final_ns != first.final_ns {
        errors.push(format!(
            "traced round ended at {} ns, plain at {} ns",
            traced.final_ns, first.final_ns
        ));
    }
    if traced.outcomes != first.outcomes {
        errors.push("traced round outcomes differ from the plain round".to_string());
    }
    errors
}

fn end_to_end(rounds: &[Round], traced: &Round) -> Metrics {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let starts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.start_us.iter().copied())
        .collect();
    let first = &rounds[0];
    let mut m = Metrics::default();
    m.put("setup_s", per_round(&|r| r.setup_s), "s");
    m.put(
        "inst_per_s",
        per_round(&|r| r.instances as f64 / r.timed_s),
        "1/s",
    );
    m.put("start_p50_us", median(&starts), "us");
    m.put(
        "virt_overhead_p50_ms",
        quantile(&traced.overhead_ms, 0.5),
        "ms",
    );
    m.put(
        "virt_overhead_p99_ms",
        quantile(&traced.overhead_ms, 0.99),
        "ms",
    );
    m.put(
        "wal_bytes_per_inst",
        first.wal_bytes as f64 / first.all_instances as f64,
        "bytes",
    );
    m.put(
        "peak_heap_mb",
        per_round(&|r| r.peak_heap as f64 / 1e6),
        "MB",
    );
    m
}

fn per_layer(workload: Workload, rounds: &[Round], traced: &Round, wal_dir: &Path) -> Metrics {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let inst = traced.instances as f64;
    let per_inst = |name: &str| traced.counter(name) as f64 / inst;
    let scripts = workload.scripts();
    let mut m = Metrics::default();

    let [parse, sema, compile] = layers::front_end(&scripts);
    m.put("core.parse_us_per_kb", parse, "us/KiB");
    m.put("core.sema_us_per_kb", sema, "us/KiB");
    m.put("core.compile_us_per_kb", compile, "us/KiB");
    let register: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.register_ms.iter().copied())
        .collect();
    m.put("repo.register_ms_p50", median(&register), "ms");
    m.put("plan.lower_us_per_task", layers::lower(&scripts), "us");
    m.put(
        "plan.evaluations_per_inst",
        per_inst("coord.evaluations"),
        "count",
    );

    let start_ms: f64 = rounds
        .iter()
        .map(|r| r.start_us.iter().sum::<f64>() / 1e3)
        .sum();
    let timed_ms: f64 = rounds.iter().map(|r| r.timed_s * 1e3).sum();
    m.put("coord.start_wall_share", start_ms / timed_ms, "ratio");
    m.put("coord.start_wall_ms", start_ms, "ms");
    m.put("coord.timed_wall_ms", timed_ms, "ms");
    m.put(
        "coord.dispatches_per_inst",
        per_inst("coord.dispatches"),
        "count",
    );
    m.put(
        "coord.batch_size_p50",
        traced.histogram_quantile("coord.batch_size", 0.5),
        "count",
    );
    m.put(
        "coord.commit_drain_len_p50",
        traced.histogram_quantile("coord.commit_drain_len", 0.5),
        "count",
    );
    m.put("coord.repeats_per_inst", per_inst("coord.repeats"), "count");
    m.put("coord.marks_per_inst", per_inst("coord.marks"), "count");
    m.put("coord.retries_per_inst", per_inst("coord.retries"), "count");
    m.put(
        "coord.forwarded_per_inst",
        per_inst("coord.forwarded"),
        "count",
    );

    for (queue, histogram) in [
        ("queue_wait", "sched.queue_wait_ns"),
        ("admission_wait", "sched.admission_wait_ns"),
    ] {
        for (tag, q) in [("p50", 0.5), ("p99", 0.99)] {
            let wait_ms = traced.histogram_quantile(histogram, q) / 1e6;
            m.put(&format!("sched.{queue}_ms_{tag}"), wait_ms, "ms");
        }
    }

    m.put(
        "tx.fact_point_reads_per_inst",
        per_inst("tx.fact_point_reads"),
        "count",
    );
    m.put(
        "tx.fact_range_scans_per_inst",
        per_inst("tx.fact_range_scans"),
        "count",
    );
    m.put(
        "tx.prefix_scans_per_inst",
        per_inst("tx.prefix_scans"),
        "count",
    );
    m.put("tx.commits_per_inst", per_inst("tx.commits"), "count");
    m.put(
        "tx.group_commits_per_inst",
        per_inst("tx.group_commits"),
        "count",
    );
    m.put("tx.lock_waits_per_inst", per_inst("tx.lock_waits"), "count");
    m.put("tx.aborts_per_inst", per_inst("tx.aborts"), "count");

    let frames = traced.histogram_count("wal.bytes_per_frame") as f64;
    m.put("wal.frames_per_inst", frames / inst, "count");
    m.put(
        "wal.bytes_per_frame_p50",
        traced.histogram_quantile("wal.bytes_per_frame", 0.5),
        "bytes",
    );
    let [encode, decode] = layers::codec(&traced.storages);
    m.put("codec.encode_ns_per_byte", encode, "ns/B");
    m.put("codec.decode_ns_per_byte", decode, "ns/B");
    let [scan, replay] = layers::replay(&traced.storages);
    m.put("wal.scan_ms_per_mb", scan, "ms/MB");
    m.put("tx.replay_ms_per_mb", replay, "ms/MB");
    // Each WAL frame is one write plus fdatasync on the file WAL.
    let (syncs, append_sync) = if workload.replays_file_wal() {
        (
            frames / inst,
            layers::append_sync(&traced.storages, wal_dir, 400),
        )
    } else {
        (0.0, 0.0)
    };
    m.put("storage.syncs_per_inst", syncs, "count");
    m.put("storage.append_sync_us_p50", append_sync, "us");

    let fleet = |f: &dyn Fn(&round::FleetCalls) -> f64| per_round(&|r| f(&r.fleet));
    let per_move = |ms: f64, moved: usize| {
        if moved == 0 {
            0.0
        } else {
            ms * 1e3 / moved as f64
        }
    };
    m.put("handoff.add_ms", fleet(&|f| f.add_ms), "ms");
    m.put("handoff.drain_ms", fleet(&|f| f.drain_ms), "ms");
    m.put("handoff.adopt_ms", fleet(&|f| f.adopt_ms), "ms");
    m.put(
        "handoff.us_per_move_add",
        fleet(&|f| per_move(f.add_ms, f.add_moved)),
        "us",
    );
    m.put(
        "handoff.us_per_move_drain",
        fleet(&|f| per_move(f.drain_ms, f.drain_moved)),
        "us",
    );
    m.put(
        "handoff.drain_rounds",
        traced.fleet.drain_rounds as f64,
        "count",
    );
    m.put(
        "handoff.pause_max_us",
        fleet(&|f| f.add_pause_max_ns.max(f.drain_pause_max_ns) as f64 / 1e3),
        "us",
    );
    let moves = (traced.fleet.add_moved + traced.fleet.drain_moved) as f64;
    let two_pc = traced.counter("tx.two_pc_rounds") as f64;
    m.put(
        "tx.two_pc_rounds_per_move",
        if moves == 0.0 { 0.0 } else { two_pc / moves },
        "count",
    );

    let events = (traced.events_run + traced.events_run_for) as f64;
    m.put("sim.events_per_inst", events / inst, "count");
    m.put(
        "sim.scheduled_per_inst",
        traced.events_scheduled as f64 / inst,
        "count",
    );
    m.put("sim.msgs_per_inst", traced.msgs as f64 / inst, "count");
    m.put(
        "sim.wire_bytes_per_inst",
        traced.wire_bytes as f64 / inst,
        "bytes",
    );
    let ns_per_event = |wall_s: f64, events: u64| {
        if events == 0 {
            0.0
        } else {
            wall_s * 1e9 / events as f64
        }
    };
    m.put(
        "sim.run_ns_per_event",
        ns_per_event(per_round(&|r| r.run_s), traced.events_run),
        "ns",
    );
    m.put(
        "sim.run_for_ns_per_event",
        ns_per_event(per_round(&|r| r.run_for_s), traced.events_run_for),
        "ns",
    );

    let last = rounds.last().expect("at least one round");
    m.put("alloc.count_per_inst", last.allocs as f64 / inst, "count");
    m.put(
        "alloc.bytes_per_inst",
        last.alloc_bytes as f64 / inst,
        "bytes",
    );

    // Both sides leave out `run_for` phases: the traced round steps
    // those itself and so skips `run_until`'s own scan of pending events.
    let untraced_ms = per_round(&|r| (r.timed_s - r.run_for_s) * 1e3);
    let traced_ms = (traced.timed_s - traced.run_for_s) * 1e3;
    m.put("obs.traced_wall_ratio", traced_ms / untraced_ms, "ratio");
    m.put("obs.traced_wall_ms", traced_ms, "ms");
    m.put("obs.untraced_wall_ms", untraced_ms, "ms");
    m
}

fn run(args: &Args) -> Result<(), String> {
    let name = args.workload.name();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut rounds = Vec::new();
    let clock = Instant::now();
    while rounds.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let mut round = args.workload.round(args.seed, false);
        // Only the traced round's logs are replayed.
        round.storages.clear();
        rounds.push(round);
    }
    let traced = args.workload.round(args.seed, true);

    let mut errors: Vec<String> = rounds
        .iter()
        .chain([&traced])
        .flat_map(|r| r.errors.iter().cloned())
        .collect();
    errors.extend(check_repeats(&rounds, &traced));
    let metrics = if args.trace {
        let dir = fresh_dir(&args.out.join(format!("wal-{name}-{}", args.seed)))?;
        let metrics = per_layer(args.workload, &rounds, &traced, &dir);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        metrics
    } else {
        end_to_end(&rounds, &traced)
    };

    for error in errors.iter().take(20) {
        eprintln!("check failed: {error}");
    }
    let attempted: u64 = rounds.iter().chain([&traced]).map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().chain([&traced]).map(|r| r.failed).sum();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        errors.is_empty(),
        metrics.to_json()
    );
    let kind = if args.trace { "layers" } else { "e2e" };
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"setup_s\": {}, \"timed_s\": {}, \"instances\": {}}}",
                r.setup_s, r.timed_s, r.instances
            )
        })
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"rounds\": [{}], \"nproc\": {}, \"cpu\": {}, \"result\": {result}}}\n",
        json_str(name),
        args.seed,
        args.seconds,
        per_round.join(", "),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
    );
    let path = args
        .out
        .join(format!("{name}-seed{}-{kind}.json", args.seed));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{result}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(err) = run(&args) {
        eprintln!("perfbench: {err}");
        std::process::exit(1);
    }
}
