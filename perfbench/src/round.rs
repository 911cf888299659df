//! One round of a workload: set-up, the timed phase, and the checks.
//!
//! A [`Runner`] wraps every call the benchmark makes into the program
//! (build, register, start, run, fleet calls) and times it from outside.
//! A round is either plain (observation off, simulator trace off: the
//! wall-clock figures) or traced (`ObserveLevel::Trace` with a recorder
//! that evicts nothing, the simulator trace on, and the event loop
//! stepped one event at a time so events can be counted).

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use flowscript_engine::coordinator::CoordHandle;
use flowscript_engine::{
    EngineConfig, EngineError, ObjectVal, ObsEventKind, ObserveLevel, Snapshot, StableStore,
    SystemBuilder, WorkflowSystem,
};
use flowscript_sim::{SimDuration, TraceEvent};
use flowscript_tx::storage::Storage;

use crate::alloc;

/// The wall times and sizes of the operator calls of the `elastic`
/// workload (zero elsewhere).
#[derive(Debug, Default, Clone)]
pub struct FleetCalls {
    pub add_ms: f64,
    pub add_moved: usize,
    pub add_pause_max_ns: u64,
    pub drain_ms: f64,
    pub drain_moved: usize,
    pub drain_rounds: usize,
    pub drain_pause_max_ns: u64,
    pub adopt_ms: f64,
    pub adopted: usize,
}

/// What one round measured and found.
#[derive(Default)]
pub struct Round {
    /// Wall seconds from the first build call to the first timed call.
    pub setup_s: f64,
    /// Wall milliseconds of each `register_script` call.
    pub register_ms: Vec<f64>,
    /// Wall seconds of the timed phase: starts, runs and fleet calls.
    pub timed_s: f64,
    /// Wall microseconds of each timed `start` call.
    pub start_us: Vec<f64>,
    /// Timed instances (each checked to reach its predicted outcome).
    pub instances: usize,
    /// Every instance of the round, warm-up included.
    pub all_instances: usize,
    /// Operations (registrations, starts, fleet calls) attempted/failed.
    pub attempted: u64,
    pub failed: u64,
    /// Peak live heap during the timed phase, in bytes, over the heap
    /// that was live before the round began (what the benchmark keeps
    /// from earlier rounds is not the round's).
    pub peak_heap: usize,
    /// Allocation calls and bytes during the timed phase.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Bytes in every shard's WAL at the end of the round.
    pub wal_bytes: u64,
    /// Virtual instant at the end of the round.
    pub final_ns: u64,
    /// Outcome name of every instance, in start order.
    pub outcomes: Vec<String>,
    /// Failed output checks.
    pub errors: Vec<String>,
    pub fleet: FleetCalls,
    /// Wall seconds inside `run` and inside `run_for`.
    pub run_s: f64,
    pub run_for_s: f64,
    /// Traced rounds: virtual latency minus declared work, per timed
    /// instance, in milliseconds.
    pub overhead_ms: Vec<f64>,
    /// Traced rounds: events stepped by the benchmark in `run` and in
    /// `run_for` phases of the timed phase.
    pub events_run: u64,
    pub events_run_for: u64,
    /// Traced rounds: events scheduled in the timed phase, including those
    /// run inside `start` calls and timers cancelled before they fired.
    pub events_scheduled: u64,
    /// Traced rounds: messages and payload bytes sent in the timed phase.
    pub msgs: u64,
    pub wire_bytes: u64,
    /// Traced rounds: metric snapshots at the start and end of the timed
    /// phase (counters are always on, histograms need tracing).
    pub snap_before: Snapshot,
    pub snap_after: Snapshot,
    /// Every shard's stable storage, retired shards included.
    pub storages: Vec<StableStore>,
}

impl Round {
    /// Counter growth over the timed phase.
    pub fn counter(&self, name: &str) -> u64 {
        self.snap_after
            .counter(name)
            .saturating_sub(self.snap_before.counter(name))
    }

    /// The `q`-quantile of a histogram's samples recorded in the timed
    /// phase, from its power-of-two buckets: the upper edge of the bucket
    /// holding that rank, as the program's own summaries estimate it.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> f64 {
        let Some(after) = self.snap_after.histogram(name) else {
            return 0.0;
        };
        let before = self.snap_before.histogram(name);
        let buckets: Vec<u64> = after
            .buckets
            .iter()
            .enumerate()
            .map(|(i, n)| n - before.map_or(0, |b| b.buckets[i]))
            .collect();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let rank = ((count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(after.max) as f64;
            }
        }
        after.max as f64
    }

    /// Samples a histogram recorded in the timed phase.
    pub fn histogram_count(&self, name: &str) -> u64 {
        let after = self.snap_after.histogram(name).map_or(0, |h| h.count);
        let before = self.snap_before.histogram(name).map_or(0, |h| h.count);
        after - before
    }
}

/// A timed instance: name, virtual start, and the virtual work its
/// bindings declare along its critical path.
struct Pending {
    instance: String,
    start_ns: u64,
    declared_ms: f64,
}

/// How many events the world has scheduled so far. Event ids are
/// numbered in scheduling order, so the id of a probe scheduled now is
/// that count; the probe is cancelled at once and never runs.
fn events_scheduled(sys: &mut WorkflowSystem) -> u64 {
    let world = sys.world_mut();
    let probe = world.schedule_at(world.now(), |_| {});
    world.cancel(probe);
    let id = format!("{probe:?}");
    id.trim_start_matches("EventId(")
        .trim_end_matches(')')
        .parse()
        .expect("event ids print as EventId(n)")
}

pub struct Runner {
    pub traced: bool,
    pub round: Round,
    clock: Instant,
    live_before: usize,
    timed_clock: Option<Instant>,
    coords: Vec<CoordHandle>,
    timed: Vec<Pending>,
    alloc_before: (u64, u64),
    trace_before: usize,
    scheduled_before: u64,
}

impl Runner {
    /// Starts the set-up clock.
    pub fn new(traced: bool) -> Self {
        Runner {
            traced,
            round: Round::default(),
            clock: Instant::now(),
            live_before: alloc::live(),
            timed_clock: None,
            coords: Vec::new(),
            timed: Vec::new(),
            alloc_before: (0, 0),
            trace_before: 0,
            scheduled_before: 0,
        }
    }

    /// Builds the fleet with `config`, observing everything in a traced
    /// round (a recorder large enough that nothing is evicted).
    pub fn build(&mut self, builder: SystemBuilder, config: EngineConfig) -> WorkflowSystem {
        let config = if self.traced {
            EngineConfig {
                observe: ObserveLevel::Trace,
                recorder_capacity: 1 << 40,
                ..config
            }
        } else {
            config
        };
        let sys = builder.config(config).trace(self.traced).build();
        for shard in 0..sys.shard_count() {
            self.track_shard(&sys, shard);
        }
        sys
    }

    /// Keeps a handle on shard `shard` (its recorder and storage outlive
    /// a later drain or failover).
    pub fn track_shard(&mut self, sys: &WorkflowSystem, shard: usize) {
        self.coords.push(sys.coord_handle(shard));
        self.round
            .storages
            .push(sys.shard_storages()[shard].clone());
    }

    pub fn register(&mut self, sys: &mut WorkflowSystem, name: &str, source: &str, root: &str) {
        self.round.attempted += 1;
        let clock = Instant::now();
        let result = sys.register_script(name, source, root);
        self.round
            .register_ms
            .push(clock.elapsed().as_secs_f64() * 1e3);
        if let Err(err) = result {
            self.fail(format!("register {name}: {err}"));
        }
    }

    /// Starts one instance. `declared_ms` marks a timed instance and
    /// gives the virtual work on its critical path; warm-up instances
    /// pass `None`.
    pub fn start(
        &mut self,
        sys: &mut WorkflowSystem,
        instance: &str,
        script: &str,
        inputs: Vec<(&str, ObjectVal)>,
        declared_ms: Option<f64>,
    ) {
        self.round.attempted += 1;
        let start_ns = sys.now().as_nanos();
        let clock = Instant::now();
        let result = sys.start(instance, script, "main", inputs);
        let wall = clock.elapsed();
        self.round.all_instances += 1;
        if let Some(declared_ms) = declared_ms {
            self.round.start_us.push(wall.as_secs_f64() * 1e6);
            self.timed.push(Pending {
                instance: instance.to_string(),
                start_ns,
                declared_ms,
            });
        }
        if let Err(err) = result {
            self.fail(format!("start {instance}: {err}"));
        }
    }

    /// A fleet call (grow, drain, fail over), counted as one operation.
    pub fn fleet<T>(
        &mut self,
        sys: &mut WorkflowSystem,
        what: &str,
        call: impl FnOnce(&mut WorkflowSystem) -> Result<T, EngineError>,
    ) -> Option<(T, f64)> {
        self.round.attempted += 1;
        let clock = Instant::now();
        let result = call(sys);
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(value) => Some((value, ms)),
            Err(err) => {
                self.fail(format!("{what}: {err}"));
                None
            }
        }
    }

    fn fail(&mut self, error: String) {
        self.round.failed += 1;
        self.round.errors.push(error);
    }

    /// Records a failed output check.
    pub fn error(&mut self, error: String) {
        self.round.errors.push(error);
    }

    /// Ends set-up and opens the timed phase.
    pub fn begin_timed(&mut self, sys: &mut WorkflowSystem) {
        self.round.setup_s = self.clock.elapsed().as_secs_f64();
        self.round.snap_before = sys.metrics_snapshot();
        self.trace_before = sys.sim_trace().len();
        if self.traced {
            self.scheduled_before = events_scheduled(sys);
        }
        self.alloc_before = alloc::totals();
        alloc::reset_peak();
        self.timed_clock = Some(Instant::now());
    }

    /// Runs the world to quiescence (stepping and counting events in a
    /// traced round).
    pub fn run(&mut self, sys: &mut WorkflowSystem) {
        let clock = Instant::now();
        if self.traced {
            let world = sys.world_mut();
            let mut events = 0;
            while world.step() {
                events += 1;
            }
            self.round.events_run += events;
        } else {
            sys.run();
        }
        self.round.run_s += clock.elapsed().as_secs_f64();
    }

    /// Advances virtual time by `duration`. A traced round steps the
    /// world itself up to a marker event at the deadline, counting the
    /// events in between; events sharing the deadline's exact instant
    /// may then run on the other side of it, which the traced-versus-
    /// plain comparison would catch.
    pub fn run_for(&mut self, sys: &mut WorkflowSystem, duration: SimDuration) {
        let clock = Instant::now();
        if self.traced {
            let reached = Rc::new(Cell::new(false));
            let flag = reached.clone();
            let world = sys.world_mut();
            let deadline = world.now() + duration;
            world.schedule_at(deadline, move |_| flag.set(true));
            let mut events = 0;
            while !reached.get() && world.step() {
                events += 1;
            }
            // The marker itself is not the program's event.
            self.round.events_run_for += events - 1;
        } else {
            sys.run_for(duration);
        }
        self.round.run_for_s += clock.elapsed().as_secs_f64();
    }

    /// Closes the timed phase.
    pub fn end_timed(&mut self, sys: &mut WorkflowSystem) {
        let clock = self.timed_clock.expect("timed phase opened");
        self.round.timed_s = clock.elapsed().as_secs_f64();
        self.round.peak_heap = alloc::peak() - self.live_before;
        let (count, bytes) = alloc::totals();
        self.round.allocs = count - self.alloc_before.0;
        self.round.alloc_bytes = bytes - self.alloc_before.1;
        self.round.snap_after = sys.metrics_snapshot();
        self.round.final_ns = sys.now().as_nanos();
        if self.traced {
            self.round.events_scheduled = events_scheduled(sys) - self.scheduled_before;
        }
        for (_, event) in &sys.sim_trace().entries()[self.trace_before..] {
            if let TraceEvent::MessageSent { bytes, .. } = event {
                self.round.msgs += 1;
                self.round.wire_bytes += *bytes as u64;
            }
        }
    }

    /// Checks that `instance` completed with `expected`, returning its
    /// outcome objects' texts.
    pub fn expect_outcome(
        &mut self,
        sys: &WorkflowSystem,
        instance: &str,
        expected: &str,
    ) -> HashMap<String, String> {
        let outcome = sys.outcome(instance);
        let name = outcome.as_ref().map_or("<none>", |o| o.name.as_str());
        self.round.outcomes.push(name.to_string());
        if name != expected {
            let status = sys.status(instance);
            self.error(format!(
                "{instance}: outcome {name}, expected {expected} ({status:?})"
            ));
        }
        outcome
            .map(|o| {
                o.objects
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_text()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Finishes the round: WAL size, and in a traced round each timed
    /// instance's virtual latency against its declared work.
    pub fn finish(mut self) -> Round {
        self.round.instances = self.timed.len();
        self.round.wal_bytes = self.round.storages.iter().map(Storage::len).sum();
        if self.traced {
            let mut terminal: HashMap<String, u64> = HashMap::new();
            for coord in &self.coords {
                for event in coord.recorder().events() {
                    if matches!(event.kind, ObsEventKind::Terminal { .. }) {
                        let at = terminal.entry(event.instance).or_insert(u64::MAX);
                        *at = (*at).min(event.at_ns);
                    }
                }
            }
            for pending in &self.timed {
                let Some(&end_ns) = terminal.get(&pending.instance) else {
                    self.round
                        .errors
                        .push(format!("{}: no terminal event traced", pending.instance));
                    continue;
                };
                let latency_ms = (end_ns - pending.start_ns) as f64 / 1e6;
                if latency_ms < pending.declared_ms {
                    self.round.errors.push(format!(
                        "{}: virtual latency {latency_ms} ms below its declared work {} ms",
                        pending.instance, pending.declared_ms
                    ));
                }
                self.round
                    .overhead_ms
                    .push(latency_ms - pending.declared_ms);
            }
        }
        self.round
    }
}
