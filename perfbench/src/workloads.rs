//! The four workloads. Each round builds a fresh fleet, so every round
//! of one run repeats exactly the same operations on the same inputs.
//!
//! Inputs come from `--seed` alone: instance payloads, which instances
//! fail on purpose, the order of scripts and starts, and the simulator's
//! seed (network jitter). The shape of each workload (how many
//! instances, how many of them fail, which scripts) is fixed, so two
//! seeds differ in detail but not in the amount or kind of work.

use flowscript_bench::{alternatives_source, chain_source, nested_source};
use flowscript_core::samples;
use flowscript_engine::{
    CommitBatch, EngineConfig, EngineError, InvokeCtx, ObjectVal, TaskBehavior, WorkflowSystem,
};
use flowscript_sim::SimDuration;

use crate::round::{Round, Runner};
use crate::util::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DiamondWave,
    PaperMix,
    Elastic,
    Corpus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DiamondWave,
        Workload::PaperMix,
        Workload::Elastic,
        Workload::Corpus,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiamondWave => "diamond_wave",
            Workload::PaperMix => "paper_mix",
            Workload::Elastic => "elastic",
            Workload::Corpus => "corpus",
        }
    }

    /// Whether the per-layer run replays the workload's WAL frames
    /// through the fdatasync'd file storage.
    pub fn replays_file_wal(self) -> bool {
        self == Workload::PaperMix
    }

    /// One round.
    pub fn round(self, seed: u64, traced: bool) -> Round {
        match self {
            Workload::DiamondWave => diamond_wave(seed, traced),
            Workload::PaperMix => paper_mix(seed, traced),
            Workload::Elastic => elastic(seed, traced),
            Workload::Corpus => corpus(seed, traced),
        }
    }

    /// The `(source, root)` of every script the workload registers, for
    /// the front-end and plan replays.
    pub fn scripts(self) -> Vec<(String, String)> {
        match self {
            Workload::DiamondWave | Workload::Elastic => {
                vec![(samples::FIG1_DIAMOND.to_string(), "diamond".to_string())]
            }
            Workload::PaperMix => vec![
                (
                    samples::ORDER_PROCESSING.to_string(),
                    "processOrderApplication".to_string(),
                ),
                (
                    samples::BUSINESS_TRIP.to_string(),
                    "tripReservation".to_string(),
                ),
            ],
            Workload::Corpus => corpus_scripts()
                .into_iter()
                .map(|script| (script.source, "root".to_string()))
                .collect(),
        }
    }
}

fn text(class: &str, value: &str) -> ObjectVal {
    ObjectVal::text(class, value)
}

fn ms(millis: u64) -> SimDuration {
    SimDuration::from_millis(millis)
}

/// A short hex payload drawn from the seed.
fn payload(rng: &mut Rng) -> String {
    format!("{:08x}", rng.next_u64() as u32)
}

// ---------------------------------------------------------------------
// The Fig. 1 diamond (`diamond_wave` and `elastic`).
// ---------------------------------------------------------------------

/// Virtual work of every diamond task.
const DIAMOND_TASK_S: u64 = 30;
/// Declared critical-path work: t1, then t2 ‖ t3, then t4.
const DIAMOND_DECLARED_MS: f64 = (3 * DIAMOND_TASK_S * 1000) as f64;

/// Binds the diamond so its result spells out the path it took: t4
/// joins t2's fixed output with t3's wrapping of t1's copy of the seed.
fn bind_diamond(sys: &WorkflowSystem) {
    let work = SimDuration::from_secs(DIAMOND_TASK_S);
    sys.bind_fn("refT1", move |ctx: &InvokeCtx| {
        TaskBehavior::outcome("done")
            .with_work(work)
            .with_object("out", text("Data", &ctx.input_text("seed")))
    });
    sys.bind_fn("refT2", move |_: &InvokeCtx| {
        TaskBehavior::outcome("done")
            .with_work(work)
            .with_object("out", text("Data", "t2"))
    });
    sys.bind_fn("refT3", move |ctx: &InvokeCtx| {
        TaskBehavior::outcome("done").with_work(work).with_object(
            "out",
            text("Data", &format!("t3({})", ctx.input_text("in"))),
        )
    });
    sys.bind_fn("refT4", move |ctx: &InvokeCtx| {
        let joined = format!("{}|{}", ctx.input_text("left"), ctx.input_text("right"));
        TaskBehavior::outcome("done")
            .with_work(work)
            .with_object("out", text("Data", &joined))
    });
}

/// A diamond wave's instances: name, seed payload, timed or warm-up.
fn diamond_instances(rng: &mut Rng, warm: usize, timed: usize) -> Vec<(String, String, bool)> {
    let mut instances = Vec::with_capacity(warm + timed);
    for i in 0..warm {
        instances.push((format!("warm-{i}"), payload(rng), false));
    }
    for i in 0..timed {
        instances.push((format!("wave-{i}"), payload(rng), true));
    }
    instances
}

fn start_diamonds(
    d: &mut Runner,
    sys: &mut WorkflowSystem,
    instances: &[(String, String, bool)],
    timed: bool,
) {
    for (name, seed, is_timed) in instances.iter().filter(|i| i.2 == timed) {
        let declared = is_timed.then_some(DIAMOND_DECLARED_MS);
        d.start(
            sys,
            name,
            "diamond",
            vec![("seed", text("Data", seed))],
            declared,
        );
    }
}

/// Every diamond completed with the output its bindings predict.
fn check_diamonds(d: &mut Runner, sys: &WorkflowSystem, instances: &[(String, String, bool)]) {
    for (name, seed, _) in instances {
        let objects = d.expect_outcome(sys, name, "done");
        let expected = format!("t2|t3({seed})");
        if objects.get("out") != Some(&expected) {
            d.error(format!(
                "{name}: out {:?}, expected {expected}",
                objects.get("out")
            ));
        }
    }
}

const WAVE_SHARDS: usize = 4;
const WAVE_TIMED: usize = 10_000;
const WAVE_WARM: usize = 1_000;

/// The ROADMAP's reference wave: 10k diamonds in flight at once on 4
/// shards over the in-memory store.
fn diamond_wave(seed: u64, traced: bool) -> Round {
    let mut rng = Rng::new(seed);
    let instances = diamond_instances(&mut rng, WAVE_WARM, WAVE_TIMED);
    let mut d = Runner::new(traced);
    let config = EngineConfig {
        // Tasks take 30 virtual seconds; keep watchdogs out of the way.
        dispatch_timeout: SimDuration::from_secs(300),
        ..EngineConfig::default()
    };
    let builder = WorkflowSystem::builder()
        .coordinators(WAVE_SHARDS)
        .executors(4)
        .seed(seed);
    let mut sys = d.build(builder, config);
    d.register(&mut sys, "diamond", samples::FIG1_DIAMOND, "diamond");
    bind_diamond(&sys);
    start_diamonds(&mut d, &mut sys, &instances, false);
    sys.run();

    d.begin_timed(&mut sys);
    start_diamonds(&mut d, &mut sys, &instances, true);
    d.run(&mut sys);
    d.end_timed(&mut sys);

    check_diamonds(&mut d, &sys, &instances);
    d.finish()
}

const ELASTIC_TIMED: usize = 1_200;
const ELASTIC_WARM: usize = 300;

/// A diamond wave on 3 shards that the operator reshapes mid-wave:
/// grow to 4, drain one, crash one and adopt its log.
fn elastic(seed: u64, traced: bool) -> Round {
    let mut rng = Rng::new(seed);
    let instances = diamond_instances(&mut rng, ELASTIC_WARM, ELASTIC_TIMED);
    let mut d = Runner::new(traced);
    let config = EngineConfig {
        // Twice the task work: no spurious retries, but a task stranded
        // on the crashed shard is re-dispatched within the wave.
        dispatch_timeout: SimDuration::from_secs(2 * DIAMOND_TASK_S),
        ..EngineConfig::default()
    };
    let builder = WorkflowSystem::builder()
        .coordinators(3)
        .executors(4)
        .seed(seed);
    let mut sys = d.build(builder, config);
    d.register(&mut sys, "diamond", samples::FIG1_DIAMOND, "diamond");
    bind_diamond(&sys);
    start_diamonds(&mut d, &mut sys, &instances, false);
    sys.run();

    d.begin_timed(&mut sys);
    start_diamonds(&mut d, &mut sys, &instances, true);
    d.run_for(&mut sys, SimDuration::from_secs(10));
    if let Some((report, ms)) = d.fleet(&mut sys, "add_coordinator", |s| {
        s.add_coordinator("coordinator3")
    }) {
        let shard = sys.shard_count() - 1;
        d.track_shard(&sys, shard);
        d.round.fleet.add_ms = ms;
        d.round.fleet.add_moved = report.moved;
        d.round.fleet.add_pause_max_ns = report.max_pause_ns();
    }
    d.run_for(&mut sys, SimDuration::from_secs(20));
    if let Some((report, ms)) = d.fleet(&mut sys, "remove_coordinator", |s| {
        s.remove_coordinator("coordinator1")
    }) {
        d.round.fleet.drain_ms = ms;
        d.round.fleet.drain_moved = report.moved;
        d.round.fleet.drain_rounds = report.rounds;
        d.round.fleet.drain_pause_max_ns = report.max_pause_ns();
    }
    d.run_for(&mut sys, SimDuration::from_secs(20));
    let nodes = sys.coordinator_nodes().to_vec();
    let victim = nodes
        .into_iter()
        .find(|&node| sys.world_mut().node_name(node) == "coordinator2");
    if let Some((report, ms)) = d.fleet(&mut sys, "adopt_dead_shard", |s| {
        let node =
            victim.ok_or_else(|| EngineError::Tx("coordinator2 is not in the fleet".into()))?;
        s.crash_now(node);
        s.adopt_dead_shard("coordinator2")
    }) {
        d.round.fleet.adopt_ms = ms;
        d.round.fleet.adopted = report.adopted;
    }
    d.run(&mut sys);
    d.end_timed(&mut sys);

    check_diamonds(&mut d, &sys, &instances);
    let moves = (d.round.fleet.add_moved + d.round.fleet.drain_moved) as u64;
    let handoffs = d.round.counter("coord.handoffs");
    if handoffs != moves {
        d.error(format!("{handoffs} hand-offs for {moves} reported moves"));
    }
    let adoptions = d.round.counter("coord.adoptions");
    if adoptions != d.round.fleet.adopted as u64 {
        d.error(format!(
            "{adoptions} adoptions for {} reported",
            d.round.fleet.adopted
        ));
    }
    let loops = d.round.counter("coord.forward_loops");
    if loops != 0 {
        d.error(format!("{loops} forwarding loops"));
    }
    d.finish()
}

// ---------------------------------------------------------------------
// `paper_mix`: Fig. 7 order processing and Fig. 8 trip reservation.
// ---------------------------------------------------------------------

const ORDER_AUTH_MS: u64 = 20;
const ORDER_STOCK_MS: u64 = 15;
const ORDER_DISPATCH_MS: u64 = 25;
const ORDER_CAPTURE_MS: u64 = 10;
const TRIP_DATA_MS: u64 = 10;
/// Airline A answers `notFound` first, B finds a flight, C later too.
const TRIP_AIRLINE_MS: [u64; 3] = [5, 12, 30];
const TRIP_FLIGHT_MS: u64 = 20;
const TRIP_HOTEL_MS: u64 = 15;
const TRIP_CANCEL_MS: u64 = 10;
const TRIP_PRINT_MS: u64 = 5;

const MIX_PAIRS: usize = 600;
const MIX_WARM_PAIRS: usize = 60;
/// Exactly this many of every ten orders are declined, and of every ten
/// trips have their first hotel booking fail; the seed picks which.
const DECLINED_PER_10: usize = 2;
const HOTEL_FAIL_PER_10: usize = 3;

/// One order and one trip of the mix.
struct MixPair {
    /// Instance names. They do not depend on the seed, so neither does
    /// the shard each instance lands on.
    order: String,
    trip: String,
    /// The seed's payload, carried in both instances' inputs.
    payload: String,
    declined: bool,
    hotel_fails: bool,
    timed: bool,
}

impl MixPair {
    fn order_text(&self) -> String {
        let fate = if self.declined { "decline" } else { "pay" };
        format!("{}-{}:{fate}", self.order, self.payload)
    }

    fn user_text(&self) -> String {
        let fate = if self.hotel_fails { "hotelfail" } else { "ok" };
        format!("{}-{}:{fate}", self.trip, self.payload)
    }

    fn order_declared_ms(&self) -> f64 {
        let work = if self.declined {
            // `orderCancelled` fires on the refusal alone.
            ORDER_AUTH_MS
        } else {
            ORDER_AUTH_MS.max(ORDER_STOCK_MS) + ORDER_DISPATCH_MS + ORDER_CAPTURE_MS
        };
        work as f64
    }

    fn trip_declared_ms(&self) -> f64 {
        let attempt = TRIP_DATA_MS + TRIP_AIRLINE_MS[1] + TRIP_FLIGHT_MS + TRIP_HOTEL_MS;
        let work = if self.hotel_fails {
            2 * attempt + TRIP_CANCEL_MS + TRIP_PRINT_MS
        } else {
            attempt + TRIP_PRINT_MS
        };
        work as f64
    }
}

/// `count` pairs (a multiple of ten). In every block of ten pairs the
/// seed picks which orders are declined and which trips' hotels fail, so
/// failures are spread evenly through the stream and the queues see the
/// same load whatever the seed.
fn mix_pairs(rng: &mut Rng, count: usize, timed: bool, prefix: &str) -> Vec<MixPair> {
    let mut declined = Vec::with_capacity(count);
    let mut hotel = Vec::with_capacity(count);
    for _ in 0..count / 10 {
        declined.extend(rng.choose(10, DECLINED_PER_10));
        hotel.extend(rng.choose(10, HOTEL_FAIL_PER_10));
    }
    (0..count)
        .map(|i| MixPair {
            order: format!("{prefix}order-{i}"),
            payload: payload(rng),
            declined: declined[i],
            trip: format!("{prefix}trip-{i}"),
            hotel_fails: hotel[i],
            timed,
        })
        .collect()
}

fn bind_paper_mix(sys: &WorkflowSystem) {
    sys.bind_fn("refPaymentAuthorisation", |ctx: &InvokeCtx| {
        let order = ctx.input_text("order");
        if order.ends_with(":decline") {
            TaskBehavior::outcome("notAuthorised").with_work(ms(ORDER_AUTH_MS))
        } else {
            TaskBehavior::outcome("authorised")
                .with_work(ms(ORDER_AUTH_MS))
                .with_object("paymentInfo", text("PaymentInfo", &format!("pay({order})")))
        }
    });
    sys.bind_fn("refCheckStock", |ctx: &InvokeCtx| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(ms(ORDER_STOCK_MS))
            .with_object(
                "stockInfo",
                text("StockInfo", &format!("stock({})", ctx.input_text("order"))),
            )
    });
    sys.bind_fn("refDispatch", |ctx: &InvokeCtx| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(ms(ORDER_DISPATCH_MS))
            .with_object(
                "dispatchNote",
                text(
                    "DispatchNote",
                    &format!("note({})", ctx.input_text("stockInfo")),
                ),
            )
    });
    sys.bind_fn("refPaymentCapture", |_: &InvokeCtx| {
        TaskBehavior::outcome("done").with_work(ms(ORDER_CAPTURE_MS))
    });
    sys.bind_fn("refDataAcquisition", |ctx: &InvokeCtx| {
        TaskBehavior::outcome("acquired")
            .with_work(ms(TRIP_DATA_MS))
            .with_object(
                "tripData",
                text("TripData", &format!("trip({})", ctx.input_text("user"))),
            )
    });
    sys.bind_fn("refAirlineQueryA", |_: &InvokeCtx| {
        TaskBehavior::outcome("notFound").with_work(ms(TRIP_AIRLINE_MS[0]))
    });
    for (code, airline, work) in [
        ("refAirlineQueryB", "B", TRIP_AIRLINE_MS[1]),
        ("refAirlineQueryC", "C", TRIP_AIRLINE_MS[2]),
    ] {
        sys.bind_fn(code, move |ctx: &InvokeCtx| {
            TaskBehavior::outcome("found")
                .with_work(ms(work))
                .with_object(
                    "flightList",
                    text(
                        "FlightList",
                        &format!("fl-{airline}({})", ctx.input_text("tripData")),
                    ),
                )
        });
    }
    sys.bind_fn("refFlightReservation", |ctx: &InvokeCtx| {
        TaskBehavior::outcome("reserved")
            .with_work(ms(TRIP_FLIGHT_MS))
            .with_object(
                "plane",
                text("Plane", &format!("plane({})", ctx.input_text("flightList"))),
            )
            .with_object("cost", text("Cost", "420"))
    });
    // The hotel fails only in the first incarnation of the reservation
    // compound, so each failing trip costs exactly one compensation and
    // one compound repeat.
    sys.bind_fn("refHotelReservation", |ctx: &InvokeCtx| {
        if ctx.incarnation == 0 && ctx.input_text("plane").contains(":hotelfail)") {
            TaskBehavior::outcome("failed").with_work(ms(TRIP_HOTEL_MS))
        } else {
            TaskBehavior::outcome("hotelBooked")
                .with_work(ms(TRIP_HOTEL_MS))
                .with_object("hotel", text("Hotel", "hotel"))
        }
    });
    sys.bind_fn("refFlightCancellation", |_: &InvokeCtx| {
        TaskBehavior::outcome("cancelled").with_work(ms(TRIP_CANCEL_MS))
    });
    sys.bind_fn("refPrintTickets", |ctx: &InvokeCtx| {
        TaskBehavior::outcome("printed")
            .with_work(ms(TRIP_PRINT_MS))
            .with_object(
                "tickets",
                text(
                    "Tickets",
                    &format!(
                        "tickets({}, {})",
                        ctx.input_text("plane"),
                        ctx.input_text("hotel")
                    ),
                ),
            )
    });
}

/// Executor slots and admission cap: small enough that dispatches park
/// for a free slot and some starts wait for admission, so both
/// scheduler queues carry load.
const MIX_EXECUTOR_CAPACITY: u32 = 20;
const MIX_MAX_INFLIGHT: usize = 64;

fn paper_mix(seed: u64, traced: bool) -> Round {
    let mut rng = Rng::new(seed);
    let mut pairs = mix_pairs(&mut rng, MIX_WARM_PAIRS, false, "warm-");
    pairs.extend(mix_pairs(&mut rng, MIX_PAIRS, true, ""));
    let mut d = Runner::new(traced);
    // The timed traffic journals to the in-memory store: on the file WAL
    // the device's fdatasync latency drift spread `inst_per_s` over 0.3
    // between runs. The storage layer is timed by replaying this
    // workload's own frames through `FileStorage::append` instead (see
    // `layers::append_sync`). Group commit keeps the durable-log window,
    // so the frame stream is the one a file WAL would sync.
    let config = EngineConfig {
        max_inflight_instances: Some(MIX_MAX_INFLIGHT),
        // Queue every excess start: no start is ever turned away.
        admission_queue_limit: usize::MAX,
        commit_batch: CommitBatch {
            max_events: 256,
            max_window: ms(20),
        },
        ..EngineConfig::default()
    };
    let builder = WorkflowSystem::builder()
        .coordinators(2)
        .executors(4)
        .executor_capacity(MIX_EXECUTOR_CAPACITY)
        .seed(seed);
    let mut sys = d.build(builder, config);
    d.register(
        &mut sys,
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    );
    d.register(&mut sys, "trip", samples::BUSINESS_TRIP, "tripReservation");
    bind_paper_mix(&sys);
    let start_pairs = |d: &mut Runner, sys: &mut WorkflowSystem, timed: bool| {
        for pair in pairs.iter().filter(|p| p.timed == timed) {
            let order_ms = timed.then(|| pair.order_declared_ms());
            let order = text("Order", &pair.order_text());
            d.start(sys, &pair.order, "order", vec![("order", order)], order_ms);
            let trip_ms = timed.then(|| pair.trip_declared_ms());
            let user = text("User", &pair.user_text());
            d.start(sys, &pair.trip, "trip", vec![("user", user)], trip_ms);
        }
    };
    start_pairs(&mut d, &mut sys, false);
    sys.run();

    d.begin_timed(&mut sys);
    start_pairs(&mut d, &mut sys, true);
    d.run(&mut sys);
    d.end_timed(&mut sys);

    for pair in &pairs {
        let order_text = pair.order_text();
        if pair.declined {
            d.expect_outcome(&sys, &pair.order, "orderCancelled");
        } else {
            let objects = d.expect_outcome(&sys, &pair.order, "orderCompleted");
            let expected = format!("note(stock({order_text}))");
            if objects.get("dispatchNote") != Some(&expected) {
                d.error(format!(
                    "{}: dispatch note {:?}",
                    pair.order,
                    objects.get("dispatchNote")
                ));
            }
        }
        let objects = d.expect_outcome(&sys, &pair.trip, "booked");
        let trip = format!("(trip({}))", pair.user_text());
        let tickets = objects.get("tickets").cloned().unwrap_or_default();
        let found = ["B", "C"]
            .iter()
            .any(|airline| tickets == format!("tickets(plane(fl-{airline}{trip}), hotel)"));
        if !found {
            d.error(format!("{}: tickets {tickets:?}", pair.trip));
        }
    }
    let timed: Vec<&MixPair> = pairs.iter().filter(|p| p.timed).collect();
    let hotel_failures = timed.iter().filter(|p| p.hotel_fails).count() as u64;
    let repeats = d.round.counter("coord.repeats");
    if repeats != hotel_failures {
        d.error(format!(
            "{repeats} repeats for {hotel_failures} first-incarnation hotel failures"
        ));
    }
    let marks = d.round.counter("coord.marks");
    if marks != timed.len() as u64 {
        d.error(format!("{marks} marks for {} booked trips", timed.len()));
    }
    d.finish()
}

// ---------------------------------------------------------------------
// `corpus`: a repository of generated scripts, a few instances each.
// ---------------------------------------------------------------------

const CORPUS_SCRIPTS: usize = 400;
const CORPUS_STARTS_PER_SCRIPT: usize = 3;
const CORPUS_MAX_CHAIN: usize = 13;
const CORPUS_MAX_DEPTH: usize = 6;
const CORPUS_MAX_ALTERNATIVES: usize = 6;
const CORPUS_TASK_MS: u64 = 1;
const CORPUS_WINNER_MS: u64 = 2;

#[derive(Clone, Copy)]
enum Shape {
    /// `n` stages in a row.
    Chain(usize),
    /// One leaf under nested compounds.
    Nested,
    /// `k` producers, only the last succeeds, then a consumer.
    Alternatives(usize),
}

struct CorpusScript {
    name: String,
    shape: Shape,
    source: String,
}

impl CorpusScript {
    fn input(&self) -> &'static str {
        match self.shape {
            Shape::Nested => "in",
            _ => "seed",
        }
    }

    fn declared_ms(&self) -> f64 {
        let work = match self.shape {
            Shape::Chain(n) => n as u64 * CORPUS_TASK_MS,
            Shape::Nested => CORPUS_TASK_MS,
            Shape::Alternatives(_) => CORPUS_WINNER_MS + CORPUS_TASK_MS,
        };
        work as f64
    }
}

/// The corpus: a fixed list of shapes, a third each of chains of 2..=13
/// stages, nestings 1..=6 deep and 2..=6 alternatives. The seed varies
/// only the payloads and the network jitter, which keeps the mix of
/// live instances (and so the peak heap) the same from seed to seed.
fn corpus_scripts() -> Vec<CorpusScript> {
    (0..CORPUS_SCRIPTS)
        .map(|i| {
            let j = i / 3;
            let (shape, source) = match i % 3 {
                0 => {
                    let n = 2 + j % (CORPUS_MAX_CHAIN - 1);
                    (Shape::Chain(n), chain_source(n))
                }
                1 => {
                    let depth = 1 + j % CORPUS_MAX_DEPTH;
                    (Shape::Nested, nested_source(depth))
                }
                _ => {
                    let k = 2 + j % (CORPUS_MAX_ALTERNATIVES - 1);
                    (Shape::Alternatives(k), alternatives_source(k))
                }
            };
            CorpusScript {
                name: format!("script-{i}"),
                shape,
                source,
            }
        })
        .collect()
}

fn bind_corpus(sys: &WorkflowSystem) {
    let work = ms(CORPUS_TASK_MS);
    let pass = move |ctx: &InvokeCtx| {
        TaskBehavior::outcome("done")
            .with_work(work)
            .with_object("out", text("Data", &ctx.input_text("in")))
    };
    for i in 0..CORPUS_MAX_CHAIN {
        sys.bind_fn(&format!("ref{i}"), pass);
    }
    sys.bind_fn("refLeaf", pass);
    // Producer `j` of an alternatives script succeeds only if it is the
    // last of the `k` its seed names (`k{k}:...`).
    for j in 0..CORPUS_MAX_ALTERNATIVES {
        sys.bind_fn(&format!("refP{j}"), move |ctx: &InvokeCtx| {
            let seed = ctx.input_text("in");
            let k: usize = seed
                .strip_prefix('k')
                .and_then(|rest| rest.split(':').next())
                .and_then(|k| k.parse().ok())
                .unwrap_or(0);
            if j + 1 == k {
                TaskBehavior::outcome("ok")
                    .with_work(ms(CORPUS_WINNER_MS))
                    .with_object("out", text("Data", &seed))
            } else {
                TaskBehavior::outcome("failed").with_work(work)
            }
        });
    }
    sys.bind_fn("refConsumer", move |_: &InvokeCtx| {
        TaskBehavior::outcome("done").with_work(work)
    });
}

fn corpus(seed: u64, traced: bool) -> Round {
    let scripts = corpus_scripts();
    let mut rng = Rng::new(seed);
    // (instance, script index, seed payload), interleaved across scripts.
    let mut instances = Vec::with_capacity(CORPUS_SCRIPTS * CORPUS_STARTS_PER_SCRIPT);
    for rep in 0..CORPUS_STARTS_PER_SCRIPT {
        for (idx, script) in scripts.iter().enumerate() {
            let prefix = match script.shape {
                Shape::Alternatives(k) => format!("k{k}:"),
                _ => String::new(),
            };
            let name = format!("{}-{rep}", script.name);
            instances.push((name, idx, format!("{prefix}{}", payload(&mut rng))));
        }
    }
    let mut d = Runner::new(traced);
    let builder = WorkflowSystem::builder()
        .coordinators(2)
        .executors(4)
        .seed(seed);
    let mut sys = d.build(builder, EngineConfig::default());
    for script in &scripts {
        d.register(&mut sys, &script.name, &script.source, "root");
    }
    bind_corpus(&sys);
    // No warm-up traffic: registering the repository is the set-up, and
    // warming instances would fill the per-shard plan caches whose cold
    // fetch this workload measures.

    d.begin_timed(&mut sys);
    for (name, idx, seed) in &instances {
        let script = &scripts[*idx];
        let inputs = vec![(script.input(), text("Data", seed))];
        d.start(
            &mut sys,
            name,
            &script.name,
            inputs,
            Some(script.declared_ms()),
        );
    }
    d.run(&mut sys);
    d.end_timed(&mut sys);

    for (name, idx, seed) in &instances {
        let objects = d.expect_outcome(&sys, name, "done");
        let passes_seed = !matches!(scripts[*idx].shape, Shape::Alternatives(_));
        if passes_seed && objects.get("out") != Some(seed) {
            d.error(format!(
                "{name}: out {:?}, expected {seed}",
                objects.get("out")
            ));
        }
    }
    d.finish()
}
