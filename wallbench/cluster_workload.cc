// cluster-smallbank-hot / cluster-smallbank-cross: the Figure 13 cell.
//
// A 16-replica core::Cluster (Thunderbolt mode, LAN latency, batch 500,
// 16 executors and 16 validators per replica, "sim" pool, "mem" store,
// "hash" placement) runs SmallBank closed loop. After a warm-up window the
// timed phase issues fixed virtual slices (Cluster::Run) over a virtual
// window of --seconds times the shape's virtual-per-wall rate, so every run
// of a seed does the same work and its wall time is what is measured. One
// operation is one committed transaction.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "contract/contract.h"
#include "core/cluster.h"
#include "workload/workload.h"
#include "workloads.h"

namespace wallbench {

namespace tb = thunderbolt;

namespace {

struct ClusterShape {
  const char* name;
  uint64_t accounts;
  double cross_shard_ratio;
  /// Virtual seconds of timed phase per requested wall second: about what
  /// the reference machine (README.md) simulates per wall second, so the
  /// timed phase lasts about --seconds there.
  double virtual_per_wall;
};

constexpr ClusterShape kShapes[] = {
    {"cluster-smallbank-hot", 1000, 0.0, 0.165},
    {"cluster-smallbank-cross", 10000, 0.3, 0.22},
};
constexpr uint32_t kReplicas = 16;
constexpr double kTheta = 0.85;
constexpr double kReadRatio = 0.5;
constexpr uint32_t kBatch = 500;
const tb::SimTime kWarmup = tb::Millis(500);
const tb::SimTime kSlice = tb::Millis(10);

tb::workload::WorkloadOptions ClusterOptions(const ClusterShape& shape,
                                             uint64_t seed) {
  tb::workload::WorkloadOptions options;
  options.num_records = shape.accounts;
  options.theta = kTheta;
  options.read_ratio = kReadRatio;
  options.cross_shard_ratio = shape.cross_shard_ratio;
  options.num_shards = kReplicas;
  options.seed = seed;
  return options;
}

tb::core::ThunderboltConfig ClusterConfig(uint64_t seed) {
  tb::core::ThunderboltConfig cfg;
  cfg.n = kReplicas;
  cfg.mode = tb::core::ExecutionMode::kThunderbolt;
  cfg.batch_size = kBatch;
  cfg.num_executors = 16;
  cfg.num_validators = 16;
  cfg.pool = "sim";
  cfg.store = "mem";
  cfg.placement = "hash";
  cfg.latency = tb::net::LatencyModel::Lan();
  cfg.seed = seed;
  return cfg;
}

uint64_t CounterValue(const tb::obs::MetricsRegistry& m,
                      const std::string& name) {
  const tb::obs::Counter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

/// What the timed slices accumulate. Commits arrive in lumps (a leader
/// commit retires a round of blocks at once), so throughput is taken per
/// commit cycle: from one slice that committed anything to the next. A
/// commit cycle is the cluster's batch; slices before the first commit
/// point of the timed phase belong to no cycle. The rates are medians over
/// cycles, so a burst of load from other tenants of the host that covers
/// less than half the run does not move them.
struct SliceStats {
  uint64_t single = 0, cross = 0, conversions = 0, invalid_blocks = 0;
  std::vector<double> cycle_ms, cycle_txn_per_s, cycle_cpu_us_per_txn;
  uint64_t committed() const { return single + cross; }
  double txn_per_s() const { return PercentileOf(cycle_txn_per_s, 50); }
  double cpu_us_per_txn() const {
    return PercentileOf(cycle_cpu_us_per_txn, 50);
  }
};

}  // namespace

void RunCluster(const Args& args, Clock::time_point process_start,
                Report* report) {
  const ClusterShape* shape = nullptr;
  for (const ClusterShape& s : kShapes) {
    if (args.workload == s.name) shape = &s;
  }
  if (shape == nullptr) {
    report->Fail("unknown workload " + args.workload);
    return;
  }
  Spans spans(args.trace);
  Spans untraced(false);
  std::unique_ptr<tb::core::Cluster> cluster;
  BalanceScan seeded;
  // Commits of every Run window, warm-up included, for the count check.
  uint64_t all_single = 0, all_cross = 0;
  auto run_slice = [&](tb::SimTime duration) {
    tb::core::ClusterResult r = cluster->Run(duration);
    all_single += r.committed_single;
    all_cross += r.committed_cross;
    return r;
  };
  {
    Spans::Scope setup(spans, "setup");
    {
      Spans::Scope construct(spans, "construct");
      cluster = std::make_unique<tb::core::Cluster>(
          ClusterConfig(args.seed), "smallbank",
          ClusterOptions(*shape, args.seed));
      seeded = ScanBalances(cluster->canonical_state());
    }
    Spans::Scope warmup(spans, "warmup");
    Spans::Scope op(spans, "cluster_run");
    run_slice(kWarmup);
  }
  const double setup_s = SecondsSince(process_start);

  // Issues slices until the virtual window ends. Commit cycles alternate
  // between (spans_a, a) and (spans_b, b); pass the same pair twice for a
  // single stream.
  const tb::SimTime window = static_cast<tb::SimTime>(
      args.seconds * shape->virtual_per_wall * 1e6);
  auto loop = [&](Spans& spans_a, SliceStats& a, Spans& spans_b,
                  SliceStats& b) {
    const tb::SimTime end = cluster->simulator().Now() + window;
    double cycle_wall_s = 0, cycle_cpu0 = 0;
    bool in_cycle = false, use_b = false;
    while (cluster->simulator().Now() < end) {
      Spans& s = use_b ? spans_b : spans_a;
      SliceStats& stats = use_b ? b : a;
      Spans::Scope op(s, "op");
      const Clock::time_point t0 = Clock::now();
      tb::core::ClusterResult r;
      {
        Spans::Scope run(s, "cluster_run");
        r = run_slice(kSlice);
      }
      cycle_wall_s += SecondsSince(t0);
      stats.single += r.committed_single;
      stats.cross += r.committed_cross;
      stats.conversions += r.conversions;
      stats.invalid_blocks += r.invalid_blocks;
      const uint64_t commits = r.committed_single + r.committed_cross;
      if (commits == 0) continue;
      const double cpu = ProcessCpuSeconds();
      if (in_cycle) {
        stats.cycle_ms.push_back(cycle_wall_s * 1e3);
        stats.cycle_txn_per_s.push_back(commits / cycle_wall_s);
        stats.cycle_cpu_us_per_txn.push_back(
            PerTxn((cpu - cycle_cpu0) * 1e6, commits));
        use_b = !use_b;
      }
      in_cycle = true;
      cycle_wall_s = 0;
      cycle_cpu0 = cpu;
    }
  };

  auto final_checks = [&]() {
    Spans::Scope check(spans, "check");
    const std::string conservation =
        CheckConservation(seeded, ScanBalances(cluster->canonical_state()));
    if (!conservation.empty()) report->Fail(conservation);
    const tb::obs::MetricsRegistry& m = cluster->obs().metrics();
    const std::string counts = CheckCommitCounts(
        all_single, all_cross, CounterValue(m, "cluster.commits_single"),
        CounterValue(m, "cluster.commits_cross"),
        shape->cross_shard_ratio > 0);
    if (!counts.empty()) report->Fail(counts);
  };

  if (!args.trace) {
    SliceStats s;
    const tb::SimTime virtual0 = cluster->simulator().Now();
    const Clock::time_point timed0 = Clock::now();
    loop(untraced, s, untraced, s);
    const double timed_wall_s = SecondsSince(timed0);
    const double virtual_s =
        tb::ToSeconds(cluster->simulator().Now() - virtual0);
    final_checks();
    if (s.cycle_ms.empty()) {
      report->Fail("the timed phase saw fewer than two commit points");
      return;
    }
    // The simulation's own outputs, for the README's reference figures.
    const tb::obs::HistogramMetric* latency =
        cluster->obs().metrics().FindHistogram("cluster.commit_latency_us");
    std::fprintf(stderr,
                 "wallbench: timed phase: %.3f virtual s in %.2f wall s, "
                 "%zu commit cycles\n",
                 virtual_s, timed_wall_s, s.cycle_ms.size());
    std::fprintf(stderr,
                 "wallbench: clock virtual: %.0f txn/s over the timed "
                 "phase, p50 commit latency %.3f s (whole run), cross "
                 "share %.4f, %.4f conversions per txn\n",
                 static_cast<double>(s.committed()) / virtual_s,
                 latency == nullptr ? 0 : latency->Snapshot().Median() / 1e6,
                 PerTxn(s.cross, s.committed()),
                 PerTxn(s.conversions, s.committed()));
    report->attempted = s.committed();
    report->Add("txn_per_s", s.txn_per_s(), "txn/s");
    report->Add("batch_ms_p50", PercentileOf(s.cycle_ms, 50), "ms");
    report->Add("cpu_us_per_txn", s.cpu_us_per_txn(), "us/txn");
    report->Add("setup_s", setup_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: commit cycles alternate between untraced (the overhead
  // reference) and traced, so both halves sample the same stretch of the
  // run; counts are deltas over both.
  const tb::obs::MetricsRegistry& m = cluster->obs().metrics();
  const uint64_t events0 = cluster->simulator().executed_events();
  const uint64_t msgs0 = cluster->network().messages_delivered();
  const uint64_t sim_txns0 = CounterValue(m, "pool.sim.txns");
  const uint64_t sim_restarts0 = CounterValue(m, "pool.sim.restarts");
  const tb::storage::StoreStats store0 = cluster->canonical_state().Stats();
  SliceStats ref, s;
  {
    Spans::Scope timed(spans, "timed");
    loop(untraced, ref, spans, s);
  }
  const uint64_t committed = ref.committed() + s.committed();
  const tb::storage::StoreStats store1 = cluster->canonical_state().Stats();
  const uint64_t sim_txns = CounterValue(m, "pool.sim.txns") - sim_txns0;
  final_checks();
  report->attempted = committed;
  const double ref_tps = ref.txn_per_s();
  const double traced_tps = s.txn_per_s();

  report->Add("ce.sim.restarts_per_txn",
              PerTxn(static_cast<double>(
                         CounterValue(m, "pool.sim.restarts") - sim_restarts0),
                     sim_txns),
              "restarts/txn");
  report->Add("ce.sim.preplayed_per_commit",
              PerTxn(static_cast<double>(sim_txns), committed), "txn/txn");
  report->Add("core.invalid_blocks",
              static_cast<double>(ref.invalid_blocks + s.invalid_blocks),
              "count");
  report->Add("core.conversions_per_txn",
              PerTxn(static_cast<double>(ref.conversions + s.conversions),
                     committed),
              "conv/txn");
  report->Add("core.cross_share",
              PerTxn(static_cast<double>(ref.cross + s.cross), committed),
              "ratio");
  report->Add("sim.events_per_txn",
              PerTxn(static_cast<double>(
                         cluster->simulator().executed_events() - events0),
                     committed),
              "events/txn");
  report->Add("net.messages_per_txn",
              PerTxn(static_cast<double>(
                         cluster->network().messages_delivered() - msgs0),
                     committed),
              "msgs/txn");
  report->Add("storage.gets_per_txn",
              PerTxn(static_cast<double>(store1.gets - store0.gets),
                     committed),
              "gets/txn");
  report->Add("storage.puts_per_txn",
              PerTxn(static_cast<double>(store1.puts - store0.puts),
                     committed),
              "puts/txn");
  report->Add("trace.untraced_txn_per_s", ref_tps, "txn/s");
  report->Add("trace.traced_txn_per_s", traced_tps, "txn/s");
  report->Add("trace.overhead_pct", 100.0 * (ref_tps - traced_tps) / ref_tps,
              "%");

  // Probe inputs: a fresh generator with the cluster's options, batches
  // homed round-robin at the 16 shards as the proposers draw them.
  const tb::workload::WorkloadOptions options =
      ClusterOptions(*shape, args.seed);
  std::shared_ptr<tb::workload::Workload> gen =
      tb::workload::WorkloadRegistry::Global().Create("smallbank", options);
  auto probe_store = tb::storage::StoreRegistry::Global().Create("mem");
  gen->InitStore(probe_store.get());
  auto registry = tb::contract::Registry::CreateDefault();
  ProbeInputs in;
  in.make_batch = [gen](uint32_t i) {
    return gen->MakeShardBatch(static_cast<tb::ShardId>(i % kReplicas),
                               kBatch);
  };
  in.seeded = probe_store.get();
  in.registry = registry.get();
  in.seed = args.seed;
  in.probe_thread_pool = true;
  ProbeOutcome probed;
  {
    Spans::Scope probes(spans, "probes");
    probed = RunProbes(in, spans, report);
  }
  if (!probed.error.empty()) report->Fail("probe: " + probed.error);
  FinishTrace(args, spans, report);
}

}  // namespace wallbench
