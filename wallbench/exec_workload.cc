// exec-smallbank-hot: the threaded execution tier alone.
//
// SmallBank, 1,000 accounts, theta 0.9, half get_balance, in 500-txn
// batches. 64 distinct batches are generated before timing and issued in
// turn; each batch is executed by a fresh engine on the "thread" pool and
// its final writes are applied to the "mem" store before the next starts.
// One operation is one batch. Every batch is replayed through BankModel
// with the timing clock stopped.
#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/engine_registration.h"
#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "checks.h"
#include "common/histogram.h"
#include "workload/workload.h"
#include "workloads.h"

namespace wallbench {

namespace tb = thunderbolt;

namespace {

constexpr uint64_t kAccounts = 1000;
constexpr double kTheta = 0.9;
constexpr double kReadRatio = 0.5;
constexpr uint32_t kBatch = 500;
constexpr uint32_t kDistinctBatches = 64;
constexpr uint32_t kWarmupBatches = 64;

tb::workload::WorkloadOptions ExecOptions(uint64_t seed) {
  tb::workload::WorkloadOptions options;
  options.num_records = kAccounts;
  options.theta = kTheta;
  options.read_ratio = kReadRatio;
  options.seed = seed;
  return options;
}

/// What the timed loop accumulates over its batches. The rates are
/// medians over batches, so a burst of load from other tenants of the host
/// that covers less than half the run does not move them.
struct LoopStats {
  uint64_t batches = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;
  uint64_t restarts = 0;
  double op_s = 0;  // engine create + Run + Write + engine teardown
  std::vector<double> op_txn_per_s;      // per batch, over op time
  std::vector<double> op_cpu_us_per_txn;  // process CPU, same intervals
  std::vector<double> run_ms;
  std::vector<double> create_us;
  tb::Histogram queue_wait_us, execute_us, backoff_us;
  double txn_per_s() const { return PercentileOf(op_txn_per_s, 50); }
};

class ExecRun {
 public:
  ExecRun(const Args& args, Report* report) : args_(args), report_(report) {}

  bool Setup(Spans& spans) {
    Spans::Scope construct(spans, "construct");
    tb::baselines::RegisterBaselineEngines();
    if (!tb::ce::EngineRegistry::Global().Contains(args_.engine)) {
      report_->Fail("unknown engine " + args_.engine);
      return false;
    }
    workload_ = tb::workload::WorkloadRegistry::Global().Create(
        "smallbank", ExecOptions(args_.seed));
    store_ = tb::storage::StoreRegistry::Global().Create("mem");
    workload_->InitStore(store_.get());
    for (uint32_t i = 0; i < kDistinctBatches; ++i) {
      batches_.push_back(workload_->MakeBatch(kBatch));
    }
    registry_ = tb::contract::Registry::CreateDefault();
    pool_ = tb::ce::CreateExecutorPool("thread", ThreadWorkers(),
                                       tb::ce::ExecutionCostModel{});
    model_ = BankModel::FromStore(*store_);
    return true;
  }

  /// Issues the next batch inside `spans`, adding its outcome to `stats`.
  /// The check runs after the batch's timing stops.
  void Batch(Spans& spans, LoopStats& stats, bool keep_phases) {
    const std::vector<tb::txn::Transaction>& batch =
        batches_[next_ % batches_.size()];
    ++next_;
    ++stats.batches;
    Spans::Scope op(spans, "op");
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    int span = spans.Begin("engine_create");
    auto engine = tb::ce::EngineRegistry::Global().Create(
        args_.engine, store_.get(), static_cast<uint32_t>(batch.size()));
    spans.End(span);
    const Clock::time_point t1 = Clock::now();
    span = spans.Begin("pool_run");
    tb::Result<tb::ce::BatchExecutionResult> r =
        pool_->Run(*engine, *registry_, batch);
    spans.End(span);
    const Clock::time_point t2 = Clock::now();
    tb::Status write_status = tb::Status::OK();
    if (r.ok()) {
      span = spans.Begin("store_write");
      write_status = store_->Write(r.value().final_writes);
      spans.End(span);
    }
    engine.reset();  // Tearing the engine down is part of the batch.
    const Clock::time_point t3 = Clock::now();
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    const double op_s = std::chrono::duration<double>(t3 - t0).count();
    stats.op_s += op_s;
    stats.run_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    stats.create_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (!r.ok() || !write_status.ok()) {
      ++stats.failed;
      report_->errors.push_back(r.ok() ? write_status.ToString()
                                       : r.status().ToString());
      return;
    }
    const tb::ce::BatchExecutionResult& result = r.value();
    stats.committed += batch.size();
    stats.op_txn_per_s.push_back(batch.size() / op_s);
    stats.op_cpu_us_per_txn.push_back(cpu_s * 1e6 / batch.size());
    stats.restarts += result.total_aborts;
    if (keep_phases) {
      stats.queue_wait_us.Merge(result.phases[tb::obs::Phase::kQueueWait]);
      stats.execute_us.Merge(result.phases[tb::obs::Phase::kExecute]);
      stats.backoff_us.Merge(
          result.phases[tb::obs::Phase::kRestartBackoff]);
    }
    Spans::Scope check(spans, "check");
    const std::string mismatch = model_.ApplyBatch(batch, result);
    if (!mismatch.empty()) {
      ++stats.failed;
      report_->errors.push_back("batch " + std::to_string(next_ - 1) +
                                ": " + mismatch);
      model_ = BankModel::FromStore(*store_);  // Judge the next batch alone.
    }
  }

  /// Issues batches until their summed operation time reaches `seconds`
  /// (or `max_batches` when nonzero).
  LoopStats Loop(double seconds, uint64_t max_batches, Spans& spans) {
    LoopStats stats;
    while (max_batches == 0 ? stats.op_s < seconds
                            : stats.batches < max_batches) {
      Batch(spans, stats, false);
    }
    return stats;
  }

  void FinalCheck() {
    const std::string mismatch = model_.CompareStore(*store_);
    if (!mismatch.empty()) report_->Fail("final state: " + mismatch);
  }

  tb::storage::StoreStats StoreStats() const { return store_->Stats(); }
  uint64_t next_batch() const { return next_; }
  const tb::contract::Registry* registry() const { return registry_.get(); }

 private:
  const Args& args_;
  Report* report_;
  std::unique_ptr<tb::workload::Workload> workload_;
  std::unique_ptr<tb::storage::KVStore> store_;
  std::vector<std::vector<tb::txn::Transaction>> batches_;
  std::shared_ptr<tb::contract::Registry> registry_;
  std::unique_ptr<tb::ce::ExecutorPool> pool_;
  BankModel model_;
  uint64_t next_ = 0;
};

}  // namespace

uint32_t ThreadWorkers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return static_cast<uint32_t>(std::clamp(cpus, 1, 4));
}

void RunExec(const Args& args, Clock::time_point process_start,
             Report* report) {
  Spans spans(args.trace);
  Spans untraced(false);
  ExecRun run(args, report);
  {
    Spans::Scope setup(spans, "setup");
    if (!run.Setup(spans)) return;
    Spans::Scope warmup(spans, "warmup");
    LoopStats warm = run.Loop(0, kWarmupBatches, spans);
    if (warm.failed != 0) report->Fail("warm-up batches failed");
  }
  const double setup_s = SecondsSince(process_start);
  const tb::storage::StoreStats store0 = run.StoreStats();

  if (!args.trace) {
    LoopStats s = run.Loop(args.seconds, 0, untraced);
    run.FinalCheck();
    report->attempted = s.batches;
    report->failed = s.failed;
    report->Add("txn_per_s", s.txn_per_s(), "txn/s");
    report->Add("batch_ms_p50", PercentileOf(s.run_ms, 50), "ms");
    report->Add("cpu_us_per_txn", PercentileOf(s.op_cpu_us_per_txn, 50),
                "us/txn");
    report->Add("setup_s", setup_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: batches alternate between untraced (the reference for the
  // tracing overhead) and traced, so both halves sample the same stretch
  // of the run. The parity flips with each pass over the distinct
  // batches, so each batch lands in both halves equally often.
  LoopStats ref, s;
  {
    Spans::Scope timed(spans, "timed");
    while (ref.op_s + s.op_s < args.seconds) {
      const uint64_t k = run.next_batch();
      if ((k + k / kDistinctBatches) % 2 == 0) {
        run.Batch(untraced, ref, false);
      } else {
        run.Batch(spans, s, true);
      }
    }
  }
  const tb::storage::StoreStats store1 = run.StoreStats();
  run.FinalCheck();
  report->attempted = ref.batches + s.batches;
  report->failed = ref.failed + s.failed;
  const uint64_t committed = ref.committed + s.committed;
  const double ref_tps = ref.txn_per_s();
  const double traced_tps = s.txn_per_s();

  report->Add("ce.thread.queue_wait_us_p50", s.queue_wait_us.Median(), "us");
  report->Add("ce.thread.execute_us_p50", s.execute_us.Median(), "us");
  report->Add("ce.thread.restart_backoff_us_mean", s.backoff_us.Mean(), "us");
  report->Add("ce.thread.restarts_per_txn",
              PerTxn(static_cast<double>(s.restarts), s.committed),
              "restarts/txn");
  report->Add("ce.thread.useful_ratio",
              static_cast<double>(s.committed) /
                  static_cast<double>(s.committed + s.restarts),
              "ratio");
  report->Add("ce.engine_create_us", PercentileOf(s.create_us, 50), "us");
  report->Add("ce.thread.batch_ms_p99", PercentileOf(s.run_ms, 99), "ms");
  // The threaded tier alone: no cluster, so no consensus, network,
  // simulator, validation or cross-shard work per transaction.
  report->Add("ce.sim.preplayed_per_commit", 1, "txn/txn");
  report->Add("core.invalid_blocks", 0, "count");
  report->Add("core.conversions_per_txn", 0, "conv/txn");
  report->Add("core.cross_share", 0, "ratio");
  report->Add("sim.events_per_txn", 0, "events/txn");
  report->Add("net.messages_per_txn", 0, "msgs/txn");
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

  std::shared_ptr<tb::workload::Workload> gen =
      tb::workload::WorkloadRegistry::Global().Create("smallbank",
                                                      ExecOptions(args.seed));
  auto seeded = tb::storage::StoreRegistry::Global().Create("mem");
  gen->InitStore(seeded.get());
  ProbeInputs in;
  in.make_batch = [gen](uint32_t) { return gen->MakeBatch(kBatch); };
  in.seeded = seeded.get();
  in.registry = run.registry();
  in.seed = args.seed;
  in.probe_thread_pool = false;
  ProbeOutcome probed;
  {
    Spans::Scope probes(spans, "probes");
    probed = RunProbes(in, spans, report);
  }
  if (!probed.error.empty()) report->Fail("probe: " + probed.error);
  report->Add("ce.sim.restarts_per_txn", probed.sim_restarts_per_txn,
              "restarts/txn");
  FinishTrace(args, spans, report);
}

}  // namespace wallbench
