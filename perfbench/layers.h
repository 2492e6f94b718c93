// Per-layer measurement for the traced run: the counters gathered around
// each request and load, the replays that time one layer's public function
// at a time, and the fixed list of per-layer metrics every workload prints.
#ifndef XDB_PERFBENCH_LAYERS_H_
#define XDB_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace xdb::perfbench {

/// Counters one thread gathers in the traced run; merged at the end.
struct LayerAcc {
  uint64_t requests = 0;  ///< traced requests (every path)
  uint64_t queue_depth_sum = 0;
  uint64_t sheds = 0;
  uint64_t plan_a = 0;
  uint64_t plan_a_index = 0;
  uint64_t result_rows = 0;      ///< plan-A rows returned
  uint64_t work_rows = 0;        ///< join build+probe+match and structural rows
  double q_error_sum = 0;
  uint64_t q_error_n = 0;
  uint64_t out_bytes = 0;
  uint64_t threads_used_sum = 0;
  uint64_t par_tasks_sum = 0;
  uint64_t ticks_sum = 0;
  uint64_t mem_peak_max = 0;
  // Cold-prepare replays: PrepareTransform time minus the five timed parts.
  int64_t prepare_other_ns = 0;
  uint64_t cold_replays = 0;
  // Loads.
  uint64_t load_bytes = 0;
  int64_t parse_ns = 0;
  int64_t shred_ns = 0;
  int64_t insert_ns = 0;
  int64_t ckpt_call_ns = 0;  ///< writer calls during which a checkpoint ran
  uint64_t ckpt_calls = 0;

  void Merge(const LayerAcc& o);
};

/// Records the span of one session request [t0, t1] with its derived
/// prepare/execute children, and folds its ExecStats into `acc`.
void RecordRequest(TraceThread* t, LayerAcc* acc, int64_t t0, int64_t t1,
                   const ExecStats& stats,
                   const Result<std::vector<std::string>>& result);

/// Records one writer call [t0, t1] (a load, or an explicit checkpoint when
/// `loaded` is null) with its derived parse/shred/insert/commit children.
void RecordLoad(TraceThread* t, LayerAcc* acc, int64_t t0, int64_t t1,
                const shred::LoadStats* loaded, bool checkpointed);

/// Replays a request's cold prepare: PrepareTransform with the plan cache
/// off, then the stylesheet parse, compile, both rewrites and the optimizer
/// one call at a time. Returns the replay's prepared plan (null on error).
std::shared_ptr<const core::PreparedTransform> ReplayColdPrepare(
    XmlDb* db, const std::string& view, const std::string& text,
    ExecOptions options, TraceThread* t, LayerAcc* acc);

/// Replays a plan-A execution serially: sql_expr->Eval for every base row,
/// then the serialization of every row. Returns false when the replayed
/// rows differ from `expected`.
bool ReplayPlanA(const core::PreparedTransform& prepared,
                 const rel::Snapshot* snapshot,
                 const std::vector<std::string>& expected, TraceThread* t);

/// Times MaterializeView of `view` (the functional layer's input).
void ReplayMaterialize(XmlDb* db, const std::string& view, TraceThread* t);

/// Everything the per-layer metric list is computed from.
struct LayerInputs {
  const Tracer* tracer = nullptr;
  LayerAcc acc;
  core::PlanCache::Stats cache_delta;  ///< timed phase, all databases
  uint64_t publishes = 0;              ///< head_epoch() advance, timed phase
  uint64_t live_epochs_max = 1;
  wal::WalMetrics wal;                 ///< the final durable database
  uint64_t src_bytes_logged = 0;       ///< source bytes that database loaded
  uint64_t replayed_records = 0;       ///< from the last reopen
  double cpu_util = 0;
  double setup_load_s = 0;
  double setup_warm_s = 0;
  double overhead_req = 0;  ///< 1 - traced/untraced request rate
  double overhead_p50 = 0;  ///< traced/untraced median latency - 1
};

/// Adds `after - before` to `delta`.
void AddCacheDelta(const core::PlanCache::Stats& before,
                   const core::PlanCache::Stats& after, core::PlanCache::Stats* delta);

/// Sets the tracing overhead from the requests of the untraced and the traced
/// windows (both kinds of window take half the timed phase).
void SetTracingOverhead(const std::vector<LatencyLog>& untraced,
                        const std::vector<double>& traced_ms, LayerInputs* in);

/// Appends every per-layer metric, in the order BENCHMARK.json lists them.
void AddLayerMetrics(const LayerInputs& in, Outcome* out);

/// Layer groups of the dominance check, as span-name lists.
struct LayerGroup {
  const char* layer;
  std::vector<const char*> spans;
};
const std::vector<LayerGroup>& DominanceGroups();

/// Writes layers-<workload>.json: the timed-phase self-time share of every
/// span name and dominance group, plus the per-layer metrics.
bool WriteLayerTable(const std::string& path, const std::string& workload,
                     uint64_t seed, const Tracer& tracer,
                     const std::vector<Metric>& metrics);

}  // namespace xdb::perfbench

#endif  // XDB_PERFBENCH_LAYERS_H_
