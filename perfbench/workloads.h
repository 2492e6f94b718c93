// The three workloads. Each builds its inputs from the seed, sets up
// several times (set-up time is reported as the median), warms up, measures
// for the requested seconds and checks every response outside the timed
// call. With Args::trace it prints the per-layer metrics instead of the
// end-to-end ones.
#ifndef XDB_PERFBENCH_WORKLOADS_H_
#define XDB_PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "trace.h"

namespace xdb::perfbench {

/// `tracer` is non-null exactly in the traced run.
Outcome RunReport(const Args& args, Tracer* tracer);
Outcome RunServe(const Args& args, Tracer* tracer);
Outcome RunIngest(const Args& args, Tracer* tracer);

/// Set-up repetitions per run, and reopens of ingest's final data directory.
inline constexpr int kSetups = 5;
inline constexpr int kReopens = 9;

/// Serve and report bulk-load their durable data with the log unsynced and
/// then checkpoint (the checkpoint is fsynced), the usual bulk-load practice.
inline wal::DurabilityOptions BulkLoadDurability() {
  return Durability("", wal::SyncMode::kOff, kDefaultCheckpointBytes);
}

// ---- shared by the workloads (defined in serve.cc) ----------------------------------

/// LoadDocument through the session manager, recorded for the traced run;
/// `ms` (optional) receives the call time.
Status RecordedLoad(DurableDb* d, const std::string& view, const std::string& doc,
                    TraceThread* t, LayerAcc* acc, double* ms = nullptr);

/// Registers the people view on `d` and loads `data.doc`.
Status LoadPeople(DurableDb* d, const PeopleData& data, TraceThread* t,
                  LayerAcc* acc);

/// Load, commit and recovery samples of serve and report, taken after the
/// timed phase on the closed data directory: kDurabilityRounds times, reopen
/// it (one recovery sample) and load kProbesPerRound small probe documents
/// into new views through a session manager (one commit sample each).
/// Spreading the samples over rounds averages the host's speed over seconds
/// rather than one instant. `verify` checks the first reopened database.
inline constexpr int kDurabilityRounds = 16;
inline constexpr int kProbesPerRound = 3;
/// With 48 commit samples, p75 leaves at least ten beyond it.
inline constexpr double kProbeCommitTailQuantile = 0.75;
struct DurabilitySamples {
  std::vector<double> recover_s;
  std::vector<double> commit_ms;
  uint64_t bytes = 0;       ///< probe source bytes loaded
  double busy_s = 0;        ///< their LoadDocument call time
  uint64_t replayed_records = 0;  ///< from the first reopen
};
Status MeasureDurability(const wal::DurabilityOptions& durability,
                         const std::string& probe_view,
                         const schema::StructuralInfo& probe_structure,
                         const shred::ShredOptions& probe_options,
                         const std::string& probe_doc,
                         const std::function<Status(XmlDb*)>& verify, TraceThread* t,
                         LayerAcc* acc, DurabilitySamples* out);

/// Opens `count` sessions on `d`, timing each Begin.
Status BeginSessions(DurableDb* d, int count, TraceThread* t);

/// Checks the point-request generator against the functional engine: on a
/// small in-memory copy of the data set, two seeded requests must give the
/// expected row under plan C.
void CheckPointOracle(uint64_t seed, TraceThread* t, LayerAcc* acc, Outcome* out);
inline constexpr int kOracleRows = 2000;

/// Runs each hot request once on every session, checking the output. In the
/// traced run the first session's cold prepares are replayed and their
/// plans kept in `plans` (one per hot request).
void WarmPointRequests(DurableDb* d, const std::vector<PointRequest>& hot,
                       const ExecOptions& options, TraceThread* t, LayerAcc* acc,
                       std::vector<std::shared_ptr<const core::PreparedTransform>>* plans,
                       Outcome* out);

/// The session request options of serve and ingest: serial, with the memory
/// budget left to the session quota.
ExecOptions PointOptions();

}  // namespace xdb::perfbench

#endif  // XDB_PERFBENCH_WORKLOADS_H_
