// Shared plumbing for the end-to-end benchmark: command-line arguments, the
// seeded generator, sample statistics, explicit engine settings, durable
// data directories and the result record every workload fills.
#ifndef XDB_PERFBENCH_COMMON_H_
#define XDB_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/xmldb.h"
#include "difftest/seed.h"
#include "schema/structure.h"
#include "server/session.h"

namespace xdb::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// One named measurement as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports: request accounting, the metrics of the
/// requested mode (end-to-end or per-layer) and free-form notes printed as
/// `# ` lines ahead of the result.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records a failed check: the run still reports, with correct = false.
  void Fail(const std::string& what) {
    correct = false;
    notes.push_back("check failed: " + what);
  }
};

// ---- time ------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMiB();

// ---- seeded generation -------------------------------------------------------

/// A stream of SplitMix64 outputs. Every key, size and order the benchmark
/// uses comes from one of these, derived from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : seed_(difftest::SplitMix64(seed)) {}
  /// An independent stream for sub-task `stream` (thread, phase, ...).
  Rng Fork(uint64_t stream) const {
    return Rng(seed_ ^ difftest::SplitMix64(stream + 0x51ed27ull));
  }
  uint64_t Next() { return difftest::SplitMix64(seed_ + counter_++); }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// True with probability `percent` / 100.
  bool Chance(int percent) { return Next() % 100 < static_cast<uint64_t>(percent); }

 private:
  uint64_t seed_;
  uint64_t counter_ = 0;
};

// ---- sample statistics --------------------------------------------------------

double Median(std::vector<double> values);
/// The value at quantile `q` (0..1) by nearest rank, but never closer to the
/// top than 10 samples: the reported tail always has at least ten samples
/// beyond it. With fewer than 11 samples it is the maximum.
double TailValue(std::vector<double> values, double q);

// ---- engine settings ------------------------------------------------------------

/// ExecOptions with every field set explicitly (no field falls back to an
/// XDB_* environment default; those variables are refused at start).
ExecOptions ExplicitOptions(int threads);

/// SessionManager options set field by field (never Options::FromEnv()).
server::SessionManager::Options ManagerOptions(size_t sessions,
                                               size_t slots,
                                               uint64_t session_mem_budget);

/// Durability options with the sync mode and auto-checkpoint size explicit.
wal::DurabilityOptions Durability(const std::string& dir, wal::SyncMode sync,
                                  uint64_t checkpoint_bytes);
inline constexpr uint64_t kDefaultCheckpointBytes = 16ull << 20;

// ---- durable data directories ------------------------------------------------------

/// Creates a fresh directory under $TMPDIR and registers it for removal on
/// every exit path (normal return, exit(), SIGINT/SIGTERM). "" on failure.
std::string MakeDataDir(const char* tag);
/// Removes the files a durable database writes, then the directory.
void RemoveDataDir(const std::string& dir);
/// Bytes on disk of the log plus the checkpoint in `dir`.
uint64_t StoredBytes(const std::string& dir);

// ---- the shared point-lookup data set (serve, ingest) ------------------------------

inline constexpr const char* kPeopleView = "people";
inline constexpr int kPeopleRows = 64000;

/// table { row* { id, firstname, lastname, city, zip } } with its expected
/// contents kept beside the document text.
struct PeopleData {
  std::string doc;
  std::vector<std::string> first;  ///< index = id - 1
  std::vector<std::string> last;
  std::vector<int> zip;
  std::unordered_map<int, std::vector<int>> ids_by_zip;  ///< ascending ids
};

PeopleData MakePeople(uint64_t seed, int rows);
schema::StructuralInfo PeopleStructure();
shred::ShredOptions PeopleShredOptions();

/// One dbonerow-style request: the key is written into the stylesheet text.
struct PointKey {
  bool by_zip = false;
  int key = 0;
};

std::string PointStylesheet(const PointKey& k);
/// The single result row the generator expects for `k`.
std::string ExpectedPoint(const PeopleData& data, const PointKey& k);
/// The 32 hot keys: 16 distinct ids and 16 distinct zips.
std::vector<PointKey> HotKeys(const PeopleData& data, Rng* rng);
/// A key for a cold request: id or zip (half each) of a uniformly drawn row.
PointKey ColdKey(const PeopleData& data, Rng* rng);

/// A prepared point request: stylesheet text plus expected output.
struct PointRequest {
  PointKey key;
  std::string text;
  std::string expected;
};
PointRequest MakePointRequest(const PeopleData& data, const PointKey& k);

/// Serializes a value the way the engine serializes a result row (fragment
/// and document values print their children back to back).
std::string SerializeValue(const rel::Datum& d);

/// Source bytes per MiB.
inline double MiB(double bytes) { return bytes / (1024.0 * 1024.0); }

// ---- durable databases behind a session manager ----------------------------------

/// A durable database, its session manager and the client sessions, torn
/// down in reverse order by Close().
struct DurableDb {
  std::string dir;
  wal::DurabilityOptions durability;  ///< as opened (data_dir = dir)
  std::unique_ptr<XmlDb> db;
  std::unique_ptr<server::SessionManager> mgr;
  std::vector<server::SessionPtr> sessions;

  void Close() {
    sessions.clear();
    mgr.reset();
    db.reset();
  }
};

/// Opens a fresh durable database under $TMPDIR plus its session manager.
Status OpenDurableDb(const char* tag, const server::SessionManager::Options& mopts,
                     const wal::DurabilityOptions& durability, DurableDb* out);

/// Reopens `durability.data_dir` `times` times (each a fresh XmlDb +
/// OpenDurable) and keeps the last instance in `*reopened`; one wall time
/// per reopen in seconds.
Status Reopen(const wal::DurabilityOptions& durability, int times,
              std::vector<double>* seconds, std::unique_ptr<XmlDb>* reopened);

// ---- end-to-end metrics ------------------------------------------------------------

/// The timed phase starts with an untimed ramp of the real request loop, so
/// every core is busy and every cache is warm when measurement begins.
inline constexpr int64_t kRampNs = 1'000'000'000;
/// Request latencies are kept per one-second slice of the timed phase (by
/// request start); rates and latencies are reported as medians over slices,
/// which keeps a passing stall of the host from moving a whole run.
inline constexpr int64_t kSliceNs = 1'000'000'000;

class LatencyLog {
 public:
  /// Reserves address space up front (pages are touched only as samples
  /// arrive), so the log never reallocates and peak memory does not depend
  /// on when a vector happened to double.
  LatencyLog() { samples_.reserve(kReservedSamples); }
  /// Records a request that started `offset_ns` after measurement began.
  void Add(int64_t offset_ns, double ms) {
    samples_.push_back(Sample{static_cast<float>(ms),
                              static_cast<uint32_t>(offset_ns / kSliceNs)});
  }

  struct Sample {
    float ms;
    uint32_t slice;
  };
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  static constexpr size_t kReservedSamples = size_t{8} << 20;
  std::vector<Sample> samples_;
};

/// Every latency of `logs`, in milliseconds.
std::vector<double> AllLatencies(const std::vector<LatencyLog>& logs);

/// Inputs of the end-to-end metric list shared by every workload.
struct EndToEnd {
  std::vector<double> setup_s;    ///< one per set-up repetition
  std::vector<LatencyLog> lat;    ///< completed requests, one log per thread
  int seconds = 0;                ///< length of the timed phase (full slices)
  double lat_tail_q = 0.99;       ///< the workload's fixed tail quantile
  double load_mib_per_s = 0;
  std::vector<double> commit_ms;  ///< one per writer call
  double commit_tail_q = 0.99;
  double stored_bytes_per_byte = 0;
  std::vector<double> recover_s;
};

/// Appends every end-to-end metric, in the order BENCHMARK.json lists them.
void AddEndToEndMetrics(const EndToEnd& e, Outcome* out);

/// Appends the load-path metrics (load rate, commit latency, recovery time)
/// that close the per-layer list. They are not gated: a single-threaded
/// load or reopen of this size reads up to 1.7x slower in one process than
/// in the next on the shared hosts the benchmark runs on.
void AddLoadPathMetrics(const EndToEnd& e, Outcome* out);

/// The traced run alternates untraced and traced windows of this length so
/// their difference is the tracing overhead on otherwise equal footing.
inline constexpr int64_t kTraceWindowNs = 200'000'000;
inline bool TracedWindow(int64_t start_ns, int64_t now_ns) {
  return ((now_ns - start_ns) / kTraceWindowNs) % 2 == 1;
}

}  // namespace xdb::perfbench

#endif  // XDB_PERFBENCH_COMMON_H_
