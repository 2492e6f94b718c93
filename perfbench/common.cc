#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include "rel/expr.h"
#include "xml/serializer.h"

namespace xdb::perfbench {

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  double lo = *std::max_element(values.begin(), values.begin() + mid);
  return (lo + hi) / 2;
}

double TailValue(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = rank == 0 ? 0 : rank - 1;
  size_t cap = n > 11 ? n - 11 : n - 1;
  rank = std::min(rank, cap);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

ExecOptions ExplicitOptions(int threads) {
  ExecOptions o;
  o.enable_rewrite = true;
  o.enable_sql_rewrite = true;
  o.xslt = rewrite::XsltRewriteOptions{};
  o.optimizer = rel::OptimizerOptions{};  // every rule on; no env lookup
  o.use_plan_cache = true;
  o.threads = threads;
  o.parallel = true;
  o.min_parallel_chunk = 1;
  o.timeout_ms = 0;
  o.mem_budget_bytes = 0;
  o.output_budget_bytes = 0;
  o.tick_budget = 0;
  o.max_template_depth = 0;  // built-in default; its env override is refused
  o.cancel = nullptr;
  o.snapshot = nullptr;
  return o;
}

server::SessionManager::Options ManagerOptions(size_t sessions, size_t slots,
                                               uint64_t session_mem_budget) {
  server::SessionManager::Options o;
  o.max_sessions = sessions + 4;
  o.max_concurrent = slots;
  o.admission_queue = 64;
  o.session_mem_budget = session_mem_budget;
  o.fair_share_ticks = 0;
  return o;
}

wal::DurabilityOptions Durability(const std::string& dir, wal::SyncMode sync,
                                  uint64_t checkpoint_bytes) {
  wal::DurabilityOptions o;
  o.data_dir = dir;
  o.sync = sync;
  o.checkpoint_bytes = checkpoint_bytes;
  o.group_window_us = 1000;
  return o;
}

// ---- data directories ----------------------------------------------------------
//
// Registered directories live in fixed buffers so the signal handler can
// sweep them with async-signal-safe calls only.

namespace {

constexpr int kMaxDirs = 16;
constexpr size_t kMaxPath = 512;
char g_dirs[kMaxDirs][kMaxPath];
volatile sig_atomic_t g_dir_count = 0;

void UnlinkIn(const char* dir, const char* file) {
  char path[kMaxPath + 32];
  size_t n = strlen(dir);
  memcpy(path, dir, n);
  size_t m = strlen(file);
  memcpy(path + n, file, m + 1);
  unlink(path);
}

void RemoveDirFiles(const char* dir) {
  if (dir[0] == '\0') return;
  for (const char* f : {"/wal.log", "/checkpoint.xck", "/checkpoint.xck.tmp"}) {
    UnlinkIn(dir, f);
  }
  rmdir(dir);
}

void SweepDirs() {
  for (int i = 0; i < g_dir_count; ++i) RemoveDirFiles(g_dirs[i]);
}

void OnSignal(int sig) {
  SweepDirs();
  _exit(128 + sig);
}

void InstallSweep() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  std::atexit(SweepDirs);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
}

}  // namespace

std::string MakeDataDir(const char* tag) {
  InstallSweep();
  if (g_dir_count >= kMaxDirs) return "";
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
                     "/xdb_perfbench_" + tag + "_XXXXXX";
  if (tmpl.size() + 1 > kMaxPath) return "";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) return "";
  memcpy(g_dirs[g_dir_count], buf.data(), buf.size());
  g_dir_count = g_dir_count + 1;
  return std::string(buf.data());
}

void RemoveDataDir(const std::string& dir) { RemoveDirFiles(dir.c_str()); }

uint64_t StoredBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const std::string& path :
       {wal::Manager::WalPath(dir), wal::Manager::CheckpointPath(dir)}) {
    struct stat st{};
    if (stat(path.c_str(), &st) == 0) total += static_cast<uint64_t>(st.st_size);
  }
  return total;
}

// ---- people data set ---------------------------------------------------------------

namespace {

const char* kFirst[] = {"Al",  "Bo",  "Cy",  "Di",  "Ed",  "Fay", "Gus", "Hal",
                        "Ida", "Joy", "Kai", "Lu",  "Mo",  "Ned", "Oz",  "Pia"};
const char* kLast[] = {"Ames", "Bond", "Cole", "Dean", "Estes", "Ford",
                       "Gray", "Hale", "Ivey", "Jones", "Kent", "Lowe"};
const char* kCity[] = {"BOSTON", "DALLAS", "CHICAGO", "NEW YORK", "AUSTIN"};

}  // namespace

PeopleData MakePeople(uint64_t seed, int rows) {
  Rng rng = Rng(seed).Fork(1);
  PeopleData d;
  d.first.reserve(static_cast<size_t>(rows));
  d.last.reserve(static_cast<size_t>(rows));
  d.zip.reserve(static_cast<size_t>(rows));
  d.doc.reserve(static_cast<size_t>(rows) * 110);
  d.doc = "<table>";
  for (int i = 0; i < rows; ++i) {
    int id = i + 1;
    d.first.push_back(kFirst[rng.Uniform(0, 15)]);
    d.last.push_back(kLast[rng.Uniform(0, 11)]);
    int zip = static_cast<int>(rng.Uniform(10000, 99999));
    d.zip.push_back(zip);
    d.ids_by_zip[zip].push_back(id);
    d.doc += "<row><id>" + std::to_string(id) + "</id><firstname>" +
             d.first.back() + "</firstname><lastname>" + d.last.back() +
             "</lastname><city>" + kCity[rng.Uniform(0, 4)] + "</city><zip>" +
             std::to_string(zip) + "</zip></row>";
  }
  d.doc += "</table>";
  return d;
}

schema::StructuralInfo PeopleStructure() {
  schema::StructureBuilder b;
  auto* table = b.Element("table");
  auto* row = b.AddChild(table, "row", 0, -1);
  for (const char* leaf : {"id", "firstname", "lastname", "city", "zip"}) {
    b.AddText(b.AddChild(row, leaf));
  }
  return b.Build(table);
}

shred::ShredOptions PeopleShredOptions() {
  shred::ShredOptions o;
  o.value_indexes = {"row/id", "row/zip"};
  o.batch_rows = 1024;
  return o;
}

std::string PointStylesheet(const PointKey& k) {
  return std::string(
             "<xsl:stylesheet version=\"1.0\" "
             "xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">"
             "<xsl:template match=\"table\"><out><xsl:apply-templates "
             "select=\"row[") +
         (k.by_zip ? "zip" : "id") + " = " + std::to_string(k.key) +
         "]\"/></out></xsl:template>"
         "<xsl:template match=\"row\"><hit><xsl:value-of select=\"firstname\"/>"
         "<xsl:text> </xsl:text><xsl:value-of select=\"lastname\"/></hit>"
         "</xsl:template>"
         "<xsl:template match=\"text()\"/>"
         "</xsl:stylesheet>";
}

std::string ExpectedPoint(const PeopleData& data, const PointKey& k) {
  std::vector<int> ids;
  if (k.by_zip) {
    auto it = data.ids_by_zip.find(k.key);
    if (it != data.ids_by_zip.end()) ids = it->second;
  } else if (k.key >= 1 && k.key <= static_cast<int>(data.first.size())) {
    ids.push_back(k.key);
  }
  if (ids.empty()) return "<out/>";
  std::string out = "<out>";
  for (int id : ids) {
    size_t i = static_cast<size_t>(id - 1);
    out += "<hit>" + data.first[i] + " " + data.last[i] + "</hit>";
  }
  return out + "</out>";
}

std::vector<PointKey> HotKeys(const PeopleData& data, Rng* rng) {
  std::vector<PointKey> keys;
  auto taken = [&](const PointKey& k) {
    for (const PointKey& h : keys) {
      if (h.by_zip == k.by_zip && h.key == k.key) return true;
    }
    return false;
  };
  const int rows = static_cast<int>(data.zip.size());
  for (bool by_zip : {false, true}) {
    int found = 0;
    while (found < 16) {
      int id = static_cast<int>(rng->Uniform(1, rows));
      PointKey k{by_zip, by_zip ? data.zip[static_cast<size_t>(id - 1)] : id};
      if (taken(k)) continue;
      keys.push_back(k);
      ++found;
    }
  }
  return keys;
}

PointKey ColdKey(const PeopleData& data, Rng* rng) {
  const int rows = static_cast<int>(data.zip.size());
  int id = static_cast<int>(rng->Uniform(1, rows));
  bool by_zip = rng->Chance(50);
  return PointKey{by_zip, by_zip ? data.zip[static_cast<size_t>(id - 1)] : id};
}

PointRequest MakePointRequest(const PeopleData& data, const PointKey& k) {
  return PointRequest{k, PointStylesheet(k), ExpectedPoint(data, k)};
}

Status OpenDurableDb(const char* tag, const server::SessionManager::Options& mopts,
                     const wal::DurabilityOptions& durability, DurableDb* out) {
  out->dir = MakeDataDir(tag);
  if (out->dir.empty()) return Status::Internal("cannot create a data directory");
  out->durability = durability;
  out->durability.data_dir = out->dir;
  out->db = std::make_unique<XmlDb>();
  XDB_RETURN_NOT_OK(out->db->OpenDurable(out->durability));
  out->mgr = std::make_unique<server::SessionManager>(out->db.get(), mopts);
  return Status::OK();
}

Status Reopen(const wal::DurabilityOptions& durability, int times,
              std::vector<double>* seconds, std::unique_ptr<XmlDb>* reopened) {
  for (int i = 0; i < times; ++i) {
    reopened->reset();
    auto db = std::make_unique<XmlDb>();
    const int64_t t0 = NowNs();
    Status st = db->OpenDurable(durability);
    seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    XDB_RETURN_NOT_OK(st);
    *reopened = std::move(db);
  }
  return Status::OK();
}

std::vector<double> AllLatencies(const std::vector<LatencyLog>& logs) {
  std::vector<double> all;
  for (const LatencyLog& log : logs) {
    for (const LatencyLog::Sample& s : log.samples()) all.push_back(s.ms);
  }
  return all;
}

void AddEndToEndMetrics(const EndToEnd& e, Outcome* out) {
  const double peak_rss = PeakRssMiB();  // before the statistics allocate
  // Full slices only: a request that starts just before the deadline lands
  // in the last full slice even when it finishes after it.
  std::vector<std::vector<float>> by_slice(static_cast<size_t>(e.seconds));
  for (const LatencyLog& log : e.lat) {
    for (const LatencyLog::Sample& s : log.samples()) {
      if (s.slice < by_slice.size()) by_slice[s.slice].push_back(s.ms);
    }
  }
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> tails;
  size_t smallest = SIZE_MAX;
  for (const std::vector<float>& slice : by_slice) {
    const std::vector<double> s(slice.begin(), slice.end());
    rates.push_back(static_cast<double>(s.size()) * 1e9 / static_cast<double>(kSliceNs));
    p50s.push_back(Median(s));
    tails.push_back(TailValue(s, e.lat_tail_q));
    smallest = std::min(smallest, s.size());
  }
  by_slice.clear();
  // The tail is a median over slices when every slice leaves at least ten
  // samples beyond the quantile; otherwise it is taken over the whole run.
  const std::vector<double> all = AllLatencies(e.lat);
  const bool sliced_tail =
      static_cast<double>(smallest) * (1 - e.lat_tail_q) >= 10;
  out->Add("setup_s", Median(e.setup_s), "s");
  out->Add("req_per_s", Median(rates), "1/s");
  out->Add("lat_p50_ms", Median(p50s), "ms");
  out->Add("lat_tail_ms", sliced_tail ? Median(tails) : TailValue(all, e.lat_tail_q),
           "ms");
  out->Add("peak_rss_mb", peak_rss, "MiB");
  out->Add("stored_bytes_per_byte", e.stored_bytes_per_byte, "ratio");
  char note[320];
  std::snprintf(note, sizeof(note),
                "latency samples %zu over %d slices (fewest %zu), tail quantile %g "
                "%s; whole-run p99 %.4f p99.9 %.4f p99.99 %.4f ms; commit samples "
                "%zu, tail quantile %g",
                all.size(), e.seconds, smallest, e.lat_tail_q,
                sliced_tail ? "per slice" : "over the run", TailValue(all, 0.99),
                TailValue(all, 0.999), TailValue(all, 0.9999), e.commit_ms.size(),
                e.commit_tail_q);
  out->notes.push_back(note);
}

void AddLoadPathMetrics(const EndToEnd& e, Outcome* out) {
  out->Add("load_mb_per_s", e.load_mib_per_s, "MiB/s");
  out->Add("commit_p50_ms", Median(e.commit_ms), "ms");
  out->Add("commit_tail_ms", TailValue(e.commit_ms, e.commit_tail_q), "ms");
  out->Add("recover_s", Median(e.recover_s), "s");
}

std::string SerializeValue(const rel::Datum& d) {
  if (d.type() != rel::DataType::kXml || d.AsXml() == nullptr) return d.ToString();
  xml::Node* n = d.AsXml();
  if (n->local_name() == rel::kFragmentName ||
      n->type() == xml::NodeType::kDocument) {
    return xml::SerializeAll(n->children());
  }
  return xml::Serialize(n);
}

}  // namespace xdb::perfbench
