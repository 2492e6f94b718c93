// ingest: writes beside reads on the same tables, snapshots and plan cache.
// One writer streams seeded order documents into a durable database through
// SessionManager::LoadDocument (group commit, auto-checkpoints) on a fixed
// schedule; two closed-loop reader sessions re-pin before every request and
// send serve's hot point transforms against the static 64,000-row people
// view. Every publish makes the readers prepare again under the new epoch,
// and every reader pin makes the writer's next append copy-on-write.
//
// The writer is an open loop: the table a load appends to grows with every
// load and each append under a reader pin copies its index, so a closed-loop
// writer would load more data on a faster run and then slow down by it.
// A fixed schedule loads the same documents at the same times on every run,
// and a load's latency counts from when it was due.
#include <chrono>
#include <cstdio>
#include <thread>

#include "workloads.h"

namespace xdb::perfbench {
namespace {

constexpr const char* kOrderView = "orders";
constexpr int kReaders = 2;
constexpr int kWarmOrders = 4;
constexpr uint64_t kSessionMemBudget = 256ull << 20;
constexpr int64_t kLoadIntervalNs = 40'000'000;  // 25 loads per second
// About 12 KiB of log per load: small enough that a 10 s stream completes
// several auto-checkpoints.
constexpr uint64_t kCheckpointBytes = 512ull << 10;
// Readers complete over 3 * 10^4 requests per one-second slice; their p99
// is the per-epoch re-prepare. The writer makes 25 loads per second, so at
// 10 s p95 leaves at least ten of them beyond it.
constexpr double kLatTailQuantile = 0.99;
constexpr double kCommitTailQuantile = 0.95;

constexpr const char* kPicklist =
    "<xsl:stylesheet version=\"1.0\" "
    "xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">"
    "<xsl:template match=\"/\"><picklist>"
    "<xsl:for-each select=\"order/line\">"
    "<sku><xsl:value-of select=\"sku\"/></sku>"
    "</xsl:for-each>"
    "</picklist></xsl:template></xsl:stylesheet>";

schema::StructuralInfo OrderStructure() {
  schema::StructureBuilder b;
  auto* order = b.Element("order");
  auto* line = b.AddChild(order, "line", 0, -1);
  b.AddText(b.AddChild(line, "sku"));
  b.AddText(b.AddChild(line, "qty"));
  return b.Build(order);
}

// The writer's documents: 90% small (1-16 lines), 10% big (256-4,096
// lines). Each block of ten loads holds one big document at a seeded
// position; the small sizes step through 1..16 and the big ones through 16
// evenly spaced sizes, each in seeded order. So every seed loads the same
// mix of sizes and only the order and the contents differ.
class OrderStream {
 public:
  explicit OrderStream(uint64_t seed) : rng_(Rng(seed).Fork(6)) {}

  std::string Next() {
    if (pos_ % 10 == 0) big_at_ = static_cast<int>(rng_.Uniform(0, 9));
    const bool big = pos_++ % 10 == big_at_;
    std::vector<int>& pool = big ? big_ : small_;
    if (pool.empty()) {
      for (int i = 0; i < 16; ++i) pool.push_back(big ? 256 * (i + 1) : i + 1);
      for (size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1],
                  pool[static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(i) - 1))]);
      }
    }
    const int lines = pool.back();
    pool.pop_back();
    std::string doc = "<order>";
    for (int i = 0; i < lines; ++i) {
      doc += "<line><sku>p" + std::to_string(rng_.Uniform(0, 9999999)) +
             "</sku><qty>" + std::to_string(rng_.Uniform(1, 9)) + "</qty></line>";
    }
    return doc + "</order>";
  }

 private:
  Rng rng_;
  int pos_ = 0;
  int big_at_ = 0;
  std::vector<int> small_;
  std::vector<int> big_;
};

struct WriterResult {
  std::vector<double> commit_ms;  // from due time to published epoch
  uint64_t loads = 0;      // every load, ramp included
  uint64_t all_bytes = 0;  // source bytes of every load
  uint64_t failed = 0;
  uint64_t bytes = 0;      // source bytes of the measured loads
  uint64_t checkpoints = 0;
  uint64_t live_epochs_max = 1;
  double busy_s = 0;       // LoadDocument call time of the measured loads
  double max_late_ms = 0;  // how late the schedule ran
  std::string first_error;
  LayerAcc acc;
};

struct ReaderResult {
  LatencyLog lat;
  std::vector<double> traced_lat_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  LayerAcc acc;
};

// Loads one order that was due at `due_ns`. `record` = false loads without
// keeping the call's numbers (warm-up and ramp). False when the load failed.
bool LoadOrder(DurableDb* d, const std::string& doc, int64_t due_ns, TraceThread* t,
               LayerAcc* acc, bool record, WriterResult* res) {
  const uint64_t ckpts = d->db->wal_metrics().checkpoints;
  const int64_t t0 = NowNs();
  auto loaded = d->mgr->LoadDocument(kOrderView, doc);
  const int64_t t1 = NowNs();
  if (!loaded.ok()) {
    res->failed += 1;
    if (res->first_error.empty()) res->first_error = loaded.status().ToString();
    return false;
  }
  const bool checkpointed = d->db->wal_metrics().checkpoints > ckpts;
  res->loads += 1;
  res->all_bytes += doc.size();
  if (!record) return true;
  res->bytes += doc.size();
  res->checkpoints += checkpointed ? 1 : 0;
  res->commit_ms.push_back(static_cast<double>(t1 - due_ns) / 1e6);
  res->busy_s += static_cast<double>(t1 - t0) / 1e9;
  res->max_late_ms = std::max(res->max_late_ms, static_cast<double>(t0 - due_ns) / 1e6);
  res->live_epochs_max =
      std::max<uint64_t>(res->live_epochs_max, d->mgr->live_epochs());
  if (acc != nullptr) RecordLoad(t, acc, t0, t1, &*loaded, checkpointed);
  return true;
}

// Loads are due every kLoadIntervalNs from `begin` until `deadline`.
void RunWriter(DurableDb* d, OrderStream orders, int64_t begin, int64_t start,
               int64_t deadline, TraceThread* t, bool trace, WriterResult* res) {
  for (int64_t due = begin; due < deadline; due += kLoadIntervalNs) {
    const std::string doc = orders.Next();
    // Sleep to just before the due time, then spin: a sleep alone wakes late
    // by a scheduler tick, which would count against the load.
    const int64_t wake = due - 200'000;
    if (NowNs() < wake) std::this_thread::sleep_for(std::chrono::nanoseconds(wake - NowNs()));
    while (NowNs() < due) {
    }
    TraceThread* tt = t != nullptr && TracedWindow(start, due) ? t : nullptr;
    if (tt != nullptr) tt->BeginRequest();
    LoadOrder(d, doc, due, tt, trace ? &res->acc : nullptr, due >= start, res);
    if (tt != nullptr) tt->EndRequest();
  }
}

void RunReader(server::Session* session, XmlDb* db,
               const std::vector<PointRequest>& hot,
               const std::vector<std::shared_ptr<const core::PreparedTransform>>& plans,
               Rng rng, int64_t start, int64_t deadline, TraceThread* t,
               ReaderResult* res) {
  const ExecOptions options = PointOptions();
  ExecStats stats;
  while (true) {
    const size_t i =
        static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(hot.size()) - 1));
    const int64_t t0 = NowNs();
    if (t0 >= deadline) break;
    TraceThread* tt = t != nullptr && TracedWindow(start, t0) ? t : nullptr;
    if (tt != nullptr) tt->BeginRequest();
    session->Repin();
    const int64_t tb = NowNs();
    auto r = session->Transform(kPeopleView, hot[i].text, options, &stats);
    const int64_t t1 = NowNs();

    res->attempted += 1;
    const bool ok = r.ok() && r->size() == 1 && (*r)[0] == hot[i].expected;
    if (!ok) {
      res->failed += 1;
      if (res->first_error.empty()) {
        res->first_error = hot[i].text + " -> " +
                           (r.ok() ? (r->empty() ? "no rows" : (*r)[0])
                                   : r.status().ToString());
      }
    } else if (t0 >= start) {
      const double ms = static_cast<double>(t1 - t0) / 1e6;
      if (tt != nullptr) {
        res->traced_lat_ms.push_back(ms);
      } else {
        res->lat.Add(t0 - start, ms);
      }
    }
    if (t == nullptr) continue;
    if (tt != nullptr) tt->Add("server.begin", t0, tb);
    RecordRequest(tt, &res->acc, tb, t1, stats, r);
    if (tt != nullptr && ok) {
      ExecOptions snap = options;
      snap.snapshot = session->snapshot().get();
      std::shared_ptr<const core::PreparedTransform> plan = plans[i];
      if (!stats.cache_hit) {
        plan = ReplayColdPrepare(db, kPeopleView, hot[i].text, snap, tt, &res->acc);
      }
      if (plan != nullptr && plan->path == ExecutionPath::kSqlRewritten &&
          !ReplayPlanA(*plan, snap.snapshot, *r, tt) && res->first_error.empty()) {
        res->first_error = "plan-A replay differs on " + hot[i].text;
      }
    }
    if (tt != nullptr) tt->EndRequest();
  }
}

}  // namespace

Outcome RunIngest(const Args& args, Tracer* tracer) {
  Outcome out;
  TraceThread* main_t = tracer != nullptr ? tracer->NewThread() : nullptr;
  LayerAcc acc;
  EndToEnd e2e;
  e2e.lat_tail_q = kLatTailQuantile;
  e2e.commit_tail_q = kCommitTailQuantile;
  std::vector<double> load_s, warm_s;

  DurableDb live;
  PeopleData data;
  std::vector<PointRequest> hot;
  std::vector<std::shared_ptr<const core::PreparedTransform>> plans;
  WriterResult warm;
  OrderStream orders(args.seed);
  for (int rep = 0; rep < kSetups; ++rep) {
    live.Close();
    RemoveDataDir(live.dir);
    const int64_t t0 = NowNs();
    data = MakePeople(args.seed, kPeopleRows);
    Rng rng = Rng(args.seed).Fork(2);
    hot.clear();
    for (const PointKey& k : HotKeys(data, &rng)) {
      hot.push_back(MakePointRequest(data, k));
    }
    Status st = OpenDurableDb("ingest", ManagerOptions(kReaders, kReaders, kSessionMemBudget),
                              Durability("", wal::SyncMode::kBatch, kCheckpointBytes), &live);
    if (st.ok()) {
      st = live.mgr->Apply(
          [&] { return live.db->RegisterShreddedSchema(kOrderView, OrderStructure()); });
    }
    if (st.ok()) st = LoadPeople(&live, data, main_t, &acc);
    const int64_t t1 = NowNs();
    if (st.ok()) st = BeginSessions(&live, kReaders, main_t);
    if (!st.ok()) {
      out.Fail("ingest set-up: " + st.ToString());
      return out;
    }
    CheckPointOracle(args.seed, main_t, &acc, &out);
    WarmPointRequests(&live, hot, PointOptions(), main_t, &acc, &plans, &out);
    warm = WriterResult();
    orders = OrderStream(args.seed);
    for (int i = 0; i < kWarmOrders; ++i) {
      LoadOrder(&live, orders.Next(), NowNs(), main_t, &acc, false, &warm);
    }
    if (warm.failed > 0) out.Fail("warm-up order load: " + warm.first_error);
    const int64_t t2 = NowNs();
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    load_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    warm_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  // ---- timed phase ----------------------------------------------------------------
  const core::PlanCache::Stats cache0 = live.db->plan_cache()->stats();
  const uint64_t epoch0 = live.mgr->head_epoch();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t loop_begin = NowNs();
  const int64_t start = loop_begin + kRampNs;
  const int64_t deadline = start + static_cast<int64_t>(args.seconds) * 1'000'000'000;
  WriterResult writer;
  std::vector<ReaderResult> readers(kReaders);
  TraceThread* writer_t = nullptr;
  std::vector<TraceThread*> reader_t(kReaders, nullptr);
  if (tracer != nullptr) {
    writer_t = tracer->NewThread();
    writer_t->set_timed(true);
    for (auto& rt : reader_t) {
      rt = tracer->NewThread();
      rt->set_timed(true);
    }
  }
  {
    std::vector<std::thread> threads;
    threads.emplace_back(RunWriter, &live, orders, loop_begin, start, deadline, writer_t,
                         tracer != nullptr, &writer);
    Rng root = Rng(args.seed).Fork(7);
    for (int i = 0; i < kReaders; ++i) {
      threads.emplace_back(RunReader, live.sessions[static_cast<size_t>(i)].get(),
                           live.db.get(), std::cref(hot), std::cref(plans),
                           root.Fork(static_cast<uint64_t>(i)), start, deadline,
                           reader_t[static_cast<size_t>(i)],
                           &readers[static_cast<size_t>(i)]);
    }
    for (std::thread& th : threads) th.join();
  }
  const double loop_s = static_cast<double>(NowNs() - loop_begin) / 1e9;
  const double cpu1 = ProcessCpuSeconds();
  e2e.seconds = args.seconds;
  const core::PlanCache::Stats cache1 = live.db->plan_cache()->stats();
  const uint64_t epoch1 = live.mgr->head_epoch();

  std::vector<double> traced_lat;
  for (ReaderResult& r : readers) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    if (!r.first_error.empty()) out.notes.push_back("reader error: " + r.first_error);
    e2e.lat.push_back(std::move(r.lat));
    traced_lat.insert(traced_lat.end(), r.traced_lat_ms.begin(), r.traced_lat_ms.end());
    acc.Merge(r.acc);
  }
  out.attempted += writer.loads + writer.failed;
  out.failed += writer.failed;
  if (!writer.first_error.empty()) out.notes.push_back("writer error: " + writer.first_error);
  acc.Merge(writer.acc);
  if (out.failed > 0) out.correct = false;
  e2e.commit_ms = writer.commit_ms;
  // Busy throughput: under a fixed schedule, bytes over wall time would only
  // restate the schedule.
  e2e.load_mib_per_s =
      writer.busy_s > 0 ? MiB(static_cast<double>(writer.bytes)) / writer.busy_s : 0;
  char writer_note[200];
  std::snprintf(writer_note, sizeof(writer_note),
                "writer loads %llu (measured %zu, %.3f MiB), auto-checkpoints %llu, "
                "schedule ran at most %.3f ms late",
                static_cast<unsigned long long>(writer.loads), writer.commit_ms.size(),
                MiB(static_cast<double>(writer.bytes)),
                static_cast<unsigned long long>(writer.checkpoints), writer.max_late_ms);
  out.notes.push_back(writer_note);
  if (writer.checkpoints < 3) {
    out.notes.push_back("warning: fewer than 3 auto-checkpoints in the timed phase");
  }

  // ---- durability check: the reopened database answers as the live one ----------
  const uint64_t loaded_orders = static_cast<uint64_t>(kWarmOrders) + writer.loads;
  auto live_orders = live.db->TransformView(kOrderView, kPicklist, ExplicitOptions(4));
  if (!live_orders.ok() || live_orders->size() != loaded_orders) {
    out.Fail("live order view: " + (live_orders.ok()
                                        ? std::to_string(live_orders->size()) + " rows"
                                        : live_orders.status().ToString()));
  }
  const wal::WalMetrics wal_metrics = live.db->wal_metrics();
  const uint64_t src_bytes = data.doc.size() + warm.all_bytes + writer.all_bytes;
  e2e.stored_bytes_per_byte =
      static_cast<double>(StoredBytes(live.dir)) / static_cast<double>(src_bytes);
  live.Close();
  std::unique_ptr<XmlDb> reopened;
  Status st = Reopen(live.durability, kReopens, &e2e.recover_s, &reopened);
  if (!st.ok()) {
    out.Fail("reopen: " + st.ToString());
  } else {
    auto again = reopened->TransformView(kOrderView, kPicklist, ExplicitOptions(4));
    if (!again.ok() || !live_orders.ok() || *again != *live_orders) {
      out.Fail("reopened order view differs from the live one");
    }
    auto p = reopened->TransformView(kPeopleView, hot.front().text, ExplicitOptions(1));
    if (!p.ok() || p->size() != 1 || (*p)[0] != hot.front().expected) {
      out.Fail("reopened people view answers differently");
    }
  }
  const uint64_t replayed = reopened ? reopened->last_recovery().replayed_records : 0;
  reopened.reset();
  RemoveDataDir(live.dir);

  if (tracer == nullptr) {
    AddEndToEndMetrics(e2e, &out);
    return out;
  }
  LayerInputs in;
  in.tracer = tracer;
  in.acc = acc;
  AddCacheDelta(cache0, cache1, &in.cache_delta);
  in.publishes = epoch1 - epoch0;
  in.live_epochs_max = writer.live_epochs_max;
  in.wal = wal_metrics;
  in.src_bytes_logged = src_bytes;
  in.replayed_records = replayed;
  in.cpu_util = (cpu1 - cpu0) / (loop_s * 4);
  in.setup_load_s = Median(load_s);
  in.setup_warm_s = Median(warm_s);
  SetTracingOverhead(e2e.lat, traced_lat, &in);
  AddLayerMetrics(in, &out);
  AddLoadPathMetrics(e2e, &out);
  return out;
}

}  // namespace xdb::perfbench
