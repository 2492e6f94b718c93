// serve: many small callers, each waiting for its reply. Four closed-loop
// client sessions (one per thread) send dbonerow-style point transforms
// over one shredded 64,000-row document. 95% of requests draw from 32 hot
// stylesheet texts, which fit the 64-entry plan cache; 5% carry a fresh key,
// a stream far larger than the cache, so they take the cold prepare path.
#include <thread>

#include "workloads.h"

namespace xdb::perfbench {

ExecOptions PointOptions() {
  ExecOptions o = ExplicitOptions(/*threads=*/1);
  // -1 hands the memory budget to the session quota, which puts the
  // governor on the request path.
  o.mem_budget_bytes = -1;
  return o;
}

Status RecordedLoad(DurableDb* d, const std::string& view, const std::string& doc,
                    TraceThread* t, LayerAcc* acc, double* ms) {
  const uint64_t ckpts = d->db->wal_metrics().checkpoints;
  const int64_t t0 = NowNs();
  auto loaded = d->mgr->LoadDocument(view, doc);
  const int64_t t1 = NowNs();
  XDB_RETURN_NOT_OK(loaded.status());
  if (ms != nullptr) *ms = static_cast<double>(t1 - t0) / 1e6;
  RecordLoad(t, acc, t0, t1, &*loaded, d->db->wal_metrics().checkpoints > ckpts);
  return Status::OK();
}

Status LoadPeople(DurableDb* d, const PeopleData& data, TraceThread* t,
                  LayerAcc* acc) {
  XDB_RETURN_NOT_OK(d->mgr->Apply([&] {
    return d->db->RegisterShreddedSchema(kPeopleView, PeopleStructure(),
                                         PeopleShredOptions());
  }));
  return RecordedLoad(d, kPeopleView, data.doc, t, acc);
}

Status MeasureDurability(const wal::DurabilityOptions& durability,
                         const std::string& probe_view,
                         const schema::StructuralInfo& probe_structure,
                         const shred::ShredOptions& probe_options,
                         const std::string& probe_doc,
                         const std::function<Status(XmlDb*)>& verify, TraceThread* t,
                         LayerAcc* acc, DurabilitySamples* out) {
  for (int round = 0; round < kDurabilityRounds; ++round) {
    DurableDb d;
    d.dir = durability.data_dir;
    d.durability = durability;
    d.db = std::make_unique<XmlDb>();
    const int64_t t0 = NowNs();
    XDB_RETURN_NOT_OK(d.db->OpenDurable(durability));
    out->recover_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (round == 0) {
      out->replayed_records = d.db->last_recovery().replayed_records;
      XDB_RETURN_NOT_OK(verify(d.db.get()));
    }
    d.mgr = std::make_unique<server::SessionManager>(d.db.get(), ManagerOptions(1, 1, 0));
    for (int i = 0; i < kProbesPerRound; ++i) {
      const std::string view =
          probe_view + "_probe" + std::to_string(round * kProbesPerRound + i);
      XDB_RETURN_NOT_OK(d.mgr->Apply([&] {
        return d.db->RegisterShreddedSchema(view, probe_structure, probe_options);
      }));
      double ms = 0;
      XDB_RETURN_NOT_OK(RecordedLoad(&d, view, probe_doc, t, acc, &ms));
      out->commit_ms.push_back(ms);
      out->bytes += probe_doc.size();
      out->busy_s += ms / 1e3;
    }
    d.Close();
  }
  return Status::OK();
}

Status BeginSessions(DurableDb* d, int count, TraceThread* t) {
  for (int i = 0; i < count; ++i) {
    ScopedSpan span(t, "server.begin");
    XDB_ASSIGN_OR_RETURN(server::SessionPtr s, d->mgr->Begin());
    d->sessions.push_back(std::move(s));
  }
  return Status::OK();
}

void CheckPointOracle(uint64_t seed, TraceThread* t, LayerAcc* acc, Outcome* out) {
  const PeopleData small = MakePeople(seed, kOracleRows);
  XmlDb db;
  Status st = db.RegisterShreddedSchema(kPeopleView, PeopleStructure(),
                                        PeopleShredOptions());
  if (st.ok()) st = db.LoadDocument(kPeopleView, small.doc).status();
  if (!st.ok()) {
    out->Fail("oracle set-up: " + st.ToString());
    return;
  }
  ExecOptions functional = ExplicitOptions(/*threads=*/1);
  functional.enable_rewrite = false;
  Rng rng = Rng(seed).Fork(8);
  for (const PointKey& k : {ColdKey(small, &rng), ColdKey(small, &rng)}) {
    const PointRequest req = MakePointRequest(small, k);
    ExecStats stats;
    const int64_t t0 = NowNs();
    auto r = db.TransformView(kPeopleView, req.text, functional, &stats);
    const int64_t t1 = NowNs();
    if (t != nullptr) {
      RecordRequest(t, acc, t0, t1, stats, r);
      ReplayMaterialize(&db, kPeopleView, t);
    }
    if (!r.ok() || r->size() != 1 || (*r)[0] != req.expected) {
      out->Fail("plan C gives " +
                (r.ok() ? (r->empty() ? "no rows" : (*r)[0]) : r.status().ToString()) +
                ", the generator expects " + req.expected);
    }
  }
}

void WarmPointRequests(
    DurableDb* d, const std::vector<PointRequest>& hot, const ExecOptions& options,
    TraceThread* t, LayerAcc* acc,
    std::vector<std::shared_ptr<const core::PreparedTransform>>* plans,
    Outcome* out) {
  plans->assign(hot.size(), nullptr);
  for (size_t s = 0; s < d->sessions.size(); ++s) {
    server::Session* session = d->sessions[s].get();
    for (size_t i = 0; i < hot.size(); ++i) {
      ExecStats stats;
      const int64_t t0 = NowNs();
      auto r = session->Transform(kPeopleView, hot[i].text, options, &stats);
      const int64_t t1 = NowNs();
      if (!r.ok() || r->size() != 1 || (*r)[0] != hot[i].expected) {
        out->Fail("warm-up request " + std::to_string(i) + " returned " +
                  (r.ok() ? (r->empty() ? "no rows" : (*r)[0])
                          : r.status().ToString()));
        continue;
      }
      if (t == nullptr || s != 0) continue;
      RecordRequest(t, acc, t0, t1, stats, r);
      ExecOptions snap = options;
      snap.snapshot = session->snapshot().get();
      (*plans)[i] = ReplayColdPrepare(d->db.get(), kPeopleView, hot[i].text, snap,
                                      t, acc);
    }
  }
}

namespace {

constexpr int kClients = 4;
constexpr int kProbeRows = 250;  // rows of each durability probe document
constexpr int kHotPercent = 95;
constexpr int kColdWarmups = 16;  // per session, before timing starts
constexpr uint64_t kSessionMemBudget = 256ull << 20;
// Each one-second slice holds over 10^5 requests. p99.9 sits in the cold
// prepare path; p99.99 would leave ten samples beyond it too, but there
// host scheduling stalls decide the value and runs disagree by ~40%.
constexpr double kTailQuantile = 0.999;

struct ClientResult {
  LatencyLog lat;                     // untraced-window requests
  std::vector<double> traced_lat_ms;  // traced-window requests
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  LayerAcc acc;
};

void RunClient(server::Session* session, XmlDb* db, const PeopleData& data,
               const std::vector<PointRequest>& hot,
               const std::vector<std::shared_ptr<const core::PreparedTransform>>& plans,
               Rng rng, int64_t start, int64_t deadline, TraceThread* t,
               ClientResult* res) {
  const ExecOptions options = PointOptions();
  PointRequest cold;
  ExecStats stats;
  while (true) {
    const bool is_hot = rng.Chance(kHotPercent);
    size_t hot_index = 0;
    const PointRequest* req = nullptr;
    if (is_hot) {
      hot_index = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(hot.size()) - 1));
      req = &hot[hot_index];
    } else {
      cold.key = ColdKey(data, &rng);
      cold.text = PointStylesheet(cold.key);
      req = &cold;
    }
    const int64_t t0 = NowNs();
    if (t0 >= deadline) break;
    TraceThread* tt = t != nullptr && TracedWindow(start, t0) ? t : nullptr;
    if (tt != nullptr) tt->BeginRequest();
    auto r = session->Transform(kPeopleView, req->text, options, &stats);
    const int64_t t1 = NowNs();

    res->attempted += 1;
    if (!is_hot) cold.expected = ExpectedPoint(data, cold.key);
    const bool ok = r.ok() && r->size() == 1 && (*r)[0] == req->expected;
    if (!ok) {
      res->failed += 1;
      if (res->first_error.empty()) {
        res->first_error = req->text + " -> " +
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
    if (t != nullptr) {
      RecordRequest(tt, &res->acc, t0, t1, stats, r);
      if (tt != nullptr && ok) {
        ExecOptions snap = options;
        snap.snapshot = session->snapshot().get();
        std::shared_ptr<const core::PreparedTransform> plan =
            is_hot ? plans[hot_index] : nullptr;
        if (!stats.cache_hit) {
          plan = ReplayColdPrepare(db, kPeopleView, req->text, snap, tt, &res->acc);
        }
        if (plan != nullptr && plan->path == ExecutionPath::kSqlRewritten &&
            !ReplayPlanA(*plan, snap.snapshot, *r, tt) && res->first_error.empty()) {
          res->first_error = "plan-A replay differs on " + req->text;
        }
      }
      if (tt != nullptr) tt->EndRequest();
    }
  }
}

}  // namespace

Outcome RunServe(const Args& args, Tracer* tracer) {
  Outcome out;
  TraceThread* main_t = tracer != nullptr ? tracer->NewThread() : nullptr;
  LayerAcc acc;
  EndToEnd e2e;
  e2e.lat_tail_q = kTailQuantile;
  std::vector<double> load_s, warm_s;

  DurableDb live;
  PeopleData data;
  std::vector<PointRequest> hot;
  std::vector<std::shared_ptr<const core::PreparedTransform>> plans;
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
    Status st = OpenDurableDb("serve", ManagerOptions(kClients, kClients, kSessionMemBudget),
                              BulkLoadDurability(), &live);
    if (st.ok()) st = LoadPeople(&live, data, main_t, &acc);
    if (st.ok()) {
      // A served database is checkpointed after its bulk load, so a restart
      // restores the checkpoint instead of replaying the log.
      const int64_t c0 = NowNs();
      st = live.mgr->Checkpoint();
      RecordLoad(main_t, &acc, c0, NowNs(), nullptr, true);
    }
    const int64_t t1 = NowNs();
    if (st.ok()) st = BeginSessions(&live, kClients, main_t);
    if (!st.ok()) {
      out.Fail("serve set-up: " + st.ToString());
      return out;
    }
    CheckPointOracle(args.seed, main_t, &acc, &out);
    WarmPointRequests(&live, hot, PointOptions(), main_t, &acc, &plans, &out);
    for (auto& session : live.sessions) {
      for (int i = 0; i < kColdWarmups; ++i) {
        PointRequest cold = MakePointRequest(data, ColdKey(data, &rng));
        auto r = session->Transform(kPeopleView, cold.text, PointOptions());
        if (!r.ok() || r->size() != 1 || (*r)[0] != cold.expected) {
          out.Fail("cold warm-up request " + cold.text);
        }
      }
    }
    const int64_t t2 = NowNs();
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    load_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    warm_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }

  // ---- timed phase ----------------------------------------------------------
  const core::PlanCache::Stats cache0 = live.db->plan_cache()->stats();
  const uint64_t epoch0 = live.mgr->head_epoch();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t loop_begin = NowNs();
  const int64_t start = loop_begin + kRampNs;
  const int64_t deadline = start + static_cast<int64_t>(args.seconds) * 1'000'000'000;
  std::vector<ClientResult> results(kClients);
  std::vector<TraceThread*> client_t(kClients, nullptr);
  if (tracer != nullptr) {
    for (auto& ct : client_t) {
      ct = tracer->NewThread();
      ct->set_timed(true);
    }
  }
  {
    std::vector<std::thread> threads;
    Rng root = Rng(args.seed).Fork(3);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, live.sessions[static_cast<size_t>(c)].get(),
                           live.db.get(), std::cref(data), std::cref(hot),
                           std::cref(plans), root.Fork(static_cast<uint64_t>(c)), start,
                           deadline, client_t[static_cast<size_t>(c)],
                           &results[static_cast<size_t>(c)]);
    }
    for (std::thread& th : threads) th.join();
  }
  const double loop_s = static_cast<double>(NowNs() - loop_begin) / 1e9;
  const double cpu1 = ProcessCpuSeconds();
  e2e.seconds = args.seconds;
  core::PlanCache::Stats cache1 = live.db->plan_cache()->stats();
  const uint64_t epoch1 = live.mgr->head_epoch();

  std::vector<double> traced_lat;
  for (ClientResult& r : results) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    if (!r.first_error.empty()) out.notes.push_back("error: " + r.first_error);
    e2e.lat.push_back(std::move(r.lat));
    traced_lat.insert(traced_lat.end(), r.traced_lat_ms.begin(),
                      r.traced_lat_ms.end());
    acc.Merge(r.acc);
  }
  if (out.failed > 0) out.correct = false;

  // ---- storage, recovery ----------------------------------------------------------
  const wal::WalMetrics wal_metrics = live.db->wal_metrics();
  e2e.stored_bytes_per_byte = static_cast<double>(StoredBytes(live.dir)) /
                              static_cast<double>(data.doc.size());
  live.Close();
  const PointRequest& check = hot.front();
  DurabilitySamples dur;
  Status st = MeasureDurability(
      live.durability, kPeopleView, PeopleStructure(), PeopleShredOptions(),
      MakePeople(args.seed, kProbeRows).doc,
      [&](XmlDb* db) {
        auto r = db->TransformView(kPeopleView, check.text, ExplicitOptions(1));
        return r.ok() && r->size() == 1 && (*r)[0] == check.expected
                   ? Status::OK()
                   : Status::Internal("the reopened database answers differently");
      },
      main_t, &acc, &dur);
  if (!st.ok()) out.Fail("durability phase: " + st.ToString());
  RemoveDataDir(live.dir);
  e2e.recover_s = dur.recover_s;
  e2e.commit_ms = dur.commit_ms;
  e2e.commit_tail_q = kProbeCommitTailQuantile;
  e2e.load_mib_per_s = dur.busy_s > 0 ? MiB(static_cast<double>(dur.bytes)) / dur.busy_s : 0;
  if (tracer == nullptr) {
    AddEndToEndMetrics(e2e, &out);
    return out;
  }
  LayerInputs in;
  in.tracer = tracer;
  in.acc = acc;
  AddCacheDelta(cache0, cache1, &in.cache_delta);
  in.publishes = epoch1 - epoch0;
  in.wal = wal_metrics;
  in.src_bytes_logged = data.doc.size();
  in.replayed_records = dur.replayed_records;
  in.cpu_util = (cpu1 - cpu0) / (loop_s * 4);
  in.setup_load_s = Median(load_s);
  in.setup_warm_s = Median(warm_s);
  SetTracingOverhead(e2e.lat, traced_lat, &in);
  AddLayerMetrics(in, &out);
  AddLoadPathMetrics(e2e, &out);
  return out;
}

}  // namespace xdb::perfbench
