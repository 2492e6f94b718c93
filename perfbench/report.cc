// report: the paper's own traffic, one user asking for whole transformed
// views. A single closed-loop client session per database runs a fixed,
// weighted cycle of whole-view transforms (seeded order, threads = 4):
//
//   dept       Table 5's dept report over deptfarm (1,000 departments x 3
//              employees, Insert-built tables)
//   avts, metric, chart, total
//              Fig. 3's construction- and aggregation-bound cases, 8,000 rows
//   join, sweep
//              the nested customer/order for-each and the .//order structural
//              sweep over a shredded 8,000-order shop document
//   trend, backwards
//              functional-fallback xsltmark cases, 2,000 rows
//   wordcount  a non-inline xsltmark case, 2,000 rows
//
// Each type's count per cycle is fixed so every type takes a similar share
// of run time; a speedup on one type moves req_per_s by that share.
#include <algorithm>

#include "workloads.h"
#include "xsltmark/suite.h"

namespace xdb::perfbench {
namespace {

constexpr const char* kShopView = "shop_view";
constexpr int kShopOrders = 8000;
constexpr int kProbeOrders = 250;  // orders of each durability probe document
// About 240 requests complete per second. The dept type is 1 of 168
// requests per cycle, so any quantile above p99.4 reads one type's latency
// (and the host's speed at those few moments); p99 leaves over 20 samples
// beyond it at 10 s and covers the slow end of the other types.
constexpr double kTailQuantile = 0.99;

constexpr const char* kDeptStylesheet = R"xsl(<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept">
<H1>HIGHLY PAID DEPT EMPLOYEES</H1>
<xsl:apply-templates/>
</xsl:template>
<xsl:template match="dname">
<H2>Department name: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="loc">
<H2>Department location: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="employees">
<H2>Employees Table</H2>
<table border="2">
<td><b>EmpNo</b></td>
<td><b>Name</b></td>
<td><b>Weekly Salary</b></td>
<xsl:apply-templates select="emp[sal > 2000]"/>
</table>
</xsl:template>
<xsl:template match = "emp">
<tr>
<td><xsl:value-of select="empno"/></td>
<td><xsl:value-of select="ename"/></td>
<td><xsl:value-of select="sal"/></td>
</tr>
</xsl:template>
<xsl:template match="text()">
<xsl:value-of select="."/>
</xsl:template>
</xsl:stylesheet>)xsl";

constexpr const char* kJoinStylesheet =
    "<xsl:stylesheet version=\"1.0\" "
    "xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">"
    "<xsl:template match=\"shop\"><out>"
    "<xsl:for-each select=\"customer\"><c>"
    "<xsl:value-of select=\"name\"/>"
    "<xsl:for-each select=\"order\"><o><xsl:value-of select=\"item\"/></o>"
    "</xsl:for-each>"
    "</c></xsl:for-each>"
    "</out></xsl:template>"
    "<xsl:template match=\"text()\"/>"
    "</xsl:stylesheet>";

constexpr const char* kSweepStylesheet =
    "<xsl:stylesheet version=\"1.0\" "
    "xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">"
    "<xsl:template match=\"shop\"><out><xsl:apply-templates "
    "select=\".//order\"/></out></xsl:template>"
    "<xsl:template match=\"order\"><o><xsl:value-of select=\"item\"/></o>"
    "</xsl:template>"
    "<xsl:template match=\"text()\"/>"
    "</xsl:stylesheet>";

// One in-memory xsltmark family per entry; the shop database is separate.
struct Family {
  const char* family;
  int rows;
};
constexpr Family kFamilies[] = {{"deptfarm", 1000}, {"product", 8000},
                                {"sales", 8000},    {"sales", 2000},
                                {"db", 2000},       {"tree", 2000}};
constexpr int kShopDb = 6;  // index of the shop database after the families

struct RequestType {
  const char* name;
  int db;               // index into the workload's databases
  const char* view;
  const char* xsltmark;  // case name, or null for `stylesheet`
  const char* stylesheet;
  int per_cycle;
};

// per_cycle: set from each type's measured mean latency (dept 58 ms, avts
// 5.6, metric 3.0, chart 2.3, total 1.2, join 3.6, sweep 6.1, trend 2.9,
// backwards 5.3, wordcount 6.3 ms at four threads) so every type takes about
// 58 ms of a 168-request cycle.
const RequestType kTypes[] = {
    {"dept", 0, "deptfarm_view", nullptr, kDeptStylesheet, 1},
    {"avts", 1, "product_view", "avts", nullptr, 10},
    {"metric", 1, "product_view", "metric", nullptr, 19},
    {"chart", 2, "sales_view", "chart", nullptr, 25},
    {"total", 2, "sales_view", "total", nullptr, 48},
    {"join", kShopDb, kShopView, nullptr, kJoinStylesheet, 16},
    {"sweep", kShopDb, kShopView, nullptr, kSweepStylesheet, 9},
    {"trend", 3, "sales_view", "trend", nullptr, 20},
    {"backwards", 4, "db_view", "backwards", nullptr, 11},
    {"wordcount", 5, "tree_view", "wordcount", nullptr, 9},
};
constexpr size_t kTypeCount = sizeof(kTypes) / sizeof(kTypes[0]);

schema::StructuralInfo ShopStructure() {
  schema::StructureBuilder b;
  auto* shop = b.Element("shop");
  auto* customer = b.AddChild(shop, "customer", 0, -1);
  b.AddText(b.AddChild(customer, "name"));
  auto* order = b.AddChild(customer, "order", 0, -1);
  b.AddText(b.AddChild(order, "item"));
  return b.Build(shop);
}

// `total` orders spread over customers holding 1..15 orders each.
std::string ShopDocument(uint64_t seed, int total) {
  Rng rng = Rng(seed).Fork(5);
  std::string doc = "<shop>";
  int orders = 0;
  for (int c = 0; orders < total; ++c) {
    int n = std::min<int>(static_cast<int>(rng.Uniform(1, 15)), total - orders);
    doc += "<customer><name>c" + std::to_string(c) + "</name>";
    for (int o = 0; o < n; ++o) {
      doc += "<order><item>i" + std::to_string(rng.Uniform(0, 999999)) +
             "</item></order>";
    }
    doc += "</customer>";
    orders += n;
  }
  return doc + "</shop>";
}

uint64_t HashRows(const std::vector<std::string>& rows) {
  std::string joined;
  for (const std::string& r : rows) {
    joined += r;
    joined += '\n';
  }
  return core::Fnv1aHash(joined);
}

struct Database {
  std::unique_ptr<XmlDb> db;  // in-memory families
  std::unique_ptr<server::SessionManager> mgr;
  server::SessionPtr session;
};

struct TypeState {
  std::string stylesheet;
  uint64_t ref_hash = 0;
  ExecutionPath path = ExecutionPath::kFunctional;
  std::shared_ptr<const core::PreparedTransform> plan;  // traced run only
  uint64_t done = 0;
  double total_ms = 0;
};

}  // namespace

Outcome RunReport(const Args& args, Tracer* tracer) {
  Outcome out;
  TraceThread* main_t = tracer != nullptr ? tracer->NewThread() : nullptr;
  LayerAcc acc;
  EndToEnd e2e;
  e2e.lat_tail_q = kTailQuantile;
  std::vector<double> load_s, warm_s;
  const ExecOptions options = ExplicitOptions(/*threads=*/4);
  ExecOptions functional = options;
  functional.enable_rewrite = false;

  std::vector<Database> dbs;
  DurableDb shop;
  std::string shop_doc;
  std::vector<TypeState> types(kTypeCount);
  auto session_of = [&](const RequestType& t) -> server::Session* {
    return t.db == kShopDb ? shop.sessions[0].get()
                           : dbs[static_cast<size_t>(t.db)].session.get();
  };
  auto db_of = [&](const RequestType& t) -> XmlDb* {
    return t.db == kShopDb ? shop.db.get() : dbs[static_cast<size_t>(t.db)].db.get();
  };

  for (int rep = 0; rep < kSetups; ++rep) {
    dbs.clear();
    shop.Close();
    RemoveDataDir(shop.dir);
    const int64_t t0 = NowNs();
    Status st;
    for (const Family& f : kFamilies) {
      Database d;
      d.db = std::make_unique<XmlDb>();
      st = xsltmark::SetupFamily(d.db.get(), f.family, f.rows);
      if (!st.ok()) break;
      d.mgr = std::make_unique<server::SessionManager>(d.db.get(),
                                                       ManagerOptions(1, 1, 0));
      dbs.push_back(std::move(d));
    }
    shop_doc = ShopDocument(args.seed, kShopOrders);
    if (st.ok()) st = OpenDurableDb("report", ManagerOptions(1, 1, 0),
                                    BulkLoadDurability(), &shop);
    if (st.ok()) {
      st = shop.mgr->Apply(
          [&] { return shop.db->RegisterShreddedSchema(kShopView, ShopStructure()); });
    }
    if (st.ok()) st = RecordedLoad(&shop, kShopView, shop_doc, main_t, &acc);
    if (st.ok()) {
      const int64_t c0 = NowNs();
      st = shop.mgr->Checkpoint();
      RecordLoad(main_t, &acc, c0, NowNs(), nullptr, true);
    }
    const int64_t t1 = NowNs();
    for (Database& d : dbs) {
      if (!st.ok()) break;
      ScopedSpan span(main_t, "server.begin");
      auto s = d.mgr->Begin();
      st = s.status();
      if (st.ok()) d.session = std::move(*s);
    }
    if (st.ok()) st = BeginSessions(&shop, 1, main_t);
    if (!st.ok()) {
      out.Fail("report set-up: " + st.ToString());
      return out;
    }

    // References through plan C; the default plan must agree byte for byte.
    for (size_t i = 0; i < kTypeCount; ++i) {
      const RequestType& t = kTypes[i];
      TypeState& ts = types[i];
      ts.stylesheet = t.xsltmark != nullptr ? xsltmark::FindCase(t.xsltmark)->stylesheet
                                            : t.stylesheet;
      server::Session* session = session_of(t);
      ExecStats stats;
      int64_t r0 = NowNs();
      auto ref = session->Transform(t.view, ts.stylesheet, functional, &stats);
      if (main_t != nullptr) RecordRequest(main_t, &acc, r0, NowNs(), stats, ref);
      r0 = NowNs();
      auto got = session->Transform(t.view, ts.stylesheet, options, &stats);
      if (main_t != nullptr) RecordRequest(main_t, &acc, r0, NowNs(), stats, got);
      if (!ref.ok() || !got.ok() || *ref != *got) {
        out.Fail(std::string("type ") + t.name + ": plan " +
                 ExecutionPathName(stats.path) + " disagrees with plan C" +
                 (ref.ok() ? "" : " (" + ref.status().ToString() + ")") +
                 (got.ok() ? "" : " (" + got.status().ToString() + ")"));
        continue;
      }
      ts.ref_hash = HashRows(*ref);
      ts.path = stats.path;
      if (main_t != nullptr) {
        ExecOptions snap = options;
        snap.snapshot = session->snapshot().get();
        ts.plan = ReplayColdPrepare(db_of(t), t.view, ts.stylesheet, snap, main_t, &acc);
        if (ts.path != ExecutionPath::kSqlRewritten) {
          ReplayMaterialize(db_of(t), t.view, main_t);
        }
      }
      // One more warm request: the timed loop starts with full plan caches.
      auto warm = session->Transform(t.view, ts.stylesheet, options);
      if (!warm.ok() || HashRows(*warm) != ts.ref_hash) {
        out.Fail(std::string("warm-up of ") + t.name);
      }
    }
    const int64_t t2 = NowNs();
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    load_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    warm_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }

  // ---- timed phase: the weighted cycle in seeded order ------------------------
  std::vector<size_t> cycle;
  for (size_t i = 0; i < kTypeCount; ++i) {
    cycle.insert(cycle.end(), static_cast<size_t>(kTypes[i].per_cycle), i);
  }
  Rng order = Rng(args.seed).Fork(4);
  std::vector<core::PlanCache::Stats> cache0;
  for (Database& d : dbs) cache0.push_back(d.db->plan_cache()->stats());
  cache0.push_back(shop.db->plan_cache()->stats());
  TraceThread* loop_t = tracer != nullptr ? tracer->NewThread() : nullptr;
  if (loop_t != nullptr) loop_t->set_timed(true);
  LatencyLog lat;
  std::vector<double> traced_lat;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t loop_begin = NowNs();
  const int64_t start = loop_begin + kRampNs;
  const int64_t deadline = start + static_cast<int64_t>(args.seconds) * 1'000'000'000;
  size_t pos = cycle.size();
  ExecStats stats;
  while (true) {
    if (pos == cycle.size()) {
      for (size_t i = cycle.size(); i > 1; --i) {
        std::swap(cycle[i - 1], cycle[static_cast<size_t>(order.Uniform(0, static_cast<int64_t>(i) - 1))]);
      }
      pos = 0;
    }
    const size_t ti = cycle[pos++];
    const RequestType& t = kTypes[ti];
    TypeState& ts = types[ti];
    server::Session* session = session_of(t);
    const int64_t t0 = NowNs();
    if (t0 >= deadline) break;
    TraceThread* tt = loop_t != nullptr && TracedWindow(start, t0) ? loop_t : nullptr;
    if (tt != nullptr) tt->BeginRequest();
    auto r = session->Transform(t.view, ts.stylesheet, options, &stats);
    const int64_t t1 = NowNs();

    out.attempted += 1;
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    if (!r.ok() || HashRows(*r) != ts.ref_hash) {
      out.failed += 1;
      if (out.failed == 1) {
        out.notes.push_back(std::string("error: ") + t.name + " " +
                            (r.ok() ? "wrong output" : r.status().ToString()));
      }
    } else if (t0 >= start) {
      if (tt != nullptr) {
        traced_lat.push_back(ms);
      } else {
        lat.Add(t0 - start, ms);
      }
      ts.done += 1;
      ts.total_ms += ms;
    }
    if (loop_t != nullptr) {
      RecordRequest(tt, &acc, t0, t1, stats, r);
      if (tt != nullptr && r.ok()) {
        if (ts.path == ExecutionPath::kSqlRewritten && ts.plan != nullptr) {
          if (!ReplayPlanA(*ts.plan, session->snapshot().get(), *r, tt)) {
            out.notes.push_back(std::string("plan-A replay differs on ") + t.name);
          }
        } else {
          ReplayMaterialize(db_of(t), t.view, tt);
        }
      }
      if (tt != nullptr) tt->EndRequest();
    }
  }
  const double loop_s = static_cast<double>(NowNs() - loop_begin) / 1e9;
  const double cpu1 = ProcessCpuSeconds();
  e2e.seconds = args.seconds;
  e2e.lat.push_back(std::move(lat));
  if (out.failed > 0) out.correct = false;
  core::PlanCache::Stats cache_delta;
  for (size_t i = 0; i < dbs.size(); ++i) {
    AddCacheDelta(cache0[i], dbs[i].db->plan_cache()->stats(), &cache_delta);
  }
  AddCacheDelta(cache0.back(), shop.db->plan_cache()->stats(), &cache_delta);
  for (size_t i = 0; i < kTypeCount; ++i) {
    const TypeState& ts = types[i];
    char line[160];
    std::snprintf(line, sizeof(line), "type %s path %s requests %llu mean_ms %.3f",
                  kTypes[i].name, ExecutionPathName(ts.path),
                  static_cast<unsigned long long>(ts.done),
                  ts.done > 0 ? ts.total_ms / static_cast<double>(ts.done) : 0.0);
    out.notes.push_back(line);
  }

  // ---- storage, recovery (the shop database) -------------------------------------
  const wal::WalMetrics wal_metrics = shop.db->wal_metrics();
  e2e.stored_bytes_per_byte = static_cast<double>(StoredBytes(shop.dir)) /
                              static_cast<double>(shop_doc.size());
  shop.Close();
  DurabilitySamples dur;
  Status st = MeasureDurability(
      shop.durability, kShopView, ShopStructure(), shred::ShredOptions{},
      ShopDocument(args.seed, kProbeOrders),
      [&](XmlDb* db) {
        for (size_t i = 0; i < kTypeCount; ++i) {
          if (kTypes[i].db != kShopDb) continue;
          auto r = db->TransformView(kTypes[i].view, types[i].stylesheet, options);
          if (!r.ok() || HashRows(*r) != types[i].ref_hash) {
            return Status::Internal(std::string("the reopened shop database answers ") +
                                    kTypes[i].name + " differently");
          }
        }
        return Status::OK();
      },
      main_t, &acc, &dur);
  if (!st.ok()) out.Fail("durability phase: " + st.ToString());
  RemoveDataDir(shop.dir);
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
  in.cache_delta = cache_delta;
  in.wal = wal_metrics;
  in.src_bytes_logged = shop_doc.size();
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
