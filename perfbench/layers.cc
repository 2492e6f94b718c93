#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "rel/optimizer.h"
#include "rel/snapshot.h"
#include "rewrite/xquery_rewriter.h"
#include "rewrite/xslt_rewriter.h"
#include "xml/dom.h"
#include "xslt/stylesheet.h"
#include "xslt/vm.h"

namespace xdb::perfbench {

void LayerAcc::Merge(const LayerAcc& o) {
  requests += o.requests;
  queue_depth_sum += o.queue_depth_sum;
  sheds += o.sheds;
  plan_a += o.plan_a;
  plan_a_index += o.plan_a_index;
  result_rows += o.result_rows;
  work_rows += o.work_rows;
  q_error_sum += o.q_error_sum;
  q_error_n += o.q_error_n;
  out_bytes += o.out_bytes;
  threads_used_sum += o.threads_used_sum;
  par_tasks_sum += o.par_tasks_sum;
  ticks_sum += o.ticks_sum;
  mem_peak_max = std::max(mem_peak_max, o.mem_peak_max);
  prepare_other_ns += o.prepare_other_ns;
  cold_replays += o.cold_replays;
  load_bytes += o.load_bytes;
  parse_ns += o.parse_ns;
  shred_ns += o.shred_ns;
  insert_ns += o.insert_ns;
  ckpt_call_ns += o.ckpt_call_ns;
  ckpt_calls += o.ckpt_calls;
}

namespace {

// max(est/actual, actual/est), both floored at one row.
double QError(double est, double actual) {
  est = std::max(est, 1.0);
  actual = std::max(actual, 1.0);
  return std::max(est / actual, actual / est);
}

}  // namespace

void RecordRequest(TraceThread* t, LayerAcc* acc, int64_t t0, int64_t t1,
                   const ExecStats& s,
                   const Result<std::vector<std::string>>& result) {
  acc->requests += 1;
  acc->queue_depth_sum += s.admission_queue_depth;
  if (t != nullptr) {
    size_t h = t->Open("server.request", t0);
    t->AddDerived({{s.cache_hit ? "plan_cache.hit" : "core.prepare_miss",
                    s.prepare_ns}},
                  t0, t1);
    const char* exec = s.path == ExecutionPath::kSqlRewritten
                           ? "core.execute"
                           : "functional.exec";
    t->AddDerived({{exec, s.execute_ns}},
                  std::max(t0 + s.prepare_ns, t1 - s.execute_ns), t1);
    t->Close(h, t1);
  }
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kResourceExhausted) acc->sheds += 1;
    return;
  }
  for (const std::string& row : *result) acc->out_bytes += row.size();
  acc->threads_used_sum += static_cast<uint64_t>(s.threads_used);
  acc->par_tasks_sum += s.parallel_tasks;
  acc->ticks_sum += s.ticks;
  acc->mem_peak_max = std::max(acc->mem_peak_max, s.mem_peak_bytes);
  if (s.path != ExecutionPath::kSqlRewritten) return;
  acc->plan_a += 1;
  if (s.used_index) acc->plan_a_index += 1;
  const double rows = static_cast<double>(result->size());
  acc->result_rows += result->size();
  acc->work_rows += s.join_build_rows + s.join_probe_rows + s.join_match_rows +
                    s.structural_match_rows;
  // The plan runs once per base row, so per-execution estimates scale by
  // the row count before they meet the summed runtime counters.
  double q = 0;
  if (!s.joins.empty() && s.join_probe_rows > 0) {
    double est_matches = 0;
    for (const rel::JoinChoice& j : s.joins) {
      est_matches += j.est_probe_rows * j.est_match_rows;
    }
    q = std::max(q, QError(est_matches * rows,
                           static_cast<double>(s.join_match_rows)));
  }
  if (s.structural_joins > 0) {
    q = std::max(q, QError(static_cast<double>(s.structural_est_rows),
                           static_cast<double>(s.structural_match_rows)));
  }
  if (q > 0) {
    acc->q_error_sum += q;
    acc->q_error_n += 1;
  }
}

void RecordLoad(TraceThread* t, LayerAcc* acc, int64_t t0, int64_t t1,
                const shred::LoadStats* loaded, bool checkpointed) {
  if (checkpointed) {
    acc->ckpt_call_ns += t1 - t0;
    acc->ckpt_calls += 1;
  }
  if (loaded != nullptr) {
    acc->load_bytes += loaded->bytes;
    acc->parse_ns += loaded->parse_ns;
    acc->shred_ns += loaded->shred_ns;
    acc->insert_ns += loaded->insert_ns;
  }
  if (t == nullptr) return;
  size_t h = t->Open(loaded != nullptr ? "server.load" : "server.checkpoint", t0);
  if (loaded != nullptr) {
    t->AddDerived({{"shred.parse", loaded->parse_ns},
                   {"shred.shred", loaded->shred_ns},
                   {"shred.insert", loaded->insert_ns},
                   {"wal.commit", loaded->commit_latency_us * 1000}},
                  t0, t1);
  }
  t->Close(h, t1);
}

std::shared_ptr<const core::PreparedTransform> ReplayColdPrepare(
    XmlDb* db, const std::string& view, const std::string& text,
    ExecOptions options, TraceThread* t, LayerAcc* acc) {
  options.use_plan_cache = false;
  std::shared_ptr<const core::PreparedTransform> prepared;
  const int64_t cold_start = NowNs();
  {
    ScopedSpan span(t, "core.prepare_cold");
    auto p = db->PrepareTransform(view, text, options);
    if (p.ok()) prepared = *p;
  }
  const int64_t cold_ns = NowNs() - cold_start;

  int64_t parts_ns = 0;
  auto timed = [&](const char* name, auto&& call) {
    int64_t s0 = NowNs();
    auto r = call();
    int64_t s1 = NowNs();
    if (t != nullptr) t->Add(name, s0, s1);
    parts_ns += s1 - s0;
    return r;
  };
  auto v = db->catalog()->GetView(view);
  auto parsed = timed("xslt.parse", [&] { return xslt::Stylesheet::Parse(text); });
  if (v.ok() && (*v)->is_publishing() && parsed.ok()) {
    const rel::XmlView& pub = **v;
    auto compiled = timed("xslt.compile", [&] {
      return xslt::CompiledStylesheet::Compile(**parsed);
    });
    if (compiled.ok() && options.enable_rewrite) {
      rewrite::RewriteReport report;
      auto query = timed("rewrite.xslt2xq", [&] {
        return rewrite::RewriteXsltToXQuery(**compiled, &pub.info->structure,
                                            options.xslt, &report);
      });
      if (query.ok() && options.enable_sql_rewrite) {
        auto sql = timed("rewrite.xq2sql", [&] {
          return rewrite::RewriteXQueryToSql(*query, pub, *db->catalog());
        });
        if (sql.ok()) {
          timed("optimizer.run", [&] {
            rel::Optimizer optimizer(options.optimizer, db->catalog());
            return optimizer.Run(std::move(sql->expr));
          });
        }
      }
    }
  }
  acc->prepare_other_ns += cold_ns - parts_ns;
  acc->cold_replays += 1;
  return prepared;
}

bool ReplayPlanA(const core::PreparedTransform& prepared,
                 const rel::Snapshot* snapshot,
                 const std::vector<std::string>& expected, TraceThread* t) {
  rel::TableRead base(prepared.base, snapshot);
  const size_t n = base.row_count();
  // Each row's value lives in its own arena until it is serialized.
  std::vector<std::unique_ptr<xml::Document>> arenas;
  std::vector<rel::Datum> values;
  arenas.reserve(n);
  values.reserve(n);
  bool ok = true;
  {
    ScopedSpan span(t, "exec.eval");
    for (size_t i = 0; i < n; ++i) {
      arenas.push_back(std::make_unique<xml::Document>());
      rel::ExecCtx ctx;
      ctx.arena = arenas.back().get();
      ctx.snapshot = snapshot;
      ctx.rows.push_back(&base.row(static_cast<int64_t>(i)));
      auto d = prepared.sql_expr->Eval(ctx);
      if (!d.ok()) {
        ok = false;
        break;
      }
      values.push_back(d.MoveValue());
    }
  }
  std::vector<std::string> rows;
  rows.reserve(values.size());
  {
    ScopedSpan span(t, "xml.serialize");
    for (const rel::Datum& d : values) rows.push_back(SerializeValue(d));
  }
  return ok && rows == expected;
}

void ReplayMaterialize(XmlDb* db, const std::string& view, TraceThread* t) {
  ScopedSpan span(t, "functional.materialize");
  (void)db->MaterializeView(view);
}

void AddCacheDelta(const core::PlanCache::Stats& before,
                   const core::PlanCache::Stats& after, core::PlanCache::Stats* delta) {
  delta->hits += after.hits - before.hits;
  delta->misses += after.misses - before.misses;
  delta->evictions += after.evictions - before.evictions;
}

void SetTracingOverhead(const std::vector<LatencyLog>& untraced,
                        const std::vector<double>& traced_ms, LayerInputs* in) {
  const std::vector<double> plain = AllLatencies(untraced);
  const double n = static_cast<double>(plain.size());
  in->overhead_req = n > 0 ? 1.0 - static_cast<double>(traced_ms.size()) / n : 0;
  const double p50 = Median(plain);
  in->overhead_p50 = p50 > 0 ? Median(traced_ms) / p50 - 1.0 : 0;
}

void AddLayerMetrics(const LayerInputs& in, Outcome* out) {
  const std::map<std::string, SpanTotals> spans = in.tracer->Summarize(false);
  auto mean_ns = [&](const char* name) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) /
           static_cast<double>(it->second.count);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const LayerAcc& a = in.acc;
  const double reqs = static_cast<double>(a.requests);
  const double load_mib = MiB(static_cast<double>(a.load_bytes));

  out->Add("server.begin_us", mean_ns("server.begin") / 1e3, "us");
  out->Add("server.queue_depth_mean",
           ratio(static_cast<double>(a.queue_depth_sum), reqs), "count");
  out->Add("server.sheds", static_cast<double>(a.sheds), "count");
  out->Add("server.publishes", static_cast<double>(in.publishes), "count");
  out->Add("server.live_epochs_max", static_cast<double>(in.live_epochs_max),
           "count");
  out->Add("plan_cache.hit_ratio",
           ratio(static_cast<double>(in.cache_delta.hits),
                 static_cast<double>(in.cache_delta.hits + in.cache_delta.misses)),
           "ratio");
  out->Add("plan_cache.evictions", static_cast<double>(in.cache_delta.evictions),
           "count");
  out->Add("plan_cache.hit_us", mean_ns("plan_cache.hit") / 1e3, "us");
  out->Add("core.prepare_cold_us", mean_ns("core.prepare_cold") / 1e3, "us");
  out->Add("core.prepare_other_us",
           ratio(static_cast<double>(a.prepare_other_ns),
                 static_cast<double>(a.cold_replays)) / 1e3,
           "us");
  out->Add("xslt.parse_us", mean_ns("xslt.parse") / 1e3, "us");
  out->Add("xslt.compile_us", mean_ns("xslt.compile") / 1e3, "us");
  out->Add("rewrite.xslt2xq_us", mean_ns("rewrite.xslt2xq") / 1e3, "us");
  out->Add("rewrite.xq2sql_us", mean_ns("rewrite.xq2sql") / 1e3, "us");
  out->Add("optimizer.run_us", mean_ns("optimizer.run") / 1e3, "us");
  out->Add("optimizer.q_error",
           ratio(a.q_error_sum, static_cast<double>(a.q_error_n)), "ratio");
  out->Add("exec.eval_ms", mean_ns("exec.eval") / 1e6, "ms");
  out->Add("exec.rows_per_out_row",
           ratio(static_cast<double>(a.work_rows),
                 static_cast<double>(a.result_rows)),
           "ratio");
  out->Add("exec.index_frac",
           ratio(static_cast<double>(a.plan_a_index), static_cast<double>(a.plan_a)),
           "ratio");
  out->Add("xml.serialize_ms", mean_ns("xml.serialize") / 1e6, "ms");
  out->Add("xml.out_bytes_per_req", ratio(static_cast<double>(a.out_bytes), reqs),
           "bytes");
  out->Add("functional.exec_ms", mean_ns("functional.exec") / 1e6, "ms");
  out->Add("functional.materialize_ms", mean_ns("functional.materialize") / 1e6,
           "ms");
  out->Add("task_graph.threads_used",
           ratio(static_cast<double>(a.threads_used_sum), reqs), "count");
  out->Add("task_graph.par_tasks_per_req",
           ratio(static_cast<double>(a.par_tasks_sum), reqs), "count");
  out->Add("task_graph.cpu_util", in.cpu_util, "ratio");
  out->Add("governor.ticks_per_req", ratio(static_cast<double>(a.ticks_sum), reqs),
           "count");
  out->Add("governor.mem_peak_mb", MiB(static_cast<double>(a.mem_peak_max)),
           "MiB");
  out->Add("shred.parse_ms_per_mb",
           ratio(static_cast<double>(a.parse_ns) / 1e6, load_mib), "ms/MiB");
  out->Add("shred.shred_ms_per_mb",
           ratio(static_cast<double>(a.shred_ns) / 1e6, load_mib), "ms/MiB");
  out->Add("shred.insert_ms_per_mb",
           ratio(static_cast<double>(a.insert_ns) / 1e6, load_mib), "ms/MiB");
  const double commits = static_cast<double>(in.wal.commits);
  out->Add("wal.commit_us",
           ratio(static_cast<double>(in.wal.commit_latency_us), commits), "us");
  out->Add("wal.fsyncs_per_commit",
           ratio(static_cast<double>(in.wal.fsyncs), commits), "ratio");
  out->Add("wal.bytes_per_src_byte",
           ratio(static_cast<double>(in.wal.wal_bytes),
                 static_cast<double>(in.src_bytes_logged)),
           "ratio");
  out->Add("wal.checkpoints", static_cast<double>(in.wal.checkpoints), "count");
  out->Add("wal.ckpt_load_ms",
           ratio(static_cast<double>(a.ckpt_call_ns) / 1e6,
                 static_cast<double>(a.ckpt_calls)),
           "ms");
  out->Add("wal.replayed_records", static_cast<double>(in.replayed_records),
           "count");
  out->Add("setup.load_s", in.setup_load_s, "s");
  out->Add("setup.warm_s", in.setup_warm_s, "s");
  out->Add("trace.overhead_req_frac", in.overhead_req, "ratio");
  out->Add("trace.overhead_p50_frac", in.overhead_p50, "ratio");
}

const std::vector<LayerGroup>& DominanceGroups() {
  static const std::vector<LayerGroup> groups = {
      {"server", {"server.begin", "server.request", "server.load"}},
      {"plan_cache", {"plan_cache.hit"}},
      {"prepare",
       {"core.prepare_miss", "core.prepare_cold", "xslt.parse", "xslt.compile",
        "rewrite.xslt2xq", "rewrite.xq2sql", "optimizer.run"}},
      {"rel.exec", {"exec.eval"}},
      {"xml.serialize", {"xml.serialize"}},
      {"functional", {"functional.exec", "functional.materialize"}},
      {"shred", {"shred.parse", "shred.shred", "shred.insert"}},
      {"wal", {"wal.commit"}},
  };
  return groups;
}

bool WriteLayerTable(const std::string& path, const std::string& workload,
                     uint64_t seed, const Tracer& tracer,
                     const std::vector<Metric>& metrics) {
  const std::map<std::string, SpanTotals> spans = tracer.Summarize(true);
  int64_t total_self = 0;
  for (const auto& [name, tot] : spans) total_self += tot.self_ns;
  auto share = [&](int64_t ns) {
    return total_self > 0 ? static_cast<double>(ns) / static_cast<double>(total_self)
                          : 0.0;
  };
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"format\": \"perfbench-layers v1\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n  \"seed\": %llu,\n", workload.c_str(),
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"timed_self_us\": %.3f,\n",
               static_cast<double>(total_self) / 1e3);
  std::fprintf(f, "  \"spans\": {\n");
  size_t i = 0;
  for (const auto& [name, tot] : spans) {
    std::fprintf(f,
                 "    \"%s\": {\"count\": %llu, \"total_us\": %.3f, "
                 "\"self_us\": %.3f, \"self_share\": %.6f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(tot.count),
                 static_cast<double>(tot.total_ns) / 1e3,
                 static_cast<double>(tot.self_ns) / 1e3, share(tot.self_ns),
                 ++i < spans.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"groups\": {\n");
  const auto& groups = DominanceGroups();
  for (size_t g = 0; g < groups.size(); ++g) {
    int64_t ns = 0;
    for (const char* s : groups[g].spans) {
      auto it = spans.find(s);
      if (it != spans.end()) ns += it->second.self_ns;
    }
    std::fprintf(f, "    \"%s\": %.6f%s\n", groups[g].layer, share(ns),
                 g + 1 < groups.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"metrics\": {\n");
  for (size_t m = 0; m < metrics.size(); ++m) {
    std::fprintf(f, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                 metrics[m].name.c_str(), metrics[m].value,
                 metrics[m].unit.c_str(), m + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace xdb::perfbench
