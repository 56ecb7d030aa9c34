// perfbench: the repository benchmark binary.
//
//   perfbench --workload <patrol|serve_light|serve_saturate|serve_overload>
//             --seed <n> --seconds <s> --trace <0|1> [--quick]
//
// Generates the workload's inputs from the seed before any clock starts,
// measures for the given number of seconds, checks every output against
// a cold reference, prints a metric table (name, value, unit, samples),
// a `perfbench-checks` diagnostics line, and as the last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics, a traced run the per-layer metrics.
// Exits 0 when every check held, 1 on a violation, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

/// Which workloads a metric applies to (a bit set).
enum Scope : unsigned {
  kPatrol = 1,
  kClosedService = 2,  // serve_saturate
  kOpenService = 4,    // serve_light, serve_overload
  kService = kClosedService | kOpenService,
  kAll = kPatrol | kService,
};

Scope ScopeOf(const std::string& workload) {
  if (workload == "patrol") return kPatrol;
  return workload == "serve_saturate" ? kClosedService : kOpenService;
}

struct MetricName {
  const char* name;
  const char* unit;
  unsigned scope;
};

/// Every metric the benchmark defines, in output order. A workload must
/// report exactly the metrics whose scope includes it; a traced run's
/// JSON still lists every per-layer metric, the others reading 0 (n/a).
constexpr MetricName kEndToEnd[] = {
    {"goodput_per_s", "1/s", kAll},  {"latency_p50_ms", "ms", kAll},
    {"latency_p99_ms", "ms", kAll},  {"ok_fraction", "fraction", kAll},
    {"setup_s", "s", kAll},          {"rss_mb", "MiB", kAll},
};

constexpr MetricName kPerLayer[] = {
    {"core.feature_cache.gallery_extract_ms", "ms", kAll},
    {"serve.service.create_ms", "ms", kService},
    {"core.classifiers.build_ms", "ms", kPatrol},
    {"core.segmentation.frame_us", "us", kPatrol},
    {"core.segmentation.regions_per_frame", "count", kPatrol},
    {"core.feature_cache.region_us", "us", kPatrol},
    {"core.feature_cache.valid_ratio", "ratio", kPatrol},
    {"core.preprocess.region_us", "us", kPatrol},
    {"core.classifiers.region_us", "us", kPatrol},
    {"serve.request_queue.wait_ms_p50", "ms", kService},
    {"serve.request_queue.wait_ms_p99", "ms", kService},
    {"serve.request_queue.shed_fraction", "fraction", kService},
    {"serve.request_queue.submit_us", "us", kService},
    {"serve.service.post_queue_ms_p50", "ms", kService},
    {"serve.service.batch_size_mean", "count", kService},
    {"serve.batch_engine.batch_ms_mean", "ms", kService},
    {"serve.batch_engine.query_us_b1", "us", kService},
    {"serve.batch_engine.query_us_b16", "us", kService},
    {"serve.batch_engine.useful_ratio", "ratio", kService},
    {"util.parallel.spawn_wait_us_mean", "us", kService},
    {"util.parallel.items_per_request", "count", kService},
    {"bench.gen_late_ms_p99", "ms", kOpenService},
    {"bench.host_ref_ms", "ms", kAll},
    {"bench.trace_overhead_pct", "%", kAll},
    {"bench.unaccounted_pct", "%", kAll},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <patrol|serve_light|serve_saturate|"
               "serve_overload> --seed N --seconds S --trace 0|1 [--quick]\n",
               argv0);
  return 2;
}

/// Orders `reported` like `names` and fills the metrics outside the
/// workload's scope with 0 (marked n/a). A metric in scope that is
/// missing, one out of scope or unknown that was reported, a wrong unit
/// or a non-finite value is an error.
template <std::size_t N>
void Canonicalize(const MetricName (&names)[N], Scope scope,
                  std::vector<Metric>& reported, Report& report) {
  std::vector<Metric> out;
  for (const MetricName& want : names) {
    const Metric* found = nullptr;
    for (const Metric& m : reported) {
      if (m.name == want.name) found = &m;
    }
    const bool applies = (want.scope & scope) != 0;
    if (found == nullptr) {
      if (applies) report.Error(std::string("metric ") + want.name + " missing");
      out.push_back(Metric{want.name, 0.0, want.unit, 0, "n/a on this workload"});
      continue;
    }
    if (!applies) {
      report.Error("metric " + found->name + " reported out of its scope");
    }
    if (found->unit != want.unit) {
      report.Error("metric " + found->name + " reported in " + found->unit +
                   ", defined in " + want.unit);
    }
    if (!std::isfinite(found->value)) {
      report.Error("metric " + found->name + " is not finite");
    }
    out.push_back(*found);
  }
  for (const Metric& m : reported) {
    bool known = false;
    for (const MetricName& want : names) known = known || m.name == want.name;
    if (!known) report.Error("metric " + m.name + " is not defined");
  }
  reported = std::move(out);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %-8s n=%-8llu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str());
  }
}

/// JSON string literal for names/units/messages (escapes quotes,
/// backslashes and control characters).
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* flag = argv[i];
    if (std::strcmp(flag, "--quick") == 0) {
      config.quick = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(argv[0]);
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = v;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && config.seconds > 0.0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      config.trace = std::strcmp(v, "1") == 0;
    } else {
      return Usage(argv[0]);
    }
  }
  const bool known =
      config.workload == "patrol" || IsServingWorkload(config.workload);
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !known) {
    return Usage(argv[0]);
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.quick ? " (quick)" : "");
  std::fflush(stdout);

  Report report;
  const double host_ref_ms = HostReferenceMs();
  if (config.workload == "patrol") {
    RunPatrol(config, report);
  } else {
    RunServing(config, report);
  }
  report.Layer("bench.host_ref_ms", host_ref_ms, "ms", 7);

  const Scope scope = ScopeOf(config.workload);
  // Only the set this run reports is checked; set-up also records a few
  // per-layer values in an untraced run.
  if (config.trace) {
    Canonicalize(kPerLayer, scope, report.per_layer, report);
  } else {
    Canonicalize(kEndToEnd, scope, report.end_to_end, report);
  }
  if (report.attempted == 0) report.Error("no operation attempted");
  if (report.label_checks == 0) report.Error("no output was checked");
  if (IsServingWorkload(config.workload) && report.accounting_checks == 0) {
    report.Error("exactly-once accounting was not reconciled");
  }
  const bool correct = report.errors.empty() && report.failed == 0;

  if (!config.trace) PrintTable("end-to-end (untraced)", report.end_to_end);
  if (config.trace) PrintTable("per-layer (traced)", report.per_layer);
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("perfbench-checks {\"label_checks\": %llu, "
              "\"accounting_checks\": %llu, \"errors\": %zu}\n",
              static_cast<unsigned long long>(report.label_checks),
              static_cast<unsigned long long>(report.accounting_checks),
              report.errors.size());

  const std::vector<Metric>& metrics =
      config.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += Quote(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": " +
            Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
