// Recognition service daemon: the long-running deployment shape of the
// paper's pipeline. A RecognitionService is stood up over the SNS1
// gallery; concurrent client threads submit queries with deadlines and
// the admission-controlled dispatcher coalesces them into sharded
// batches. The demo then injects a sustained NaN-score fault storm to
// trip the circuit breaker (watch replies flip to the degraded
// colour-only path), lifts the fault, and shows the breaker half-open
// probe restoring full-modality service after the cool-down.
//
// Run: ./build/examples/serve_daemon
//   --introspect-port P   serve /healthz /statusz /metricsz /tracez on
//                         127.0.0.1:P (0 = ephemeral; printed on stdout)
//   --linger-s S          keep the service (and introspection endpoints)
//                         up for S seconds after the demo phases finish

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "obs/introspect.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "util/fault.h"

namespace snor::serve {
namespace {

struct PhaseOutcome {
  int ok = 0;
  int degraded = 0;
  int errors = 0;
};

/// Drives `clients` threads, each submitting `per_client` queries with
/// the service's default deadline, and tallies the replies.
PhaseOutcome RunPhase(RecognitionService& service,
                      const std::vector<ImageFeatures>& queries, int clients,
                      int per_client) {
  std::vector<std::future<PhaseOutcome>> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.push_back(std::async(std::launch::async, [&, c] {
      PhaseOutcome tally;
      for (int i = 0; i < per_client; ++i) {
        const std::size_t pick =
            (static_cast<std::size_t>(c) * 131 + static_cast<std::size_t>(i)) %
            queries.size();
        const Result<ServiceReply> reply = service.Classify(queries[pick]);
        if (reply.ok()) {
          ++tally.ok;
          if (reply.value().degraded) ++tally.degraded;
        } else {
          ++tally.errors;
        }
      }
      return tally;
    }));
  }
  PhaseOutcome total;
  for (auto& w : workers) {
    const PhaseOutcome t = w.get();
    total.ok += t.ok;
    total.degraded += t.degraded;
    total.errors += t.errors;
  }
  return total;
}

void PrintPhase(const char* name, const PhaseOutcome& outcome,
                const ServiceStats& stats) {
  std::printf("%-28s ok=%-4d degraded=%-4d errors=%-3d "
              "(breaker state=%d, trips=%llu)\n",
              name, outcome.ok, outcome.degraded, outcome.errors,
              stats.breaker_state,
              static_cast<unsigned long long>(stats.breaker_trips));
}

struct DaemonConfig {
  /// -1 disables the introspection server; 0 binds an ephemeral port.
  int introspect_port = -1;
  /// Seconds to keep serving introspection after the demo phases.
  double linger_s = 0.0;
};

int Run(const DaemonConfig& daemon) {
  // Small-scale context: 48px canvas, 1% of the NYU-scale gallery keeps
  // the demo interactive.
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.01;
  ExperimentContext context(config);
  const std::vector<ImageFeatures> gallery = context.Sns1Features();

  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  spec.alpha = 0.3;
  spec.beta = 0.7;

  ServiceOptions options;
  options.default_deadline_ms = 2000.0;
  options.max_batch = 32;
  options.breaker.window = 64;
  options.breaker.min_samples = 16;
  options.breaker.cooldown_ms = 100.0;

  auto service = RecognitionService::Create(spec, gallery, options);
  if (!service.ok()) {
    std::fprintf(stderr, "serve_daemon: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::printf("service up: hybrid spec, %zu gallery features, degraded "
              "fallback %s\n\n",
              gallery.size(),
              service.value()->has_degraded_path() ? "colour-only"
                                                   : "none");

  // Live introspection (optional): tail-keep tracing feeds /tracez, the
  // service's /statusz handler reads stats + SLO burn rates. The server
  // is declared after `service` so it stops before the service dies.
  obs::IntrospectServer introspect;
  if (daemon.introspect_port >= 0) {
    obs::RequestTraceStore::Global().Enable({});
    RegisterServiceIntrospection(introspect, *service.value());
    if (!introspect.Start(daemon.introspect_port)) {
      std::fprintf(stderr, "serve_daemon: introspect: bind failed on %d\n",
                   daemon.introspect_port);
      return 1;
    }
    std::printf("introspect: listening on 127.0.0.1:%d\n\n",
                introspect.port());
    std::fflush(stdout);
  }

  // Queries: reuse gallery features as probes (self-recognition traffic).
  const std::vector<ImageFeatures>& queries = gallery;
  const int kClients = 4;
  const int kPerClient = 32;

  // Phase 1 — healthy traffic: everything OK on the primary path.
  PhaseOutcome healthy =
      RunPhase(*service.value(), queries, kClients, kPerClient);
  PrintPhase("phase 1 (healthy):", healthy, service.value()->stats());

  // Phase 2 — fault storm: every shape score is NaN-poisoned, so hybrid
  // classification collapses to a single modality on every request. The
  // breaker window saturates, trips open, and replies switch to the
  // degraded colour-only engine (immune to shape poisoning).
  {
    ScopedFault storm(FaultPoint::kNanScore, 1.0, 99);
    PhaseOutcome stormy =
        RunPhase(*service.value(), queries, kClients, kPerClient);
    PrintPhase("phase 2 (nan-score storm):", stormy,
               service.value()->stats());
    if (stormy.degraded == 0) {
      std::fprintf(stderr,
                   "serve_daemon: breaker never degraded under storm\n");
      return 1;
    }
  }

  // Phase 3 — recovery: fault lifted; after the cool-down the breaker
  // half-opens, probes the primary path, and closes on success.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  PhaseOutcome recovered =
      RunPhase(*service.value(), queries, kClients, kPerClient);
  const ServiceStats stats = service.value()->stats();
  PrintPhase("phase 3 (recovered):", recovered, stats);
  if (stats.breaker_state != 0) {
    std::fprintf(stderr, "serve_daemon: breaker did not re-close\n");
    return 1;
  }

  // Optional linger window for operators to curl the endpoints while the
  // service is still accepting traffic.
  if (daemon.linger_s > 0.0) {
    std::printf("\nlingering %.1fs (curl the introspection endpoints)...\n",
                daemon.linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(daemon.linger_s));
  }

  service.value()->Shutdown();
  const ServiceStats final_stats = service.value()->stats();
  std::printf("\nlifetime: submitted=%llu ok=%llu degraded=%llu "
              "timed_out=%llu failed=%llu batches=%llu trips=%llu\n",
              static_cast<unsigned long long>(final_stats.submitted),
              static_cast<unsigned long long>(final_stats.ok),
              static_cast<unsigned long long>(final_stats.degraded),
              static_cast<unsigned long long>(final_stats.timed_out),
              static_cast<unsigned long long>(final_stats.failed),
              static_cast<unsigned long long>(final_stats.batches),
              static_cast<unsigned long long>(final_stats.breaker_trips));
  if (final_stats.ok + final_stats.shed + final_stats.timed_out +
          final_stats.failed + final_stats.rejected !=
      final_stats.submitted) {
    std::fprintf(stderr, "serve_daemon: outcome accounting broken\n");
    return 1;
  }
  std::printf("every request answered exactly once; breaker tripped and "
              "recovered.\n");
  return 0;
}

}  // namespace
}  // namespace snor::serve

int main(int argc, char** argv) {
  snor::serve::DaemonConfig daemon;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--introspect-port") == 0) {
      daemon.introspect_port = static_cast<int>(
          std::strtol(next("--introspect-port"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--linger-s") == 0) {
      daemon.linger_s = std::strtod(next("--linger-s"), nullptr);
    } else {
      std::fprintf(stderr, "usage: %s [--introspect-port P] [--linger-s S]\n",
                   argv[0]);
      return 2;
    }
  }
  return snor::serve::Run(daemon);
}
