#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// printed quartiles match the spread BENCHMARK.json's bounds are judged by.
double Quartile(const std::vector<double>& sorted, int which) {
  const double n = static_cast<double>(sorted.size());
  if (sorted.size() < 2) {
    return sorted.empty() ? 0.0 : sorted[0];
  }
  const double m = which * (n + 1) / 4.0;
  const int j = std::clamp(static_cast<int>(std::floor(m)), 1,
                           static_cast<int>(sorted.size()) - 1);
  const double delta = m - j;
  return sorted[static_cast<size_t>(j - 1)] +
         delta * (sorted[static_cast<size_t>(j)] - sorted[static_cast<size_t>(j - 1)]);
}

}  // namespace

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintSpread(const std::string& name, std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) {
    return;
  }
  std::printf("%s: median %.6g (q1 %.6g, q3 %.6g; n=%zu; min %.6g, max %.6g)\n",
              name.c_str(), Median(values), Quartile(values, 1),
              Quartile(values, 3), values.size(), values.front(),
              values.back());
}

std::vector<Metric> ServedMetrics(const Served& served) {
  return {
      {"served_ttft_p50_ms", served.ttft_p50_ms, "ms"},
      {"served_ttft_p999_ms", served.ttft_p999_ms, "ms"},
      {"served_tpot_p50_ms", served.tpot_p50_ms, "ms"},
      {"served_tpot_p999_ms", served.tpot_p999_ms, "ms"},
      {"served_tok_s", served.tok_s, "tok/s"},
      {"served_slo_frac", served.slo_frac, "frac"},
      {"served_ok_frac", served.ok_frac, "frac"},
  };
}

void CheckRep(const WorkloadSpec& spec, const RepResult& rep, Checks* checks) {
  for (const Counts* c : {&rep.warmup, &rep.total}) {
    checks->Expect(c->InFlight() >= 0,
                   spec.name + ": more requests succeeded or failed than "
                               "balancers accepted");
    checks->Expect(c->issued < 0 || c->issued >= c->sent,
                   spec.name + ": balancers accepted more requests than "
                               "clients issued");
  }
  checks->Expect(rep.served.ttft_samples > 0,
                 spec.name + ": no request completed in the window");
}

void PrintWorkload(const WorkloadSpec& spec, uint64_t seed) {
  int chat = 0;
  for (int n : spec.chat_clients_per_region) {
    chat += n;
  }
  const std::string sim =
      spec.num_shards > 0 ? std::to_string(spec.num_shards) + " shards / " +
                                std::to_string(spec.num_threads) + " threads"
                          : "plain simulator";
  std::printf(
      "workload %s seed %llu: %zu region(s), %d replicas, %d chat + %d ToT "
      "clients, %s, warm-up %.0f s + window %.0f s, %d world(s) per seed\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed),
      spec.topology.num_regions(), spec.total_replicas(), chat,
      spec.tot_clients, sim.c_str(), skywalker::ToSeconds(spec.warmup),
      skywalker::ToSeconds(spec.measure), spec.worlds);
}

void PrintWorld(uint64_t world_seed, const RepResult& rep) {
  const Counts window = rep.total.Minus(rep.warmup);
  std::printf("world %llu: %zu events\n",
              static_cast<unsigned long long>(world_seed), rep.events);
  for (const auto& [phase, c] :
       {std::make_pair("warmup", rep.warmup), std::make_pair("window", window)}) {
    std::printf("  phase %s: sent %lld succeeded %lld failed %lld vanished %lld",
                phase, static_cast<long long>(c.sent),
                static_cast<long long>(c.succeeded),
                static_cast<long long>(c.failed),
                static_cast<long long>(c.vanished));
    if (c.issued >= 0) {
      std::printf(" (clients issued %lld)", static_cast<long long>(c.issued));
    }
    std::printf("\n");
  }
  std::printf(
      "  in flight at the end %lld; character: forwarded %.4f, preemptions "
      "%lld, eviction victims %lld, hit rate %.4f\n",
      static_cast<long long>(rep.total.InFlight()),
      rep.character.forwarded_frac,
      static_cast<long long>(rep.character.preemptions),
      static_cast<long long>(rep.character.evict_victims),
      rep.character.hit_rate);
}

void PrintServed(const Served& s) {
  std::printf(
      "served: ttft p50 %.3f ms, p99.9 %.3f ms (n=%lld, %lld beyond p99.9); "
      "tpot p50 %.3f ms, p99.9 %.3f ms (n=%lld); %.1f tok/s; slo %.4f; ok "
      "%.6f\n",
      s.ttft_p50_ms, s.ttft_p999_ms,
      static_cast<long long>(s.ttft_samples),
      static_cast<long long>(s.ttft_samples / 1000), s.tpot_p50_ms,
      s.tpot_p999_ms, static_cast<long long>(s.tpot_samples), s.tok_s,
      s.slo_frac, s.ok_frac);
}

void PrintResult(const Checks& checks, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  bool correct = checks.ok();
  std::string body;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      correct = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    body += buf;
  }
  attempted = std::max<int64_t>(attempted, 1);
  if (!correct) {
    failed = attempted;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), body.c_str());
}

}  // namespace perfbench
