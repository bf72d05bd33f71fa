// Output and correctness bookkeeping shared by the benchmark's two modes.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "world.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Failed correctness checks, printed as they happen.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

double Median(std::vector<double> values);
// Peak resident memory of this process so far.
double PeakRssMb();
// Prints "name: median m (q1 a, q3 b; n=k; min x, max y)".
void PrintSpread(const std::string& name, std::vector<double> values);

// The served metrics, in the order BENCHMARK.json lists them.
std::vector<Metric> ServedMetrics(const Served& served);

// Request conservation within one call: nothing is in flight below zero and
// clients never issued fewer requests than the balancers accepted.
void CheckRep(const WorkloadSpec& spec, const RepResult& rep, Checks* checks);

// The workload's shape, one line.
void PrintWorkload(const WorkloadSpec& spec, uint64_t seed);
// One world: requests sent, succeeded and failed per phase, what is still in
// flight, and the workload's character (forwarded share, preemptions,
// eviction victims, hit rate).
void PrintWorld(uint64_t world_seed, const RepResult& rep);
void PrintServed(const Served& served);

// The last line of standard output. A failed check marks every attempted
// request failed.
void PrintResult(const Checks& checks, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
