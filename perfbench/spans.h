// Wall-clock spans the benchmark records around each call it makes into a
// simulator layer (world build per layer, Start, the event loop sliced into
// warm-up and window, summarization, trace merge and export). Spans stay in
// memory and are written once, at the end of a run.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Spans {
 public:
  static constexpr int kNoParent = -1;

  Spans() : origin_(std::chrono::steady_clock::now()) {}

  // Opens a span and returns its id; `parent` is the id of the span that
  // caused it (kNoParent for a root).
  int Begin(std::string name, int parent = kNoParent) {
    spans_.push_back(Span{std::move(name), Now(), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end = Now(); }

  double Seconds(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end - s.start;
  }

  // {"spans": [{"name": .., "start_s": .., "end_s": .., "parent": ..}, ...]},
  // times in seconds since this recorder was created. Names are plain
  // identifiers, so they need no escaping.
  std::string ToJson() const {
    std::string out = "{\"spans\": [";
    char buf[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                    s.start, s.end, s.parent);
      out += (i == 0 ? "\n  {\"name\": \"" : ",\n  {\"name\": \"") + s.name +
             buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
