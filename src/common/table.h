// ASCII table rendering for benchmark output. Every figure bench prints
// its rows through this so output is uniform and machine-parsable.

#ifndef SKYWALKER_COMMON_TABLE_H_
#define SKYWALKER_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace skywalker {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Appends a row; pads/truncates to the header width.
  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 2);

  std::string ToAscii() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_TABLE_H_
