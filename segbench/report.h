// Latency samples, named metrics and the result line the benchmark prints.

#ifndef SEGBENCH_REPORT_H_
#define SEGBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace segbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// A bag of measurements (latencies in microseconds, mostly) with
// nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }
  // Nearest-rank percentile, p in [0, 1]; 0 when empty.
  double Percentile(double p);
  double Median() { return Percentile(0.5); }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// Ordered name -> (value, unit) list.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  void Add(const std::string& name, double value, const std::string& unit);
  // One aligned "name value unit" line per metric.
  std::string ToText() const;
  // {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJsonObject() const;

 private:
  std::vector<Metric> metrics_;
};

// Resident set size of this process in MB: current (VmRSS) and peak
// (VmHWM).
double RssMb();
double PeakRssMb();

// Ratio that reads 0 when the denominator is 0 (a layer the workload never
// reached).
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace segbench

#endif  // SEGBENCH_REPORT_H_
