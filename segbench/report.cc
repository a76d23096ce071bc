#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace segbench {

double Samples::Percentile(double p) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p * static_cast<double>(values_.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string Report::ToText() const {
  std::string out;
  char buf[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-40s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Report::ToJsonObject() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit; JSON has no NaN/Inf, so map those to 0.
    const double v = std::isfinite(m.value) ? m.value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

namespace {

// A "Key:   123 kB" line of /proc/self/status, in MB.
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double RssMb() { return StatusMb("VmRSS:"); }
double PeakRssMb() { return StatusMb("VmHWM:"); }

}  // namespace segbench
