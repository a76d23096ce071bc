// Rule-lock indexing (paper Section 2.2): database rules guarded by
// predicates over a single attribute are indexed as 1-D intervals (range
// predicates) and points (equality predicates) in one index — the
// one-dimensional special case of the SR-Tree.
//
// Example rules over EMP.salary:
//   Rule 1: 10k < salary <= 20k  -> office has at least 1 window
//   Rule 2: salary == 100k       -> office has at least 4 windows
//
// An incoming tuple's salary is a stabbing query: every rule whose
// predicate interval contains the value must fire. The example also
// cross-checks every stab against a brute-force scan of the rule base
// (oracle::NaiveOracle) and exits 1 on any disagreement.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/interval_index.h"
#include "oracle/naive_oracle.h"

using namespace segidx;

namespace {

struct Rule {
  Interval predicate;  // [lo, hi]; a point for equality predicates.
  std::string action;
};

// A 1-D predicate or probe value as a rect: the K=1 special case of the
// SR-Tree, with a degenerate Y coordinate.
Rect OnLine(const Interval& x) { return Rect(x, Interval::Point(0)); }

}  // namespace

int main() {
  // A rule base: salary bands (HR policies) plus equality triggers.
  std::vector<Rule> rules;
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    if (i % 5 == 0) {
      const double v = 1000.0 * rng.UniformInt(10, 300);
      rules.push_back({Interval::Point(v), "audit exact salary " +
                                               std::to_string(v)});
    } else {
      const double lo = rng.Uniform(10000, 250000);
      const double width = rng.Exponential(20000, 100000);
      rules.push_back({Interval(lo, lo + width),
                       "band rule " + std::to_string(i)});
    }
  }
  // The paper's two illustrative rules.
  rules.push_back({Interval(10000.000001, 20000), "office: >= 1 window"});
  rules.push_back({Interval::Point(100000), "office: >= 4 windows"});

  // Index every predicate in a 1-D SR-Tree, and in the brute-force oracle
  // it is checked against.
  core::IndexOptions options;
  auto index =
      core::IntervalIndex::CreateInMemory(core::IndexKind::kSRTree, options)
          .value();
  oracle::NaiveOracle oracle;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (auto st = index->Insert(OnLine(rules[i].predicate), i); !st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
    oracle.Insert(OnLine(rules[i].predicate), i);
  }

  // The rules a salary fires, sorted; false (after printing why) when the
  // search fails or disagrees with the oracle.
  auto fire = [&](double salary, std::vector<TupleId>* fired,
                  uint64_t* nodes) {
    const Rect probe = OnLine(Interval::Point(salary));
    if (auto st = index->SearchTuples(probe, fired, nodes); !st.ok()) {
      std::fprintf(stderr, "search failed: %s\n", st.ToString().c_str());
      return false;
    }
    std::sort(fired->begin(), fired->end());
    if (*fired != oracle.Search(probe)) {
      std::fprintf(stderr, "BUG: SR-Tree disagrees with the oracle at %f\n",
                   salary);
      return false;
    }
    return true;
  };

  std::printf("indexed %zu rule predicates (1-D SR-Tree, height %d, "
              "%llu spanning records)\n\n",
              rules.size(), index->height(),
              static_cast<unsigned long long>(
                  index->tree_stats().spanning_placed));

  // Fire rules for a few incoming tuples.
  for (double salary : {15000.0, 100000.0, 237500.0}) {
    std::vector<TupleId> fired;
    uint64_t nodes = 0;
    if (!fire(salary, &fired, &nodes)) return 1;
    std::printf("salary %8.0f fires %3zu rules (%llu index nodes):\n",
                salary, fired.size(), static_cast<unsigned long long>(nodes));
    int shown = 0;
    for (TupleId tid : fired) {
      if (rules[tid].action.rfind("office", 0) == 0) {
        std::printf("    -> %s\n", rules[tid].action.c_str());
        ++shown;
      }
    }
    if (shown == 0) std::printf("    (band/audit rules only)\n");
  }

  // Bulk validation: random stabbing probes across the salary range.
  int probes_checked = 0;
  for (int p = 0; p < 2000; ++p) {
    std::vector<TupleId> fired;
    if (!fire(rng.Uniform(0, 400000), &fired, nullptr)) return 1;
    ++probes_checked;
  }
  std::printf("\n%d stabbing probes agree between the SR-Tree and a "
              "brute-force scan\n",
              probes_checked);
  return 0;
}
