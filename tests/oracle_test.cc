#include <vector>

#include <gtest/gtest.h>

#include "oracle/naive_oracle.h"

namespace segidx::oracle {
namespace {

TEST(NaiveOracleTest, InsertSearchDelete) {
  NaiveOracle oracle;
  oracle.Insert(Rect(0, 10, 0, 10), 1);
  oracle.Insert(Rect(5, 15, 5, 15), 2);
  oracle.Insert(Rect(100, 110, 100, 110), 3);
  EXPECT_EQ(oracle.Search(Rect(7, 8, 7, 8)),
            (std::vector<TupleId>{1, 2}));
  EXPECT_TRUE(oracle.Delete(Rect(5, 15, 5, 15), 2));
  EXPECT_FALSE(oracle.Delete(Rect(5, 15, 5, 15), 2));
  EXPECT_EQ(oracle.Search(Rect(7, 8, 7, 8)), (std::vector<TupleId>{1}));
  EXPECT_EQ(oracle.size(), 2u);
}

TEST(NaiveOracleTest, DeduplicatesTids) {
  NaiveOracle oracle;
  oracle.Insert(Rect(0, 10, 0, 10), 1);
  oracle.Insert(Rect(5, 15, 5, 15), 1);  // Same tuple, second piece.
  EXPECT_EQ(oracle.Search(Rect(7, 8, 7, 8)), (std::vector<TupleId>{1}));
}

}  // namespace
}  // namespace segidx::oracle
