#include "nbclos/core/table_one.hpp"

#include <gtest/gtest.h>

#include "nbclos/util/check.hpp"

namespace nbclos {
namespace {

TEST(TableOne, Row20MatchesPaperExactly) {
  const auto rows = table_one_published();
  ASSERT_EQ(rows.size(), 3U);
  const auto& row = rows[0];
  EXPECT_EQ(row.switch_radix, 20U);
  EXPECT_EQ(row.nb_switches, 36U);
  EXPECT_EQ(row.nb_ports, 80U);
  EXPECT_EQ(row.ft_switches, 30U);
  EXPECT_EQ(row.ft_ports, 200U);
  EXPECT_EQ(row.paper_nb_switches, 36U);
  EXPECT_EQ(row.paper_nb_ports, 80U);
  EXPECT_EQ(row.paper_ft_switches, 30U);
  EXPECT_EQ(row.paper_ft_ports, 200U);
}

TEST(TableOne, Row30MatchesPaperExactly) {
  const auto rows = table_one_published();  // the rows outlive `row`
  const auto& row = rows[1];
  EXPECT_EQ(row.switch_radix, 30U);
  EXPECT_EQ(row.nb_switches, 55U);
  EXPECT_EQ(row.nb_ports, 150U);
  EXPECT_EQ(row.ft_switches, 45U);
  EXPECT_EQ(row.ft_ports, 450U);
  EXPECT_EQ(row.nb_switches, row.paper_nb_switches);
  EXPECT_EQ(row.ft_ports, row.paper_ft_ports);
}

TEST(TableOne, Row42ExposesThePaperTypos) {
  // The published table prints 88 switches and 884 FT ports; the paper's
  // own formulas give 2*36+6 = 78 and 42^2/2 = 882.  We must reproduce
  // the formulas, not the typos — and record the difference.
  const auto rows = table_one_published();  // the rows outlive `row`
  const auto& row = rows[2];
  EXPECT_EQ(row.switch_radix, 42U);
  EXPECT_EQ(row.nb_switches, 78U);
  EXPECT_EQ(row.paper_nb_switches, 88U);
  EXPECT_EQ(row.nb_ports, 252U);
  EXPECT_EQ(row.paper_nb_ports, 252U);
  EXPECT_EQ(row.ft_switches, 63U);
  EXPECT_EQ(row.paper_ft_switches, 63U);
  EXPECT_EQ(row.ft_ports, 882U);
  EXPECT_EQ(row.paper_ft_ports, 884U);
}

TEST(TableOne, ArbitraryRadixRow) {
  const auto row = table_one_row(56);  // n = 7: 7+49 = 56
  EXPECT_EQ(row.nb_switches, 2 * 49U + 7U);
  EXPECT_EQ(row.nb_ports, 343U + 49U);
  EXPECT_EQ(row.ft_switches, 84U);   // 3*56/2
  EXPECT_EQ(row.ft_ports, 1568U);    // 56^2/2
  EXPECT_FALSE(row.paper_nb_switches.has_value());
}

TEST(TableOne, OddRadixSkipsFtComparison) {
  const auto row = table_one_row(13);  // n = 3 fits (12 <= 13); FT needs even
  EXPECT_EQ(row.nb_ports, 36U);
  EXPECT_EQ(row.ft_ports, 0U);
}

TEST(TableOne, RejectsTinyRadix) {
  EXPECT_THROW((void)table_one_row(5), precondition_error);
}

TEST(TableOne, NonblockingCostsMoreThanRearrangeable) {
  // The qualitative Table I story: our nonblocking network supports
  // fewer ports per switch than FT(m,2) — the price of crossbar-like
  // behaviour under distributed control.
  for (const auto& row : table_one_published()) {
    const double nb_ratio = static_cast<double>(row.nb_ports) /
                            static_cast<double>(row.nb_switches);
    const double ft_ratio = static_cast<double>(row.ft_ports) /
                            static_cast<double>(row.ft_switches);
    EXPECT_LT(nb_ratio, ft_ratio);
  }
}

}  // namespace
}  // namespace nbclos
