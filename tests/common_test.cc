/**
 * @file
 * Unit tests for the common utilities: stats, table printer, PRNG,
 * units, and error macros.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace regate {
namespace {

TEST(Units, BinarySizes)
{
    EXPECT_EQ(units::KiB(4), 4096u);
    EXPECT_EQ(units::MiB(1), 1048576u);
    EXPECT_EQ(units::GiB(1), 1073741824u);
}

TEST(Units, Bandwidth)
{
    EXPECT_DOUBLE_EQ(units::GBps(2.0), 2e9);
    EXPECT_DOUBLE_EQ(units::MHz(700), 7e8);
}

TEST(Units, EnergyConversions)
{
    EXPECT_DOUBLE_EQ(units::pJ(1.0), 1e-12);
    EXPECT_DOUBLE_EQ(units::joulesToKWh(3.6e6), 1.0);
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(stats::mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(stats::geomean({1, 4}), 2.0, 1e-12);
    EXPECT_THROW(stats::geomean({1, -1}), ConfigError);
    EXPECT_THROW(stats::geomean({}), ConfigError);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(stats::minOf({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(stats::maxOf({3, 1, 2}), 3.0);
    EXPECT_THROW(stats::minOf({}), ConfigError);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 5.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 25), 2.0);
    EXPECT_THROW(stats::percentile(xs, 101), ConfigError);
}

TEST(Stats, R2PerfectCorrelation)
{
    std::vector<double> xs = {1, 2, 3, 4};
    std::vector<double> ys = {2, 4, 6, 8};
    EXPECT_NEAR(stats::r2(xs, ys), 1.0, 1e-12);
}

TEST(Stats, R2Uncorrelated)
{
    std::vector<double> xs = {1, 2, 3, 4};
    std::vector<double> ys = {1, -1, 1, -1};
    EXPECT_LT(stats::r2(xs, ys), 0.5);
}

TEST(Stats, R2SizeMismatch)
{
    EXPECT_THROW(stats::r2({1, 2}, {1, 2, 3}), ConfigError);
}

TEST(Stats, WeightedCdf)
{
    auto cdf = stats::weightedCdf({{1.0, 1.0}, {2.0, 3.0}});
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.25);
    EXPECT_DOUBLE_EQ(cdf[1].second, 1.0);
    EXPECT_DOUBLE_EQ(stats::cdfAt(cdf, 1.5), 0.25);
    EXPECT_DOUBLE_EQ(stats::cdfAt(cdf, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(stats::cdfAt(cdf, 2.0), 1.0);
}

TEST(Stats, WeightedCdfMergesDuplicates)
{
    auto cdf = stats::weightedCdf({{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}});
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.5);
}

TEST(Table, AlignsAndCounts)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1.0"});
    t.addSeparator();
    t.addRow({"b", "22.5"});
    EXPECT_EQ(t.rowCount(), 3u);

    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22.5"), std::string::npos);
}

TEST(Table, RejectsOversizedRows)
{
    TablePrinter t({"one"});
    EXPECT_THROW(t.addRow({"a", "b"}), ConfigError);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(TablePrinter::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.155, 1), "15.5%");
    EXPECT_EQ(TablePrinter::eng(1.5e9, 1), "1.5G");
    EXPECT_EQ(TablePrinter::eng(2500, 1), "2.5K");
    EXPECT_EQ(TablePrinter::eng(0.0025, 1), "2.5m");
    EXPECT_EQ(TablePrinter::eng(2.5e-6, 1), "2.5u");
    EXPECT_EQ(TablePrinter::eng(2.5e-9, 1), "2.5n");
    EXPECT_EQ(TablePrinter::eng(0.0, 1), "0.0");
}

TEST(Prng, Deterministic)
{
    Prng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, UniformBounds)
{
    Prng rng(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniform(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        double d = rng.uniform01();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Error, CheckThrowsConfigError)
{
    EXPECT_THROW(REGATE_CHECK(false, "bad thing ", 42), ConfigError);
    EXPECT_NO_THROW(REGATE_CHECK(true, "fine"));
}

TEST(Error, AssertThrowsLogicError)
{
    EXPECT_THROW(REGATE_ASSERT(false, "bug"), LogicError);
}

TEST(Error, MessageContainsDetails)
{
    try {
        REGATE_CHECK(false, "value was ", 7);
        FAIL();
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace regate
