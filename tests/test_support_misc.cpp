// Tests for strings, tables, CSV, CLI parsing, ASCII charts, JSON and the
// parallel_for fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/chart.hpp"
#include "support/cli.hpp"
#include "support/crc32.hpp"
#include "support/csv.hpp"
#include "support/digest.hpp"
#include "support/file.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

#include "temp_path.hpp"

namespace {

using namespace mpisect::support;

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, Formatting) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-1.0, 0), "-1");
  EXPECT_EQ(fmt_auto(0.0), "0");
  EXPECT_EQ(fmt_bytes(512), "512 B");
  EXPECT_EQ(fmt_bytes(1536), "1.50 KiB");
  EXPECT_EQ(fmt_seconds(2.5), "2.500 s");
  EXPECT_EQ(fmt_seconds(0.0025), "2.500 ms");
  EXPECT_EQ(fmt_seconds(2.5e-6), "2.500 us");
  EXPECT_EQ(fmt_seconds(2.5e-8), "25 ns");
}

TEST(Strings, FormatSizesItsBuffer) {
  const std::string label(3000, 'x');
  EXPECT_EQ(format("[%s] %d", label.c_str(), 42), "[" + label + "] 42");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");  // no truncation
}

TEST(Strings, JoinAndCase) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Table, RendersAlignedRows) {
  TextTable t;
  t.set_header({"name", "value"});
  t.set_align({TextTable::Align::Left, TextTable::Align::Right});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("|    22 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumericRowHelper) {
  TextTable t;
  t.set_header({"label", "x", "y"});
  t.add_row_numeric("row", {1.234, 5.678}, 1);
  EXPECT_NE(t.render_csv().find("row,1.2,5.7"), std::string::npos);
}

TEST(Csv, WriteParseRoundtrip) {
  CsvWriter w({"p", "time"});
  w.add_row(std::vector<std::string>{"1", "2.5"});
  w.add_row(std::vector<double>{2.0, 1.25});
  const auto rows = parse_csv(w.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "p");
  EXPECT_EQ(rows[1][1], "2.5");
  EXPECT_EQ(rows[2][0], "2");
}

namespace fs = std::filesystem;
using mpisect::testutil::unique_temp_path;

/// Names in `dir` that start with `stem`.
std::vector<std::string> entries_starting(const fs::path& dir,
                                          const std::string& stem) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(stem, 0) == 0) out.push_back(name);
  }
  return out;
}

TEST(WriteFileAtomic, ReplacesTheTargetAndLeavesNoTempFile) {
  const fs::path path = unique_temp_path("atomic", ".txt");
  ASSERT_TRUE(write_file_atomic(path.string(), "first"));
  ASSERT_TRUE(write_file_atomic(path.string(), "second\n"));
  std::ifstream in(path);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "second\n");
  EXPECT_EQ(entries_starting(path.parent_path(), path.filename().string()),
            std::vector<std::string>{path.filename().string()});
  fs::remove(path);
}

TEST(WriteFileAtomic, MissingDirectoryFailsAndLeavesNothing) {
  const fs::path dir = unique_temp_path("atomic_missing", "");
  const fs::path path = dir / "out.txt";
  EXPECT_FALSE(write_file_atomic(path.string(), "bytes"));
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_TRUE(entries_starting(dir.parent_path(), dir.filename().string())
                  .empty());
}

TEST(WriteFileAtomic, WritesIntoADeviceInPlace) {
  EXPECT_TRUE(write_file_atomic("/dev/null", "bytes"));
  EXPECT_TRUE(fs::is_character_file("/dev/null"));
}

TEST(WriteFileAtomic, WritesThroughASymlinkAndKeepsTheLink) {
  const fs::path target = unique_temp_path("atomic_target", ".txt");
  const fs::path link = unique_temp_path("atomic_link", ".txt");
  ASSERT_TRUE(write_file_atomic(target.string(), "old"));
  fs::create_symlink(target, link);
  ASSERT_TRUE(write_file_atomic(link.string(), "new\n"));
  EXPECT_TRUE(fs::is_symlink(link));
  std::ifstream in(target);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "new\n");
  fs::remove(link);
  fs::remove(target);
}

TEST(Csv, RowArityEnforced) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Cli, ParsesTypesAndDefaults) {
  ArgParser args("prog", "test");
  args.add_int("n", 5, "count");
  args.add_double("x", 1.5, "factor");
  args.add_string("name", "none", "label");
  args.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--n", "10", "--x=2.5", "--verbose"};
  ASSERT_TRUE(args.parse(5, argv));
  EXPECT_EQ(args.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(args.get_double("x"), 2.5);
  EXPECT_EQ(args.get_string("name"), "none");
  EXPECT_TRUE(args.get_flag("verbose"));
}

TEST(Cli, RejectsUnknownOption) {
  ArgParser args("prog", "test");
  args.add_int("n", 5, "count");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(args.parse(3, argv));
}

TEST(Cli, RejectsMissingValue) {
  ArgParser args("prog", "test");
  args.add_int("n", 5, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(args.parse(2, argv));
}

TEST(Cli, HelpReturnsFalse) {
  ArgParser args("prog", "test");
  args.add_flag("v", "verbose");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(args.parse(2, argv));
  EXPECT_NE(args.usage().find("--v"), std::string::npos);
}

TEST(Cli, ThrowsOnUndeclaredGet) {
  ArgParser args("prog", "test");
  EXPECT_THROW((void)args.get_int("nope"), std::logic_error);
}

// The shared tool vocabulary has one spelling per option: the old
// `--machine`/`--format` spellings are unknown options.
TEST(Cli, RemovedAliasesAreUnknownOptions) {
  for (const char* old : {"--machine", "--format"}) {
    ArgParser args("prog", "test");
    add_unified_flags(args, "ideal", "text", 1);
    const char* argv[] = {"prog", old, "knl"};
    EXPECT_FALSE(args.parse(3, argv)) << old;
    EXPECT_EQ(args.usage().find(old), std::string::npos) << old;
  }
}

std::span<const std::uint8_t> as_bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const JsonValue deepest = json_parse(nested(kJsonMaxDepth));
  EXPECT_TRUE(deepest.is_array());
  EXPECT_THROW((void)json_parse(nested(kJsonMaxDepth + 1)),
               std::runtime_error);
  // Unterminated and far too deep: fails at the limit, not on the stack.
  EXPECT_THROW((void)json_parse(std::string(200000, '[')), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)json_parse(objects), std::runtime_error);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32({}), 0u);
  // The classic check value for CRC-32/IEEE.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, SeedChainsIncrementalUpdates) {
  const auto all = as_bytes("chunked trace payload");
  const std::uint32_t whole = crc32(all);
  const std::uint32_t chained =
      crc32(all.subspan(7), crc32(all.subspan(0, 7)));
  EXPECT_EQ(whole, chained);
}

TEST(Digest, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64({}), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64(as_bytes("a")), 0xAF63DC4C8601EC8Cull);
}

TEST(Digest, FormatIsStable) {
  EXPECT_EQ(format_digest(0), "mpst1-0000000000000000");
  EXPECT_EQ(format_digest(0xDEADBEEF01234567ull), "mpst1-deadbeef01234567");
}

TEST(Chart, LineChartContainsSeriesGlyphsAndLegend) {
  Series s1{"alpha", {1, 2, 3, 4}, {1, 2, 3, 4}};
  Series s2{"beta", {1, 2, 3, 4}, {4, 3, 2, 1}};
  ChartOptions opts;
  opts.title = "test chart";
  const std::string out = line_chart({s1, s2}, opts);
  EXPECT_NE(out.find("test chart"), std::string::npos);
  EXPECT_NE(out.find("* = alpha"), std::string::npos);
  EXPECT_NE(out.find("o = beta"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(Chart, EmptySeries) {
  EXPECT_EQ(line_chart({}, {}), "(empty chart)\n");
}

TEST(Chart, LogScalesDoNotCrash) {
  Series s{"s", {1, 2, 4, 8, 16}, {1, 10, 100, 1000, 10000}};
  ChartOptions opts;
  opts.log_x = true;
  opts.log_y = true;
  EXPECT_FALSE(line_chart({s}, opts).empty());
}

TEST(Chart, BarChartProportions) {
  const std::string out =
      bar_chart({"big", "small"}, {100.0, 50.0}, 20, "bars");
  // "big" bar should be about twice the "small" bar.
  const auto big_pos = out.find("big");
  const auto small_pos = out.find("small");
  ASSERT_NE(big_pos, std::string::npos);
  ASSERT_NE(small_pos, std::string::npos);
  const auto count_hashes = [&](std::size_t from) {
    std::size_t n = 0;
    for (std::size_t i = from; i < out.size() && out[i] != '\n'; ++i) {
      if (out[i] == '#') ++n;
    }
    return n;
  };
  EXPECT_EQ(count_hashes(big_pos), 2 * count_hashes(small_pos));
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), kParallelMinWork, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 1000);
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  // Every 97th index fails; whichever thread fails first in wall time,
  // the caller sees index 41, as from a plain loop.
  for (int rep = 0; rep < 20; ++rep) {
    try {
      parallel_for(1000, kParallelMinWork, [](std::size_t i) {
        if (i % 97 == 41) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "41");
    }
  }
}

TEST(ParallelFor, SmallWorkRunsInlineInOrder) {
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(100, kParallelMinWork - 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

}  // namespace
