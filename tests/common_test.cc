// Tests for the common layer: Status, Result<T>, string utilities, and
// the chunked sorted sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/sorted_chunks.h"
#include "common/status.h"
#include "common/string_util.h"

namespace tchimera {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::TypeError("bad value");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_EQ(s.message(), "bad value");
  EXPECT_EQ(s.ToString(), "TypeError: bad value");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int code = 0; code <= 10; ++code) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(code)), "Unknown")
        << code;
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    TCH_RETURN_IF_ERROR(fails());
    return Status::Internal("unreachable");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);
  Result<int> err = Status::NotFound("gone");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto source = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto wrapper = [&](bool fail) -> Result<int> {
    TCH_ASSIGN_OR_RETURN(int v, source(fail));
    return v * 2;
  };
  EXPECT_EQ(*wrapper(false), 10);
  EXPECT_EQ(wrapper(true).status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 9);
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("define class", "define"));
  EXPECT_FALSE(StartsWith("def", "define"));
  EXPECT_TRUE(EndsWith("snapshot.tchdb", ".tchdb"));
  EXPECT_FALSE(EndsWith("x", ".tchdb"));
}

TEST(StringUtilTest, EscapeRoundTrip) {
  const std::string tricky = "quote \" back\\slash\nnew\tline";
  std::string unescaped;
  ASSERT_TRUE(UnescapeString(EscapeString(tricky), &unescaped));
  EXPECT_EQ(unescaped, tricky);
  EXPECT_FALSE(UnescapeString("dangling\\", &unescaped));
  EXPECT_FALSE(UnescapeString("bad\\q", &unescaped));
}

TEST(StringUtilTest, IsIdentifier) {
  for (const char* good :
       {"a", "proper-ext", "m-project", "x_1", "_lead", "CamelToo"}) {
    EXPECT_TRUE(IsIdentifier(good)) << good;
  }
  for (const char* bad : {"", "9lead", "-lead", "has space", "dot.ted"}) {
    EXPECT_FALSE(IsIdentifier(bad)) << bad;
  }
}

// A chunk summary for the test: the largest entry of a chunk.
struct MaxEntry {
  explicit MaxEntry(std::span<const int> entries)
      : max(*std::max_element(entries.begin(), entries.end())) {}
  int max;
};
using IntChunks = SortedChunks<int, std::less<int>, 8, MaxEntry>;

std::vector<int> Flatten(const IntChunks& chunks) {
  std::vector<int> out;
  chunks.ForEach(chunks.All(), [&](int v) { out.push_back(v); });
  return out;
}

// Merged against a sorted vector: random erase/insert batches, from
// empty up and back down, share untouched chunks with the source, keep
// every chunk within capacity and every summary current, and leave the
// source as it was.
TEST(SortedChunksTest, MergedMatchesASortedVector) {
  std::mt19937_64 rng(5);
  IntChunks chunks;
  std::vector<int> want;
  for (int round = 0; round < 200; ++round) {
    // Even entries only, so inserts of odd values never collide; the
    // last rounds only erase.
    std::vector<int> erase;
    for (int v : want) {
      if (rng() % (round < 150 ? 6 : 2) == 0) erase.push_back(v);
    }
    std::vector<int> insert;
    if (round < 150) {
      for (int k = static_cast<int>(rng() % 40); k > 0; --k) {
        const int v = 2 * static_cast<int>(rng() % 5000) + round % 2;
        if (!std::binary_search(want.begin(), want.end(), v)) {
          insert.push_back(v);
        }
      }
      std::sort(insert.begin(), insert.end());
      insert.erase(std::unique(insert.begin(), insert.end()), insert.end());
    }
    const std::vector<int> before = Flatten(chunks);
    const IntChunks merged = chunks.Merged(erase, insert);
    EXPECT_EQ(Flatten(chunks), before);
    std::vector<int> kept;
    std::set_difference(want.begin(), want.end(), erase.begin(), erase.end(),
                        std::back_inserter(kept));
    want.clear();
    std::merge(kept.begin(), kept.end(), insert.begin(), insert.end(),
               std::back_inserter(want));
    ASSERT_EQ(Flatten(merged), want) << "round " << round;
    ASSERT_EQ(merged.size(), want.size());
    for (size_t c = 0; c < merged.chunk_count(); ++c) {
      const std::span<const int> entries = merged.ChunkEntries(c);
      ASSERT_FALSE(entries.empty());
      ASSERT_LE(entries.size(), 8u);
      EXPECT_EQ(merged.ChunkSummary(c).max, entries.back());
    }
    chunks = merged;
  }
  EXPECT_TRUE(chunks.empty());
}

TEST(SortedChunksTest, MergedSharesChunksItDoesNotTouch) {
  std::vector<int> sorted;
  for (int v = 0; v < 64; v += 2) sorted.push_back(v);
  const IntChunks chunks = IntChunks::Build(sorted);
  ASSERT_EQ(chunks.chunk_count(), 4u);
  // Touches the second chunk only: one erase, and an insert that lands
  // there and splits it.
  const std::vector<int> erase = {18};
  std::vector<int> insert;
  for (int v = 17; v < 30; v += 2) insert.push_back(v);
  const IntChunks merged = chunks.Merged(erase, insert);
  ASSERT_EQ(merged.chunk_count(), 5u);
  EXPECT_EQ(merged.ChunkEntries(0).data(), chunks.ChunkEntries(0).data());
  EXPECT_EQ(merged.ChunkEntries(3).data(), chunks.ChunkEntries(2).data());
  EXPECT_EQ(merged.ChunkEntries(4).data(), chunks.ChunkEntries(3).data());
  EXPECT_NE(merged.ChunkEntries(1).data(), chunks.ChunkEntries(1).data());
}

// A batch that erases most of a range re-packs each run of consecutive
// touched chunks as one unit: a rebuilt run of k entries takes
// ceil(k / 8) chunks, not one nearly empty chunk per source chunk.
TEST(SortedChunksTest, MergedPacksEachRunOfTouchedChunks) {
  std::vector<int> sorted;
  for (int v = 0; v < 2 * 30000; v += 2) sorted.push_back(v);
  const IntChunks chunks = IntChunks::Build(sorted);
  std::set<const int*> source;
  for (size_t c = 0; c < chunks.chunk_count(); ++c) {
    source.insert(chunks.ChunkEntries(c).data());
  }
  // Erases 60% of the 20,000 entries in the middle, three of every
  // five, so every chunk there is touched; one insert near the front
  // makes a second, one-chunk run.
  std::vector<int> erase;
  for (size_t i = 5000; i < 25000; ++i) {
    if (i % 5 < 3) erase.push_back(sorted[i]);
  }
  const std::vector<int> insert = {101};
  const IntChunks merged = chunks.Merged(erase, insert);
  std::vector<int> want;
  std::set_difference(sorted.begin(), sorted.end(), erase.begin(),
                      erase.end(), std::back_inserter(want));
  want.insert(std::upper_bound(want.begin(), want.end(), 101), 101);
  ASSERT_EQ(Flatten(merged), want);
  ASSERT_EQ(merged.size(), want.size());

  size_t runs = 0;
  for (size_t c = 0; c < merged.chunk_count();) {
    if (source.contains(merged.ChunkEntries(c).data())) {
      ++c;
      continue;
    }
    size_t entries = 0;
    size_t run_chunks = 0;
    for (; c < merged.chunk_count() &&
           !source.contains(merged.ChunkEntries(c).data());
         ++c) {
      entries += merged.ChunkEntries(c).size();
      ++run_chunks;
    }
    ++runs;
    EXPECT_EQ(run_chunks, (entries + 7) / 8) << "run " << runs;
  }
  EXPECT_EQ(runs, 2u);
}

}  // namespace
}  // namespace tchimera
