#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/generators.h"

namespace mhbc {
namespace {

StatusOr<CsrGraph> ParseString(const std::string& text,
                               EdgeListOptions options = {}) {
  std::istringstream in(text);
  return ParseEdgeList(in, options);
}

TEST(GraphIoTest, ParsesSnapStyleInput) {
  const auto result = ParseString(
      "# Directed graph (each unordered pair of nodes is saved once)\n"
      "# Nodes: 4 Edges: 4\n"
      "10\t20\n"
      "20\t10\n"   // reverse duplicate, must merge
      "20\t30\n"
      "30\t40\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CsrGraph& g = result.value();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphIoTest, RemapsArbitraryIdsDense) {
  const auto result = ParseString("1000000 5\n5 42\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_vertices(), 3u);
  EXPECT_EQ(result.value().num_edges(), 2u);
}

TEST(GraphIoTest, IgnoresSelfLoops) {
  const auto result = ParseString("1 1\n1 2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_edges(), 1u);
}

TEST(GraphIoTest, RejectsMalformedLine) {
  const auto result = ParseString("1 2\n3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(GraphIoTest, RejectsThirdColumnWithoutWeights) {
  const auto result = ParseString("1 2 3.5\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("third column"), std::string::npos);
}

TEST(GraphIoTest, ParsesWeightsWhenEnabled) {
  EdgeListOptions options;
  options.allow_weights = true;
  const auto result = ParseString("1 2 3.5\n2 3 0.5\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().weighted());
  EXPECT_DOUBLE_EQ(result.value().EdgeWeight(0, 1), 3.5);
}

TEST(GraphIoTest, RejectsNonPositiveWeight) {
  EdgeListOptions options;
  options.allow_weights = true;
  EXPECT_FALSE(ParseString("1 2 0\n", options).ok());
  EXPECT_FALSE(ParseString("1 2 -3\n", options).ok());
}

TEST(GraphIoTest, RejectsMalformedWeightColumn) {
  EdgeListOptions options;
  options.allow_weights = true;
  for (const char* line : {"0 1 abc\n", "0 1 1e999\n", "0 1 2.5x\n"}) {
    const auto result = ParseString(std::string("0 2 1.5\n") + line, options);
    ASSERT_FALSE(result.ok()) << "accepted: " << line;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(GraphIoTest, EmptyInputIsError) {
  EXPECT_FALSE(ParseString("").ok());
  EXPECT_FALSE(ParseString("# only comments\n").ok());
}

TEST(GraphIoTest, LargestComponentFilter) {
  EdgeListOptions options;
  options.largest_component_only = true;
  // Two components: {a,b,c} path and {x,y} edge.
  const auto result = ParseString("1 2\n2 3\n100 200\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_vertices(), 3u);
  EXPECT_EQ(result.value().num_edges(), 2u);
}

TEST(GraphIoTest, TrailingCommentOnDataLine) {
  const auto result = ParseString("1 2 # inline note\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_edges(), 1u);
}

TEST(GraphIoTest, WriteReadRoundTripUnweighted) {
  const CsrGraph g = MakeBarabasiAlbert(60, 2, 31);
  std::ostringstream out;
  WriteEdgeList(g, out);
  const auto parsed = ParseString(out.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().num_vertices(), g.num_vertices());
  EXPECT_EQ(parsed.value().num_edges(), g.num_edges());
}

TEST(GraphIoTest, WriteReadRoundTripWeighted) {
  const CsrGraph g = AssignUniformWeights(MakeCycle(12), 0.5, 1.5, 37);
  std::ostringstream out;
  WriteEdgeList(g, out);
  EdgeListOptions options;
  options.allow_weights = true;
  const auto parsed = ParseString(out.str(), options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().weighted());
  EXPECT_EQ(parsed.value().num_edges(), g.num_edges());
}

TEST(GraphIoTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/mhbc_io_test.txt";
  const CsrGraph g = MakeStar(9);
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  const auto loaded = LoadSnapEdgeList(path, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_edges(), 8u);
  std::remove(path.c_str());

  const auto missing = LoadSnapEdgeList("/nonexistent/nope.txt", {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, ParseVertexIdListStrictNamesTheOffendingToken) {
  const auto plain = ParseVertexIdListStrict("3,17,42");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value(), (std::vector<VertexId>{3, 17, 42}));
  // Whitespace around tokens is fine (quoted CLI lists: "10, 11, 12").
  const auto ok = ParseVertexIdListStrict(" 10, 11 ,12");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), (std::vector<VertexId>{10, 11, 12}));
  // Empty tokens are skipped...
  const auto gaps = ParseVertexIdListStrict("5,,6,");
  ASSERT_TRUE(gaps.ok());
  EXPECT_EQ(gaps.value(), (std::vector<VertexId>{5, 6}));
  // ...but any malformed token rejects the whole list, naming the token —
  // a typo must not silently become vertex 0.
  for (const char* bad : {"junk", "-1,2", "1 2"}) {
    const auto rejected = ParseVertexIdListStrict(bad);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_NE(rejected.status().message().find("is not a vertex id"),
              std::string::npos)
        << bad;
  }
  const auto garbage = ParseVertexIdListStrict("1,2x,3");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(garbage.status().message().find("no vertex ids"),
            std::string::npos);
  EXPECT_NE(garbage.status().message().find("'2x'"), std::string::npos);

  // Out-of-range ids must not wrap to some other 32-bit vertex.
  for (const char* big :
       {"4294967295", "4294967296", "99999999999999999999"}) {
    const auto overflow = ParseVertexIdListStrict(big);
    ASSERT_FALSE(overflow.ok()) << big;
    EXPECT_NE(overflow.status().message().find("vertex-id range"),
              std::string::npos)
        << big;
  }

  const auto empty = ParseVertexIdListStrict(",,");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("no vertex ids given"),
            std::string::npos);
}

}  // namespace
}  // namespace mhbc
