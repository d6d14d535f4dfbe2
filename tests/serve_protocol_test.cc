// Parser/protocol negative battery for the mhbc_serve surface: every
// malformed line in this file must come back as ONE well-formed response
// carrying the documented error class (docs/serving.md) — and the server
// must keep answering afterwards. The sanity probe at the end of each
// test is the "without killing the daemon" half of that contract.

#include <cmath>
#include <string>
#include <vector>

#include "datasets/registry.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace mhbc::serve {
namespace {

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graph = MakeDataset("caveman-36");
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(catalog_
                    .AddGraph("caveman-36", std::move(graph).value(),
                              EngineOptions(), /*sessions=*/1)
                    .ok());
    ServerOptions options;
    options.workers = 1;
    options.max_line_bytes = 4096;  // small so the oversize test is cheap
    server_ = std::make_unique<Server>(&catalog_, options);
  }

  /// Calls the server and asserts the response parses as an error of
  /// `expected` class.
  ServeResponse ExpectError(const std::string& line, ServeErrorClass expected) {
    const std::string response_line = server_->Call(line);
    auto response = ParseServeResponse(response_line);
    EXPECT_TRUE(response.ok()) << response_line;
    if (!response.ok()) return ServeResponse{};
    EXPECT_FALSE(response.value().ok) << response_line;
    EXPECT_EQ(ServeErrorClassName(response.value().error_class),
              std::string(ServeErrorClassName(expected)))
        << response_line;
    return std::move(response).value();
  }

  /// The daemon-survival probe: a valid request must still succeed.
  void ExpectStillServing() {
    const std::string line = server_->Call(
        R"({"id": 777, "method": "estimate", "graph": "caveman-36", )"
        R"("vertices": [0], "samples": 50})");
    auto response = ParseServeResponse(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_TRUE(response.value().ok) << line;
    EXPECT_EQ(response.value().id, 777u);
    ASSERT_EQ(response.value().reports.size(), 1u);
    EXPECT_EQ(response.value().reports[0].vertex, 0u);
  }

  GraphCatalog catalog_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeProtocolTest, TruncatedAndMalformedJsonIsParseClass) {
  for (const char* line : {
           "",                                     // empty line
           "{",                                    // truncated object
           R"({"method": "stats")",                // missing brace
           R"({"method": "stats"} trailing)",      // trailing garbage
           R"({"method": "stats" "id": 1})",       // missing comma
           R"({"method": })",                      // missing value
           R"("just a string")" "extra",           // two documents
           "[1, 2, 3]",                            // not an object... parse?
           "not json at all",
           R"({"method": "stats", "method": "stats"})",  // duplicate key
       }) {
    ExpectError(line, ServeErrorClass::kParse);
  }
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, OversizedLineRejectedBeforeJsonParsing) {
  std::string line = R"({"method": "stats", "graph": ")";
  line.append(8192, 'x');  // far past max_line_bytes=4096
  line += R"("})";
  const ServeResponse response = ExpectError(line, ServeErrorClass::kParse);
  EXPECT_NE(response.message.find("byte limit"), std::string::npos)
      << response.message;
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, MissingAndUnknownMethodIsMethodClass) {
  ExpectError(R"({"id": 4})", ServeErrorClass::kMethod);
  ExpectError(R"({"id": 4, "method": "frobnicate"})", ServeErrorClass::kMethod);
  ExpectError(R"({"method": 7})", ServeErrorClass::kMethod);
  // The id is still echoed so pipelining clients can match the failure.
  const ServeResponse echoed =
      ExpectError(R"({"id": 42, "method": "nope"})", ServeErrorClass::kMethod);
  EXPECT_TRUE(echoed.has_id);
  EXPECT_EQ(echoed.id, 42u);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, UnknownGraphIsGraphClass) {
  const ServeResponse response = ExpectError(
      R"({"method": "estimate", "graph": "no-such", "vertices": [0]})",
      ServeErrorClass::kGraph);
  // The message lists what IS being served, for operator sanity.
  EXPECT_NE(response.message.find("caveman-36"), std::string::npos);
  ExpectError(R"({"method": "stats", "graph": "no-such"})",
              ServeErrorClass::kGraph);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, VertexIdProblemsAreFieldClass) {
  // Type/range problems caught at parse time...
  for (const char* line : {
           R"({"method": "estimate", "graph": "caveman-36", "vertices": 3})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": ["a"]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [-1]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [1.5]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [4294967295]})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": []})",
       }) {
    ExpectError(line, ServeErrorClass::kField);
  }
  // ...and graph-relative range problems caught at execution time.
  const ServeResponse response = ExpectError(
      R"({"method": "estimate", "graph": "caveman-36", "vertices": [36]})",
      ServeErrorClass::kField);
  EXPECT_NE(response.message.find("out of range"), std::string::npos);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, MalformedBudgetFieldsAreFieldClass) {
  for (const char* line : {
           // deadline_ms: wrong type, negative, non-finite-ish strings
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "deadline_ms": "soon"})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "deadline_ms": -5})",
           // samples: fractional, negative, wrong type, absurd
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": 1.5})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": -3})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": "many"})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": 99999999999999999999})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": 0})",
           // priority outside [0, 9]
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "priority": 10})",
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "priority": -1})",
           // estimator registry miss
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "estimator": "frobnicator"})",
           // topk shape
           R"({"method": "topk", "graph": "caveman-36", "k": 0})",
           R"({"method": "topk", "graph": "caveman-36", "eps": 2.0})",
           // unknown field: strict surface, no silent typo swallowing
           R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "sample": 100})",
       }) {
    ExpectError(line, ServeErrorClass::kField);
  }
  ExpectStillServing();
}

TEST(ServeDirectedGraphTest, EstimatorsNeedingSymmetricDistancesAreFieldClass) {
  // distance and geisberger assume d(s, t) = d(t, s); on a directed graph
  // the engine rejects them before any pass, and the server reports the
  // client's choice of estimator as a `field` error.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddGraph("directed-80", MakeRandomDirected(80, 160, 3),
                            EngineOptions(), /*sessions=*/1)
                  .ok());
  ServerOptions options;
  options.workers = 1;
  Server server(&catalog, options);
  for (const char* estimator : {"distance", "geisberger"}) {
    const std::string line =
        std::string(R"({"method": "estimate", "graph": "directed-80", )") +
        R"("vertices": [5], "samples": 50, "estimator": ")" + estimator +
        R"("})";
    const std::string response_line = server.Call(line);
    auto response = ParseServeResponse(response_line);
    ASSERT_TRUE(response.ok()) << response_line;
    EXPECT_FALSE(response.value().ok) << response_line;
    EXPECT_EQ(ServeErrorClassName(response.value().error_class),
              std::string(ServeErrorClassName(ServeErrorClass::kField)))
        << response_line;
    EXPECT_NE(response.value().message.find("undirected graphs only"),
              std::string::npos)
        << response_line;
  }
  auto uniform = ParseServeResponse(server.Call(
      R"({"method": "estimate", "graph": "directed-80", "vertices": [5], )"
      R"("samples": 50, "estimator": "uniform"})"));
  ASSERT_TRUE(uniform.ok());
  EXPECT_TRUE(uniform.value().ok);
}

TEST_F(ServeProtocolTest, MutateValidationIsFieldClass) {
  // Missing/empty edit script, unparseable script, semantically invalid
  // script (removing a non-edge) — all the client's fault.
  ExpectError(R"({"method": "mutate", "graph": "caveman-36"})",
              ServeErrorClass::kField);
  ExpectError(
      R"({"method": "mutate", "graph": "caveman-36", "edits": "frob 1 2"})",
      ServeErrorClass::kField);
  const ServeResponse response = ExpectError(
      R"({"method": "mutate", "graph": "caveman-36", "edits": "remove 40 41"})",
      ServeErrorClass::kField);
  EXPECT_FALSE(response.message.empty());
  // A failed mutate must not advance the epoch.
  const auto stats = ParseServeResponse(server_->Call(
      R"({"method": "stats", "graph": "caveman-36"})"));
  ASSERT_TRUE(stats.ok());
  const JsonValue* graphs = stats.value().body.Find("result")->Find("graphs");
  ASSERT_NE(graphs, nullptr);
  const JsonValue* epoch = graphs->array.at(0).Find("epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->number_value, 0.0);
  ExpectStillServing();
}

TEST_F(ServeProtocolTest, MutateAddingTooManyVerticesIsRejectedUpFront) {
  // One short line must not make the daemon allocate an edit per requested
  // vertex: both counts exceed kMaxScriptAddedVertices and fail at parse.
  for (const char* line :
       {R"({"method": "mutate", "graph": "caveman-36", "edits": "addvertex 4294967295"})",
        R"({"method": "mutate", "graph": "caveman-36", "edits": "addvertex 1048577"})"}) {
    const ServeResponse response = ExpectError(line, ServeErrorClass::kField);
    EXPECT_NE(response.message.find("mutate request:1"), std::string::npos)
        << response.message;
  }
  const auto estimate = ParseServeResponse(server_->Call(
      R"({"method": "estimate", "graph": "caveman-36", "vertices": [0], "samples": 50})"));
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate.value().ok);
  EXPECT_EQ(estimate.value().epoch, 0u);
  ASSERT_EQ(estimate.value().reports.size(), 1u);
}

TEST_F(ServeProtocolTest, JsonDoubleRoundTripsBitForBit) {
  // %.17g through strtod must reproduce the exact bits — this is what
  // makes the concurrency suite's wire-level bit-identity check valid.
  for (const double value :
       {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, 0.0, 123456.789012345678}) {
    auto parsed = ParseJson(JsonDouble(value));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().number_value, value);
  }
  EXPECT_EQ(JsonDouble(std::nan("")), "null");  // JSON has no NaN
}

TEST_F(ServeProtocolTest, RequestDefaultsAndFieldLifting) {
  ServeRequest request;
  ServeError error;
  ASSERT_TRUE(ParseServeRequest(
      R"({"id": 9, "method": "estimate", "graph": "g", "vertices": [3, 1],)"
      R"( "estimator": "mh-rb", "samples": 250, "seed": 99,)"
      R"( "deadline_ms": 1500.5, "priority": 7})",
      1 << 20, &request, &error));
  EXPECT_EQ(request.id, 9u);
  EXPECT_EQ(request.method, ServeMethod::kEstimate);
  EXPECT_EQ(request.graph, "g");
  EXPECT_EQ(request.vertices, (std::vector<VertexId>{3, 1}));
  EXPECT_EQ(request.estimator, EstimatorKind::kMhRaoBlackwell);
  EXPECT_EQ(request.samples, 250u);
  EXPECT_EQ(request.seed, 99u);
  EXPECT_EQ(request.deadline_ms, 1500.5);
  EXPECT_EQ(request.priority, 7);

  ServeRequest defaults;
  ASSERT_TRUE(ParseServeRequest(R"({"method": "stats"})", 1 << 20, &defaults,
                                &error));
  EXPECT_FALSE(defaults.has_id);
  EXPECT_LT(defaults.deadline_ms, 0.0);  // "no deadline"
  EXPECT_EQ(defaults.priority, 0);
}

}  // namespace
}  // namespace mhbc::serve
