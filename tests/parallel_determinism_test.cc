#include <gtest/gtest.h>

#include <vector>

#include "centrality/engine.h"
#include "core/multi_chain.h"
#include "exact/brandes.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"

/// \file
/// Thread-count invariance — the parallel subsystem's hard requirement:
/// for fixed seeds, every statistical result is bit-identical at 1, 2,
/// and 4 threads. Work accounting (sp_passes attribution, cache_hit,
/// seconds) is explicitly outside the guarantee (see centrality/engine.h)
/// and is not compared here.

namespace mhbc {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4};

// ------------------------------------------------------------- Brandes

TEST(ParallelBrandesTest, BitIdenticalAtEveryThreadCount) {
  const CsrGraph g = MakeBarabasiAlbert(400, 3, 7);
  const std::vector<double> baseline =
      BrandesBetweenness(g, Normalization::kPaper, 1);
  for (unsigned threads : kThreadCounts) {
    const std::vector<double> scores =
        BrandesBetweenness(g, Normalization::kPaper, threads);
    ASSERT_EQ(scores.size(), baseline.size());
    for (std::size_t v = 0; v < scores.size(); ++v) {
      EXPECT_EQ(scores[v], baseline[v]) << "vertex " << v << " at "
                                        << threads << " threads";
    }
  }
}

TEST(ParallelBrandesTest, MatchesSequentialExactBitwise) {
  // ExactBetweenness is the 1-thread BrandesBetweenness, and the fixed
  // source shards make every thread count regroup the same way.
  for (const CsrGraph& g :
       {MakeBarbell(8, 2), MakeConnectedCaveman(5, 8), MakeGrid(9, 9)}) {
    EXPECT_EQ(BrandesBetweenness(g), ExactBetweenness(g));
  }
}

TEST(ParallelBrandesTest, WeightedGraphSupported) {
  const CsrGraph wg = AssignUniformWeights(MakeBarbell(6, 1), 1.0, 2.0, 3);
  const std::vector<double> one = BrandesBetweenness(wg, Normalization::kPaper, 1);
  const std::vector<double> four = BrandesBetweenness(wg, Normalization::kPaper, 4);
  EXPECT_EQ(one, four);
}

// --------------------------------------------------------- multi-chain

TEST(ParallelMultiChainTest, ResultBitIdenticalAtEveryThreadCount) {
  const CsrGraph g = MakeConnectedCaveman(5, 8);
  MhOptions options;
  options.seed = 29;
  const MultiChainResult baseline =
      RunMultipleChains(g, /*r=*/7, /*iterations=*/600, /*num_chains=*/4,
                        options, /*num_threads=*/1);
  for (unsigned threads : kThreadCounts) {
    const MultiChainResult result =
        RunMultipleChains(g, 7, 600, 4, options, threads);
    EXPECT_EQ(result.pooled_estimate, baseline.pooled_estimate)
        << threads << " threads";
    EXPECT_EQ(result.pooled_proposal_estimate,
              baseline.pooled_proposal_estimate);
    EXPECT_EQ(result.r_hat, baseline.r_hat);
    EXPECT_EQ(result.chain_estimates, baseline.chain_estimates);
    EXPECT_EQ(result.sp_passes, baseline.sp_passes);
  }
}

// -------------------------------------------------------------- engine

/// Compares the statistical fields of two reports bit-for-bit.
void ExpectSameStatistics(const EstimateReport& got,
                          const EstimateReport& want,
                          const std::string& label) {
  EXPECT_EQ(got.vertex, want.vertex) << label;
  EXPECT_EQ(got.kind, want.kind) << label;
  EXPECT_EQ(got.value, want.value) << label;
  EXPECT_EQ(got.samples_used, want.samples_used) << label;
  EXPECT_EQ(got.acceptance_rate, want.acceptance_rate) << label;
  EXPECT_EQ(got.ess, want.ess) << label;
  EXPECT_EQ(got.std_error, want.std_error) << label;
  EXPECT_EQ(got.ci_half_width, want.ci_half_width) << label;
  EXPECT_EQ(got.converged, want.converged) << label;
}

std::vector<EstimateReport> ManyAtThreads(const CsrGraph& g, unsigned threads,
                                          const EstimateRequest& request,
                                          const std::vector<VertexId>& vs) {
  EngineOptions options;
  options.num_threads = threads;
  BetweennessEngine engine(g, options);
  auto reports = engine.EstimateMany(vs, request);
  EXPECT_TRUE(reports.ok());
  return std::move(reports).value();
}

TEST(ParallelEngineTest, EstimateManyReportsInvariantAcrossThreadCounts) {
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  const std::vector<VertexId> vertices{9, 19, 29, 39, 49, 59, 3, 14};
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kMhRaoBlackwell,
        EstimatorKind::kUniformSource, EstimatorKind::kDistanceProportional,
        EstimatorKind::kLinearScaling}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 300;
    request.seed = 0xDE7;
    const std::vector<EstimateReport> baseline =
        ManyAtThreads(g, 1, request, vertices);
    for (unsigned threads : kThreadCounts) {
      const std::vector<EstimateReport> reports =
          ManyAtThreads(g, threads, request, vertices);
      ASSERT_EQ(reports.size(), baseline.size());
      for (std::size_t i = 0; i < reports.size(); ++i) {
        ExpectSameStatistics(reports[i], baseline[i],
                             std::string(EstimatorKindName(kind)) + " @" +
                                 std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(ParallelEngineTest, AdaptiveBudgetInvariantAcrossThreadCounts) {
  // kStandardError stop rules depend only on batch means, so a fan-out at
  // any width must reproduce samples_used and convergence bit-for-bit too.
  const CsrGraph g = MakeBarbell(6, 2);
  const std::vector<VertexId> vertices{6, 7, 0, 12};
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.budget = BudgetKind::kStandardError;
  request.target_std_error = 0.02;
  request.seed = 0xADA;
  const std::vector<EstimateReport> baseline =
      ManyAtThreads(g, 1, request, vertices);
  for (unsigned threads : kThreadCounts) {
    const std::vector<EstimateReport> reports =
        ManyAtThreads(g, threads, request, vertices);
    ASSERT_EQ(reports.size(), baseline.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      ExpectSameStatistics(reports[i], baseline[i],
                           "adaptive @" + std::to_string(threads));
    }
  }
}

TEST(ParallelEngineTest, ExactAndTopKInvariantAcrossThreadCounts) {
  const CsrGraph g = MakeConnectedCaveman(4, 8);
  EstimateRequest exact;
  exact.kind = EstimatorKind::kExact;

  EngineOptions base_options;
  base_options.num_threads = 1;
  BetweennessEngine baseline_engine(g, base_options);
  const auto baseline_exact = baseline_engine.Estimate(7, exact);
  const auto baseline_topk = baseline_engine.TopK(5, 0.05, 0.1, 17);
  ASSERT_TRUE(baseline_exact.ok() && baseline_topk.ok());

  for (unsigned threads : kThreadCounts) {
    EngineOptions options;
    options.num_threads = threads;
    BetweennessEngine engine(g, options);
    const auto report = engine.Estimate(7, exact);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().value, baseline_exact.value().value)
        << threads << " threads";
    const auto top = engine.TopK(5, 0.05, 0.1, 17);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top.value().size(), baseline_topk.value().size());
    for (std::size_t i = 0; i < top.value().size(); ++i) {
      EXPECT_EQ(top.value()[i].vertex, baseline_topk.value()[i].vertex);
      EXPECT_EQ(top.value()[i].estimate, baseline_topk.value()[i].estimate);
    }
  }
}

TEST(ParallelEngineTest, BatchInvariantAcrossThreadCountsAndFailsFast) {
  const CsrGraph g = MakeBarbell(5, 1);
  EstimateRequest mh;
  mh.vertex = 5;
  mh.kind = EstimatorKind::kMetropolisHastings;
  mh.samples = 200;
  EstimateRequest uniform;
  uniform.vertex = 6;
  uniform.kind = EstimatorKind::kUniformSource;
  uniform.samples = 250;
  const std::vector<EstimateRequest> requests{mh, uniform};

  EngineOptions base_options;
  BetweennessEngine baseline_engine(g, base_options);
  const auto baseline = baseline_engine.EstimateBatch(requests);
  ASSERT_TRUE(baseline.ok());

  for (unsigned threads : kThreadCounts) {
    EngineOptions options;
    options.num_threads = threads;
    BetweennessEngine engine(g, options);
    const auto batch = engine.EstimateBatch(requests);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), baseline.value().size());
    for (std::size_t i = 0; i < batch.value().size(); ++i) {
      ExpectSameStatistics(batch.value()[i], baseline.value()[i],
                           "batch @" + std::to_string(threads));
    }
    // Validation still rejects the whole batch before any work.
    EstimateRequest bad = mh;
    bad.vertex = 99;
    EXPECT_FALSE(engine.EstimateBatch({mh, bad}).ok());
  }
}

// --------------------------------------------------- intra-pass threads

TEST(ParallelBrandesTest, IntraPassSpdBitIdenticalToSequential) {
  // Frontier-parallel passes inside ExactBetweenness / BrandesBetweenness:
  // any spd.num_threads (grain 0 forces every level through the sharded
  // steps) must reproduce the sequential kernel bit-for-bit.
  const CsrGraph g = MakeBarabasiAlbert(350, 3, 11);
  const std::vector<double> exact_baseline = ExactBetweenness(g);
  // One baseline: ExactBetweenness is the 1-thread BrandesBetweenness, so
  // the two agree bit for bit.
  const std::vector<double> sharded_baseline =
      BrandesBetweenness(g, Normalization::kPaper, 1);
  ASSERT_EQ(exact_baseline, sharded_baseline);
  for (unsigned intra : kThreadCounts) {
    SpdOptions spd;
    spd.num_threads = intra;
    spd.parallel_grain = 0;
    EXPECT_EQ(ExactBetweenness(g, Normalization::kPaper, spd), exact_baseline)
        << intra << " intra-pass threads";
    // Source-parallel at 1 thread: the caller's intra-pass setting applies
    // within each pass.
    EXPECT_EQ(BrandesBetweenness(g, Normalization::kPaper, 1, spd),
              sharded_baseline)
        << intra << " intra-pass threads (source-serial)";
    // Source-parallel at >1 threads: pool splitting forces the passes
    // sequential; still bit-identical to the 1-thread sharded run.
    EXPECT_EQ(BrandesBetweenness(g, Normalization::kPaper, 4, spd),
              sharded_baseline)
        << intra << " intra-pass threads (source-parallel)";
  }
}

TEST(ParallelEngineTest, IntraPassThreadsInvariantForSerialQueries) {
  // A serial engine (num_threads = 1) with frontier-parallel passes must
  // report every statistical field bit-identically to the default.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kUniformSource,
        EstimatorKind::kShortestPath, EstimatorKind::kExact}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 250;
    request.seed = 0x17A;
    EngineOptions base_options;
    base_options.num_threads = 1;
    BetweennessEngine baseline_engine(g, base_options);
    const auto baseline = baseline_engine.Estimate(19, request);
    ASSERT_TRUE(baseline.ok());
    for (unsigned intra : kThreadCounts) {
      EngineOptions options;
      options.num_threads = 1;
      options.spd.num_threads = intra;
      options.spd.parallel_grain = 0;
      BetweennessEngine engine(g, options);
      const auto report = engine.Estimate(19, request);
      ASSERT_TRUE(report.ok());
      ExpectSameStatistics(report.value(), baseline.value(),
                           std::string(EstimatorKindName(kind)) + " @" +
                               std::to_string(intra) + " intra threads");
    }
  }
}

TEST(ParallelEngineTest, DefaultEngineRunsSequentialPassesAtEveryWidth) {
  // num_threads is the source-parallel axis only: a default engine's passes
  // are sequential at every pool width, and its reports match 1 thread.
  EXPECT_EQ(EngineOptions{}.spd.num_threads, 1u);
  EXPECT_EQ(SpdOptions{}.num_threads, 1u);
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  const std::vector<VertexId> vertices{9, 19, 29, 39, 49, 59, 3, 14};
  for (EstimatorKind kind :
       {EstimatorKind::kMetropolisHastings, EstimatorKind::kShortestPath}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 300;
    request.seed = 0xDE7;
    const std::vector<EstimateReport> baseline =
        ManyAtThreads(g, 1, request, vertices);
    BetweennessEngine serial_engine(g, EngineOptions{});
    const auto serial = serial_engine.Estimate(19, request);
    ASSERT_TRUE(serial.ok());
    for (unsigned threads : kThreadCounts) {
      EngineOptions options;
      options.num_threads = threads;
      BetweennessEngine engine(g, options);
      EXPECT_EQ(engine.options().spd.num_threads, 1u);
      const std::string label = std::string(EstimatorKindName(kind)) + " @" +
                                std::to_string(threads);
      const auto single = engine.Estimate(19, request);
      ASSERT_TRUE(single.ok());
      ExpectSameStatistics(single.value(), serial.value(), "single " + label);
      // A fresh default engine, so the fan-out builds its own RK credit
      // vector rather than serving the single query's.
      const std::vector<EstimateReport> many =
          ManyAtThreads(g, threads, request, vertices);
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        ExpectSameStatistics(many[i], baseline[i], "many " + label);
      }
    }
  }
}

TEST(ParallelEngineTest, ExplicitIntraPassWidthStaysBitIdentical) {
  // An explicit spd.num_threads runs frontier-parallel passes for single
  // queries and fan-outs of any size; every composition with the engine
  // width must stay bit-neutral.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  const std::vector<VertexId> vertices{9, 19, 29, 39, 49, 59, 3, 14};
  const std::vector<VertexId> pair{9, 19};
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 300;
  request.seed = 0xDE7;
  const std::vector<EstimateReport> baseline =
      ManyAtThreads(g, 1, request, vertices);
  for (unsigned threads : kThreadCounts) {
    for (unsigned intra : kThreadCounts) {
      EngineOptions options;
      options.num_threads = threads;
      options.spd.num_threads = intra;
      options.spd.parallel_grain = 0;
      BetweennessEngine engine(g, options);
      const std::string label = std::to_string(threads) + " threads x " +
                                std::to_string(intra) + " intra";
      const auto single = engine.Estimate(19, request);
      ASSERT_TRUE(single.ok());
      ExpectSameStatistics(single.value(), baseline[1], "single " + label);
      auto few = engine.EstimateMany(pair, request);
      ASSERT_TRUE(few.ok());
      for (std::size_t i = 0; i < pair.size(); ++i) {
        ExpectSameStatistics(few.value()[i], baseline[i], "few " + label);
      }
      auto many = engine.EstimateMany(vertices, request);
      ASSERT_TRUE(many.ok());
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        ExpectSameStatistics(many.value()[i], baseline[i], "many " + label);
      }
    }
  }
}

TEST(ParallelEngineTest, IntraPassAfterApplyDeltaMatchesColdEngine) {
  // The mutation contract extends to frontier-parallel passes: after
  // ApplyDelta, reports must match a cold engine built on the post-edit
  // graph at every intra-pass width.
  const CsrGraph g = MakeBarabasiAlbert(220, 3, 0x1D);
  const GraphDelta delta = MakeRandomEditScript(g, 12, 0xED17);
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 220;
  request.seed = 0xF00;
  for (unsigned intra : kThreadCounts) {
    EngineOptions options;
    options.num_threads = 1;
    options.spd.num_threads = intra;
    options.spd.parallel_grain = 0;
    BetweennessEngine engine(g, options);
    ASSERT_TRUE(engine.Estimate(7, request).ok());  // warm the memo
    ASSERT_TRUE(engine.ApplyDelta(delta).ok());
    const auto edited = engine.Estimate(7, request);
    ASSERT_TRUE(edited.ok());
    BetweennessEngine cold(engine.graph(), options);
    const auto cold_report = cold.Estimate(7, request);
    ASSERT_TRUE(cold_report.ok());
    ExpectSameStatistics(edited.value(), cold_report.value(),
                         "post-delta @" + std::to_string(intra));
  }
}

TEST(ParallelEngineTest, FollowUpQueryReusesFanOutPasses) {
  // After a fan-out on a 4-thread engine, a single query on the same
  // engine must reuse the fan-out's passes through the shared memo.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  EngineOptions options;
  options.num_threads = 4;
  BetweennessEngine engine(g, options);
  EstimateRequest request;
  request.kind = EstimatorKind::kUniformSource;
  request.samples = 400;  // >> n = 60: every source gets sampled
  request.seed = 0x5EED;
  ASSERT_TRUE(engine.EstimateMany({9, 19, 29, 39}, request).ok());
  const std::uint64_t passes_before = engine.total_sp_passes();
  const auto sequential = engine.Estimate(49, request);
  ASSERT_TRUE(sequential.ok());
  EXPECT_TRUE(sequential.value().cache_hit);
  // The shared memo means the follow-up costs less than a cold engine pays.
  BetweennessEngine cold(g);
  const auto cold_report = cold.Estimate(49, request);
  ASSERT_TRUE(cold_report.ok());
  EXPECT_LT(engine.total_sp_passes() - passes_before,
            cold_report.value().sp_passes);
  EXPECT_EQ(sequential.value().value, cold_report.value().value);
}

TEST(ParallelEngineTest, FanOutPaysTheSamePassesAtEveryWidth) {
  // EstimateMany serves in order on the engine's one memo, so a wider
  // engine pays no extra passes for the same fan-out.
  const CsrGraph g = MakeConnectedCaveman(6, 10);
  const std::vector<VertexId> vertices{9, 19, 29, 39, 49, 59, 3, 14};
  for (EstimatorKind kind :
       {EstimatorKind::kUniformSource, EstimatorKind::kMetropolisHastings}) {
    EstimateRequest request;
    request.kind = kind;
    request.samples = 300;
    request.seed = 0xFA0;
    BetweennessEngine serial(g, EngineOptions{});
    ASSERT_TRUE(serial.EstimateMany(vertices, request).ok());
    for (unsigned threads : {2u, 4u, 8u}) {
      EngineOptions options;
      options.num_threads = threads;
      BetweennessEngine engine(g, options);
      ASSERT_TRUE(engine.EstimateMany(vertices, request).ok());
      EXPECT_EQ(engine.total_sp_passes(), serial.total_sp_passes())
          << EstimatorKindName(kind) << " @" << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace mhbc
