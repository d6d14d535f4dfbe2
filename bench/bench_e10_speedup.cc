// E10 — Speedup vs exact Brandes: pass-count and wall-clock comparison of
// the MH sampler at the Eq. 14 budget (mu measured exactly) against the
// full exact computation for one vertex. The sampler wins whenever
// T(eps, delta) << n. Budgets beyond a measurement cap are *projected*
// from the measured per-pass cost (running 1.4e8 passes literally would
// be pointless); projected rows are marked with '*'.
//
// The MH run goes through a fresh BetweennessEngine per dataset (memo
// disabled so every iteration pays its pass — this harness measures raw
// per-pass cost, not cache amortization).

#include <algorithm>

#include "bench_common.h"
#include "centrality/engine.h"
#include "core/theory.h"
#include "datasets/registry.h"
#include "util/timer.h"

int main() {
  using namespace mhbc;
  bench::Banner("E10", "speedup vs exact Brandes at the Eq. 14 budget");
  bench::JsonReport json("e10");
  const double kEps = 0.1, kDelta = 0.1;
  constexpr std::uint64_t kRunCap = 20'000;

  Table table({"dataset", "n", "target", "mu(r)", "T(Eq.14)", "n/T",
               "exact ms", "mh ms", "speedup"});
  for (const std::string& name : DefaultExperimentDatasets()) {
    const CsrGraph graph = std::move(MakeDataset(name)).value();
    const bench::TargetSet targets = bench::PickTargets(graph);
    const VertexId r = targets.hub;

    WallTimer exact_timer;
    const double exact = ExactBetweennessSingle(graph, r);
    const double exact_seconds = exact_timer.ElapsedSeconds();
    if (exact == 0.0) continue;

    const double mu = MuFromProfile(DependencyProfile(graph, r));
    const std::uint64_t budget = SampleBound(mu, kEps, kDelta);
    const std::uint64_t run_budget = std::min(budget, kRunCap);

    EngineOptions engine_options;
    // No memo: every chain step pays one (target-scoped) pass.
    engine_options.dependency_cache_bytes = 0;
    BetweennessEngine engine(graph, engine_options);
    EstimateRequest request;
    request.kind = EstimatorKind::kMetropolisHastings;
    request.samples = run_budget;
    request.seed = 0xE10;
    const auto result = engine.Estimate(r, request);
    const double measured_seconds = result.value().seconds;
    const bool projected = budget > run_budget;
    const double mh_seconds =
        projected ? measured_seconds * static_cast<double>(budget) /
                        static_cast<double>(run_budget)
                  : measured_seconds;

    table.AddRow(
        {name, FormatCount(graph.num_vertices()), "hub", FormatDouble(mu, 1),
         FormatCount(budget) + (projected ? "*" : ""),
         FormatDouble(static_cast<double>(graph.num_vertices()) /
                          static_cast<double>(budget + 1),
                      2),
         FormatDouble(1e3 * exact_seconds, 1),
         FormatDouble(1e3 * mh_seconds, 1) + (projected ? "*" : ""),
         FormatDouble(exact_seconds / mh_seconds, 2) +
             (projected ? "*" : "")});
  }
  bench::EmitTable(
      &json,
      "E10: exact-vs-MH cost at the Eq. 14 budget ('*' = projected from "
      "per-pass cost; speedup < 1 means the bound exceeds exact cost)",
      table);
  json.Write();
  return 0;
}
