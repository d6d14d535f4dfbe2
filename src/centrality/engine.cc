#include "centrality/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "baselines/distance_sampler.h"
#include "baselines/geisberger_sampler.h"
#include "baselines/rk_sampler.h"
#include "baselines/uniform_sampler.h"
#include "core/diagnostics.h"
#include "exact/brandes.h"
#include "graph/graph_stats.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mhbc {

namespace {

/// Batch size of the adaptive iid budgets, and the first chain length of
/// the adaptive chain budgets (which then double).
constexpr std::uint64_t kAdaptiveBatch = 128;
/// kSamples budgets split into up to this many batches so the report
/// carries a standard error. For the iid source samplers batching only
/// regroups one sample stream; for the RK credit vector the batches are
/// independently seeded (what lets it build in parallel), so this count is
/// part of the RK sampling plan.
constexpr std::uint64_t kReportBatches = 16;
/// Double-sweep probes for the cached vertex-diameter estimate backing
/// TopK's VC sample bound.
constexpr std::uint32_t kDiameterProbes = 4;

}  // namespace

// ------------------------------------------------------------- registry

namespace {

EstimatorEntry MakeEntry(EstimatorKind kind) {
  EstimatorEntry entry;
  entry.kind = kind;
  entry.name = EstimatorKindName(kind);
  entry.supports_weighted = true;
  entry.supports_directed = true;
  entry.chain_based = false;
  switch (kind) {
    case EstimatorKind::kExact:
      entry.summary = "exact Brandes (n passes, zero error)";
      break;
    case EstimatorKind::kMetropolisHastings:
      entry.summary = "single-space MH chain average (paper Eq. 7)";
      entry.chain_based = true;
      break;
    case EstimatorKind::kMhRaoBlackwell:
      entry.summary = "unbiased Rao-Blackwellized MH companion";
      entry.chain_based = true;
      break;
    case EstimatorKind::kUniformSource:
      entry.summary = "uniform source sampling (Bader et al.)";
      break;
    case EstimatorKind::kDistanceProportional:
      entry.summary = "distance-proportional sources (Chehreghani [13])";
      entry.supports_directed = false;
      break;
    case EstimatorKind::kShortestPath:
      entry.summary = "Riondato-Kornaropoulos shortest-path sampling";
      break;
    case EstimatorKind::kLinearScaling:
      entry.summary =
          "Geisberger linear-scaling sources (undirected, unweighted only)";
      entry.supports_weighted = false;
      entry.supports_directed = false;
      break;
  }
  return entry;
}

}  // namespace

const std::vector<EstimatorEntry>& EstimatorRegistry() {
  static const std::vector<EstimatorEntry>* kRegistry = [] {
    auto* entries = new std::vector<EstimatorEntry>();
    for (EstimatorKind kind : AllEstimatorKinds()) {
      entries->push_back(MakeEntry(kind));
    }
    return entries;
  }();
  return *kRegistry;
}

const EstimatorEntry* FindEstimator(EstimatorKind kind) {
  for (const EstimatorEntry& entry : EstimatorRegistry()) {
    if (entry.kind == kind) return &entry;
  }
  return nullptr;
}

const EstimatorEntry* FindEstimator(const std::string& name) {
  // One name-resolution path: delegate to the canonical parser so a
  // future alias cannot make the CLI and the registry disagree.
  EstimatorKind kind;
  if (!ParseEstimatorKind(name, &kind)) return nullptr;
  return FindEstimator(kind);
}

Status CheckEstimatorSupportsGraph(const EstimatorEntry& entry,
                                   const CsrGraph& graph) {
  if (graph.weighted() && !entry.supports_weighted) {
    return Status::InvalidArgument(std::string(entry.name) +
                                   " estimator supports unweighted graphs "
                                   "only");
  }
  if (graph.directed() && !entry.supports_directed) {
    return Status::InvalidArgument(std::string(entry.name) +
                                   " estimator supports undirected graphs "
                                   "only");
  }
  return Status::Ok();
}

// ------------------------------------------------------- cached results

struct BetweennessEngine::RkCredit {
  std::uint64_t samples = 0;
  std::uint64_t seed = 0;
  /// Paper-normalized estimates for every vertex.
  std::vector<double> values;
  /// Per-vertex batch-means standard error of `values` (0 for a single
  /// batch), so a cache serve reports the same spread as the build.
  std::vector<double> std_errors;
};

struct BetweennessEngine::JointCache {
  std::vector<VertexId> targets;
  std::uint64_t iterations = 0;
  std::uint64_t seed = 0;
  JointResult result;
};

// ---------------------------------------------------------- construction

BetweennessEngine::BetweennessEngine(const CsrGraph& graph,
                                     EngineOptions options,
                                     std::shared_ptr<DependencyMemo> memo)
    : graph_(&graph), options_(options), memo_(std::move(memo)) {}

BetweennessEngine::~BetweennessEngine() = default;

// ------------------------------------------------------------ lazy state

std::size_t BetweennessEngine::DependencyCacheEntries(
    const CsrGraph& graph) const {
  // Entry capacity from the byte budget; more than n entries can never be
  // used. One entry is the memoized vector (n doubles) plus the pass
  // distances kept for ApplyDelta's selective invalidation (n u32 hop
  // distances unweighted, n double weighted distances weighted).
  const std::size_t bytes_per_entry =
      static_cast<std::size_t>(graph.num_vertices()) *
      (graph.weighted() ? sizeof(double) + sizeof(double)
                        : sizeof(double) + sizeof(std::uint32_t));
  if (bytes_per_entry == 0) return 0;
  return std::min<std::size_t>(
      options_.dependency_cache_bytes / bytes_per_entry,
      graph.num_vertices());
}

DependencyOracle* BetweennessEngine::oracle() {
  if (!oracle_) {
    oracle_ = std::make_unique<DependencyOracle>(*graph_, options_.spd, memo_);
    oracle_->set_cache_capacity(DependencyCacheEntries(*graph_));
  }
  return oracle_.get();
}

MhBetweennessSampler* BetweennessEngine::mh_sampler() {
  if (!mh_) {
    MhOptions mh_options;
    mh_options.record_series = true;  // f/proposal series feed diagnostics
    mh_ = std::make_unique<MhBetweennessSampler>(*graph_, mh_options,
                                                 oracle());
  }
  return mh_.get();
}

UniformSourceSampler* BetweennessEngine::uniform_sampler() {
  if (!uniform_) {
    uniform_ = std::make_unique<UniformSourceSampler>(*graph_, /*seed=*/0,
                                                      oracle());
  }
  return uniform_.get();
}

DistanceProportionalSampler* BetweennessEngine::distance_sampler() {
  if (!distance_) {
    distance_ = std::make_unique<DistanceProportionalSampler>(
        *graph_, /*seed=*/0, oracle());
  }
  return distance_.get();
}

RkSampler* BetweennessEngine::rk_sampler() {
  if (!rk_) {
    rk_ = std::make_unique<RkSampler>(*graph_, /*seed=*/0, oracle());
  }
  return rk_.get();
}

GeisbergerSampler* BetweennessEngine::geisberger_sampler() {
  if (!geisberger_) {
    geisberger_ = std::make_unique<GeisbergerSampler>(*graph_, /*seed=*/0,
                                                      oracle());
  }
  return geisberger_.get();
}

unsigned BetweennessEngine::resolved_threads() const {
  return ResolveThreadCount(options_.num_threads);
}

ThreadPool* BetweennessEngine::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(resolved_threads());
  return pool_.get();
}

const std::vector<double>& BetweennessEngine::exact_scores() {
  if (!exact_ready_) {
    exact_scores_ = BrandesBetweenness(*graph_, Normalization::kPaper,
                                       resolved_threads(), options_.spd);
    extra_passes_ += graph_->num_vertices();
    exact_ready_ = true;
  }
  return exact_scores_;
}

std::uint32_t BetweennessEngine::vertex_diameter(std::uint64_t seed) {
  if (!vertex_diameter_.has_value() || diameter_seed_ != seed) {
    vertex_diameter_ =
        ApproxVertexDiameter(*graph_, kDiameterProbes, seed);
    diameter_seed_ = seed;
    extra_passes_ += 2ull * kDiameterProbes;  // double-sweep probes
  }
  return *vertex_diameter_;
}

const BetweennessEngine::RkCredit& BetweennessEngine::EnsureRkCredit(
    std::uint64_t samples, std::uint64_t seed, bool* served_from_cache) {
  if (rk_credit_ && rk_credit_->samples == samples &&
      rk_credit_->seed == seed) {
    *served_from_cache = true;
    return *rk_credit_;
  }
  *served_from_cache = false;
  const std::uint64_t batches = std::max<std::uint64_t>(
      1, std::min(kReportBatches, samples));
  const std::uint64_t base = samples / batches;
  const std::uint64_t extra = samples % batches;
  // Each batch runs a sampler stream seeded purely from (seed, batch
  // index) — the batch structure and seeds never depend on the thread
  // count, and the weighted merge below folds in batch order, so the
  // credit vector is bit-identical at any parallelism level. Samplers are
  // per worker and Reset to each batch seed (the documented reuse
  // contract: Reset reproduces a freshly-constructed sampler's stream),
  // so the per-worker pass scratch is paid once per worker, not once per
  // batch. Each worker's sampler runs its passes through its own uncached
  // oracle; those oracles die with this build, so their passes are added
  // to extra_passes_ below.
  struct Worker {
    std::unique_ptr<DependencyOracle> oracle;
    std::unique_ptr<RkSampler> sampler;
  };
  std::vector<Worker> workers(pool()->num_threads());
  const std::vector<std::vector<double>> batch_credit =
      ParallelMap<std::vector<double>>(
          pool(), static_cast<std::size_t>(batches),
          [this, seed, base, extra, &workers](unsigned worker_index,
                                              std::size_t b) {
            std::uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (b + 1);
            Worker& worker = workers[worker_index];
            if (worker.sampler == nullptr) {
              // With a parallel pool the batches are the parallel axis, so
              // per-worker oracles run sequential passes (intra-pass
              // threads would oversubscribe); a 1-wide pool runs batches
              // inline and the passes keep any explicit intra-pass width.
              SpdOptions batch_spd = options_.spd;
              if (pool()->num_threads() > 1) batch_spd.num_threads = 1;
              worker.oracle =
                  std::make_unique<DependencyOracle>(*graph_, batch_spd);
              worker.sampler = std::make_unique<RkSampler>(
                  *graph_, /*seed=*/0, worker.oracle.get());
            }
            worker.sampler->Reset(SplitMix64(&state));
            return worker.sampler->EstimateAll(base + (b < extra ? 1 : 0));
          });
  auto credit = std::make_unique<RkCredit>();
  credit->samples = samples;
  credit->seed = seed;
  credit->values.resize(graph_->num_vertices());
  credit->std_errors.resize(graph_->num_vertices());
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    // Batch order per vertex: the weighted mean and the batch-means
    // standard error every serve of this vector reports for v.
    double weighted_sum = 0.0;
    RunningStats batch_means;
    for (std::uint64_t b = 0; b < batches; ++b) {
      const double estimate = batch_credit[b][v];
      const double weight = static_cast<double>(base + (b < extra ? 1 : 0));
      weighted_sum += estimate * weight;
      batch_means.Add(estimate);
    }
    credit->values[v] = weighted_sum / static_cast<double>(samples);
    credit->std_errors[v] =
        batch_means.count() >= 2
            ? batch_means.stddev() /
                  std::sqrt(static_cast<double>(batch_means.count()))
            : 0.0;
  }
  for (const Worker& worker : workers) {
    if (worker.oracle) extra_passes_ += worker.oracle->num_passes();
  }
  rk_credit_ = std::move(credit);
  return *rk_credit_;
}

std::uint64_t BetweennessEngine::total_sp_passes() const {
  return extra_passes_ + (oracle_ ? oracle_->num_passes() : 0);
}

std::uint64_t BetweennessEngine::dependency_cache_hits() const {
  return oracle_ ? oracle_->cache_hits() : 0;
}

std::uint64_t BetweennessEngine::screened_reads() const {
  return oracle_ ? oracle_->screened_reads() : 0;
}

// ------------------------------------------------------------ validation

Status BetweennessEngine::ValidateRequest(
    VertexId r, const EstimateRequest& request) const {
  if (graph_->num_vertices() < 2) {
    return Status::InvalidArgument("graph needs at least two vertices");
  }
  if (r >= graph_->num_vertices()) {
    return Status::InvalidArgument(
        "vertex " + std::to_string(r) + " out of range (n=" +
        std::to_string(graph_->num_vertices()) + ")");
  }
  const EstimatorEntry* entry = FindEstimator(request.kind);
  if (entry == nullptr) {
    return Status::InvalidArgument("unknown estimator kind");
  }
  MHBC_RETURN_IF_ERROR(CheckEstimatorSupportsGraph(*entry, *graph_));
  if (request.kind == EstimatorKind::kExact) return Status::Ok();
  switch (request.budget) {
    case BudgetKind::kSamples:
      if (request.samples == 0) {
        return Status::InvalidArgument("sampling budget must be positive");
      }
      break;
    case BudgetKind::kDeadline:
      if (!(request.deadline_seconds > 0.0)) {
        return Status::InvalidArgument(
            "deadline_seconds must be positive for a deadline budget");
      }
      break;
    case BudgetKind::kStandardError:
      if (!(request.target_std_error > 0.0)) {
        return Status::InvalidArgument(
            "target_std_error must be positive for a standard-error budget");
      }
      break;
  }
  if (request.budget != BudgetKind::kSamples && request.max_samples == 0) {
    return Status::InvalidArgument("max_samples must be positive");
  }
  return Status::Ok();
}

Status BetweennessEngine::ValidateTargets(const std::vector<VertexId>& targets,
                                          std::uint64_t iterations) const {
  if (graph_->num_vertices() < 2) {
    return Status::InvalidArgument("graph needs at least two vertices");
  }
  if (targets.size() < 2) {
    return Status::InvalidArgument("need at least two target vertices");
  }
  if (iterations == 0) {
    return Status::InvalidArgument("iteration budget must be positive");
  }
  for (VertexId r : targets) {
    if (r >= graph_->num_vertices()) {
      return Status::InvalidArgument("target vertex " + std::to_string(r) +
                                     " out of range");
    }
  }
  std::vector<VertexId> sorted = targets;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("target vertices must be distinct");
  }
  return Status::Ok();
}

// -------------------------------------------------------------- serving

namespace {

/// Fills value / acceptance / ESS / std-error of a report from one chain
/// run. kMetropolisHastings reads the Eq. 7 chain average (standard error
/// via the Geyer ESS); kMhRaoBlackwell reads the unbiased proposal average
/// (its terms are iid, so plain sqrt(T) SE).
void FillChainReport(const MhResult& result, EstimatorKind kind,
                     EstimateReport* report) {
  report->acceptance_rate = result.diagnostics.acceptance_rate();
  if (kind == EstimatorKind::kMetropolisHastings) {
    report->value = result.estimate;
    RunningStats stats;
    for (double f : result.f_series) stats.Add(f);
    const double ess = EffectiveSampleSize(result.f_series);
    report->ess = ess;
    report->std_error =
        ess > 1.0 ? std::sqrt(stats.variance() / ess) : stats.stddev();
  } else {
    report->value = result.proposal_estimate;
    const double count = static_cast<double>(result.proposal_series.size());
    report->ess = count;
    report->std_error =
        count > 1.0 ? StdDev(result.proposal_series) / std::sqrt(count) : 0.0;
  }
}

/// The stop rule of the kDeadline / kStandardError budgets, checked by both
/// serving loops after each chain or batch with `used` samples behind the
/// report: a met standard-error target (`target_met`) or a passed deadline
/// stops converged; reaching max_samples first stops, unconverged under a
/// standard-error budget.
bool AdaptiveBudgetSpent(const EstimateRequest& request,
                         const WallTimer& timer, bool target_met,
                         std::uint64_t used, EstimateReport* report) {
  const bool se_mode = request.budget == BudgetKind::kStandardError;
  if (se_mode ? target_met
              : timer.ElapsedSeconds() >= request.deadline_seconds) {
    return true;
  }
  if (used < request.max_samples) return false;
  report->converged = !se_mode;
  return true;
}

}  // namespace

double BetweennessEngine::RunBatch(EstimatorKind kind, VertexId r,
                                   std::uint64_t count) {
  switch (kind) {
    case EstimatorKind::kUniformSource:
      return uniform_sampler()->Estimate(r, count);
    case EstimatorKind::kDistanceProportional:
      return distance_sampler()->Estimate(r, count);
    case EstimatorKind::kShortestPath:
      return rk_sampler()->Estimate(r, count);
    case EstimatorKind::kLinearScaling:
      return geisberger_sampler()->Estimate(r, count);
    default:
      MHBC_DCHECK(false);
      return 0.0;
  }
}

void BetweennessEngine::ServeChain(VertexId r, const EstimateRequest& request,
                                   EstimateReport* report) {
  // kSamples runs one chain of `samples` iterations. The adaptive budgets
  // re-run chains of doubling length from kAdaptiveBatch, reseeding before
  // every run so each chain is a pure function of (seed, length): the final
  // report is reproducible as a kSamples request with samples=samples_used
  // and the same seed. Total iterations stay within 2x the final chain
  // length, and replayed prefixes hit the dependency memo.
  WallTimer timer;
  MhBetweennessSampler* sampler = mh_sampler();
  const bool fixed = request.budget == BudgetKind::kSamples;
  std::uint64_t length =
      fixed ? request.samples : std::min(kAdaptiveBatch, request.max_samples);
  while (true) {
    sampler->Reset(request.seed);
    FillChainReport(sampler->Run(r, length), request.kind, report);
    report->samples_used = length;
    if (fixed ||
        AdaptiveBudgetSpent(request, timer,
                            report->std_error <= request.target_std_error,
                            length, report)) {
      return;
    }
    length = std::min(length * 2, request.max_samples);
  }
}

void BetweennessEngine::ServeBatches(VertexId r,
                                     const EstimateRequest& request,
                                     EstimateReport* report) {
  WallTimer timer;
  switch (request.kind) {
    case EstimatorKind::kUniformSource:
      uniform_sampler()->Reset(request.seed);
      break;
    case EstimatorKind::kDistanceProportional:
      distance_sampler()->Reset(request.seed);
      break;
    case EstimatorKind::kShortestPath:
      rk_sampler()->Reset(request.seed);
      break;
    case EstimatorKind::kLinearScaling:
      geisberger_sampler()->Reset(request.seed);
      break;
    default:
      MHBC_DCHECK(false);
  }
  // kSamples splits the budget into up to kReportBatches near-equal batches
  // so the report carries a standard error; the adaptive budgets draw
  // kAdaptiveBatch-sample batches until the stop rule fires. Either way the
  // weighted batch mean regroups one sample stream, so the estimate equals
  // a single call of the total size, and the batch means give the error.
  const bool fixed = request.budget == BudgetKind::kSamples;
  const std::uint64_t batches =
      std::max<std::uint64_t>(1, std::min(kReportBatches, request.samples));
  const std::uint64_t base = request.samples / batches;
  const std::uint64_t extra = request.samples % batches;
  double weighted_sum = 0.0;
  std::uint64_t total = 0;
  RunningStats batch_means;
  while (true) {
    const std::uint64_t size =
        fixed ? base + (batch_means.count() < extra ? 1 : 0)
              : std::min(kAdaptiveBatch, request.max_samples - total);
    const double estimate = RunBatch(request.kind, r, size);
    weighted_sum += estimate * static_cast<double>(size);
    total += size;
    batch_means.Add(estimate);
    report->value = weighted_sum / static_cast<double>(total);
    report->samples_used = total;
    report->ess = static_cast<double>(total);
    if (batch_means.count() >= 2) {
      report->std_error = batch_means.stddev() /
                          std::sqrt(static_cast<double>(batch_means.count()));
    }
    if (fixed ? total == request.samples
              : AdaptiveBudgetSpent(
                    request, timer,
                    batch_means.count() >= 3 &&
                        report->std_error <= request.target_std_error,
                    total, report)) {
      return;
    }
  }
}

StatusOr<EstimateReport> BetweennessEngine::Estimate(
    VertexId r, const EstimateRequest& request) {
  return EstimateTarget(r, request, /*one_target_call=*/true);
}

StatusOr<EstimateReport> BetweennessEngine::EstimateTarget(
    VertexId r, const EstimateRequest& request, bool one_target_call) {
  const Status status = ValidateRequest(r, request);
  if (!status.ok()) return status;
  // A call that reads one target from a memo too small to hold a pass
  // from every source runs target-scoped passes: most of its whole
  // vectors would be evicted unread. With a nonzero memo on an undirected
  // graph it also answers zero dependencies from the target's zero screen
  // (DependencyOracle). Multi-target calls keep full passes, which serve
  // every target. Values are bit-identical either way.
  const bool scoped = one_target_call && DependencyCacheEntries(*graph_) <
                                             graph_->num_vertices();

  EstimateReport report;
  report.vertex = r;
  report.kind = request.kind;
  const std::uint64_t passes_before = total_sp_passes();
  const std::uint64_t hits_before = dependency_cache_hits();
  const std::uint64_t screened_before = screened_reads();
  WallTimer timer;

  if (request.kind == EstimatorKind::kExact) {
    report.cache_hit = exact_ready_;
    report.value = exact_scores()[r];
  } else if (FindEstimator(request.kind)->chain_based) {
    oracle()->set_scoped_reads(scoped);
    ServeChain(r, request, &report);
  } else if (request.kind == EstimatorKind::kShortestPath &&
             request.budget == BudgetKind::kSamples) {
    // A credit vector from an earlier query (or TopK) serves any vertex at
    // zero passes, with the statistics the build computed for it.
    bool served_from_cache = false;
    const RkCredit& credit =
        EnsureRkCredit(request.samples, request.seed, &served_from_cache);
    report.cache_hit = served_from_cache;
    report.value = credit.values[r];
    report.samples_used = request.samples;
    report.ess = static_cast<double>(request.samples);
    report.std_error = credit.std_errors[r];
  } else {
    oracle()->set_scoped_reads(scoped);
    ServeBatches(r, request, &report);
  }

  report.seconds = timer.ElapsedSeconds();
  report.sp_passes = total_sp_passes() - passes_before;
  report.cache_hit =
      report.cache_hit || dependency_cache_hits() > hits_before;
  report.screened_reads = screened_reads() - screened_before;
  report.ci_half_width = request.z * report.std_error;
  return report;
}

StatusOr<std::vector<EstimateReport>> BetweennessEngine::EstimateBatch(
    const std::vector<EstimateRequest>& requests) {
  for (const EstimateRequest& request : requests) {
    const Status status = ValidateRequest(request.vertex, request);
    if (!status.ok()) return status;  // fail fast, before any work
  }
  // In order on the one shared memo: a pass paid for one query serves every
  // later query that proposes the same source. A batch naming one vertex
  // reads one target, like Estimate.
  const bool one_target =
      std::all_of(requests.begin(), requests.end(),
                  [&requests](const EstimateRequest& request) {
                    return request.vertex == requests.front().vertex;
                  });
  std::vector<EstimateReport> reports;
  reports.reserve(requests.size());
  for (const EstimateRequest& request : requests) {
    StatusOr<EstimateReport> report =
        EstimateTarget(request.vertex, request, one_target);
    if (!report.ok()) return report.status();
    reports.push_back(std::move(report).value());
  }
  return reports;
}

StatusOr<std::vector<EstimateReport>> BetweennessEngine::EstimateMany(
    const std::vector<VertexId>& vertices, const EstimateRequest& request) {
  std::vector<EstimateRequest> requests(vertices.size(), request);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    requests[i].vertex = vertices[i];
  }
  return EstimateBatch(requests);
}

StatusOr<JointResult> BetweennessEngine::EstimateRelative(
    const std::vector<VertexId>& targets, std::uint64_t iterations,
    std::uint64_t seed) {
  const Status status = ValidateTargets(targets, iterations);
  if (!status.ok()) return status;
  if (joint_cache_ && joint_cache_->targets == targets &&
      joint_cache_->iterations == iterations && joint_cache_->seed == seed) {
    return joint_cache_->result;
  }
  JointOptions joint_options;
  joint_options.seed = seed;
  JointSpaceSampler sampler(*graph_, targets, joint_options, oracle());
  auto cache = std::make_unique<JointCache>();
  cache->targets = targets;
  cache->iterations = iterations;
  cache->seed = seed;
  cache->result = sampler.Run(iterations);
  joint_cache_ = std::move(cache);
  return joint_cache_->result;
}

StatusOr<std::vector<std::size_t>> BetweennessEngine::RankTargets(
    const std::vector<VertexId>& targets, std::uint64_t iterations,
    std::uint64_t seed) {
  StatusOr<JointResult> result = EstimateRelative(targets, iterations, seed);
  if (!result.ok()) return result.status();
  return RankOrderFromScores(result.value().copeland_scores);
}

StatusOr<std::vector<TopKEntry>> BetweennessEngine::TopK(std::uint32_t k,
                                                         double eps,
                                                         double delta,
                                                         std::uint64_t seed) {
  if (graph_->num_vertices() < 2) {
    return Status::InvalidArgument("graph needs at least two vertices");
  }
  if (k == 0 || k > graph_->num_vertices()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (!(eps > 0.0 && eps < 1.0) || !(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("eps and delta must lie in (0, 1)");
  }
  const std::uint32_t diameter = std::max(vertex_diameter(seed), 2u);
  const std::uint64_t samples = RkSampler::SampleBound(diameter, eps, delta);
  bool served_from_cache = false;
  const RkCredit& credit = EnsureRkCredit(samples, seed, &served_from_cache);
  const std::vector<std::size_t> order = RankOrderFromScores(credit.values);
  std::vector<TopKEntry> top;
  top.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    top.push_back(TopKEntry{static_cast<VertexId>(order[i]),
                            credit.values[order[i]]});
  }
  return top;
}

// -------------------------------------------------------------- mutation

Status BetweennessEngine::ApplyDelta(const GraphDelta& delta) {
  if (delta.empty()) return Status::Ok();
  if (!dynamic_) {
    // First mutation: take over graph ownership. The graph starts as a
    // zero-copy *view* of the construction graph's out-CSR — no O(n+m)
    // copy, and nothing heavy retained if this first delta is rejected.
    // The view never dangles: the construction graph outlives the engine
    // per the constructor contract, and the first successful Apply
    // replaces it with owned storage.
    dynamic_ = std::make_unique<DynamicGraph>(CsrGraph::WrapExternal(
        graph_->raw_offsets(), graph_->raw_adjacency(),
        graph_->raw_weights(), graph_->name(), graph_->directed()));
  }
  std::vector<GraphEdit> resolved;
  MHBC_RETURN_IF_ERROR(dynamic_->Apply(delta, &resolved));
  Rebind(dynamic_->Csr(), resolved);
  return Status::Ok();
}

void BetweennessEngine::Rebind(const CsrGraph& edited,
                               std::span<const GraphEdit> resolved) {
  // The edit may already have freed the pre-edit arrays (always, once the
  // graph is owned): nothing below may read state bound to them until it
  // is reset (the oracle's ApplyGraphDelta reads only the new graph and
  // tables the oracle owns). Samplers rebuild lazily on next use.
  // Whole-graph products (exact scores, RK credit vector, diameter
  // estimate, joint-space result) are aggregates over all vertex pairs,
  // which any edge edit — or, for a vertex append, the n-dependent
  // normalization — touches, so they always reset; the dependency memo is
  // the selectively-surviving part, handled by the oracle below.
  mh_.reset();
  uniform_.reset();
  distance_.reset();
  rk_.reset();
  geisberger_.reset();
  exact_scores_.clear();
  exact_ready_ = false;
  vertex_diameter_.reset();
  rk_credit_.reset();
  joint_cache_.reset();

  if (oracle_) {
    oracle_->ApplyGraphDelta(edited, resolved);
    oracle_->set_cache_capacity(DependencyCacheEntries(edited));
  }
  graph_ = &edited;
  ++graph_epoch_;
}

}  // namespace mhbc
