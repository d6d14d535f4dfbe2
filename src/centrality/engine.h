#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "centrality/estimate.h"
#include "core/joint_space.h"
#include "core/mh_betweenness.h"
#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "sp/spd.h"
#include "util/status.h"

/// \file
/// BetweennessEngine — the session-object estimation API.
///
/// Every estimator in this library is a "pay setup once, then iterate"
/// algorithm, and one shortest-path pass from a source v yields the
/// dependency of v on *every* target at once. An engine exploits both: it
/// is constructed once per graph, owns lazily-built per-estimator state
/// (a memoizing dependency oracle — the engine's one SPD kernel, through
/// which every sampler runs its passes — distance proposal tables, the RK
/// diameter probe and all-vertices credit vector, cached exact scores, the
/// last joint-space result), and serves
/// EstimateRequest -> EstimateReport queries whose work amortizes across
/// calls. Querying a second vertex on a live engine costs strictly fewer
/// shortest-path passes than a second one-shot call, because dependency
/// vectors computed for the first query are served from the memo. That
/// holds while the memo can keep a pass from every source; below that
/// budget single-vertex queries run target-scoped passes instead (see
/// EngineOptions::dependency_cache_bytes).
///
/// Quickstart:
/// \code
///   mhbc::BetweennessEngine engine(graph);
///   mhbc::EstimateRequest req;
///   req.kind = mhbc::EstimatorKind::kMetropolisHastings;
///   req.samples = 2'000;
///   auto a = engine.Estimate(10, req);   // pays the passes
///   auto b = engine.Estimate(11, req);   // reuses a's dependency vectors
///   // b.value().std_error, .acceptance_rate, .ess, .cache_hit ...
/// \endcode
///
/// Reports are deterministic: a fixed (request, engine-construction) pair
/// reproduces the same value bit-for-bit no matter how many queries ran in
/// between (samplers are Reset to the request seed per query, and memo
/// hits return bit-identical vectors), only the work accounting differs.
/// The SPD tuning knobs (EngineOptions::spd) are deliberately *outside*
/// the determinism key: dependency vectors — and therefore every
/// statistical report field — are bit-identical across α/β settings,
/// because the BFS kernel emits the canonical per-level ascending order in
/// either traversal direction and the backward sweep is pinned to it
/// (sp/spd.h). Tuning changes how fast a pass runs, never what it returns.
///
/// Parallelism and the thread contract. EngineOptions::num_threads
/// parallelizes two whole-graph builds *inside* the engine: the exact-score
/// build runs the source-parallel Brandes, and the RK credit vector
/// accumulates its sample batches concurrently. Multi-vertex queries
/// (EstimateMany / EstimateBatch) serve in order on the engine's one
/// dependency memo: one pass from a proposal v yields delta_v(r) for every
/// target r, so a pass paid for one query serves the later ones, and a
/// fan-out costs the same passes at every num_threads. Because every
/// per-vertex report is a pure function of (graph, request) and every
/// parallel reduction uses a fixed, thread-count-independent grouping, all
/// *statistical* report fields — value, samples_used, acceptance_rate,
/// ess, std_error, ci_half_width, converged — are bit-identical at every
/// num_threads setting. Work accounting (sp_passes attribution, cache_hit,
/// screened_reads, seconds) is excluded from that guarantee, as are
/// kDeadline budgets (wall-clock stop rules are nondeterministic even
/// sequentially).
/// Chain-driven calls (EstimateRelative / RankTargets) stay sequential by
/// design: a Markov chain is one serial dependency, and splitting it would
/// change the estimator.
///
/// One thread budget, one parallel axis per call. num_threads never widens
/// a pass: a frontier-parallel pass costs about twice the CPU of a
/// sequential one and wins wall time only on large graphs, so serial-path
/// passes run at spd.num_threads (default 1) and intra-pass threads are an
/// explicit latency knob. The fan-out workers (Brandes, RK batches on a
/// pool wider than 1) force their passes sequential so the axes never
/// multiply. Every choice here is bit-neutral: every num_threads and
/// spd.num_threads value produces identical statistical fields.
///
/// External thread-compatibility is unchanged: concurrent calls into ONE
/// engine still require external synchronization (queries mutate shared
/// caches). For concurrent serving either put a mutex in front of one
/// engine or give each server worker its own engine. Such engines share
/// one graph object and, when constructed with one, a DependencyMemo: the
/// memo is the one piece of engine state that is safe to share, so a pass
/// any session paid for serves every session (the serving catalog builds
/// one graph and one memo per entry). Pass and hit counters stay per
/// engine.
///
/// Graph mutation. ApplyDelta(delta) edits the served graph in place
/// (an internal DynamicGraph writes the post-edit CSR; see
/// graph/dynamic_graph.h) and advances graph_epoch(). The determinism contract extends to
/// mutation: after ApplyDelta, every statistical report field is
/// bit-identical to what a cold engine constructed on the post-edit graph
/// (same options) would return for the same request — at every thread
/// count and SPD tuning setting. Whole-graph products (exact scores, the
/// RK credit vector, the diameter probe, the joint-space result) are
/// rebuilt on next use; the dependency memo survives *selectively* —
/// only cached passes whose BFS trees an edit touches are dropped
/// (DependencyOracle::ApplyGraphDelta), which is what makes a small edit
/// batch cheaper to re-estimate than a cold rebuild. After the first
/// ApplyDelta, graph() returns the engine-owned post-edit graph; the
/// construction graph is no longer referenced.
///
/// Engines that share a graph object edit it once, outside any engine,
/// and then call Rebind(edited, resolved) on each of them: the second
/// half of ApplyDelta, with the same contract. Engines that share a memo
/// must all rebind to a batch before any of them reads again; the first
/// rebind invalidates the memo and the others find nothing left to drop
/// (DependencyMemo). The serving catalog's GraphEntry::Mutate guarantees
/// this for its sessions.

namespace mhbc {

class UniformSourceSampler;
class DistanceProportionalSampler;
class RkSampler;
class GeisbergerSampler;
class ThreadPool;

/// How an EstimateRequest's budget is interpreted.
enum class BudgetKind {
  /// Spend exactly `samples` samples / chain iterations (kExact: n/a).
  kSamples,
  /// Keep sampling until `deadline_seconds` of wall clock.
  kDeadline,
  /// Keep sampling until the estimate's standard error drops to
  /// `target_std_error` (or `max_samples` is hit); KADABRA-style
  /// adaptivity driven by batch means / chain ESS. Chain estimators re-run
  /// doubling chains, the iid kinds draw fixed-size batches.
  kStandardError,
};

/// One estimation query: the budget is a sample count, a wall-clock
/// deadline, or a target standard error.
struct EstimateRequest {
  /// Target vertex — used by EstimateBatch; Estimate/EstimateMany take the
  /// vertex as an argument and ignore this field.
  VertexId vertex = kInvalidVertex;
  EstimatorKind kind = EstimatorKind::kMetropolisHastings;
  BudgetKind budget = BudgetKind::kSamples;
  /// kSamples: the exact budget. Other budgets: ignored.
  std::uint64_t samples = 1000;
  /// kDeadline only: wall-clock budget in seconds (> 0).
  double deadline_seconds = 0.0;
  /// kStandardError only: stop once std_error <= this (> 0).
  double target_std_error = 0.0;
  /// Normal quantile for the reported confidence half-width (1.96 ~ 95%).
  double z = 1.96;
  /// Safety valve for kDeadline / kStandardError runs.
  std::uint64_t max_samples = 1 << 20;
  std::uint64_t seed = 0x5eed;
};

/// Outcome of one engine query: the plain estimate plus diagnostics.
struct EstimateReport : BetweennessEstimate {
  /// The queried vertex.
  VertexId vertex = kInvalidVertex;
  /// Samples / chain iterations backing `value` (0 for kExact; an RK
  /// credit-vector serve reports the samples the vector was built from).
  /// For adaptive chain budgets this is the *final* chain's length — the
  /// value is reproducible as a kSamples request with this count and the
  /// same seed; the doubling re-runs' total work shows up in sp_passes.
  std::uint64_t samples_used = 0;
  /// Fraction of MH proposals accepted (chain estimators only, else 0).
  double acceptance_rate = 0.0;
  /// Effective sample size: Geyer ESS of the chain's f-series for
  /// kMetropolisHastings, the iid draw count otherwise (0 for kExact).
  double ess = 0.0;
  /// Standard error of `value` (0 when not measurable: kExact or
  /// single-batch runs).
  double std_error = 0.0;
  /// z * std_error — the normal-approximation confidence half-width.
  double ci_half_width = 0.0;
  /// True when engine caches did part of the work: dependency-memo hits,
  /// or a whole-result serve (exact scores, RK credit vector).
  bool cache_hit = false;
  /// Dependency reads a zero screen answered without a pass (work
  /// accounting, like sp_passes; see EngineOptions::dependency_cache_bytes).
  std::uint64_t screened_reads = 0;
  /// kStandardError: whether the target was met before max_samples.
  /// Other budgets: always true.
  bool converged = true;
};

/// Engine-wide knobs.
struct EngineOptions {
  /// Memory budget (bytes) for the shared dependency-vector memo; the
  /// engine derives the entry capacity as budget / per-entry-bytes (n
  /// doubles, plus n u32 hop distances unweighted or n double weighted
  /// distances weighted, kept for edit invalidation), so the footprint
  /// stays bounded on any graph size
  /// (capped at n entries — beyond that every source is already
  /// memoized). 0 disables cross-query pass reuse.
  ///
  /// When the capacity is below n (0 included), calls that read one
  /// target — a single-vertex Estimate, or an EstimateBatch/EstimateMany
  /// naming one vertex — run target-scoped passes on unweighted graphs
  /// (DependencyOracle::set_scoped_reads): each records and sweeps only
  /// the DAG below the target, and the memo keeps its answer as a scalar
  /// (source, target, delta) entry instead of whole vectors, so such
  /// entries cost no vector memory. Multi-target calls, exact builds and
  /// capacity-n engines run full passes. A nonzero capacity below n also
  /// enables zero screens on undirected unweighted graphs: once a target
  /// has paid deg(r) + 1 scoped misses, the memo keeps the set of sources
  /// whose dependency on it is zero, and those reads cost no pass (see
  /// DependencyOracle). Only work accounting (sp_passes, cache_hit,
  /// screened_reads) depends on this; reports are bit-identical.
  std::size_t dependency_cache_bytes = std::size_t{256} << 20;  // 256 MiB
  /// Worker threads for the engine's two parallel builds: the exact
  /// Brandes scores and the RK credit batches. 0 = one per hardware
  /// thread, 1 = fully sequential. Statistical report fields are
  /// bit-identical at every setting — see the file comment for the exact
  /// contract.
  unsigned num_threads = 1;
  /// Shortest-path kernel tuning — BFS direction switching unweighted,
  /// canonical-wave delta-stepping bucket width weighted — applied to every
  /// pass the engine (its samplers and exact builds) runs. spd.num_threads
  /// is the width of one pass on the serial path (default 1, sequential)
  /// and never follows num_threads; the parallel builds force per-worker
  /// passes sequential (see the file comment). Off the determinism key:
  /// all settings produce bit-identical reports.
  SpdOptions spd;
};

/// Registry metadata for one estimator. The registry is the single
/// dispatch table the engine, CLI tools, benches, and tests share, keyed
/// by both EstimatorKind and its stable string name.
struct EstimatorEntry {
  EstimatorKind kind;
  /// EstimatorKindName(kind): "exact", "mh", "mh-rb", ...
  const char* name;
  /// One-line description for CLI help / bench tables.
  const char* summary;
  /// False for estimators restricted to unweighted graphs.
  bool supports_weighted;
  /// False for estimators restricted to undirected graphs (their
  /// unbiasedness argument needs symmetric distances).
  bool supports_directed;
  /// True for the MH chain family (acceptance rate / ESS diagnostics).
  bool chain_based;
};

/// All registered estimators, in AllEstimatorKinds() order.
const std::vector<EstimatorEntry>& EstimatorRegistry();

/// Registry lookup by kind; never null for a valid kind.
const EstimatorEntry* FindEstimator(EstimatorKind kind);

/// Registry lookup by stable name; null for unknown names.
const EstimatorEntry* FindEstimator(const std::string& name);

/// InvalidArgument when `graph` is weighted or directed and `entry` does
/// not support that; the check BetweennessEngine::Estimate runs before any
/// pass, shared so front ends can classify the failure as a usage error.
Status CheckEstimatorSupportsGraph(const EstimatorEntry& entry,
                                   const CsrGraph& graph);

/// Reusable estimation session bound to one graph. See file comment.
class BetweennessEngine {
 public:
  /// The graph must outlive the engine. Construction is O(1); all
  /// per-estimator state is built lazily on first use. A non-null `memo`
  /// is shared with every other engine given it. Precondition: they serve
  /// the same graph and all rebind to each edit batch before any of them
  /// reads again (see the file comment). The memo keeps no epoch, so an
  /// engine that reads while lagging a batch is served entries of another
  /// graph: wrong answers, not extra misses (a debug guard traps only a
  /// vertex-count mismatch). Null gives the engine a private memo.
  explicit BetweennessEngine(const CsrGraph& graph,
                             EngineOptions options = EngineOptions(),
                             std::shared_ptr<DependencyMemo> memo = nullptr);
  ~BetweennessEngine();

  BetweennessEngine(const BetweennessEngine&) = delete;
  BetweennessEngine& operator=(const BetweennessEngine&) = delete;

  /// Estimates the (paper-normalized) betweenness of vertex r.
  ///
  /// Fails with InvalidArgument, before any pass runs, for out-of-range r,
  /// empty/ill-formed budgets, or an estimator that does not support the
  /// graph (CheckEstimatorSupportsGraph: e.g. linear-scaling sampling on
  /// weighted or directed graphs). The graph should be connected for
  /// meaningful scores (the paper's model); disconnected graphs are
  /// allowed and treat cross-component pairs as zero.
  StatusOr<EstimateReport> Estimate(VertexId r, const EstimateRequest& request);

  /// Serves heterogeneous requests (each naming its vertex in
  /// `request.vertex`) in order through Estimate and the shared caches.
  /// Validates every request first: one invalid request fails the batch
  /// before any work.
  StatusOr<std::vector<EstimateReport>> EstimateBatch(
      const std::vector<EstimateRequest>& requests);

  /// One request applied to many vertices — EstimateBatch with `request`
  /// per vertex, the serving shape setup amortizes best over (for
  /// kShortestPath, all vertices after the first are served from the
  /// shared credit vector at zero passes).
  StatusOr<std::vector<EstimateReport>> EstimateMany(
      const std::vector<VertexId>& vertices, const EstimateRequest& request);

  /// Relative betweenness scores and ratios for `targets` via the paper's
  /// joint-space sampler (§4.3). The last result is cached keyed on
  /// (targets, iterations, seed), so asking for scores and then a ranking
  /// runs the chain once.
  StatusOr<JointResult> EstimateRelative(const std::vector<VertexId>& targets,
                                         std::uint64_t iterations,
                                         std::uint64_t seed = 0x5eed);

  /// Ranks `targets` by the joint-space chain's Copeland scores; returns
  /// indices into `targets`, most central first. Ties keep input order
  /// (RankOrderFromScores contract).
  StatusOr<std::vector<std::size_t>> RankTargets(
      const std::vector<VertexId>& targets, std::uint64_t iterations,
      std::uint64_t seed = 0x5eed);

  /// Approximate top-k betweenness vertices via shortest-path sampling at
  /// the VC-dimension budget for (eps, delta) uniform accuracy. The
  /// diameter probe and the credit vector are cached, so repeat calls
  /// (any k) cost no new passes.
  StatusOr<std::vector<TopKEntry>> TopK(std::uint32_t k, double eps = 0.02,
                                        double delta = 0.1,
                                        std::uint64_t seed = 0x5eed);

  /// Applies a batched edit script to the served graph, atomically: on any
  /// invalid op (duplicate insert, missing removal, self-loop,
  /// out-of-range vertex) the engine and its caches are left untouched.
  /// On success the graph epoch advances, state bound to the pre-edit
  /// graph is dropped or selectively invalidated (see the file comment's
  /// mutation contract), and subsequent queries serve the post-edit graph
  /// bit-identically to a cold engine built on it. An empty delta is a
  /// no-op that keeps the epoch. Not for an engine rebound through Rebind:
  /// it would edit its own copy, not the shared graph.
  Status ApplyDelta(const GraphDelta& delta);

  /// Rebinds the engine to `edited`, the graph after the non-empty
  /// resolved batch `resolved` (DynamicGraph::Apply output) was applied to
  /// graph(), which may be the same object, already rewritten. Drops or
  /// selectively invalidates cached state exactly like ApplyDelta and
  /// advances the epoch. `edited` must outlive the engine.
  void Rebind(const CsrGraph& edited, std::span<const GraphEdit> resolved);

  /// Number of successful non-empty ApplyDelta or Rebind batches so far.
  std::uint64_t graph_epoch() const { return graph_epoch_; }

  const CsrGraph& graph() const { return *graph_; }
  const EngineOptions& options() const { return options_; }

  /// Total shortest-path passes this engine has executed, over all
  /// estimators and queries (setup passes included): the shared oracle's
  /// passes plus those of the builds that run their own (exact scores, RK
  /// credit batches, diameter probes).
  std::uint64_t total_sp_passes() const;

  /// Dependencies served from the shared memo instead of a pass.
  std::uint64_t dependency_cache_hits() const;

  /// Dependencies a zero screen answered as zero without a pass (not
  /// counted in dependency_cache_hits()).
  std::uint64_t screened_reads() const;

 private:
  struct RkCredit;     // cached all-vertices RK credit vector
  struct JointCache;   // cached joint-space result

  Status ValidateRequest(VertexId r, const EstimateRequest& request) const;

  /// Estimate's body. `one_target_call` is true when the engine call
  /// reads r alone (Estimate, or a batch naming one vertex): with a memo
  /// that cannot hold every source, its oracle reads are target-scoped.
  StatusOr<EstimateReport> EstimateTarget(VertexId r,
                                          const EstimateRequest& request,
                                          bool one_target_call);
  Status ValidateTargets(const std::vector<VertexId>& targets,
                         std::uint64_t iterations) const;

  /// Dependency-memo entry capacity for `graph` under the byte budget
  /// (entries also carry the pass distances for edit invalidation).
  std::size_t DependencyCacheEntries(const CsrGraph& graph) const;

  /// options_.num_threads resolved (0 -> hardware concurrency).
  unsigned resolved_threads() const;
  /// Lazily-built worker pool (resolved_threads() wide).
  ThreadPool* pool();

  // Lazily-built shared state.
  DependencyOracle* oracle();
  MhBetweennessSampler* mh_sampler();
  UniformSourceSampler* uniform_sampler();
  DistanceProportionalSampler* distance_sampler();
  RkSampler* rk_sampler();
  GeisbergerSampler* geisberger_sampler();
  const std::vector<double>& exact_scores();
  std::uint32_t vertex_diameter(std::uint64_t seed);

  /// Returns the all-vertices RK credit vector for (samples, seed) with
  /// its per-vertex standard errors, serving the cache when the key
  /// matches and (re)building it through the batched accumulation
  /// otherwise — one construction path, so a cache serve is always
  /// bit-identical to a rebuild.
  const RkCredit& EnsureRkCredit(std::uint64_t samples, std::uint64_t seed,
                                 bool* served_from_cache);

  /// Runs `count` more samples of iid `kind` for vertex r, continuing the
  /// current sampler stream, and returns the batch estimate.
  double RunBatch(EstimatorKind kind, VertexId r, std::uint64_t count);

  /// The two serving loops, one per estimator family, each running every
  /// budget under one stop rule. ServeChain serves mh / mh-rb: one chain
  /// for kSamples, reseeded doubling chains for the adaptive budgets.
  /// ServeBatches serves the iid source samplers, and RK under adaptive
  /// budgets: near-equal batches for kSamples, fixed-size batches until
  /// the stop rule fires otherwise.
  void ServeChain(VertexId r, const EstimateRequest& request,
                  EstimateReport* report);
  void ServeBatches(VertexId r, const EstimateRequest& request,
                    EstimateReport* report);

  const CsrGraph* graph_;
  EngineOptions options_;

  /// Mutation substrate, created by the first ApplyDelta; from then on
  /// graph_ points at its CSR. Engines rebound through Rebind have none.
  std::unique_ptr<DynamicGraph> dynamic_;
  std::uint64_t graph_epoch_ = 0;

  /// Shared dependency memo handed to the oracle; null = private.
  std::shared_ptr<DependencyMemo> memo_;
  std::unique_ptr<DependencyOracle> oracle_;
  std::unique_ptr<MhBetweennessSampler> mh_;
  std::unique_ptr<UniformSourceSampler> uniform_;
  std::unique_ptr<DistanceProportionalSampler> distance_;
  std::unique_ptr<RkSampler> rk_;
  std::unique_ptr<GeisbergerSampler> geisberger_;

  std::vector<double> exact_scores_;
  bool exact_ready_ = false;
  std::optional<std::uint32_t> vertex_diameter_;
  std::uint64_t diameter_seed_ = 0;
  std::unique_ptr<RkCredit> rk_credit_;
  std::unique_ptr<JointCache> joint_cache_;

  /// Worker pool for the parallel builds, lazily built.
  std::unique_ptr<ThreadPool> pool_;

  /// Passes run outside the shared oracle (exact build, RK credit
  /// batches, probes).
  std::uint64_t extra_passes_ = 0;
};

}  // namespace mhbc
