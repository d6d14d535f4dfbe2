#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "graph/csr_graph.h"
#include "util/status.h"

/// \file
/// Shared request-field validation for every serving surface.
///
/// The CLI (examples/mhbc_tool.cpp) and the query daemon (serve/server.h)
/// accept the same logical fields — vertex-id lists, sample/seed counts,
/// estimator names, deadline budgets, thread counts — and the contract is
/// that both surfaces reject identical malformed inputs with identical
/// messages. These helpers are the single implementation of that
/// validation; neither surface is allowed to hand-roll strtoull-style
/// parsing (which silently turns "12x" into 12 and "junk" into 0).
///
/// Every function returns Status/StatusOr with a message that names the
/// field and the offending value, so a caller can surface it verbatim as
/// a usage error (CLI) or a `field`-class protocol error (daemon).

namespace mhbc::serve {

/// Strict CSV vertex-id list ("3,17,42"). Wraps
/// ParseVertexIdListStrict (graph/graph_io.h): non-numeric tokens,
/// ids >= kInvalidVertex, and empty lists all fail with a message
/// starting "no vertex ids".
StatusOr<std::vector<VertexId>> ParseVertexListField(const std::string& csv);

/// Rejects any id >= n with an InvalidArgument naming the id and the
/// valid range — the one range-check message both surfaces emit.
Status ValidateVertexIds(const std::vector<VertexId>& ids, VertexId n);

/// Digits-only non-negative integer field (samples, seed, iterations,
/// k, --threads, ...). `name` labels the messages ("--threads expects a
/// non-negative integer, got 'x'"); values above `max` are rejected as
/// implausibly large.
StatusOr<std::uint64_t> ParseCountField(const std::string& name,
                                        const std::string& text,
                                        std::uint64_t max);

/// Real-valued field (eps, delta, generator probabilities, bench
/// tuning values): the whole token must parse as a finite double, so
/// "0.1x", "abc", "inf", "nan" and an overflowing "1e999" all fail
/// ("eps expects a finite number, got '0.1x'"). Range checks stay with
/// the caller.
StatusOr<double> ParseRealField(const std::string& name,
                                const std::string& text);

/// Estimator registry lookup with the uniform unknown-name message
/// ("unknown estimator 'x' ...").
StatusOr<EstimatorKind> ParseEstimatorField(const std::string& name);

/// A request's deadline budget in milliseconds: must be finite and
/// >= 0. (0 is *valid* here — it means "already expired", which
/// admission then rejects with the deadline error class; negative and
/// non-finite values are malformed fields.)
Status ValidateDeadlineMs(double deadline_ms);

/// A request's priority: integers in [0, 9], higher served first.
Status ValidatePriority(std::int64_t priority);

/// Upper bound ParseCountField enforces for thread-count flags — shared
/// by --threads / --spd-threads / --workers so every surface agrees on
/// what "implausibly large" means.
inline constexpr std::uint64_t kMaxThreadCount = 4096;

}  // namespace mhbc::serve
