#include "serve/request_fields.h"

#include <cmath>
#include <cstdlib>

#include "graph/graph_io.h"

namespace mhbc::serve {

StatusOr<std::vector<VertexId>> ParseVertexListField(const std::string& csv) {
  return ParseVertexIdListStrict(csv);
}

Status ValidateVertexIds(const std::vector<VertexId>& ids, VertexId n) {
  for (const VertexId id : ids) {
    if (id >= n) {
      return Status::InvalidArgument(
          "vertex id " + std::to_string(id) + " out of range [0, " +
          std::to_string(n) + ")");
    }
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> ParseCountField(const std::string& name,
                                        const std::string& text,
                                        std::uint64_t max) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(name +
                                   " expects a non-negative integer, got '" +
                                   text + "'");
  }
  // 20 digits can overflow unsigned 64-bit; strtoull saturates, so cap
  // the digit count first and let the max check speak for the rest.
  if (text.size() > 20) {
    return Status::InvalidArgument(name + "=" + text +
                                   " is implausibly large (max " +
                                   std::to_string(max) + ")");
  }
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (value > max) {
    return Status::InvalidArgument(name + "=" + text +
                                   " is implausibly large (max " +
                                   std::to_string(max) + ")");
  }
  return static_cast<std::uint64_t>(value);
}

StatusOr<double> ParseRealField(const std::string& name,
                                const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return Status::InvalidArgument(name + " expects a finite number, got '" +
                                   text + "'");
  }
  return value;
}

StatusOr<EstimatorKind> ParseEstimatorField(const std::string& name) {
  EstimatorKind kind = EstimatorKind::kMetropolisHastings;
  if (!ParseEstimatorKind(name, &kind)) {
    return Status::InvalidArgument("unknown estimator '" + name +
                                   "' (see: mhbc_tool estimators)");
  }
  return kind;
}

Status ValidateDeadlineMs(double deadline_ms) {
  if (!std::isfinite(deadline_ms) || deadline_ms < 0.0) {
    return Status::InvalidArgument(
        "deadline_ms must be a finite non-negative number of milliseconds");
  }
  return Status::Ok();
}

Status ValidatePriority(std::int64_t priority) {
  if (priority < 0 || priority > 9) {
    return Status::InvalidArgument("priority must be an integer in [0, 9]");
  }
  return Status::Ok();
}

}  // namespace mhbc::serve
