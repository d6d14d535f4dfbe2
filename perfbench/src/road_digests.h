#pragma once

#include <cstdint>

// Reference digests of the exact-road graphs, printed by
// `perfbench --print-road-digests` with the sequential ExactBetweenness
// (paper normalization). Unweighted: MakeGrid(kRoadSide, kRoadSide).
// Weighted: that grid under AssignUniformWeights(1, 10, kRoadWeightSeed).

namespace perfbench {

inline constexpr int kDigestVertices = 12;
inline constexpr std::uint32_t kRoadSide = 70;
inline constexpr std::uint64_t kRoadWeightSeed = 0;

struct RoadDigest {
  bool weighted;
  std::uint64_t weight_seed;
  std::uint32_t side;
  double sum;
  double max;
  std::uint32_t vertices[kDigestVertices];
  double values[kDigestVertices];
};

inline constexpr RoadDigest kRoadDigests[] = {
    {false, 0, 70, 45.666666666666664, 0.020825632421166709,
     {602, 1715, 3445, 1393, 1831, 3358, 2636, 4624, 456, 1579, 2090, 1013},
     {0.0081224807179295228, 0.018597854058964511, 0.011984779649212544, 0.0060303914189377842, 0.010386182236179839, 0.0017055945706655438, 0.018086315135680753, 0.0021136157015536955, 0.0065417206108052345, 0.017447326902581391, 0.0090185046549836594, 0.012932050823330868}},
    {true, 0, 70, 48.531067148231088, 0.12017038046081874,
     {602, 1715, 3445, 1393, 1831, 3358, 2636, 4624, 456, 1579, 2090, 1013},
     {0.0018216962228859701, 0.0013630436865499414, 0.00011880808661492766, 0.00029802000408246583, 5.9987252708799379e-06, 0.00056304701917509197, 0.042006656918738103, 0.0011372583326043216, 0.010613244685504329, 0.06224852218903483, 0.01832802196199974, 0.011022324422726838}},
};

}  // namespace perfbench
