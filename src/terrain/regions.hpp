#pragma once
// Regional terrain presets. The paper instantiates cISP over the contiguous
// United States (§4) and Europe (§6.2); these presets define the bounding
// boxes and the synthetic mountain systems for both.

#include <string>

#include "terrain/heightfield.hpp"

namespace cisp::terrain {

/// A named geographic region with its terrain generator parameters.
struct Region {
  std::string name;
  BoundingBox box;
  SyntheticTerrain::Params terrain_params;

  /// Default raster resolution for hop-feasibility sweeps, degrees.
  double raster_cell_deg = 0.02;

  [[nodiscard]] SyntheticTerrain make_terrain() const {
    return SyntheticTerrain(terrain_params);
  }
};

/// Contiguous United States: Rockies, Sierra Nevada, Cascades, Appalachians,
/// Great Basin plateau. seed parameterizes the fBm detail only — the
/// mountain systems are fixed geography.
[[nodiscard]] Region contiguous_us(std::uint64_t seed = 2022);

/// Europe (Atlantic to ~32°E): Alps, Pyrenees, Carpathians, Apennines,
/// Dinarides, Scandes.
[[nodiscard]] Region europe(std::uint64_t seed = 2022);

/// Flat featureless terrain (for unit tests and controlled experiments).
[[nodiscard]] Region flatland(const BoundingBox& box);

}  // namespace cisp::terrain
