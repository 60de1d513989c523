// hill_climb_reference() — the executable specification of Algorithm 1,
// kept in test code only.
//
// The seed implementation of the solver: a full O(rows x cols) delta scan
// per iteration, refreshing the dirty region after each move. The
// differential tests and the solver_scaling bench hold the production
// hill_climb() (core/hill_climb.hpp) to its move trace.
#pragma once

#include <vector>

#include "core/hill_climb.hpp"

namespace easched::core {

/// The executable specification (the seed implementation): full-matrix
/// scan each iteration. O(moves x rows x cols); use hill_climb() instead.
template <typename Model>
HillClimbStats hill_climb_reference(Model& model,
                                    const HillClimbLimits& limits) {
  HillClimbStats stats;
  const int rows = model.rows();
  const int cols = model.cols();
  if (cols == 0 || rows <= 1) return stats;

  // Cache of Score(h, vm) under the current plan.
  std::vector<double> score(static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(cols));
  const auto at = [cols](int r, int c) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) score[at(r, c)] = model.cell(r, c);
  }

  while (stats.moves < limits.max_moves) {
    // Scan for the most negative delta ("smallest position on CM").
    int best_r = -1, best_c = -1;
    double best_delta = -limits.min_gain;
    for (int c = 0; c < cols; ++c) {
      if (!model.movable(c)) continue;
      const bool is_migration = model.original_row(c) != model.virtual_row();
      if (is_migration &&
          stats.migration_moves >= limits.max_migration_moves) {
        continue;
      }
      const double threshold =
          is_migration ? -limits.min_migration_gain : -limits.min_gain;
      const double keep = score[at(model.plan_row(c), c)];
      for (int r = 0; r < rows; ++r) {
        if (r == model.plan_row(c) || r == model.virtual_row()) continue;
        const double delta = score[at(r, c)] - keep;
        if (delta < best_delta && delta <= threshold) {
          best_delta = delta;
          best_r = r;
          best_c = c;
        }
      }
    }
    if (best_c < 0) break;  // no negative values remain

    if (model.original_row(best_c) != model.virtual_row()) {
      ++stats.migration_moves;
    }
    const int from = model.plan_row(best_c);
    const auto dirty = model.move(best_r, best_c);
    ++stats.moves;
    stats.total_gain -= best_delta;
    stats.trace.push_back({best_c, from, best_r, best_delta});

    // Refresh the dirty region: the moved VM's column and every cell of the
    // two affected rows (their occupation changed for all columns).
    for (int r = 0; r < rows; ++r) {
      score[at(r, dirty.col)] = model.cell(r, dirty.col);
    }
    for (int c = 0; c < cols; ++c) {
      if (dirty.row_a >= 0) score[at(dirty.row_a, c)] = model.cell(dirty.row_a, c);
      if (dirty.row_b >= 0) score[at(dirty.row_b, c)] = model.cell(dirty.row_b, c);
    }
  }
  stats.hit_move_limit = stats.moves >= limits.max_moves;
  return stats;
}

}  // namespace easched::core
