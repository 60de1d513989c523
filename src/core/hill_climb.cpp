#include "core/hill_climb.hpp"

#include "core/score_matrix.hpp"

namespace easched::core {

// The instantiation the library itself uses; keeps the template honest
// even in builds that only link the library.
template HillClimbStats hill_climb<ScoreModel>(ScoreModel&,
                                               const HillClimbLimits&);

}  // namespace easched::core
